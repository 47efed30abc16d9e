//! `llc-coord`: the coordinated bandwidth × LLC-way extension on the
//! 4-application `cache-2` mix under a 16-way, 1 MB shared LLC.
//!
//! Set-up samples the mix's miss-ratio curves (`MrcSampler::sample_mix`),
//! runs the standalone ground truth, and solves the coordinated
//! optimum. Each op enforces one (way split, β) point of a grid around
//! that optimum and the fair split with `Runner::run_with_allocation`.

use std::time::{Duration, Instant};

use bwpart_cmp::{
    CacheConfig, CmpConfig, CmpSystem, LlcConfig, PhaseConfig, RunObserver, Runner, SimOutcome,
};
use bwpart_core::prelude::*;
use bwpart_core::schemes::validate_shares;
use bwpart_experiments::harness::ExpConfig;
use bwpart_mc::Policy;
use bwpart_workloads::mixes::cache_mixes;
use bwpart_workloads::mrcprobe::fit_profile;
use bwpart_workloads::{Mix, MrcSampler};

use crate::digest::{digest, note_failure, well_formed, DigestCheck};
use crate::layers::{replay, Layers, ReplayCell, SimCounters};
use crate::measure::{input_seed, median, run_passes, timed_setup, EndToEnd, Proc, Report};
use crate::{serve, Args};

const WORKLOAD: &str = "llc-coord";
const REFERENCE: &str = include_str!("../reference/llc-coord.tsv");
/// Percentile reported as `tail_us`.
pub const TAIL_PCT: f64 = 95.0;
const SETUP_REPS: usize = 5;
const WAYS: usize = 16;

/// The shared LLC every cache experiment partitions: 1 MB, 16 ways.
pub fn llc_config() -> LlcConfig {
    LlcConfig {
        cache: CacheConfig {
            capacity: 1024 * 1024,
            ways: WAYS,
            line_bytes: 64,
        },
        hit_penalty: 12,
    }
}

/// `ExpConfig::fast()` phases with the sampler's 3 M-cycle warm-up: at
/// fast phases the 1 MB LLC is still filling when measurement starts
/// (hit ratio ≈ 0), so it would filter no DRAM traffic.
fn runner() -> Runner {
    Runner {
        cmp: CmpConfig {
            llc: Some(llc_config()),
            ..CmpConfig::default()
        },
        phases: PhaseConfig {
            warmup: MrcSampler::new(llc_config()).warmup,
            ..ExpConfig::fast().phases
        },
    }
}

fn sampler(seed: u64) -> MrcSampler {
    MrcSampler {
        seed: input_seed(0xC0DE, seed),
        ..MrcSampler::new(llc_config())
    }
}

/// One enforced (way split, β) point.
struct Point {
    label: String,
    ways: Vec<usize>,
    beta: Vec<f64>,
}

struct Setup {
    mix: Mix,
    /// Workload seed of every op.
    seed: u64,
    profiles: Vec<CacheAwareProfile>,
    apc_alone: Vec<f64>,
    api: Vec<f64>,
    bandwidth: f64,
    points: Vec<Point>,
}

fn setup(seed: u64, tiny: bool) -> Result<Setup, String> {
    let mix = cache_mixes()
        .into_iter()
        .find(|m| m.name == "cache-2")
        .ok_or("no cache-2 mix")?;
    let profiles = sampler(seed).sample_mix(&mix).map_err(|e| e.to_string())?;
    let r = runner();
    let wseed = input_seed(0xE2E, seed);
    let mut apc_alone = Vec::new();
    let mut api = Vec::new();
    for p in mix.profiles() {
        let alone = r.run_alone(p.spawn(wseed), p.core_config());
        if !(alone.apc_alone > 0.0 && alone.api > 0.0) {
            return Err(format!("standalone {}: no memory traffic", p.name));
        }
        apc_alone.push(alone.apc_alone);
        api.push(alone.api);
    }
    // The streamer saturates the bus standalone: its rate estimates B.
    let bandwidth = apc_alone.iter().cloned().fold(f64::MIN, f64::max);
    let coord = solve_coordinated(&profiles, &CoordConfig::new(bandwidth, WAYS))
        .map_err(|e| format!("coordinated solve: {e}"))?;
    let mut points = point_grid(&profiles, &coord, bandwidth)?;
    if tiny {
        points.truncate(4);
    }
    Ok(Setup {
        mix,
        seed: wseed,
        profiles,
        apc_alone,
        api,
        bandwidth,
        points,
    })
}

/// The optimum, the fair split, and every move of one or two ways from
/// one application to another around each; β is the square-root solve
/// on the profiles materialized at each split (the optimum keeps the
/// solver's own β).
fn point_grid(
    profiles: &[CacheAwareProfile],
    coord: &CoordOutcome,
    b: f64,
) -> Result<Vec<Point>, String> {
    let n = profiles.len();
    let fair = vec![WAYS / n; n];
    let mut splits = vec![coord.ways.clone(), fair.clone()];
    for base in [&coord.ways, &fair] {
        for k in 1..=2 {
            for from in 0..n {
                for to in 0..n {
                    if from != to && base[from] > k {
                        let mut w = base.clone();
                        w[from] -= k;
                        w[to] += k;
                        if !splits.contains(&w) {
                            splits.push(w);
                        }
                    }
                }
            }
        }
    }
    splits
        .into_iter()
        .map(|ways| {
            let beta = if ways == coord.ways {
                coord.bandwidth.beta.clone()
            } else {
                let apps = profiles
                    .iter()
                    .zip(&ways)
                    .map(|(p, &w)| p.profile_at(w as f64, 1.0))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| e.to_string())?;
                PartitionScheme::SquareRoot
                    .shares(&apps, b)
                    .map_err(|e| e.to_string())?
            };
            let label = format!(
                "w{}",
                ways.iter()
                    .map(|w| w.to_string())
                    .collect::<Vec<_>>()
                    .join("-")
            );
            Ok(Point { label, ways, beta })
        })
        .collect()
}

impl Setup {
    fn op(&self, p: &Point) -> SimOutcome {
        let (workloads, core_cfgs) = self.mix.build(1, self.seed);
        runner().run_with_allocation(
            p.beta.clone(),
            Some(&p.ways),
            &p.label,
            workloads,
            core_cfgs,
            self.apc_alone.clone(),
            self.api.clone(),
        )
    }
}

/// The point is a certified allocation and the op's outcome is well
/// formed and repeats its digest.
fn check(checks: &mut DigestCheck, p: &Point, out: &SimOutcome) -> bool {
    let result = validate_shares(&p.beta, p.ways.len())
        .map_err(|e| format!("{}: {e}", p.label))
        .and_then(|()| {
            if p.ways.iter().sum::<usize>() == WAYS && p.ways.iter().all(|&w| w >= 1) {
                Ok(())
            } else {
                Err(format!("{}: ways do not split the LLC", p.label))
            }
        })
        .and_then(|()| checks.check(&p.label, &digest(out)))
        .and_then(|()| well_formed(out, None));
    if let Err(e) = &result {
        note_failure(WORKLOAD, e);
    }
    result.is_ok()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let reps = if args.tiny || args.trace {
        1
    } else {
        SETUP_REPS
    };
    let (s, setup_s, setup_host) = timed_setup(reps, || setup(args.seed, args.tiny))?;
    let reference = (args.seed == 0 && !args.write_reference).then_some(REFERENCE);
    let mut checks = DigestCheck::new(reference);
    if args.trace {
        return traced(args, &s, &mut checks);
    }
    let me = Proc::me();
    let cpu0 = me.cpu_seconds()?;
    let (log, wall_s, host) = run_passes(args.seconds, s.points.len(), |i| {
        let p = &s.points[i];
        let start = Instant::now();
        let out = s.op(p);
        let latency = start.elapsed();
        (latency, check(&mut checks, p, &out))
    });
    // The host-speed kernel is pure CPU on this thread: its wall time is
    // its CPU time.
    let cpu_s = me.cpu_seconds()? - cpu0 - host.spent().as_secs_f64();
    if args.write_reference {
        checks.write_reference(WORKLOAD)?;
    }
    Ok(EndToEnd {
        setup_s,
        setup_host,
        log,
        wall_s,
        cpu_s,
        host,
        peak_rss_mb: me.peak_rss_mb()?,
        tail_pct: TAIL_PCT,
    }
    .report())
}

/// `Runner::run_with_allocation`, step by step, with a `RunObserver`
/// attached and spans around each phase. Returns the outcome, the op's
/// host time and the LLC's (hits, accesses) over the measured phase.
fn mirrored_op(
    l: &Layers,
    s: &Setup,
    p: &Point,
    sim: &mut SimCounters,
) -> (SimOutcome, Duration, (u64, u64)) {
    let ((workloads, core_cfgs), build) = l.span("workloads.build", || s.mix.build(1, s.seed));
    sim.add_build(build);
    let r = runner();
    let obs = RunObserver::new();
    let start = Instant::now();
    let n = workloads.len();
    let mut sys = CmpSystem::new(&r.cmp, workloads, core_cfgs, Policy::fcfs(n));
    sys.set_llc_ways(&p.ways);
    sys.attach_obs(&obs.registry);
    sys.set_hybrid_armed(false);
    let (_, warmup) = l.span("phase:warmup", || sys.run(r.phases.warmup));
    let (_, profile) = l.span("phase:profile", || sys.run(r.phases.profile));
    sys.set_hybrid_armed(true);
    sys.mc_mut().set_policy(Policy::stf(p.beta.clone()));
    sys.reset_phase_counters();
    let _ = sys.mc_mut().take_epoch_counters();
    let before = sys.snapshot();
    let (_, measure) = l.span("phase:measure", || sys.run(r.phases.measure));
    let after = sys.snapshot();
    let stats = sys.window_stats(&before, &after);
    let total_bandwidth =
        stats.iter().map(|s| s.mem_accesses).sum::<u64>() as f64 / r.phases.measure as f64;
    sys.publish_metrics(&obs.registry);
    let llc = sys.llc().map_or((0, 0), |c| {
        (0..n).fold((0, 0), |(h, a), i| {
            (h + c.counters(i).hits, a + c.counters(i).accesses())
        })
    });
    let op = start.elapsed();
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    sim.add(
        &obs.registry,
        r.cmp.dram.tck_cycles(),
        op,
        [us(warmup), us(profile), us(measure)],
    );
    let out = SimOutcome {
        scheme: p.label.clone(),
        stats,
        apc_alone_ref: s.apc_alone.clone(),
        api_ref: s.api.clone(),
        total_bandwidth,
    };
    (out, build + op, llc)
}

/// One pass over the points, each run untraced and then mirrored with
/// an observer; the sampling and solve of the set-up, step by step; the
/// layer replays; and the service layers.
fn traced(args: &Args, s: &Setup, checks: &mut DigestCheck) -> Result<Report, String> {
    let mut l = Layers::new();
    let mut sim = SimCounters::default();
    let (mut plain, mut traced) = (Duration::ZERO, Duration::ZERO);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut llc_hits, mut llc_accesses) = (0u64, 0u64);
    let mut measured: Vec<SimOutcome> = Vec::new();
    for p in &s.points {
        let start = Instant::now();
        let reference = s.op(p);
        plain += start.elapsed();
        let (out, d, (hits, accesses)) = mirrored_op(&l, s, p, &mut sim);
        traced += d;
        llc_hits += hits;
        llc_accesses += accesses;
        let apps = s
            .profiles
            .iter()
            .zip(&p.ways)
            .map(|(c, &w)| c.profile_at(w as f64, 1.0))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        const CALLS: u32 = 1000;
        let (_, sd) = l.span("core.policy_for", || {
            for _ in 0..CALLS {
                std::hint::black_box(Runner::policy_for(
                    PartitionScheme::SquareRoot,
                    &apps,
                    s.bandwidth,
                ));
            }
        });
        sim.add_shares(sd / CALLS);
        attempted += 1;
        let same = digest(&reference) == digest(&out);
        if !same {
            note_failure(WORKLOAD, &format!("{}: the mirrored op diverged", p.label));
        }
        if !(same && check(checks, p, &out)) {
            failed += 1;
        }
        measured.push(out);
    }
    sim.publish(&mut l);
    l.set(
        "trace.overhead_pct",
        (traced.as_secs_f64() / plain.as_secs_f64().max(1e-9) - 1.0) * 100.0,
        "%",
    );
    l.set("trace.coverage", sim.coverage(), "ratio");
    l.set(
        "cmp.llc.hit_ratio",
        llc_hits as f64 / llc_accesses.max(1) as f64,
        "ratio",
    );

    // Layer replays at the optimum and the fair split, at the rates the
    // ops measured.
    let make_cells = || {
        s.points
            .iter()
            .zip(&measured)
            .take(2)
            .map(|(p, out)| ReplayCell {
                ways: Some(p.ways.clone()),
                ..ReplayCell::from_outcome(s.mix.build(1, s.seed).0, out, p.beta.clone())
            })
            .collect()
    };
    let per_app = if args.tiny { 20_000 } else { 100_000 };
    replay(
        &mut l,
        &make_cells,
        5,
        per_app,
        llc_config(),
        &runner().cmp.dram,
        false,
    );

    let (service_attempted, service_failed) = serve::layers(&mut l, args)?;
    attempted += service_attempted;
    failed += service_failed;

    // This workload's own set-up: `sample_mix` as its probes, step by
    // step, and the 4-application coordinated solve.
    let sampler = sampler(args.seed);
    let mut probe_ms = Vec::new();
    for (bench, want) in s.mix.profiles().iter().zip(&s.profiles) {
        let mut points = Vec::new();
        for &w in &sampler.ways_grid {
            let (pt, d) = l.span("workloads.mrcprobe.probe_ways", || {
                sampler.probe_ways(bench, w)
            });
            points.push(pt);
            probe_ms.push(d.as_secs_f64() * 1e3);
        }
        let got = fit_profile(bench.name, &points).map_err(|e| e.to_string())?;
        if &got != want {
            failed += 1;
            note_failure(
                WORKLOAD,
                &format!("{}: probe-by-probe fit differs from sample_mix", bench.name),
            );
        }
    }
    l.set("workloads.mrcprobe.probe_ms", median(&probe_ms), "ms");
    let mut solve_us = Vec::new();
    for _ in 0..20 {
        let (res, d) = l.span("core.coord.solve", || {
            solve_coordinated(&s.profiles, &CoordConfig::new(s.bandwidth, WAYS))
        });
        res.map_err(|e| e.to_string())?;
        solve_us.push(d.as_secs_f64() * 1e6);
    }
    l.set("core.coord.solve_us", median(&solve_us), "us");
    Ok(l.finish(WORKLOAD, args.seed, attempted, failed))
}
