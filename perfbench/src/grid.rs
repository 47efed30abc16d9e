//! `paper-grid`: the paper's Figure 2 grid — the 14 Table IV mixes under
//! the 7 paper schemes at `ExpConfig::fast()` phases. Each cell is one op
//! through `ExpConfig::run_one`; the ops run one at a time.
//!
//! Set-up is what every regeneration of the paper's results does first:
//! building the mixes and the Table III standalone profiling of the 16
//! benchmark twins (`Runner::run_alone`).

use std::time::{Duration, Instant};

use bwpart_cmp::{CmpConfig, RunObserver, Runner, ShareSource, SimOutcome};
use bwpart_core::prelude::*;
use bwpart_experiments::harness::ExpConfig;
use bwpart_workloads::{mixes, table3_profiles, Mix};

use crate::digest::{digest, note_failure, profiles_of, well_formed, DigestCheck};
use crate::layers::{phase_spans, replay, Layers, ReplayCell, SimCounters};
use crate::measure::{input_seed, run_passes, timed_setup, EndToEnd, Proc, Report};
use crate::{serve, Args};

const WORKLOAD: &str = "paper-grid";
const REFERENCE: &str = include_str!("../reference/paper-grid.tsv");
/// Percentile reported as `tail_us`.
pub const TAIL_PCT: f64 = 98.0;
/// Set-up repetitions per run (`setup_s` is their median).
const SETUP_REPS: usize = 5;

/// One grid cell.
struct Cell {
    mix: Mix,
    scheme: PartitionScheme,
}

impl Cell {
    fn label(&self) -> String {
        format!("{}/{}", self.mix.name, self.scheme.canonical_name())
    }
}

fn config(seed: u64) -> ExpConfig {
    ExpConfig {
        seed: input_seed(ExpConfig::default().seed, seed),
        ..ExpConfig::fast()
    }
}

/// The runner `ExpConfig::run_one` builds internally.
fn runner_of(cfg: &ExpConfig) -> Runner {
    Runner {
        cmp: CmpConfig {
            dram: cfg.dram.clone(),
            ..CmpConfig::default()
        },
        phases: cfg.phases,
    }
}

/// Build the mixes and profile every Table III twin standalone.
fn setup(cfg: &ExpConfig, tiny: bool) -> Result<Vec<Cell>, String> {
    let all = mixes::all_mixes();
    let runner = runner_of(cfg);
    for p in table3_profiles() {
        let alone = runner.run_alone(p.spawn(cfg.seed), p.core_config());
        let ipc = alone.ipc_alone;
        if !(ipc.is_finite() && ipc > 0.0 && alone.apc_alone > 0.0) {
            return Err(format!("standalone {}: IPC {ipc} is not positive", p.name));
        }
    }
    let take = if tiny { 2 } else { all.len() };
    Ok(all
        .into_iter()
        .take(take)
        .flat_map(|mix| {
            PartitionScheme::PAPER_SCHEMES.map(|scheme| Cell {
                mix: mix.clone(),
                scheme,
            })
        })
        .collect())
}

/// All checks of one op's outcome.
fn check(checks: &mut DigestCheck, cell: &Cell, out: &SimOutcome) -> bool {
    let result = checks
        .check(&cell.label(), &digest(out))
        .and_then(|()| well_formed(out, Some(cell.scheme)));
    if let Err(e) = &result {
        note_failure(WORKLOAD, e);
    }
    result.is_ok()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let cfg = config(args.seed);
    let reps = if args.tiny || args.trace {
        1
    } else {
        SETUP_REPS
    };
    let (cells, setup_s, setup_host) = timed_setup(reps, || setup(&cfg, args.tiny))?;
    let reference = (args.seed == 0 && !args.write_reference).then_some(REFERENCE);
    let mut checks = DigestCheck::new(reference);
    if args.trace {
        return traced(args, &cfg, &cells, &mut checks);
    }
    let me = Proc::me();
    let cpu0 = me.cpu_seconds()?;
    let (log, wall_s, host) = run_passes(args.seconds, cells.len(), |i| {
        let cell = &cells[i];
        let start = Instant::now();
        let out = cfg.run_one(&cell.mix, cell.scheme);
        let latency = start.elapsed();
        (latency, check(&mut checks, cell, &out))
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

/// One traced op: the mix built under a span, then
/// `Runner::run_scheme_traced` with a `RunObserver` attached; folds the
/// observer's counts and phase spans into `sim` and times
/// `Runner::policy_for` on the op's profiles. Returns the outcome and
/// the op's host time (build included).
pub fn traced_cell(
    l: &Layers,
    cfg: &ExpConfig,
    mix: &Mix,
    scheme: PartitionScheme,
    sim: &mut SimCounters,
) -> Result<(SimOutcome, Duration), String> {
    let ((workloads, core_cfgs), build) =
        l.span("workloads.build", || mix.build(cfg.copies, cfg.seed));
    sim.add_build(build);
    let obs = RunObserver::with_tracer(256);
    let op_start = Instant::now();
    let (out, op) = l.span(&format!("{}/{}", mix.name, scheme.canonical_name()), || {
        runner_of(cfg).run_scheme_traced(
            scheme,
            workloads,
            core_cfgs,
            ShareSource::OnlineProfile,
            Some(&obs),
        )
    });
    let phases = obs
        .tracer
        .as_ref()
        .map_or([0.0; 3], |t| phase_spans(t, op_start, l));
    sim.add(&obs.registry, cfg.dram.tck_cycles(), op, phases);

    let profiles = profiles_of(&out)?;
    let b = out.total_bandwidth.max(1e-9);
    const CALLS: u32 = 1000;
    let (_, d) = l.span("core.policy_for", || {
        for _ in 0..CALLS {
            std::hint::black_box(Runner::policy_for(scheme, &profiles, b));
        }
    });
    sim.add_shares(d / CALLS);
    Ok((out, build + op))
}

/// Layer replays of square-root cells: each mix's workloads fed through
/// every simulator layer at the rates the op measured.
fn replay_cells(l: &mut Layers, args: &Args, cfg: &ExpConfig, cells: &[(Mix, SimOutcome)]) {
    let make_cells = || {
        cells
            .iter()
            .map(|(mix, out)| {
                let shares = profiles_of(out)
                    .and_then(|p| {
                        PartitionScheme::SquareRoot
                            .shares(&p, out.total_bandwidth.max(1e-9))
                            .map_err(|e| e.to_string())
                    })
                    .unwrap_or_default();
                ReplayCell::from_outcome(mix.build(cfg.copies, cfg.seed).0, out, shares)
            })
            .collect()
    };
    let per_app = if args.tiny { 20_000 } else { 100_000 };
    replay(
        l,
        &make_cells,
        5,
        per_app,
        crate::llc::llc_config(),
        &cfg.dram,
        true,
    );
}

/// The simulator layers of a workload that does not simulate: one traced
/// square-root op of `mix` at paper-grid settings, and its replays.
pub fn sim_layers(l: &mut Layers, args: &Args, mix: &Mix) -> Result<(), String> {
    let cfg = config(args.seed);
    let mut sim = SimCounters::default();
    let (out, _) = traced_cell(l, &cfg, mix, PartitionScheme::SquareRoot, &mut sim)?;
    well_formed(&out, Some(PartitionScheme::SquareRoot))?;
    sim.publish(l);
    replay_cells(l, args, &cfg, &[(mix.clone(), out)]);
    Ok(())
}

/// One grid pass, each cell run untraced and then traced, followed by
/// the layer replays and the service layers.
fn traced(
    args: &Args,
    cfg: &ExpConfig,
    cells: &[Cell],
    checks: &mut DigestCheck,
) -> Result<Report, String> {
    let mut l = Layers::new();
    let mut sim = SimCounters::default();
    let (mut plain, mut traced) = (Duration::ZERO, Duration::ZERO);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut sqrt_cells: Vec<(Mix, SimOutcome)> = Vec::new();
    for cell in cells {
        let start = Instant::now();
        let reference = cfg.run_one(&cell.mix, cell.scheme);
        plain += start.elapsed();
        let (out, d) = traced_cell(&l, cfg, &cell.mix, cell.scheme, &mut sim)?;
        traced += d;
        attempted += 1;
        let same = digest(&reference) == digest(&out);
        if !same {
            note_failure(
                WORKLOAD,
                &format!("{}: the traced op diverged", cell.label()),
            );
        }
        if !(same && check(checks, cell, &out)) {
            failed += 1;
        }
        if cell.scheme == PartitionScheme::SquareRoot {
            sqrt_cells.push((cell.mix.clone(), out));
        }
    }
    sim.publish(&mut l);
    l.set(
        "trace.overhead_pct",
        (traced.as_secs_f64() / plain.as_secs_f64().max(1e-9) - 1.0) * 100.0,
        "%",
    );
    l.set("trace.coverage", sim.coverage(), "ratio");
    replay_cells(&mut l, args, cfg, &sqrt_cells);
    let (service_attempted, service_failed) = serve::layers(&mut l, args)?;
    attempted += service_attempted;
    failed += service_failed;
    Ok(l.finish(WORKLOAD, args.seed, attempted, failed))
}
