//! Perf-regression harness behind `cargo xtask bench`.
//!
//! Times three canonical workloads — one mix end-to-end, one full scheme
//! sweep and one coordinated-enforcement sweep under a shared LLC — in
//! *seed* mode (single-threaded pool, per-cycle stepping, the behaviour
//! before the performance work) and in the *optimized* default mode
//! (work-stealing pool + per-core clocks), times three seeded replays
//! through [`Cache`] alone and the two DRAM queries the memory controller
//! makes about a queued request, then emits the machine-readable
//! [`BenchReport`] that `bench_sim` writes to `BENCH_sim.json`.
//!
//! Methodology notes:
//!
//! * **Best-of-N, interleaved.** Wall times on a shared machine fluctuate
//!   by ±10 %; each mode runs `reps` times with modes alternating, and the
//!   minimum is reported. The minimum is the right statistic for "how fast
//!   can this code go" — noise only ever adds time.
//! * **Bit-identical outcomes.** Every rep's outcomes are serialized and
//!   compared against the baseline's: the harness panics on any divergence,
//!   so a timing report doubles as a determinism check (parallel + skip vs
//!   sequential + per-cycle).

use std::time::{Duration, Instant};

use bwpart_cmp::{
    Cache, CacheConfig, CmpConfig, LlcConfig, PhaseConfig, RunObserver, Runner, ShareSource,
    SimOutcome,
};
use bwpart_core::schemes::PartitionScheme;
use bwpart_dram::{DramConfig, DramSystem, MemTransaction, RowLocation};
use bwpart_workloads::mixes::{cache_mixes, fig1_mix};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Seed shared by every benchmark run so baseline and optimized modes
/// simulate exactly the same instruction streams.
const SEED: u64 = 0xB417_2013;

/// Wall time and throughput for one mode of one benchmark case.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModeResult {
    /// Best-of-N wall-clock time in milliseconds.
    pub wall_ms: f64,
    /// Simulated CPU cycles per wall-clock second at that best time.
    pub cycles_per_sec: f64,
}

/// The pool/host environment a case was measured under. `cargo xtask
/// bench --check` refuses to compare cases whose environments differ —
/// the committed `BENCH_sim.json` numbers come from a 1-core CI
/// container, and comparing them against a 16-core workstation (or a
/// differently-configured pool) is drift, not regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaseEnv {
    /// Worker threads the optimized mode's pool used.
    pub threads: usize,
    /// Host logical core count at measurement time.
    pub host_cores: usize,
}

/// One benchmark case measured in both modes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchCase {
    /// Case name (`mix_end_to_end`, `scheme_sweep`, or
    /// `coordinated_sweep`).
    pub name: String,
    /// Total simulated cycles per run (all schemes, all phases).
    pub simulated_cycles: u64,
    /// Seed behaviour: `rayon` pool pinned to one thread, per-cycle
    /// stepping (`fast_forward: false`).
    pub baseline: ModeResult,
    /// Default behaviour: work-stealing pool + per-core clocks.
    pub optimized: ModeResult,
    /// `baseline.wall_ms / optimized.wall_ms`.
    pub speedup: f64,
    /// Environment fingerprint for like-for-like `--check` comparison.
    pub env: CaseEnv,
}

/// Observability guardrail: the scheme sweep timed with a per-run metrics
/// registry attached vs. fully detached. The attached mode is what
/// `bwpart trace` does; the delta is the cost of the `obs_*!` hot-path
/// hooks actually firing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObsOverhead {
    /// Best-of-N sweep wall time with no observer (milliseconds).
    pub detached_wall_ms: f64,
    /// Best-of-N sweep wall time with a registry attached (milliseconds).
    pub attached_wall_ms: f64,
    /// `(attached - detached) / detached × 100` (negative values are
    /// timing noise). The CI smoke gate fails above
    /// [`OBS_OVERHEAD_BUDGET_PCT`]. Attached and detached reps always
    /// produce byte-identical outcomes: the harness panics otherwise.
    pub overhead_pct: f64,
}

/// Maximum tolerated metrics-attached overhead, in percent, enforced by
/// `bench_sim` in smoke mode.
pub const OBS_OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// Absolute slack added on top of [`OBS_OVERHEAD_BUDGET_PCT`], in
/// milliseconds. The smoke-mode guardrail sweep runs ~6 ms, where
/// best-of-N attached-vs-detached still jitters by a few hundred
/// microseconds either way; like the `--check` gate's
/// [`CHECK_ABS_SLACK_MS`], the absolute term keeps scheduler noise from
/// failing a run while staying far below any real per-event cost
/// regression (one extra atomic per served transaction costs whole
/// milliseconds at this cycle budget).
pub const OBS_OVERHEAD_ABS_SLACK_MS: f64 = 0.5;

impl ObsOverhead {
    /// Whether the attached run is within budget: no more than
    /// [`OBS_OVERHEAD_BUDGET_PCT`] percent plus
    /// [`OBS_OVERHEAD_ABS_SLACK_MS`] slower than the detached run.
    pub fn within_budget(&self) -> bool {
        self.attached_wall_ms - self.detached_wall_ms
            <= self.detached_wall_ms * OBS_OVERHEAD_BUDGET_PCT / 100.0 + OBS_OVERHEAD_ABS_SLACK_MS
    }
}

/// Cost per call of the two snapshot flavours (see
/// `CmpSystem::snapshot_into`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotMicrobench {
    /// `snapshot()` — allocates five vectors per call.
    pub clone_ns_per_call: f64,
    /// `snapshot_into()` — reuses the caller's buffers.
    pub reuse_ns_per_call: f64,
}

/// Best-of-N cost per access of [`Cache`] on three fixed, seeded replays
/// of [`CACHE_REPLAY_ACCESSES`] accesses (one write in four), each timed
/// on a cache one untimed pass has already warmed. Reported, not gated.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheMicrobench {
    /// Table II L1 (32 KB, 2-way) replaying a 16 KB working set it holds
    /// entirely: every timed access hits.
    pub l1_hit_ns_per_access: f64,
    /// Table II L2 (256 KB, 8-way) replaying random lines of a 16 MB
    /// footprint: almost every access misses and picks a victim among 8
    /// ways.
    pub l2_miss_ns_per_access: f64,
    /// A 1 MB, 16-way LLC split into four 4-way masks, taking random
    /// lines of a 64 MB footprint from the four masks in turn: almost every
    /// access misses, probes 16 ways and picks a victim among its 4.
    pub llc_masked_miss_ns_per_access: f64,
}

/// Best-of-N host cost of the two DRAM queries the memory controller makes
/// about a queued request, on a warmed DDR2-400 (close page) channel, over
/// [`PROBE_REQUESTS`] requests decoded once, at the first command clock on
/// which one of them can start. Reported, not gated.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProbeMicrobench {
    /// The gather's issue check: the request's access kind, the bus gate
    /// for it (asked on every call, as by a gather's first request of its
    /// kind and direction), and, past the gate, the fold from `now`
    /// (`DramSystem::access_kind`, `bus_clear`, `issuable`).
    pub issue_check_ns_per_call: f64,
    /// The head attribution: the uncached probe from the request's
    /// location, less its own application (`DramSystem::probe_at`).
    pub attribution_ns_per_call: f64,
}

/// The full report serialized to `BENCH_sim.json`. Deserializable so
/// `--check` can reload the committed baseline and compare.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Report schema tag ([`SCHEMA`]).
    pub schema: String,
    /// True when run with the CI smoke budget (timings not comparable to
    /// full runs).
    pub smoke: bool,
    /// Worker threads the optimized mode's pool used.
    pub threads: usize,
    /// Reps per mode (best-of-N).
    pub reps: usize,
    /// The benchmark cases.
    pub cases: Vec<BenchCase>,
    /// Snapshot clone-vs-reuse micro-benchmark.
    pub snapshot: SnapshotMicrobench,
    /// Cache replay micro-benchmark.
    pub cache: CacheMicrobench,
    /// Controller DRAM-query micro-benchmark.
    pub probe: ProbeMicrobench,
    /// Metrics-attached vs. detached sweep overhead guardrail.
    pub obs: ObsOverhead,
}

/// Phase budgets for the benchmark runs.
fn phases(smoke: bool) -> PhaseConfig {
    if smoke {
        PhaseConfig {
            warmup: 20_000,
            profile: 40_000,
            measure: 60_000,
            repartition_epoch: None,
        }
    } else {
        PhaseConfig {
            warmup: 200_000,
            profile: 400_000,
            measure: 600_000,
            repartition_epoch: None,
        }
    }
}

/// Current report schema tag. Bumped whenever the report shape changes;
/// `check` refuses to compare reports across schema versions.
pub const SCHEMA: &str = "bwpart-bench-sim/v7";

/// Maximum tolerated slowdown of any case's `optimized.wall_ms` against
/// the committed baseline before `--check` fails, in percent.
pub const CHECK_REGRESSION_PCT: f64 = 10.0;

/// Absolute wall-time slack added on top of [`CHECK_REGRESSION_PCT`].
/// The smoke-mode `mix_end_to_end` case finishes in ~1 ms, where best-of-N
/// still jitters by most of a millisecond run to run; a purely relative budget
/// would flake on it while a millisecond-scale absolute term is invisible
/// to the tens-of-milliseconds cases the gate is really protecting.
pub const CHECK_ABS_SLACK_MS: f64 = 1.0;

fn runner(fast_forward: bool, phases: PhaseConfig) -> Runner {
    Runner {
        cmp: CmpConfig {
            fast_forward,
            ..CmpConfig::default()
        },
        phases,
    }
}

/// The environment fingerprint for the optimized mode as configured right
/// now (default pool width on this host).
fn current_env() -> CaseEnv {
    CaseEnv {
        threads: rayon::pool::current_num_threads(),
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Serialize outcomes for the bit-identity comparison.
fn fingerprint(outcomes: &[SimOutcome]) -> String {
    serde_json::to_string(outcomes)
        // lint: allow(R1): serializing in-memory plain-data structs cannot fail
        .expect("SimOutcome serializes")
}

/// One run of the mix-end-to-end case: `fig1_mix` under the first enforced
/// scheme, warmup → profile → measure. `optimized` selects the default
/// per-core clocks vs the seed behaviour (per-cycle stepping).
fn run_mix(optimized: bool, phases: PhaseConfig) -> Vec<SimOutcome> {
    let r = runner(optimized, phases);
    let mix = fig1_mix();
    let (w, cc) = mix.build(1, SEED);
    vec![r.run_scheme(
        PartitionScheme::ENFORCED_SCHEMES[0],
        w,
        cc,
        ShareSource::OnlineProfile,
    )]
}

/// One run of the scheme-sweep case: `fig1_mix` under every enforced
/// scheme, fanned out over the `rayon` pool (sequential in baseline mode,
/// where the pool is pinned to one thread).
fn run_sweep(optimized: bool, phases: PhaseConfig) -> Vec<SimOutcome> {
    let r = runner(optimized, phases);
    let mix = fig1_mix();
    PartitionScheme::ENFORCED_SCHEMES
        .par_iter()
        .map(|&s| {
            let (w, cc) = mix.build(1, SEED);
            r.run_scheme(s, w, cc, ShareSource::OnlineProfile)
        })
        .collect()
}

/// Way splits driven by the coordinated-enforcement case: the fair split,
/// two asymmetries favouring the cache-fitting app, and one inverted.
const COORD_WAY_SPLITS: [[usize; 2]; 4] = [[8, 8], [12, 4], [15, 1], [4, 12]];

/// One run of the coordinated-enforcement case: the `cache-1` mix (an
/// LLC-fitting app against a streamer) under a shared 16-way LLC, swept
/// over [`COORD_WAY_SPLITS`] with a fixed bandwidth split — the
/// multi-resource enforcement path (`run_with_allocation`: way masks
/// installed before warm-up plus start-time-fair bandwidth scheduling)
/// that coordinated `bwpartd` epochs and the `coordinated_sim` e2e test
/// exercise. Times enforcement, not the solver (which is microseconds).
fn run_coordinated_sweep(optimized: bool, phases: PhaseConfig) -> Vec<SimOutcome> {
    let r = Runner {
        cmp: CmpConfig {
            fast_forward: optimized,
            llc: Some(LlcConfig {
                cache: CacheConfig {
                    capacity: 1024 * 1024,
                    ways: 16,
                    line_bytes: 64,
                },
                hit_penalty: 12,
            }),
            ..CmpConfig::default()
        },
        phases,
    };
    let mix = cache_mixes().remove(0);
    COORD_WAY_SPLITS
        .par_iter()
        .map(|ways| {
            let (w, cc) = mix.build(1, SEED);
            // Illustrative square-root-ish β and reference profiles; the
            // fingerprint only needs them identical across modes.
            r.run_with_allocation(
                vec![0.45, 0.55],
                Some(ways),
                "coordinated",
                w,
                cc,
                vec![0.003, 0.0095],
                vec![0.01, 0.05],
            )
        })
        .collect()
}

/// Fingerprint of the full scheme sweep under the **current** pool
/// configuration (thread count is whatever `RAYON_NUM_THREADS` /
/// `pool::set_num_threads` says). The CI determinism matrix runs this
/// across thread counts and fast-forward modes, and diffs the outputs:
/// any divergence means the parallel merge or the per-core clocks changed
/// observable simulation results.
pub fn sweep_fingerprint(fast_forward: bool, smoke: bool) -> String {
    fingerprint(&run_sweep(fast_forward, phases(smoke)))
}

/// Time `f` once, in `mode_threads` pool mode, returning the wall time and
/// the outcomes.
fn timed<T, F: FnOnce() -> T>(mode_threads: usize, f: F) -> (Duration, T) {
    rayon::pool::set_num_threads(mode_threads);
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed();
    rayon::pool::set_num_threads(0);
    (wall, out)
}

/// Measure one case in both modes, best-of-`reps` interleaved, asserting
/// outcome bit-identity across every rep of every mode.
fn bench_case(
    name: &str,
    simulated_cycles: u64,
    reps: usize,
    run: impl Fn(bool) -> Vec<SimOutcome>,
) -> BenchCase {
    let mut best_base = Duration::MAX;
    let mut best_opt = Duration::MAX;
    let mut reference: Option<String> = None;
    for _ in 0..reps.max(1) {
        // Baseline: seed behaviour — one pool thread, per-cycle stepping.
        let (wall, out) = timed(1, || run(false));
        best_base = best_base.min(wall);
        let fp = fingerprint(&out);
        let expected = reference.get_or_insert(fp.clone());
        assert_eq!(
            *expected, fp,
            "{name}: baseline outcomes diverged between reps"
        );
        // Optimized: default pool width + per-core clocks.
        let (wall, out) = timed(0, || run(true));
        best_opt = best_opt.min(wall);
        assert_eq!(
            *expected,
            fingerprint(&out),
            "{name}: optimized outcomes diverged from the sequential baseline"
        );
    }
    let per_sec = |wall: Duration| simulated_cycles as f64 / wall.as_secs_f64().max(1e-12);
    let round = |ms: f64| (ms * 1000.0).round() / 1000.0;
    BenchCase {
        name: name.to_string(),
        simulated_cycles,
        baseline: ModeResult {
            wall_ms: round(best_base.as_secs_f64() * 1e3),
            cycles_per_sec: per_sec(best_base).round(),
        },
        optimized: ModeResult {
            wall_ms: round(best_opt.as_secs_f64() * 1e3),
            cycles_per_sec: per_sec(best_opt).round(),
        },
        speedup: {
            let s = best_base.as_secs_f64() / best_opt.as_secs_f64().max(1e-12);
            (s * 100.0).round() / 100.0
        },
        env: current_env(),
    }
}

/// One sweep run with (or without) a fresh per-run observer attached,
/// returning the outcomes and the total `cmp_steps_total` collected — a
/// sanity signal that the attached mode really recorded metrics.
fn run_sweep_observed(phases: PhaseConfig, attach: bool) -> (Vec<SimOutcome>, u64) {
    let r = runner(true, phases);
    let mix = fig1_mix();
    let per_run: Vec<(SimOutcome, u64)> = PartitionScheme::ENFORCED_SCHEMES
        .par_iter()
        .map(|&s| {
            let (w, cc) = mix.build(1, SEED);
            let observer = attach.then(RunObserver::new);
            let out = r.run_scheme_traced(s, w, cc, ShareSource::OnlineProfile, observer.as_ref());
            let steps = observer
                .map(|o| o.registry.counter("cmp_steps_total").get())
                .unwrap_or(0);
            (out, steps)
        })
        .collect();
    let steps = per_run.iter().map(|(_, s)| s).sum();
    (per_run.into_iter().map(|(o, _)| o).collect(), steps)
}

/// Measure the attached-vs-detached sweep, best-of-`reps` interleaved,
/// asserting outcome bit-identity (observation must never change results).
fn obs_overhead_bench(smoke: bool, reps: usize) -> ObsOverhead {
    let p = phases(smoke);
    let mut best_det = Duration::MAX;
    let mut best_att = Duration::MAX;
    let mut reference: Option<String> = None;
    for _ in 0..reps.max(1) {
        let (wall, (out, _)) = timed(0, || run_sweep_observed(p, false));
        best_det = best_det.min(wall);
        let fp = fingerprint(&out);
        let expected = reference.get_or_insert(fp.clone());
        assert_eq!(
            *expected, fp,
            "obs: detached outcomes diverged between reps"
        );

        let (wall, (out, steps)) = timed(0, || run_sweep_observed(p, true));
        best_att = best_att.min(wall);
        assert_eq!(
            *expected,
            fingerprint(&out),
            "obs: attaching a metrics registry changed simulation outcomes"
        );
        assert!(
            steps > 0,
            "obs: attached sweep collected no metrics — is the `trace` feature on?"
        );
    }
    let round = |x: f64| (x * 1000.0).round() / 1000.0;
    let det = best_det.as_secs_f64();
    let att = best_att.as_secs_f64();
    ObsOverhead {
        detached_wall_ms: round(det * 1e3),
        attached_wall_ms: round(att * 1e3),
        overhead_pct: ((att - det) / det.max(1e-12) * 100.0 * 100.0).round() / 100.0,
    }
}

/// Time `snapshot()` (allocating) vs `snapshot_into()` (buffer-reusing) on
/// a warmed system.
fn snapshot_microbench() -> SnapshotMicrobench {
    use bwpart_cmp::{CmpSystem, Snapshot};
    use bwpart_mc::Policy;

    let mix = fig1_mix();
    let (w, cc) = mix.build(1, SEED);
    let n = w.len();
    let mut sys = CmpSystem::new(&CmpConfig::default(), w, cc, Policy::fcfs(n));
    sys.run(10_000);

    const ITERS: u32 = 10_000;
    let t0 = Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(sys.snapshot());
    }
    let clone_ns = t0.elapsed().as_nanos() as f64 / f64::from(ITERS);

    let mut snap = Snapshot::default();
    let t0 = Instant::now();
    for _ in 0..ITERS {
        sys.snapshot_into(&mut snap);
        std::hint::black_box(&snap);
    }
    let reuse_ns = t0.elapsed().as_nanos() as f64 / f64::from(ITERS);

    let round = |ns: f64| (ns * 10.0).round() / 10.0;
    SnapshotMicrobench {
        clone_ns_per_call: round(clone_ns),
        reuse_ns_per_call: round(reuse_ns),
    }
}

/// Accesses per cache replay.
pub const CACHE_REPLAY_ACCESSES: usize = 1 << 18;

/// Best-of-`reps` ns per access of replaying `addrs` through `cache`,
/// the `i`-th access under `masks[i % masks.len()]`, after one untimed
/// warming pass. Returns the misses of the last pass too.
fn cache_replay(mut cache: Cache, addrs: &[u64], masks: &[u64], reps: usize) -> (f64, u64) {
    let pass = |cache: &mut Cache| {
        cache.reset_counters();
        let t0 = Instant::now();
        for (i, (&addr, &mask)) in addrs.iter().zip(masks.iter().cycle()).enumerate() {
            std::hint::black_box(cache.access_masked(addr, i % 4 == 0, mask));
        }
        t0.elapsed()
    };
    pass(&mut cache);
    let best = (0..reps.max(1)).fold(Duration::MAX, |best, _| best.min(pass(&mut cache)));
    let ns = best.as_nanos() as f64 / addrs.len() as f64;
    ((ns * 100.0).round() / 100.0, cache.misses)
}

/// [`CACHE_REPLAY_ACCESSES`] line addresses drawn uniformly from a
/// `footprint`-byte region (a power of two) by a seeded xorshift64*.
fn replay_addrs(footprint: u64, seed: u64) -> Vec<u64> {
    let lines = footprint / 64;
    let mut x = seed;
    (0..CACHE_REPLAY_ACCESSES)
        .map(|_| {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) % lines * 64
        })
        .collect()
}

/// Time the three cache replays of [`CacheMicrobench`].
fn cache_microbench(reps: usize) -> CacheMicrobench {
    const KB: u64 = 1024;
    let (l1_hit, l1_misses) = cache_replay(
        Cache::new(CacheConfig::l1d()),
        &replay_addrs(16 * KB, SEED),
        &[u64::MAX],
        reps,
    );
    assert_eq!(l1_misses, 0, "the L1 replay must hit on every access");
    let (l2_miss, _) = cache_replay(
        Cache::new(CacheConfig::l2()),
        &replay_addrs(16 * KB * KB, SEED),
        &[u64::MAX],
        reps,
    );
    let llc = CacheConfig {
        capacity: 1024 * 1024,
        ways: 16,
        line_bytes: 64,
    };
    let (llc_miss, _) = cache_replay(
        Cache::new(llc),
        &replay_addrs(64 * KB * KB, SEED),
        &[0x000F, 0x00F0, 0x0F00, 0xF000],
        reps,
    );
    CacheMicrobench {
        l1_hit_ns_per_access: l1_hit,
        l2_miss_ns_per_access: l2_miss,
        llc_masked_miss_ns_per_access: llc_miss,
    }
}

/// Queued requests timed by [`ProbeMicrobench`].
pub const PROBE_REQUESTS: usize = 64;

/// Calls per timed pass of a [`ProbeMicrobench`] query.
const PROBE_CALLS: usize = 1 << 16;

/// Best-of-`reps` ns per call of `query`, cycling through `reqs`.
fn probe_replay(
    reqs: &[(MemTransaction, RowLocation)],
    reps: usize,
    query: impl Fn(&MemTransaction, &RowLocation) -> bool,
) -> f64 {
    let pass = || {
        let t0 = Instant::now();
        for (txn, loc) in reqs.iter().cycle().take(PROBE_CALLS) {
            std::hint::black_box(query(txn, loc));
        }
        t0.elapsed()
    };
    pass();
    let best = (0..reps.max(1)).fold(Duration::MAX, |best, _| best.min(pass()));
    let ns = best.as_nanos() as f64 / PROBE_CALLS as f64;
    (ns * 100.0).round() / 100.0
}

/// Time the two queries of [`ProbeMicrobench`]. A seeded stream of reads
/// and writes from four applications warms the channel; [`PROBE_REQUESTS`]
/// more are decoded, and timed at the first command clock on which one of
/// them can start, as on a gather the DRAM floor lets through.
fn probe_microbench(reps: usize) -> ProbeMicrobench {
    let mut sys = DramSystem::new(DramConfig::ddr2_400());
    sys.set_app_count(4);
    let mut x = SEED;
    let mut draw = move || {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut txn = || MemTransaction {
        app: (draw() % 4) as usize,
        addr: (draw() >> 40) << 6,
        is_write: draw().is_multiple_of(4),
    };
    let mut now = 0;
    for _ in 0..256 {
        let t = txn();
        now = sys.probe(&t, now).start;
        sys.issue(&t, now);
    }
    let reqs: Vec<(MemTransaction, RowLocation)> = (0..PROBE_REQUESTS)
        .map(|_| {
            let t = txn();
            (t, sys.locate(t.addr))
        })
        .collect();
    let now = reqs
        .iter()
        .map(|(t, _)| sys.probe(t, now).start)
        .min()
        .unwrap_or(now);
    let issue_check = |t: &MemTransaction, loc: &RowLocation| {
        let kind = sys.access_kind(loc);
        sys.bus_clear(loc.channel(), kind, t.is_write, now) && sys.issuable(loc, t.is_write, now)
    };
    let attribution = |t: &MemTransaction, loc: &RowLocation| {
        sys.probe_at(loc, t.is_write, now)
            .blocker
            .is_some_and(|b| b != t.app)
    };
    ProbeMicrobench {
        issue_check_ns_per_call: probe_replay(&reqs, reps, issue_check),
        attribution_ns_per_call: probe_replay(&reqs, reps, attribution),
    }
}

/// Run the full harness. `smoke` shrinks the cycle budgets ~10× for CI;
/// `reps` is the best-of-N count per mode.
pub fn run(smoke: bool, reps: usize) -> BenchReport {
    let p = phases(smoke);
    let per_run = p.warmup + p.profile + p.measure;
    let n_schemes = PartitionScheme::ENFORCED_SCHEMES.len() as u64;
    let threads = rayon::pool::current_num_threads();

    let cases = vec![
        bench_case("mix_end_to_end", per_run, reps, |opt| run_mix(opt, p)),
        bench_case("scheme_sweep", per_run * n_schemes, reps, |opt| {
            run_sweep(opt, p)
        }),
        bench_case(
            "coordinated_sweep",
            per_run * COORD_WAY_SPLITS.len() as u64,
            reps,
            |opt| run_coordinated_sweep(opt, p),
        ),
    ];

    BenchReport {
        schema: SCHEMA.to_string(),
        smoke,
        threads,
        reps,
        cases,
        snapshot: snapshot_microbench(),
        cache: cache_microbench(reps),
        probe: probe_microbench(reps),
        obs: obs_overhead_bench(smoke, reps),
    }
}

/// Outcome of comparing a fresh report against the committed baseline.
#[derive(Debug, Clone, Default)]
pub struct CheckOutcome {
    /// Cases compared like-for-like, with the measured wall-time delta in
    /// percent (positive = fresh is slower).
    pub compared: Vec<(String, f64)>,
    /// Cases skipped, with the reason (environment or budget mismatch —
    /// comparing them would be drift, not regression).
    pub skipped: Vec<(String, String)>,
    /// Human-readable regression descriptions; empty means the gate passes.
    pub regressions: Vec<String>,
}

impl CheckOutcome {
    /// True when no compared case regressed.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// One-line coverage-shrinkage summary: `skipped N case(s) (env
    /// mismatch)`, with the parenthetical listing each distinct skip
    /// class seen. `None` when nothing was skipped. Printed on pass AND
    /// fail paths so CI logs always show how much the gate actually
    /// compared.
    pub fn skipped_summary(&self) -> Option<String> {
        if self.skipped.is_empty() {
            return None;
        }
        let mut classes: Vec<&str> = Vec::new();
        for (_, why) in &self.skipped {
            let class = if why.contains("environment mismatch") {
                "env mismatch"
            } else if why.contains("budget mismatch") {
                "budget mismatch"
            } else {
                "no committed entry"
            };
            if !classes.contains(&class) {
                classes.push(class);
            }
        }
        Some(format!(
            "skipped {} case(s) ({})",
            self.skipped.len(),
            classes.join(", ")
        ))
    }
}

/// Compare a fresh report against the committed baseline, like-for-like.
///
/// A case is only compared when its name, smoke flag, simulated cycle
/// count, and [`CaseEnv`] all match the committed entry — the committed
/// numbers come from a specific container (1 core in CI), and wall times
/// measured under a different pool width or host core count are
/// incommensurable. Mismatched cases are reported as skipped, not failed.
/// A compared case regresses when its `optimized.wall_ms` exceeds the
/// committed number by more than [`CHECK_REGRESSION_PCT`] percent plus
/// [`CHECK_ABS_SLACK_MS`] (the absolute term keeps millisecond-scale
/// cases from flaking on scheduler jitter).
pub fn check(committed: &BenchReport, fresh: &BenchReport) -> CheckOutcome {
    let mut out = CheckOutcome::default();
    if committed.schema != fresh.schema {
        out.regressions.push(format!(
            "schema mismatch: committed {} vs fresh {} — regenerate BENCH_sim.json",
            committed.schema, fresh.schema
        ));
        return out;
    }
    for f in &fresh.cases {
        let Some(c) = committed.cases.iter().find(|c| c.name == f.name) else {
            out.skipped
                .push((f.name.clone(), "no committed entry".to_string()));
            continue;
        };
        if committed.smoke != fresh.smoke || c.simulated_cycles != f.simulated_cycles {
            out.skipped.push((
                f.name.clone(),
                format!(
                    "budget mismatch (smoke {} vs {}, cycles {} vs {})",
                    committed.smoke, fresh.smoke, c.simulated_cycles, f.simulated_cycles
                ),
            ));
            continue;
        }
        if c.env != f.env {
            out.skipped.push((
                f.name.clone(),
                format!("environment mismatch ({:?} vs {:?})", c.env, f.env),
            ));
            continue;
        }
        let delta_pct = (f.optimized.wall_ms - c.optimized.wall_ms) / c.optimized.wall_ms * 100.0;
        out.compared.push((f.name.clone(), delta_pct));
        let budget_ms = c.optimized.wall_ms * CHECK_REGRESSION_PCT / 100.0 + CHECK_ABS_SLACK_MS;
        if f.optimized.wall_ms - c.optimized.wall_ms > budget_ms {
            out.regressions.push(format!(
                "{}: optimized {:.3} ms vs committed {:.3} ms \
                 ({:+.1}% > {:.0}% + {:.1} ms budget)",
                f.name,
                f.optimized.wall_ms,
                c.optimized.wall_ms,
                delta_pct,
                CHECK_REGRESSION_PCT,
                CHECK_ABS_SLACK_MS
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_is_complete_and_consistent() {
        let report = run(true, 1);
        assert_eq!(report.schema, SCHEMA);
        assert!(report.smoke);
        assert_eq!(report.cases.len(), 3);
        assert_eq!(report.cases[0].name, "mix_end_to_end");
        assert_eq!(report.cases[1].name, "scheme_sweep");
        assert_eq!(report.cases[2].name, "coordinated_sweep");
        for case in &report.cases {
            assert!(case.baseline.wall_ms > 0.0);
            assert!(case.optimized.wall_ms > 0.0);
            assert!(case.speedup > 0.0);
            assert!(case.env.threads >= 1);
            assert!(case.env.host_cores >= 1);
        }
        assert_eq!(
            report.cases[1].simulated_cycles,
            report.cases[0].simulated_cycles * 6
        );
        assert!(report.snapshot.clone_ns_per_call > 0.0);
        assert!(report.snapshot.reuse_ns_per_call > 0.0);
        assert!(report.cache.l1_hit_ns_per_access > 0.0);
        assert!(report.cache.l2_miss_ns_per_access > 0.0);
        assert!(report.cache.llc_masked_miss_ns_per_access > 0.0);
        assert!(report.probe.issue_check_ns_per_call > 0.0);
        assert!(report.probe.attribution_ns_per_call > 0.0);
        assert!(report.obs.detached_wall_ms > 0.0);
        assert!(report.obs.attached_wall_ms > 0.0);
        assert!(report.obs.overhead_pct.is_finite());
        // The report must round-trip through serde_json for BENCH_sim.json
        // and back for `--check`.
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("scheme_sweep"));
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema, report.schema);
        assert_eq!(back.cases.len(), report.cases.len());
        assert_eq!(back.cases[2].env, report.cases[2].env);

        // `check` against itself compares every case and passes.
        let outcome = check(&back, &report);
        assert!(outcome.passed());
        assert_eq!(outcome.compared.len(), 3);
        assert!(outcome.skipped.is_empty());

        // A >10 % slowdown on an optimized case is a regression...
        let mut slow = report.clone();
        slow.cases[1].optimized.wall_ms *= 1.5;
        slow.cases[1].optimized.wall_ms += 2.0 * CHECK_ABS_SLACK_MS;
        let outcome = check(&back, &slow);
        assert!(!outcome.passed());
        assert_eq!(outcome.regressions.len(), 1);

        // A sub-slack absolute delta is noise, not a regression, even when
        // it exceeds the relative budget on a tiny case.
        let mut noisy = report.clone();
        noisy.cases[0].optimized.wall_ms += 0.8 * CHECK_ABS_SLACK_MS;
        let outcome = check(&back, &noisy);
        assert!(outcome.passed());

        // ...but the same slowdown under a different environment is drift,
        // skipped rather than failed.
        slow.cases[1].env.host_cores += 64;
        let outcome = check(&back, &slow);
        assert!(outcome.passed());
        assert_eq!(outcome.skipped.len(), 1);
    }

    #[test]
    fn skipped_summary_is_one_line_with_distinct_classes() {
        let outcome = CheckOutcome::default();
        assert_eq!(outcome.skipped_summary(), None);

        let outcome = CheckOutcome {
            skipped: vec![
                (
                    "scheme_sweep".into(),
                    "environment mismatch (a vs b)".into(),
                ),
                ("qos_probe".into(), "environment mismatch (a vs b)".into()),
                (
                    "coordinated_sweep".into(),
                    "budget mismatch (smoke true vs false, cycles 1 vs 2)".into(),
                ),
            ],
            ..CheckOutcome::default()
        };
        assert_eq!(
            outcome.skipped_summary().as_deref(),
            Some("skipped 3 case(s) (env mismatch, budget mismatch)")
        );
    }

    /// A hand-built one-case report (no simulation runs).
    fn one_case_report(schema: &str, threads: usize, wall_ms: f64) -> BenchReport {
        let mode = ModeResult {
            wall_ms,
            cycles_per_sec: 1e8,
        };
        BenchReport {
            schema: schema.to_string(),
            smoke: true,
            threads,
            reps: 1,
            cases: vec![BenchCase {
                name: "scheme_sweep".into(),
                simulated_cycles: 720_000,
                baseline: mode.clone(),
                optimized: mode,
                speedup: 1.0,
                env: CaseEnv {
                    threads,
                    host_cores: 2,
                },
            }],
            snapshot: SnapshotMicrobench {
                clone_ns_per_call: 1.0,
                reuse_ns_per_call: 1.0,
            },
            cache: CacheMicrobench {
                l1_hit_ns_per_access: 1.0,
                l2_miss_ns_per_access: 1.0,
                llc_masked_miss_ns_per_access: 1.0,
            },
            probe: ProbeMicrobench {
                issue_check_ns_per_call: 1.0,
                attribution_ns_per_call: 1.0,
            },
            obs: ObsOverhead {
                detached_wall_ms: 1.0,
                attached_wall_ms: 1.0,
                overhead_pct: 0.0,
            },
        }
    }

    #[test]
    fn check_refuses_other_schemas_and_skips_thread_count_drift() {
        // A committed report of the previous schema is one regression, and
        // nothing is compared.
        let v6 = one_case_report("bwpart-bench-sim/v6", 1, 9.0);
        let outcome = check(&v6, &one_case_report(SCHEMA, 1, 9.0));
        assert_eq!(outcome.regressions.len(), 1, "{:?}", outcome.regressions);
        assert!(outcome.regressions[0].contains("schema mismatch"));
        assert!(outcome.compared.is_empty());
        assert!(outcome.skipped.is_empty());

        // An environment that differs only in pool threads is skipped, not
        // compared, even when the fresh case is ten times slower.
        let committed = one_case_report(SCHEMA, 1, 9.0);
        let outcome = check(&committed, &one_case_report(SCHEMA, 2, 90.0));
        assert!(outcome.passed());
        assert!(outcome.compared.is_empty());
        assert_eq!(outcome.skipped.len(), 1);
        assert!(outcome.skipped[0].1.contains("environment mismatch"));
    }

    #[test]
    fn obs_budget_has_relative_and_absolute_terms() {
        let obs = |det: f64, att: f64| ObsOverhead {
            detached_wall_ms: det,
            attached_wall_ms: att,
            overhead_pct: (att - det) / det * 100.0,
        };
        // 7 % over on a 6 ms sweep is within the absolute slack.
        assert!(obs(6.0, 6.0 * 1.07).within_budget());
        // The same percentage on a 100 ms sweep is a real regression.
        assert!(!obs(100.0, 107.0).within_budget());
        // Inside the relative budget always passes.
        assert!(obs(100.0, 104.0).within_budget());
    }
}
