//! The traced run's per-layer measurements.
//!
//! Two sources, both outside the program's own code:
//!
//! * spans the benchmark records around its own calls into each crate's
//!   public functions, kept in a [`Tracer`] and written once at the end
//!   as a Chrome trace under `.bench_out/`;
//! * the counters the program already keeps in `bwpart-obs` registries
//!   (a `RunObserver` attached to each traced simulation, the daemon's
//!   `Metrics` reply, a `ShardMap`'s registry).
//!
//! [`replay`] re-runs one simulated op's input streams through each
//! simulator layer alone — `Workload::next_access`, `Cache::access`
//! (L1 then L2), `SharedLlc::access`, `MemoryController::tick` and
//! `DramSystem::issue` — so each layer gets a host cost per call without
//! timers in the simulator's hot loops.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bwpart_cmp::cache::CacheOutcome;
use bwpart_cmp::{
    Access, Cache, CacheConfig, CmpConfig, LlcConfig, SharedLlc, SimOutcome, Workload,
};
use bwpart_dram::{DramConfig, DramSystem, MemTransaction};
use bwpart_mc::{MemRequest, MemoryController, Policy};
use bwpart_obs::{EventPhase, Registry, Tracer};

use crate::measure::{median, Report};

/// Spans and per-layer values of one traced run.
pub struct Layers {
    pub tracer: Tracer,
    origin: Instant,
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Layers {
    pub fn new() -> Layers {
        Layers {
            // Spans are kept in memory (bounded ring) and written once.
            tracer: Tracer::new(1 << 17),
            origin: Instant::now(),
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    /// Run `f` as a span named `name`; returns its result and duration.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let value = f();
        let dur = start.elapsed();
        self.record(name, start, dur);
        (value, dur)
    }

    /// Record an interval measured elsewhere as a span.
    pub fn record(&self, name: &str, start: Instant, dur: Duration) {
        let ts = start.saturating_duration_since(self.origin).as_micros() as u64;
        self.tracer
            .complete_at(name, 0, ts, dur.as_micros().max(1) as u64);
    }

    /// Write the Chrome trace and turn the values into the result line.
    pub fn finish(self, workload: &str, seed: u64, attempted: u64, failed: u64) -> Report {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
        match std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, self.tracer.export_chrome_json()))
        {
            Ok(()) => eprintln!(
                "perfbench: wrote {} spans to {} ({} dropped)",
                self.tracer.len(),
                path.display(),
                self.tracer.dropped()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        let mut r = Report {
            attempted,
            failed,
            metrics: Vec::new(),
        };
        for (name, (value, unit)) in self.values {
            r.push(name, value, unit);
        }
        r
    }
}

/// Registry counts and phase spans summed over a workload's traced
/// simulator ops.
#[derive(Debug, Default)]
pub struct SimCounters {
    ops: u64,
    /// Host time of the traced runs, `Mix::build` excluded.
    host_ns: f64,
    build_ns: f64,
    steps: f64,
    cycles: f64,
    ff_skipped: f64,
    issued: f64,
    window_bypass: f64,
    interference_charges: f64,
    row_hits: f64,
    row_misses: f64,
    row_conflicts: f64,
    busy_frac: f64,
    bus_util: f64,
    phase_us: [f64; 3],
    shares_ns: f64,
}

/// Phase span names, as `Runner::run_scheme_traced` records them.
pub const PHASES: [&str; 3] = ["phase:warmup", "phase:profile", "phase:measure"];

impl SimCounters {
    /// Fold one traced op: its observer registry (published by the
    /// runner at the end of the op), its host time, and its phase spans.
    pub fn add(&mut self, reg: &Registry, tck: u64, host: Duration, phase_us: [f64; 3]) {
        let c = |n: &str| reg.counter(n).get() as f64;
        let g = |n: &str| reg.gauge(n).get();
        self.ops += 1;
        self.host_ns += host.as_nanos() as f64;
        self.steps += c("cmp_steps_total");
        let cycles = g("cmp_cycle");
        self.cycles += cycles;
        self.ff_skipped += c("cmp_ff_skipped_cycles_total");
        self.issued += c("mc_issued_total");
        self.window_bypass += c("mc_window_bypass_total");
        self.interference_charges += c("mc_interference_charges_total");
        self.row_hits += c("dram_row_hits_total");
        self.row_misses += c("dram_row_misses_total");
        self.row_conflicts += c("dram_row_conflicts_total");
        self.busy_frac += g("mc_busy_ticks") * tck as f64 / cycles.max(1.0);
        self.bus_util += g("dram_bus_utilization");
        for (sum, us) in self.phase_us.iter_mut().zip(phase_us) {
            *sum += us;
        }
    }

    /// Time spent deriving the enforced policy (`Runner::policy_for`).
    pub fn add_shares(&mut self, per_call: Duration) {
        self.shares_ns += per_call.as_nanos() as f64;
    }

    /// Time spent building an op's workloads (`Mix::build`).
    pub fn add_build(&mut self, d: Duration) {
        self.build_ns += d.as_nanos() as f64;
    }

    /// Share of the traced ops' host time (build included) that the
    /// build and phase spans explain.
    pub fn coverage(&self) -> f64 {
        let covered = self.phase_us.iter().sum::<f64>() * 1e3 + self.build_ns;
        covered / (self.host_ns + self.build_ns).max(1.0)
    }

    pub fn publish(&self, l: &mut Layers) {
        let n = self.ops.max(1) as f64;
        l.set("cmp.warmup_ms", self.phase_us[0] / n / 1e3, "ms");
        l.set("cmp.profile_ms", self.phase_us[1] / n / 1e3, "ms");
        l.set("cmp.measure_ms", self.phase_us[2] / n / 1e3, "ms");
        l.set("cmp.steps", self.steps / n, "count");
        l.set(
            "cmp.ff_skip_frac",
            self.ff_skipped / self.cycles.max(1.0),
            "ratio",
        );
        l.set("cmp.ns_per_step", self.host_ns / self.steps.max(1.0), "ns");
        l.set("mc.issued", self.issued / n, "count");
        l.set("mc.busy_frac", self.busy_frac / n, "ratio");
        l.set("mc.window_bypass", self.window_bypass / n, "count");
        l.set(
            "mc.interference_charges",
            self.interference_charges / n,
            "count",
        );
        l.set("mc.ns_per_issue", self.host_ns / self.issued.max(1.0), "ns");
        let served = self.row_hits + self.row_misses + self.row_conflicts;
        l.set(
            "dram.row_hit_ratio",
            self.row_hits / served.max(1.0),
            "ratio",
        );
        l.set("dram.row_misses", self.row_misses / n, "count");
        l.set("dram.row_conflicts", self.row_conflicts / n, "count");
        l.set("dram.bus_util", self.bus_util / n, "ratio");
        l.set("core.shares_us", self.shares_ns / n / 1e3, "us");
        l.set("workloads.build_us", self.build_ns / n / 1e3, "us");
    }
}

/// Sum the phase spans a runner recorded into an op's own tracer and
/// copy them onto the run's trace.
pub fn phase_spans(op_tracer: &Tracer, op_start: Instant, l: &Layers) -> [f64; 3] {
    let mut out = [0.0; 3];
    for ev in op_tracer.events() {
        if ev.ph != EventPhase::Complete {
            continue;
        }
        if let Some(i) = PHASES.iter().position(|p| *p == ev.name) {
            out[i] += ev.dur as f64;
            let start = op_start + Duration::from_micros(ev.ts);
            l.record(&ev.name, start, Duration::from_micros(ev.dur));
        }
    }
    out
}

/// One simulated op's inputs, for the layer replays.
pub struct ReplayCell {
    /// Fresh workload generators, as the op built them.
    pub workloads: Vec<Box<dyn Workload>>,
    /// Memory accesses per cycle each application reached in the op.
    pub apc: Vec<f64>,
    /// Bandwidth shares the op enforced (empty: FCFS).
    pub shares: Vec<f64>,
    /// LLC way split the op enforced (None: the even split).
    pub ways: Option<Vec<usize>>,
}

impl ReplayCell {
    pub fn from_outcome(
        workloads: Vec<Box<dyn Workload>>,
        o: &SimOutcome,
        shares: Vec<f64>,
    ) -> Self {
        ReplayCell {
            workloads,
            apc: o.stats.iter().map(|s| s.apc().max(1e-6)).collect(),
            shares,
            ways: None,
        }
    }
}

/// Per-call host times of one replay (ns) and its counts.
#[derive(Debug, Default, Clone)]
struct ReplayTimes {
    next_access: f64,
    cache: f64,
    llc: f64,
    mc_tick: f64,
    dram_issue: f64,
    l2_misses: u64,
    l2_accesses: u64,
    llc_hits: u64,
    llc_accesses: u64,
}

fn replay_once(
    cell: &mut ReplayCell,
    accesses_per_app: usize,
    llc_cfg: LlcConfig,
    dram: &DramConfig,
) -> ReplayTimes {
    let n = cell.workloads.len();
    let mut t = ReplayTimes::default();

    // Workload::next_access.
    let start = Instant::now();
    let streams: Vec<Vec<Access>> = cell
        .workloads
        .iter_mut()
        .map(|w| (0..accesses_per_app).map(|_| w.next_access()).collect())
        .collect();
    t.next_access = ns_per(start.elapsed(), n * accesses_per_app);
    let streams = std::hint::black_box(streams);

    // Cache::access through L1 then L2, mirroring the core's fill path;
    // collects the L2-miss stream (demand reads and dirty victims).
    let mut misses: Vec<(usize, u64, bool)> = Vec::new();
    let region_bits = CmpConfig::default().region_bits;
    let start = Instant::now();
    for (app, stream) in streams.iter().enumerate() {
        let mut l1 = Cache::new(CacheConfig::l1d());
        let mut l2 = Cache::new(CacheConfig::l2());
        let base = (app as u64) << region_bits;
        let mask = (1u64 << region_bits) - 1;
        for a in stream {
            let addr = base | (a.addr & mask);
            if let CacheOutcome::Miss { writeback } = l1.access(addr, a.is_write) {
                if let Some(wb) = writeback {
                    if let CacheOutcome::Miss { writeback: Some(v) } = l2.access(wb, true) {
                        misses.push((app, v, true));
                    }
                }
                t.l2_accesses += 1;
                if let CacheOutcome::Miss { writeback } = l2.access(addr, false) {
                    t.l2_misses += 1;
                    if let Some(v) = writeback {
                        misses.push((app, v, true));
                    }
                    misses.push((app, addr, false));
                }
            }
        }
    }
    t.cache = ns_per(start.elapsed(), n * accesses_per_app);

    // SharedLlc::access / writeback over the L2-miss stream.
    let mut llc = SharedLlc::new(llc_cfg, n);
    if let Some(w) = &cell.ways {
        llc.set_ways(w);
    }
    let start = Instant::now();
    let mut dram_stream = Vec::with_capacity(misses.len());
    for &(app, addr, is_write) in &misses {
        if is_write {
            if let Some(v) = llc.writeback(app, addr) {
                dram_stream.push((app, v, true));
            }
        } else if let CacheOutcome::Miss { writeback } = llc.access(app, addr, false) {
            if let Some(v) = writeback {
                dram_stream.push((app, v, true));
            }
            dram_stream.push((app, addr, false));
        }
    }
    t.llc = ns_per(start.elapsed(), misses.len());
    for app in 0..n {
        t.llc_hits += llc.counters(app).hits;
        t.llc_accesses += llc.counters(app).accesses();
    }
    std::hint::black_box(&dram_stream);

    // MemoryController: the L2-miss stream arrives at each application's
    // measured access rate and is driven through enqueue / tick /
    // pop_completion the way the system loop drives it.
    let mut arrivals: Vec<(u64, usize, u64, bool)> = Vec::with_capacity(misses.len());
    let mut next_at = vec![0f64; n];
    for &(app, addr, is_write) in &misses {
        next_at[app] += 1.0 / cell.apc[app];
        arrivals.push((next_at[app] as u64, app, addr, is_write));
    }
    arrivals.sort_unstable_by_key(|a| a.0);
    let policy = if cell.shares.len() == n {
        Policy::stf(cell.shares.clone())
    } else {
        Policy::fcfs(n)
    };
    let mut mc = MemoryController::new(dram.clone(), n, policy);
    let start = Instant::now();
    let mut ticks = 0usize;
    let mut now = 0u64;
    let mut i = 0usize;
    loop {
        while i < arrivals.len() && arrivals[i].0 <= now {
            let (at, app, addr, w) = arrivals[i];
            mc.enqueue(if w {
                MemRequest::write(app, addr, at)
            } else {
                MemRequest::read(app, addr, at)
            });
            i += 1;
        }
        mc.tick(now);
        ticks += 1;
        while mc.pop_completion(now).is_some() {}
        let arrival = arrivals.get(i).map(|a| a.0);
        now = match (mc.next_event_cycle(now + 1), arrival) {
            (Some(e), Some(a)) => e.min(a),
            (Some(e), None) => e,
            (None, Some(a)) => a,
            (None, None) => break,
        };
    }
    t.mc_tick = ns_per(start.elapsed(), ticks);

    // DramSystem::issue over the same stream, spaced at its mean rate.
    let mut dram_sys = DramSystem::new(dram.clone());
    let start = Instant::now();
    for &(at, app, addr, is_write) in &arrivals {
        std::hint::black_box(dram_sys.issue(
            &MemTransaction {
                app,
                addr,
                is_write,
            },
            at,
        ));
    }
    t.dram_issue = ns_per(start.elapsed(), arrivals.len());
    t
}

fn ns_per(d: Duration, calls: usize) -> f64 {
    d.as_nanos() as f64 / calls.max(1) as f64
}

/// Replay fresh copies of a workload's cells `reps` times; publish the
/// median per-call host cost of each layer and the (deterministic)
/// replay ratios.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    l: &mut Layers,
    make_cells: &dyn Fn() -> Vec<ReplayCell>,
    reps: usize,
    accesses_per_app: usize,
    llc_cfg: LlcConfig,
    dram: &DramConfig,
    llc_hit_ratio_from_replay: bool,
) {
    let mut per_rep: Vec<ReplayTimes> = Vec::new();
    let mut counts = ReplayTimes::default();
    let mut cells_per_rep = 1;
    for rep in 0..reps.max(1) {
        let mut sum = ReplayTimes::default();
        let cells = make_cells();
        cells_per_rep = cells.len().max(1);
        for mut cell in cells {
            let (t, _) = l.span("replay", || {
                replay_once(&mut cell, accesses_per_app, llc_cfg, dram)
            });
            sum.next_access += t.next_access;
            sum.cache += t.cache;
            sum.llc += t.llc;
            sum.mc_tick += t.mc_tick;
            sum.dram_issue += t.dram_issue;
            if rep == 0 {
                counts.l2_misses += t.l2_misses;
                counts.l2_accesses += t.l2_accesses;
                counts.llc_hits += t.llc_hits;
                counts.llc_accesses += t.llc_accesses;
            }
        }
        per_rep.push(sum);
    }
    let k = cells_per_rep as f64;
    let med = |f: fn(&ReplayTimes) -> f64| median(&per_rep.iter().map(f).collect::<Vec<_>>()) / k;
    l.set("workloads.next_access_ns", med(|t| t.next_access), "ns");
    l.set("cmp.cache.access_ns", med(|t| t.cache), "ns");
    l.set("cmp.llc.access_ns", med(|t| t.llc), "ns");
    l.set("mc.tick_ns", med(|t| t.mc_tick), "ns");
    l.set("dram.issue_ns", med(|t| t.dram_issue), "ns");
    l.set(
        "cmp.cache.l2_miss_ratio",
        counts.l2_misses as f64 / counts.l2_accesses.max(1) as f64,
        "ratio",
    );
    if llc_hit_ratio_from_replay {
        l.set(
            "cmp.llc.hit_ratio",
            counts.llc_hits as f64 / counts.llc_accesses.max(1) as f64,
            "ratio",
        );
    }
}
