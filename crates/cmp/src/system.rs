//! The full CMP system: N cores with private hierarchies sharing one
//! memory controller and DRAM, advanced on a global CPU-cycle loop.

use bwpart_dram::DramConfig;
use bwpart_mc::{MemoryController, Policy};
use bwpart_obs::obs_count;
use serde::{Deserialize, Serialize};

use crate::cache::CacheConfig;
use crate::core::{Core, CoreClock, CoreConfig, Workload};
use crate::hybrid::{HybridConfig, HybridSnap, HybridState};
use crate::llc::{LlcConfig, SharedLlc};
use crate::obs::CmpObsHooks;
use crate::stats::AppStats;

/// System-level configuration (Table II defaults).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CmpConfig {
    /// L1 D-cache geometry.
    pub l1: CacheConfig,
    /// Private unified L2 geometry.
    pub l2: CacheConfig,
    /// DRAM subsystem configuration.
    pub dram: DramConfig,
    /// log2 of each application's private physical region (default 29 =
    /// 512 MB × 16 apps = the 8 GB of Table II).
    pub region_bits: u32,
    /// Memory-controller scheduling-window depth (how far past each
    /// application's FIFO head the controller looks for an issuable
    /// request; 1 = strict per-app FIFO).
    pub sched_window: usize,
    /// Per-core clocks: [`CmpSystem::run`] lets each core run ahead through
    /// its private cycles and visits only the cycles with shared events,
    /// instead of stepping the whole system cycle by cycle.
    /// Counter-identical to per-cycle stepping by construction (see
    /// [`CmpSystem::run_per_cycle`], which `false` delegates to); disable
    /// only to cross-check timings.
    pub fast_forward: bool,
    /// Analytic hybrid stepping (default `None` = off): jump over detected
    /// steady-state windows by crediting the paper-model counter rates
    /// instead of simulating every cycle. Tolerance-certified rather than
    /// bit-identical — see [`crate::hybrid`].
    pub hybrid: Option<HybridConfig>,
    /// Shared, way-partitioned LLC between the private L2s and the memory
    /// controller (default `None` = the paper's private-hierarchy Table II
    /// system, bit-identical to builds without this field). See
    /// [`crate::llc`].
    pub llc: Option<LlcConfig>,
}

impl Default for CmpConfig {
    fn default() -> Self {
        CmpConfig {
            l1: CacheConfig::l1d(),
            l2: CacheConfig::l2(),
            dram: DramConfig::ddr2_400(),
            region_bits: 29,
            sched_window: 8,
            fast_forward: true,
            hybrid: None,
            llc: None,
        }
    }
}

/// Counter snapshot used to delta a measurement window.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Global cycle of the snapshot.
    pub cycle: u64,
    /// Per-app instructions retired (lifetime).
    pub instructions: Vec<u64>,
    /// Per-app memory accesses served (lifetime).
    pub served: Vec<u64>,
    /// Per-app L1 misses (lifetime).
    pub l1_misses: Vec<u64>,
    /// Per-app L2 misses (lifetime).
    pub l2_misses: Vec<u64>,
}

/// The simulated chip multiprocessor.
pub struct CmpSystem {
    cores: Vec<Core>,
    mc: MemoryController,
    /// Shared way-partitioned LLC (None: private hierarchies only).
    llc: Option<SharedLlc>,
    cycle: u64,
    /// Lifetime retired-instruction counters (survive per-phase resets).
    lifetime_instr: Vec<u64>,
    /// Per-core clocks enabled (from [`CmpConfig`]).
    fast_forward: bool,
    /// Each core's clock during [`run_exact`](Self::run_exact), one per
    /// core, reused across runs (contents are meaningful only inside it).
    clocks: Vec<CoreClock>,
    /// Analytic hybrid stepping state (None: exact stepping only).
    hybrid: Option<Box<HybridState>>,
    /// Whether hybrid stepping is currently armed (see
    /// [`set_hybrid_armed`](Self::set_hybrid_armed)).
    hybrid_armed: bool,
    /// Pre-resolved observability handles (None: zero instrumentation).
    obs: Option<Box<CmpObsHooks>>,
}

impl CmpSystem {
    /// Assemble a system. `workloads[i]` runs on core `i` with parameters
    /// `core_cfgs[i]`; the memory controller starts with `policy`.
    ///
    /// # Panics
    /// Panics if the vectors disagree in length, are empty, or exceed the
    /// number of physical regions.
    pub fn new(
        cfg: &CmpConfig,
        workloads: Vec<Box<dyn Workload>>,
        core_cfgs: Vec<CoreConfig>,
        policy: Policy,
    ) -> Self {
        let n = workloads.len();
        Self::new_with_l2(cfg, workloads, core_cfgs, vec![cfg.l2; n], policy)
    }

    /// Assemble a system with *per-core* L2 geometries. A strictly
    /// way-partitioned shared L2 (the paper's footnote 1) is equivalent to
    /// private L2 slices whose capacity scales with the assigned ways at a
    /// constant set count — which is exactly what this constructor models
    /// (see the `shared_l2` experiment).
    ///
    /// # Panics
    /// Panics if the vectors disagree in length or are empty.
    pub fn new_with_l2(
        cfg: &CmpConfig,
        workloads: Vec<Box<dyn Workload>>,
        core_cfgs: Vec<CoreConfig>,
        l2_cfgs: Vec<crate::cache::CacheConfig>,
        policy: Policy,
    ) -> Self {
        assert!(!workloads.is_empty(), "at least one core required");
        assert_eq!(workloads.len(), core_cfgs.len(), "one config per core");
        assert_eq!(workloads.len(), l2_cfgs.len(), "one L2 config per core");
        let n = workloads.len();
        let region = 1u64 << cfg.region_bits;
        let mut mc = MemoryController::new(cfg.dram.clone(), n, policy);
        mc.set_sched_window(cfg.sched_window);
        let cores = workloads
            .into_iter()
            .zip(core_cfgs.into_iter().zip(l2_cfgs))
            .enumerate()
            .map(|(i, (w, (cc, l2)))| Core::new(i, cc, cfg.l1, l2, w, i as u64 * region, region))
            .collect();
        CmpSystem {
            cores,
            mc,
            llc: cfg.llc.map(|lc| SharedLlc::new(lc, n)),
            cycle: 0,
            lifetime_instr: vec![0; n],
            fast_forward: cfg.fast_forward,
            clocks: vec![CoreClock::default(); n],
            hybrid: cfg.hybrid.map(|hc| Box::new(HybridState::new(hc))),
            hybrid_armed: true,
            obs: None,
        }
    }

    /// Attach observability: resolve the cycle-loop hooks against
    /// `registry` and cascade to the memory controller and DRAM layers.
    /// Attaching never changes simulation results — only counters are
    /// recorded, and only in builds with the `bwpart-obs/trace` feature.
    pub fn attach_obs(&mut self, registry: &bwpart_obs::Registry) {
        self.obs = Some(Box::new(CmpObsHooks::resolve(registry)));
        self.mc.attach_obs(registry);
    }

    /// Publish derived gauges from the whole stack into `registry` (cold
    /// path; call at phase/epoch boundaries or after a run).
    pub fn publish_metrics(&self, registry: &bwpart_obs::Registry) {
        registry.gauge("cmp_cycle").set(self.cycle as f64);
        for (i, core) in self.cores.iter().enumerate() {
            registry
                .gauge(&format!("cmp_instructions{{app=\"{i}\"}}"))
                .set((self.lifetime_instr[i] + core.counters.retired) as f64);
        }
        self.mc.publish_metrics(registry, self.cycle);
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Current global cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The memory controller (policy swaps, profiling counters).
    pub fn mc(&self) -> &MemoryController {
        &self.mc
    }

    /// Mutable controller access.
    pub fn mc_mut(&mut self) -> &mut MemoryController {
        &mut self.mc
    }

    /// Core accessor (stats).
    pub fn core(&self, i: usize) -> &Core {
        &self.cores[i]
    }

    /// The shared LLC, when configured.
    pub fn llc(&self) -> Option<&SharedLlc> {
        self.llc.as_ref()
    }

    /// Repartition the shared LLC's ways (`ways[i]` ways to application
    /// `i`). Takes effect at fill time only — resident lines drain by
    /// natural eviction, so the change is non-disruptive like programming
    /// a hardware way-mask register.
    ///
    /// # Panics
    /// Panics if the system has no LLC or the counts are inconsistent
    /// (see [`SharedLlc::set_ways`]).
    pub fn set_llc_ways(&mut self, ways: &[usize]) {
        self.llc
            .as_mut()
            // lint: allow(R1): misconfiguration — callers gate on llc()
            .expect("set_llc_ways on a system built without an LLC")
            .set_ways(ways);
    }

    /// Advance one CPU cycle.
    ///
    /// Step accounting (`cmp_steps_total`) is batched by the run loops —
    /// one counter add per [`run`](Self::run) / [`run_per_cycle`](Self::run_per_cycle)
    /// call instead of one atomic per cycle; a direct `step()` call is not
    /// individually counted.
    pub fn step(&mut self) {
        let now = self.cycle;
        self.mc.tick(now);
        while let Some(c) = self.mc.pop_completion(now) {
            if !c.is_write {
                self.cores[c.app].complete(c.addr);
            }
        }
        for core in &mut self.cores {
            core.step_llc(now, &mut self.mc, self.llc.as_mut());
        }
        self.cycle += 1;
    }

    /// Run `cycles` CPU cycles.
    ///
    /// With [`CmpConfig::fast_forward`] enabled (the default), every core
    /// keeps its own clock: it runs ahead through the cycles that touch
    /// only its private state, and the system loop visits only the cycles
    /// with a shared event (see `run_exact`). Counter-identical to
    /// [`run_per_cycle`](Self::run_per_cycle), the always-stepping
    /// reference, which `fast_forward: false` delegates to.
    ///
    /// With [`CmpConfig::hybrid`] set, runs switch to analytic hybrid
    /// stepping (`run_hybrid`) — tolerance-certified
    /// rather than bit-identical; see [`crate::hybrid`].
    pub fn run(&mut self, cycles: u64) {
        if self.hybrid.is_some() && self.hybrid_armed {
            self.run_hybrid(cycles);
        } else {
            self.run_exact(cycles);
        }
    }

    /// Arm or disarm hybrid stepping without discarding its state. The
    /// [`Runner`](crate::runner::Runner) disarms the stepper for the
    /// warm-up and profiling phases — keeping online `APC_alone`/`API`
    /// estimation (and therefore the derived partition) cycle-exact — and
    /// arms it only for measurement, where steady state dominates. No-op
    /// when the system was built without [`CmpConfig::hybrid`].
    pub fn set_hybrid_armed(&mut self, on: bool) {
        self.hybrid_armed = on;
    }

    /// The cycle-exact run loop on per-core clocks; counter-identical to
    /// [`run_per_cycle`](Self::run_per_cycle).
    ///
    /// Each core first runs ahead alone ([`Core::run_ahead`]) to the first
    /// cycle it cannot finish privately. The loop then visits, in order,
    /// only the cycles on which something shared happens:
    ///
    /// * the controller has a command clock on which a queued request can
    ///   issue — one at or above the DRAM floor — or a completion lands
    ///   ([`MemoryController::next_event_cycle`] names the next such
    ///   cycle);
    /// * a core must finish a begun cycle against the shared LLC or the
    ///   controller.
    ///
    /// A visit runs that cycle's tick, then its completions, then
    /// [`Core::step_from`] for every core whose clock stands in it, in core
    /// order — the order [`step`](Self::step) uses — and each stepped core
    /// runs ahead again. A core whose next instruction is held by the
    /// ROB/MSHR limits needs no visit at all until a completion reaches it
    /// ([`Core::wake`] then charges its stall cycles in bulk). A command
    /// clock skipped with work queued lies below the floor, where nothing
    /// can issue: the next visit's tick settles it in closed form
    /// ([`MemoryController::settle_before`]), before any core enqueues,
    /// and the run's end settles the rest. Every other cycle's tick finds
    /// no work queued and no completion due, and every core's share of it
    /// is private, so skipping it changes nothing the reference would not.
    ///
    /// `cmp_steps_total` counts visits, `cmp_ff_skipped_cycles_total` the
    /// cycles with no visit, and `cmp_ff_jumps_total` the runs of such
    /// cycles.
    // The visit and jump tallies feed only `obs_count!`, which expands to
    // nothing without the `trace` feature; the optimiser then drops them.
    #[cfg_attr(not(feature = "trace"), allow(unused_variables, unused_assignments))]
    fn run_exact(&mut self, cycles: u64) {
        if !self.fast_forward {
            self.run_per_cycle(cycles);
            return;
        }
        let end = self.cycle + cycles;
        for (core, clock) in self.cores.iter_mut().zip(&mut self.clocks) {
            *clock = core.run_ahead(self.cycle, end);
        }
        let mut now = self.cycle;
        let mut visits = 0u64;
        let mut jumps = 0u64;
        loop {
            let mut t = self.mc.next_event_cycle(now).unwrap_or(end);
            for clock in &self.clocks {
                if !clock.blocked {
                    t = t.min(clock.cycle);
                }
            }
            if t >= end {
                break;
            }
            bwpart_core::invariant!(t >= now, "system clock ran back from {now} to {t}");
            jumps += u64::from(t > now);
            visits += 1;
            self.mc.tick(t);
            while let Some(c) = self.mc.pop_completion(t) {
                if !c.is_write {
                    self.cores[c.app].complete(c.addr);
                    self.cores[c.app].wake(&mut self.clocks[c.app], t);
                }
            }
            for (core, clock) in self.cores.iter_mut().zip(&mut self.clocks) {
                if clock.cycle == t && !clock.blocked {
                    core.step_from(t, clock.budget, &mut self.mc, self.llc.as_mut());
                    *clock = core.run_ahead(t + 1, end);
                }
            }
            now = t + 1;
        }
        self.mc.settle_before(end);
        jumps += u64::from(end > now);
        // Cores still blocked stalled through the end of the run.
        for (core, clock) in self.cores.iter_mut().zip(&mut self.clocks) {
            core.wake(clock, end);
        }
        self.cycle = end;
        obs_count!(self.obs, steps, visits);
        obs_count!(self.obs, ff_jumps, jumps);
        obs_count!(self.obs, ff_skipped_cycles, cycles - visits);
    }

    /// Analytic hybrid stepping ([`crate::hybrid`]): run cycle-exact
    /// observation windows; once the detector certifies steady state, jump
    /// `jump_windows × window` cycles by crediting the last window's
    /// counter deltas (exact integer scaling) and resume exact stepping.
    /// Each `run` call is treated as a phase boundary (detector history is
    /// cleared), and a jump is taken only if a full observation window
    /// still fits before `cycles` end, so every run finishes on
    /// exactly-simulated state.
    // The jump tallies feed only `obs_count!` (see `run_exact`).
    #[cfg_attr(not(feature = "trace"), allow(unused_variables, unused_assignments))]
    fn run_hybrid(&mut self, cycles: u64) {
        // lint: allow(R1): run() dispatches here only when hybrid is Some
        let mut h = self.hybrid.take().expect("hybrid state present");
        h.reset_phase();
        let end = self.cycle + cycles;
        let mut jumps = 0u64;
        let mut jumped = 0u64;
        while self.cycle < end {
            let remaining = end - self.cycle;
            let window = h.cfg().window;
            // Jump up to `jump_windows` windows, clipped so at least one
            // whole exact window still fits before `end` — the run must
            // finish on freshly simulated micro-state, never straight off
            // an extrapolation.
            let k = (remaining.saturating_sub(window) / window).min(h.cfg().jump_windows);
            if k >= 1 && h.steady() {
                // Credit k × the history-mean window delta.
                let jump = window * k;
                let d = h.jump_delta(k);
                for (i, core) in self.cores.iter_mut().enumerate() {
                    core.counters.retired += d.retired[i];
                    core.counters.l1_misses += d.l1[i];
                    core.counters.l2_misses += d.l2[i];
                }
                self.cycle += jump;
                self.mc.analytic_jump(
                    &d.served,
                    &d.latency,
                    &d.interference,
                    d.busy,
                    d.stalled,
                    self.cycle,
                );
                h.note_jump(jump);
                jumps += 1;
                jumped += jump;
                continue;
            }
            let w = h.cfg().window.min(remaining);
            h.begin_window(self.hybrid_snap());
            self.run_exact(w);
            if w == h.cfg().window {
                let snap = self.hybrid_snap();
                h.end_window(&snap);
            } else {
                h.discard_window();
            }
        }
        self.hybrid = Some(h);
        obs_count!(self.obs, ff_jumps, jumps);
        obs_count!(self.obs, ff_skipped_cycles, jumped);
    }

    /// Counter snapshot bracketing a hybrid observation window.
    fn hybrid_snap(&self) -> HybridSnap {
        let n = self.cores.len();
        HybridSnap {
            served: self.mc.stats().served.clone(),
            latency: self.mc.stats().latency_sum.clone(),
            interference: (0..n).map(|i| self.mc.interference_cycles(i)).collect(),
            retired: self.cores.iter().map(|c| c.counters.retired).collect(),
            l1: self.cores.iter().map(|c| c.counters.l1_misses).collect(),
            l2: self.cores.iter().map(|c| c.counters.l2_misses).collect(),
            busy: self.mc.stats().busy_ticks,
            stalled: self.mc.stats().stalled_ticks,
            row_hits: self.mc.dram().stats().row_hits,
            dram_served: self.mc.dram().stats().served,
        }
    }

    /// `(jumps, cycles)` the hybrid stepper has credited analytically so
    /// far; `(0, 0)` when hybrid stepping is off.
    pub fn hybrid_jumped(&self) -> (u64, u64) {
        self.hybrid
            .as_ref()
            .map_or((0, 0), |h| (h.jumps(), h.jumped_cycles()))
    }

    /// Run `cycles` CPU cycles strictly one [`step`](Self::step) at a time,
    /// regardless of [`CmpConfig::fast_forward`] — the reference behaviour
    /// the per-core clocks of [`run`](Self::run) must reproduce exactly.
    pub fn run_per_cycle(&mut self, cycles: u64) {
        let end = self.cycle + cycles;
        while self.cycle < end {
            self.step();
        }
        obs_count!(self.obs, steps, cycles);
    }

    /// Snapshot lifetime counters (for windowed deltas).
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        self.snapshot_into(&mut snap);
        snap
    }

    /// Fill `snap` with the current lifetime counters, reusing its buffers.
    /// Equivalent to [`snapshot`](Self::snapshot) without the four vector
    /// allocations — callers that snapshot in a loop (epoch repartitioning,
    /// ablation sweeps) keep one scratch `Snapshot` per window edge.
    pub fn snapshot_into(&self, snap: &mut Snapshot) {
        snap.cycle = self.cycle;
        snap.instructions.clear();
        snap.instructions.extend(
            self.cores
                .iter()
                .enumerate()
                .map(|(i, c)| self.lifetime_instr[i] + c.counters.retired),
        );
        snap.served.clear();
        snap.served.extend_from_slice(&self.mc.stats().served);
        snap.l1_misses.clear();
        snap.l1_misses
            .extend(self.cores.iter().map(|c| c.counters.l1_misses));
        snap.l2_misses.clear();
        snap.l2_misses
            .extend(self.cores.iter().map(|c| c.counters.l2_misses));
    }

    /// Per-application stats for the window between two snapshots.
    pub fn window_stats(&self, start: &Snapshot, end: &Snapshot) -> Vec<AppStats> {
        let cycles = end.cycle - start.cycle;
        (0..self.cores.len())
            .map(|i| AppStats {
                name: self.cores[i].workload_name().to_string(),
                instructions: end.instructions[i] - start.instructions[i],
                mem_accesses: end.served[i] - start.served[i],
                cycles,
                l1_misses: end.l1_misses[i].saturating_sub(start.l1_misses[i]),
                l2_misses: end.l2_misses[i].saturating_sub(start.l2_misses[i]),
                interference_cycles: self.mc.interference_cycles(i),
            })
            .collect()
    }

    /// Reset per-phase core counters while preserving lifetime instruction
    /// counts (cache/DRAM state is untouched; LLC hit/miss counters reset
    /// like the private-cache counters, LLC contents stay warm).
    pub fn reset_phase_counters(&mut self) {
        for (i, core) in self.cores.iter_mut().enumerate() {
            self.lifetime_instr[i] += core.counters.retired;
            core.reset_counters();
        }
        if let Some(llc) = &mut self.llc {
            llc.reset_counters();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::Access;

    struct Uniform {
        gap: u32,
        next: u64,
        stride: u64,
    }
    impl Workload for Uniform {
        fn next_access(&mut self) -> Access {
            let a = self.next;
            self.next += self.stride;
            Access {
                gap: self.gap,
                addr: a,
                is_write: false,
            }
        }
        fn name(&self) -> &str {
            "uniform"
        }
    }

    fn mk(n: usize, gap: u32) -> CmpSystem {
        let cfg = CmpConfig::default();
        let workloads: Vec<Box<dyn Workload>> = (0..n)
            .map(|_| {
                Box::new(Uniform {
                    gap,
                    next: 0,
                    stride: 64,
                }) as Box<dyn Workload>
            })
            .collect();
        let cfgs = vec![CoreConfig::default(); n];
        CmpSystem::new(&cfg, workloads, cfgs, Policy::fcfs(n))
    }

    #[test]
    fn identical_streaming_cores_split_bandwidth_roughly_evenly() {
        let mut sys = mk(4, 10);
        sys.run(300_000);
        let start = Snapshot {
            cycle: 0,
            instructions: vec![0; 4],
            served: vec![0; 4],
            l1_misses: vec![0; 4],
            l2_misses: vec![0; 4],
        };
        let end = sys.snapshot();
        let stats = sys.window_stats(&start, &end);
        let total: f64 = stats.iter().map(|s| s.apc()).sum();
        // Saturated DDR2-400: ~0.01 APC in total.
        assert!(total > 0.008, "total APC {total}");
        for s in &stats {
            let share = s.apc() / total;
            assert!((share - 0.25).abs() < 0.05, "share {share}");
        }
        // Eq. 1 holds per app.
        for s in &stats {
            assert!((s.ipc() - s.apc() / s.api()).abs() / s.ipc() < 0.05);
        }
    }

    #[test]
    fn snapshots_delta_correctly() {
        let mut sys = mk(2, 50);
        sys.run(50_000);
        let a = sys.snapshot();
        sys.run(50_000);
        let b = sys.snapshot();
        let stats = sys.window_stats(&a, &b);
        assert_eq!(stats[0].cycles, 50_000);
        assert!(stats[0].instructions > 0);
        assert!(stats[0].mem_accesses > 0);
    }

    #[test]
    fn phase_reset_preserves_lifetime_instructions() {
        let mut sys = mk(1, 50);
        sys.run(20_000);
        let before = sys.snapshot();
        sys.reset_phase_counters();
        sys.run(20_000);
        let after = sys.snapshot();
        assert!(after.instructions[0] > before.instructions[0]);
        // The delta is just the second window.
        let delta = after.instructions[0] - before.instructions[0];
        assert_eq!(delta, sys.core(0).counters.retired);
    }

    #[test]
    fn determinism_across_identical_runs() {
        let run = || {
            let mut sys = mk(3, 20);
            sys.run(100_000);
            let s = sys.snapshot();
            (s.instructions, s.served)
        };
        assert_eq!(run(), run());
    }

    /// Everything observable about a system, for bit-identity assertions.
    fn digest(sys: &CmpSystem) -> (u64, Snapshot, Vec<crate::core::CoreCounters>, McDigest) {
        (
            sys.cycle(),
            sys.snapshot(),
            (0..sys.cores())
                .map(|i| sys.core(i).counters.clone())
                .collect(),
            (
                sys.mc().stats().clone(),
                (0..sys.cores())
                    .map(|i| sys.mc().interference_cycles(i))
                    .collect(),
                sys.mc().dram().stats().clone(),
            ),
        )
    }
    type McDigest = (bwpart_mc::McStats, Vec<u64>, bwpart_dram::DramStats);

    #[test]
    fn fast_forward_is_counter_identical_to_per_cycle() {
        // Saturating streams: long all-blocked windows, so the skip path is
        // exercised heavily. gap 20 leaves execute bursts between stalls.
        for gap in [5, 20, 80] {
            let mut skipped = mk(3, gap);
            skipped.run(150_000);
            let mut stepped = mk(3, gap);
            stepped.run_per_cycle(150_000);
            assert_eq!(
                digest(&skipped),
                digest(&stepped),
                "fast-forward diverged at gap {gap}"
            );
        }
    }

    #[test]
    fn fast_forward_equivalence_survives_chunked_runs() {
        // Phase boundaries land mid-skip-window; resuming must not change
        // anything relative to one uninterrupted run.
        let mut chunked = mk(2, 10);
        for chunk in [1_000, 37, 99_963, 29_000] {
            chunked.run(chunk);
        }
        let mut whole = mk(2, 10);
        whole.run(130_000);
        assert_eq!(digest(&chunked), digest(&whole));
    }

    #[test]
    fn fast_forward_disabled_still_matches() {
        let cfg = CmpConfig {
            fast_forward: false,
            ..CmpConfig::default()
        };
        let workloads: Vec<Box<dyn Workload>> = (0..2)
            .map(|_| {
                Box::new(Uniform {
                    gap: 15,
                    next: 0,
                    stride: 64,
                }) as Box<dyn Workload>
            })
            .collect();
        let mut off = CmpSystem::new(
            &cfg,
            workloads,
            vec![CoreConfig::default(); 2],
            Policy::fcfs(2),
        );
        off.run(60_000);
        let mut on = mk(2, 15);
        on.run(60_000);
        assert_eq!(digest(&off), digest(&on));
    }

    #[test]
    fn snapshot_into_reuses_buffers_and_matches_snapshot() {
        let mut sys = mk(2, 30);
        sys.run(40_000);
        let fresh = sys.snapshot();
        // Reuse a dirty, differently-sized scratch snapshot.
        let mut scratch = Snapshot {
            cycle: 999,
            instructions: vec![1, 2, 3, 4, 5],
            served: vec![9],
            l1_misses: vec![],
            l2_misses: vec![7, 7],
        };
        sys.snapshot_into(&mut scratch);
        assert_eq!(scratch, fresh);
        let cap = scratch.instructions.capacity();
        sys.run(10_000);
        sys.snapshot_into(&mut scratch);
        assert_eq!(scratch, sys.snapshot());
        assert_eq!(
            scratch.instructions.capacity(),
            cap,
            "refill must not reallocate"
        );
    }

    #[test]
    fn attached_observability_never_changes_results() {
        let reg = bwpart_obs::Registry::new();
        let mut observed = mk(3, 20);
        observed.attach_obs(&reg);
        observed.run(120_000);
        let mut plain = mk(3, 20);
        plain.run(120_000);
        assert_eq!(digest(&observed), digest(&plain));
        observed.publish_metrics(&reg);
        let snap = reg.snapshot();
        assert!(
            snap.gauges.iter().any(|g| g.name == "cmp_cycle"),
            "publish must export the cycle gauge"
        );
        if bwpart_obs::trace_enabled() {
            // Fast-forward dominates a saturating mix: jumps + steps must
            // together account for every simulated cycle.
            let c = |n: &str| reg.counter(n).get();
            assert_eq!(
                c("cmp_steps_total") + c("cmp_ff_skipped_cycles_total"),
                120_000
            );
            assert!(c("cmp_ff_jumps_total") > 0, "skip path never taken");
        }
    }

    /// Cyclic sweep over a fixed footprint (a tunable working set).
    struct Cyclic {
        gap: u32,
        next: u64,
        footprint: u64,
    }
    impl Workload for Cyclic {
        fn next_access(&mut self) -> Access {
            let a = self.next;
            self.next = (self.next + 64) % self.footprint;
            Access {
                gap: self.gap,
                addr: a,
                is_write: false,
            }
        }
        fn name(&self) -> &str {
            "cyclic"
        }
    }

    fn mk_llc(workloads: Vec<Box<dyn Workload>>, llc: Option<LlcConfig>) -> CmpSystem {
        let cfg = CmpConfig {
            llc,
            ..CmpConfig::default()
        };
        let n = workloads.len();
        CmpSystem::new(
            &cfg,
            workloads,
            vec![CoreConfig::default(); n],
            Policy::fcfs(n),
        )
    }

    /// A 1 MB, 16-way LLC: small enough that a test can warm it quickly at
    /// DDR2-400 fill rates.
    fn small_llc() -> LlcConfig {
        LlcConfig {
            cache: CacheConfig {
                capacity: 1024 * 1024,
                ways: 16,
                line_bytes: 64,
            },
            hit_penalty: 12,
        }
    }

    #[test]
    fn llc_absorbs_l2_miss_traffic() {
        // 320 KB cyclic working set: overflows the 256 KB L2 (cyclic + LRU
        // thrashes), fits the 1 MB LLC. Once warm, demand reads stop
        // reaching DRAM entirely.
        let wl = || -> Vec<Box<dyn Workload>> {
            vec![Box::new(Cyclic {
                gap: 4,
                next: 0,
                footprint: 320 * 1024,
            })]
        };
        let mut with = mk_llc(wl(), Some(small_llc()));
        with.run(900_000);
        with.reset_phase_counters();
        with.run(200_000);
        assert_eq!(
            with.core(0).counters.mem_reads,
            0,
            "warm LLC-resident set must produce no DRAM reads"
        );
        assert!(with.llc().unwrap().counters(0).hits > 0);
        // Without the LLC the same workload keeps streaming from DRAM.
        let mut without = mk_llc(wl(), None);
        without.run(900_000);
        without.reset_phase_counters();
        without.run(200_000);
        assert!(without.core(0).counters.mem_reads > 0);
    }

    #[test]
    fn repartitioning_ways_shifts_llc_behaviour() {
        // App 0: 320 KB working set, LLC-sensitive. App 1: streaming hog.
        // With 2 ways (128 KB) app 0 thrashes; repartitioned mid-run to
        // 14 ways (896 KB) it warms its expanded share and stops missing.
        let wl: Vec<Box<dyn Workload>> = vec![
            Box::new(Cyclic {
                gap: 4,
                next: 0,
                footprint: 320 * 1024,
            }),
            Box::new(Uniform {
                gap: 4,
                next: 0,
                stride: 64,
            }),
        ];
        let mut sys = mk_llc(wl, Some(small_llc()));
        sys.set_llc_ways(&[2, 14]);
        sys.run(600_000);
        sys.llc.as_mut().unwrap().reset_counters();
        sys.run(300_000);
        let tight = sys.llc().unwrap().counters(0).clone();
        assert!(
            tight.miss_ratio() > 0.8,
            "128 KB share must thrash a 320 KB cyclic set: {}",
            tight.miss_ratio()
        );
        // Mid-run repartition: app 0's own fills populate the new ways.
        sys.set_llc_ways(&[14, 2]);
        assert_eq!(sys.llc().unwrap().way_allocation(), &[14, 2]);
        sys.run(1_500_000);
        sys.llc.as_mut().unwrap().reset_counters();
        sys.run(300_000);
        let wide = sys.llc().unwrap().counters(0).clone();
        assert!(
            wide.miss_ratio() < 0.2,
            "896 KB share must absorb the set: {} -> {}",
            tight.miss_ratio(),
            wide.miss_ratio()
        );
    }

    #[test]
    fn llc_fast_forward_is_counter_identical_to_per_cycle() {
        let wl = || -> Vec<Box<dyn Workload>> {
            vec![
                Box::new(Cyclic {
                    gap: 10,
                    next: 0,
                    footprint: 512 * 1024,
                }),
                Box::new(Uniform {
                    gap: 10,
                    next: 0,
                    stride: 64,
                }),
            ]
        };
        let mut skipped = mk_llc(wl(), Some(LlcConfig::default()));
        skipped.run(150_000);
        let mut stepped = mk_llc(wl(), Some(LlcConfig::default()));
        stepped.run_per_cycle(150_000);
        assert_eq!(digest(&skipped), digest(&stepped));
        assert_eq!(
            skipped.llc().unwrap().counters(0),
            stepped.llc().unwrap().counters(0)
        );
        assert_eq!(
            skipped.llc().unwrap().counters(1),
            stepped.llc().unwrap().counters(1)
        );
    }

    #[test]
    #[should_panic(expected = "without an LLC")]
    fn set_llc_ways_without_llc_panics() {
        let mut sys = mk(1, 10);
        sys.set_llc_ways(&[16]);
    }

    #[test]
    #[should_panic(expected = "one config per core")]
    fn mismatched_configs_panic() {
        let cfg = CmpConfig::default();
        let w: Vec<Box<dyn Workload>> = vec![Box::new(Uniform {
            gap: 1,
            next: 0,
            stride: 64,
        })];
        let _ = CmpSystem::new(&cfg, w, vec![], Policy::fcfs(1));
    }
}
