//! The core model and the workload interface it executes.
//!
//! A core consumes an abstract instruction stream — runs of non-memory
//! instructions punctuated by memory accesses — through its private L1/L2
//! hierarchy. Out-of-order execution is abstracted to three limits, which
//! are the only core properties that matter for bandwidth-partitioning
//! behaviour:
//!
//! * **issue width** — non-memory IPC ceiling (Table II: 8-wide),
//! * **ROB window** — how many instructions the core may run past its
//!   oldest outstanding L2 miss (Table II: 192 entries),
//! * **MSHRs** — the maximum outstanding L2 misses, i.e. the application's
//!   memory-level parallelism.
//!
//! When the memory system is the bottleneck these limits make
//! `IPC = APC / API` (Eq. 1) emerge naturally: the core retires exactly one
//! inter-miss instruction gap per serviced miss.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use bwpart_core::Divider;
use bwpart_mc::{MemRequest, MemoryController};

use crate::cache::{Cache, CacheConfig, CacheOutcome};
use crate::llc::SharedLlc;

/// One element of an application's instruction stream: `gap` non-memory
/// instructions followed by one memory instruction at `addr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Access {
    /// Non-memory instructions preceding this access.
    pub gap: u32,
    /// Byte address of the access (application-local; the core adds its
    /// physical region base).
    pub addr: u64,
    /// Store (true) or load (false).
    pub is_write: bool,
}

/// An application's dynamic instruction stream.
///
/// Implementations must be deterministic for a given construction seed; the
/// simulator's reproducibility rests on it. A stream must also not depend
/// on *when* it is read: a [`Core`] reads its workload ahead of execution,
/// [`RING_LEN`] accesses at a time, so an access may be generated up to
/// that many accesses before the core consumes it, and accesses generated
/// near the end of a run may never be consumed.
pub trait Workload {
    /// Produce the next access (streams are infinite; generators wrap).
    fn next_access(&mut self) -> Access;

    /// Fill `out` with the next `out.len()` accesses, in stream order —
    /// exactly what as many [`next_access`](Self::next_access) calls
    /// would return. The provided body is compiled once per
    /// implementation, so its `next_access` calls are direct (and
    /// inlinable) even when the workload is a `dyn Workload`: a core pays
    /// one dynamic call per refill of its ring instead of one per access.
    fn fill(&mut self, out: &mut [Access]) {
        for a in out {
            *a = self.next_access();
        }
    }

    /// Identifier used in reports.
    fn name(&self) -> &str {
        "anonymous"
    }
}

/// Core parameters (Table II defaults via [`CoreConfig::default`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Instructions retired per cycle at most (decode/issue/retire width).
    pub width: u32,
    /// Reorder-buffer window in instructions.
    pub rob_window: u64,
    /// Maximum outstanding L2 misses (application MLP).
    pub mshrs: usize,
    /// Serialized penalty cycles charged per L2 hit (the un-overlapped
    /// remainder of the 5 ns L2 latency in an OoO core).
    pub l2_hit_penalty: u32,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            width: 8,
            rob_window: 192,
            mshrs: 8,
            l2_hit_penalty: 2,
        }
    }
}

/// Per-core counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreCounters {
    /// Instructions retired.
    pub retired: u64,
    /// L1 data hits.
    pub l1_hits: u64,
    /// L1 data misses.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses (demand reads sent to memory, before MSHR merges).
    pub l2_misses: u64,
    /// Demand reads actually issued to the controller.
    pub mem_reads: u64,
    /// Writebacks issued to the controller (L2 dirty evictions).
    pub mem_writes: u64,
    /// Cycles fully stalled on ROB/MSHR limits.
    pub stall_cycles: u64,
}

/// A core's own clock, as [`Core::run_ahead`] leaves it: the core has
/// simulated every cycle before `cycle` and possibly the start of `cycle`
/// itself, which [`Core::step_from`] finishes once the rest of the system
/// has reached it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CoreClock {
    /// The cycle the core stands in (the run's limit when every cycle up
    /// to it was private).
    pub(crate) cycle: u64,
    /// Issue slots left in `cycle` (the full width when it has not begun).
    pub(crate) budget: u32,
    /// The memory instruction due in `cycle` is held by the ROB/MSHR
    /// limits, given the completions delivered so far. Until a completion
    /// reaches the core, it and every later cycle only stall.
    pub(crate) blocked: bool,
}

/// How many accesses a [`Core`] reads from its workload at a time (one
/// [`Workload::fill`] call per refill of its ring).
pub const RING_LEN: usize = 32;

/// One core with its private cache hierarchy and workload.
pub struct Core {
    app: usize,
    cfg: CoreConfig,
    /// Divides by `cfg.width`: the pure-gap cycles of
    /// [`run_ahead`](Self::run_ahead).
    width_div: Divider,
    l1: Cache,
    l2: Cache,
    workload: Box<dyn Workload>,
    /// The workload's next accesses, read ahead [`RING_LEN`] at a time.
    ring: [Access; RING_LEN],
    /// Index in `ring` of the access after `current`; `RING_LEN` once the
    /// ring is consumed and due for a refill.
    ring_pos: usize,
    /// Physical base of this application's DRAM region.
    app_base: u64,
    /// Mask confining workload addresses to the region.
    region_mask: u64,
    /// The access whose gap is currently being executed.
    current: Access,
    /// Non-memory instructions left before `current`'s memory op.
    gap_left: u32,
    /// Sequence numbers (instruction indices) of outstanding L2 misses,
    /// oldest first, with completion flags.
    outstanding: VecDeque<(u64, u64, bool)>, // (seq, line_addr, done)
    /// Serialized L2-hit penalty cycles pending.
    l2_wait: u32,
    /// Instructions started (sequence counter).
    seq: u64,
    /// Counters.
    pub counters: CoreCounters,
}

impl Core {
    /// Build a core for application `app`, confining its traffic to a
    /// `region_bytes`-sized physical region at `app_base`.
    pub fn new(
        app: usize,
        cfg: CoreConfig,
        l1: CacheConfig,
        l2: CacheConfig,
        mut workload: Box<dyn Workload>,
        app_base: u64,
        region_bytes: u64,
    ) -> Self {
        assert!(
            region_bytes.is_power_of_two(),
            "region must be a power of two"
        );
        assert!(cfg.width >= 1 && cfg.mshrs >= 1 && cfg.rob_window >= 1);
        let mut ring = [Access {
            gap: 0,
            addr: 0,
            is_write: false,
        }; RING_LEN];
        workload.fill(&mut ring);
        let current = ring[0];
        let gap_left = current.gap;
        Core {
            app,
            cfg,
            width_div: Divider::new(u64::from(cfg.width)),
            l1: Cache::new(l1),
            l2: Cache::new(l2),
            workload,
            ring,
            ring_pos: 1,
            app_base,
            region_mask: region_bytes - 1,
            current,
            gap_left,
            outstanding: VecDeque::new(),
            l2_wait: 0,
            seq: 0,
            counters: CoreCounters::default(),
        }
    }

    /// Application index.
    pub fn app(&self) -> usize {
        self.app
    }

    /// The workload's name.
    pub fn workload_name(&self) -> &str {
        self.workload.name()
    }

    /// Outstanding L2 misses right now.
    pub fn outstanding_misses(&self) -> usize {
        self.outstanding.len()
    }

    fn phys(&self, addr: u64) -> u64 {
        self.app_base | (addr & self.region_mask)
    }

    /// Route a completed memory read back to the core. All outstanding
    /// entries for the line resolve together (MSHR-merged accesses share
    /// one DRAM transaction).
    pub fn complete(&mut self, addr: u64) {
        let line = addr & !63u64;
        for entry in self.outstanding.iter_mut() {
            if entry.1 == line {
                entry.2 = true;
            }
        }
        while matches!(self.outstanding.front(), Some((_, _, true))) {
            self.outstanding.pop_front();
        }
    }

    fn limits_block(&self) -> bool {
        if self.outstanding.len() >= self.cfg.mshrs {
            return true;
        }
        if let Some(&(oldest, _, _)) = self.outstanding.front() {
            if self.seq.saturating_sub(oldest) >= self.cfg.rob_window {
                return true;
            }
        }
        false
    }

    /// Advance to the workload's next access, refilling the ring once it
    /// is consumed.
    fn fetch_next(&mut self) {
        if self.ring_pos == RING_LEN {
            self.workload.fill(&mut self.ring);
            self.ring_pos = 0;
        }
        self.current = self.ring[self.ring_pos];
        self.ring_pos += 1;
        self.gap_left = self.current.gap;
    }

    /// Execute one CPU cycle, possibly issuing memory requests to `mc`.
    /// Equivalent to [`step_llc`](Self::step_llc) without a shared LLC.
    pub fn step(&mut self, now: u64, mc: &mut MemoryController) {
        self.step_llc(now, mc, None);
    }

    /// Route a dirty L2 victim toward DRAM: through the shared LLC when one
    /// is present (only a dirty *LLC* victim then reaches the controller),
    /// straight to the controller otherwise.
    fn spill_l2_victim(
        &mut self,
        wb: u64,
        now: u64,
        mc: &mut MemoryController,
        llc: &mut Option<&mut SharedLlc>,
    ) {
        let dram_wb = match llc.as_deref_mut() {
            Some(l) => l.writeback(self.app, wb),
            None => Some(wb),
        };
        if let Some(w) = dram_wb {
            self.counters.mem_writes += 1;
            mc.enqueue(MemRequest::write(self.app, w, now));
        }
    }

    /// Execute one CPU cycle with an optional shared LLC between the
    /// private L2 and the memory controller. With `llc` absent this is
    /// exactly the private-hierarchy [`step`](Self::step); with it present,
    /// L2 misses probe the LLC first — an LLC hit serializes the LLC hit
    /// penalty through the same wait machinery as an L2 hit, and only LLC
    /// misses and dirty LLC victims produce DRAM traffic.
    pub fn step_llc(&mut self, now: u64, mc: &mut MemoryController, llc: Option<&mut SharedLlc>) {
        if self.l2_wait > 0 {
            self.l2_wait -= 1;
            return;
        }
        self.step_from(now, self.cfg.width, mc, llc);
    }

    /// Run this core alone from the start of cycle `from` through every
    /// cycle that touches only its private state, up to `limit`.
    ///
    /// Private work is a serialized L2/LLC-hit wait, gap instructions, and
    /// memory instructions that hit in L1 ([`Cache::access_if_hit`]). The
    /// run stops *before* a memory instruction that misses in L1 or is held
    /// by the ROB/MSHR limits; the returned clock names that begun cycle and
    /// the issue budget left in it, for [`step_from`](Self::step_from) to
    /// finish once the system has delivered that cycle's completions. When
    /// every cycle before `limit` was private, the clock stands at `limit`
    /// with a fresh budget.
    ///
    /// Running ahead of the rest of the system is exact. The only shared
    /// state a private cycle reads is the ROB/MSHR check, through
    /// `outstanding`, and a completion can only relax that check:
    /// [`complete`](Self::complete) marks entries done and pops the done
    /// front, so the outstanding count never rises and the oldest
    /// outstanding sequence number never falls. A cycle that does not block
    /// with the completions delivered so far therefore does not block with
    /// more of them, and has the effect per-cycle [`step`](Self::step)
    /// would give it. A cycle that does block stops the run (`blocked`),
    /// since a completion landing by then may still release it.
    pub(crate) fn run_ahead(&mut self, from: u64, limit: u64) -> CoreClock {
        let width = self.cfg.width;
        let mut now = from;
        while now < limit {
            if self.l2_wait > 0 {
                // A wait cycle only counts the wait down.
                let wait = u64::from(self.l2_wait).min(limit - now);
                self.l2_wait -= wait as u32;
                now += wait;
                continue;
            }
            // Pure-gap cycles retire `width` non-memory instructions each
            // and never reach the memory instruction.
            let pure = (u64::from(self.gap_left) / self.width_div).min(limit - now);
            if pure > 0 {
                let instrs = pure * u64::from(width);
                self.gap_left -= instrs as u32;
                self.seq += instrs;
                self.counters.retired += instrs;
                now += pure;
                continue;
            }
            // A cycle that reaches a memory instruction: `step_from`'s loop
            // restricted to L1 hits.
            let mut budget = width;
            while budget > 0 {
                if self.gap_left > 0 {
                    let k = self.gap_left.min(budget);
                    self.gap_left -= k;
                    budget -= k;
                    self.seq += u64::from(k);
                    self.counters.retired += u64::from(k);
                    continue;
                }
                let blocked = self.limits_block();
                let addr = self.phys(self.current.addr);
                if blocked || !self.l1.access_if_hit(addr, self.current.is_write) {
                    return CoreClock {
                        cycle: now,
                        budget,
                        blocked,
                    };
                }
                self.counters.l1_hits += 1;
                self.retire_mem();
                budget -= 1;
            }
            now += 1;
        }
        CoreClock {
            cycle: limit,
            budget: width,
            blocked: false,
        }
    }

    /// Release a blocked clock at cycle `now`, after a completion reached
    /// this core then (or, at the end of a run, with `now` the run's end).
    /// When `now` is past the begun cycle, the rest of that cycle and every
    /// cycle since held the blocked instruction: each charges one stall
    /// (the begun cycle only if it retired nothing), and the clock restarts
    /// at `now` with a fresh budget. Otherwise the begun cycle still lies
    /// ahead and only loses its `blocked` mark.
    pub(crate) fn wake(&mut self, clock: &mut CoreClock, now: u64) {
        if !clock.blocked {
            return;
        }
        clock.blocked = false;
        if now > clock.cycle {
            let begun_stall = u64::from(clock.budget == self.cfg.width);
            self.counters.stall_cycles += now - clock.cycle - 1 + begun_stall;
            clock.cycle = now;
            clock.budget = self.cfg.width;
        }
    }

    /// Finish cycle `now` from where [`run_ahead`](Self::run_ahead) stopped,
    /// with `budget` issue slots left, against the shared LLC (when present)
    /// and the memory controller. The caller must already have delivered
    /// every completion due by `now`. On a core outside an L2 wait,
    /// `step_from(now, width, ..)` is one whole
    /// [`step_llc`](Self::step_llc) cycle.
    pub(crate) fn step_from(
        &mut self,
        now: u64,
        budget: u32,
        mc: &mut MemoryController,
        mut llc: Option<&mut SharedLlc>,
    ) {
        let mut budget = budget;
        // Only a cycle that retired something has used part of its budget.
        let mut progressed = budget < self.cfg.width;
        while budget > 0 {
            if self.gap_left > 0 {
                let k = self.gap_left.min(budget);
                self.gap_left -= k;
                budget -= k;
                self.seq += k as u64;
                self.counters.retired += k as u64;
                progressed = true;
                continue;
            }
            // The memory instruction of `current` is due.
            if self.limits_block() {
                break;
            }
            let addr = self.phys(self.current.addr);
            let is_write = self.current.is_write;
            match self.l1.access(addr, is_write) {
                CacheOutcome::Hit => {
                    self.counters.l1_hits += 1;
                    self.retire_mem();
                    budget -= 1;
                    progressed = true;
                }
                CacheOutcome::Miss { writeback } => {
                    self.counters.l1_misses += 1;
                    if let Some(wb) = writeback {
                        // L1 dirty victim installs into L2 (no memory fetch:
                        // the data moves downward); L2's own dirty victim
                        // goes to the LLC or DRAM.
                        if let CacheOutcome::Miss {
                            writeback: Some(l2wb),
                        } = self.l2.access(wb, true)
                        {
                            self.spill_l2_victim(l2wb, now, mc, &mut llc);
                        }
                    }
                    // Demand fill from L2 (the L1 copy carries dirtiness for
                    // stores; the L2 copy stays clean on a pure fill).
                    match self.l2.access(addr, false) {
                        CacheOutcome::Hit => {
                            self.counters.l2_hits += 1;
                            self.retire_mem();
                            self.l2_wait = self.cfg.l2_hit_penalty;
                            progressed = true;
                            break; // serialized L2-hit penalty starts next cycle
                        }
                        CacheOutcome::Miss { writeback: l2wb } => {
                            self.counters.l2_misses += 1;
                            if let Some(wb) = l2wb {
                                self.spill_l2_victim(wb, now, mc, &mut llc);
                            }
                            // Shared-LLC probe: a hit is absorbed before
                            // DRAM, serializing the LLC hit penalty exactly
                            // like an L2 hit does.
                            if let Some(l) = llc.as_deref_mut() {
                                match l.access(self.app, addr, false) {
                                    CacheOutcome::Hit => {
                                        let penalty = l.hit_penalty();
                                        self.retire_mem();
                                        self.l2_wait = penalty;
                                        progressed = true;
                                        break;
                                    }
                                    CacheOutcome::Miss { writeback: lwb } => {
                                        if let Some(w) = lwb {
                                            self.counters.mem_writes += 1;
                                            mc.enqueue(MemRequest::write(self.app, w, now));
                                        }
                                    }
                                }
                            }
                            let line = addr & !63u64;
                            // MSHR merge: a pending miss to the same line
                            // absorbs this access without a new request.
                            let merged = self
                                .outstanding
                                .iter()
                                .any(|(_, l, done)| *l == line && !done);
                            if !merged {
                                self.counters.mem_reads += 1;
                                mc.enqueue(MemRequest::read(self.app, addr, now));
                            }
                            self.outstanding.push_back((self.seq, line, false));
                            self.retire_mem();
                            budget -= 1;
                            progressed = true;
                        }
                    }
                }
            }
        }
        if !progressed {
            self.counters.stall_cycles += 1;
        }
    }

    fn retire_mem(&mut self) {
        self.seq += 1;
        self.counters.retired += 1;
        self.fetch_next();
    }

    /// Reset counters at a phase boundary (caches and in-flight state are
    /// preserved, like a real machine crossing a measurement boundary).
    pub fn reset_counters(&mut self) {
        self.counters = CoreCounters::default();
        self.l1.reset_counters();
        self.l2.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwpart_dram::DramConfig;
    use bwpart_mc::Policy;

    /// A workload issuing a fixed gap and a striding address pattern.
    struct Stride {
        gap: u32,
        next: u64,
        step: u64,
        is_write: bool,
    }

    impl Workload for Stride {
        fn next_access(&mut self) -> Access {
            let addr = self.next;
            self.next = self.next.wrapping_add(self.step);
            Access {
                gap: self.gap,
                addr,
                is_write: self.is_write,
            }
        }
        fn name(&self) -> &str {
            "stride"
        }
    }

    fn core_with(cfg: CoreConfig, gap: u32, step: u64, is_write: bool, region: u64) -> Core {
        Core::new(
            0,
            cfg,
            CacheConfig::l1d(),
            CacheConfig::l2(),
            Box::new(Stride {
                gap,
                next: 0,
                step,
                is_write,
            }),
            0,
            region,
        )
    }

    fn mk_core(gap: u32, step: u64, mshrs: usize) -> Core {
        let cfg = CoreConfig {
            mshrs,
            ..CoreConfig::default()
        };
        core_with(cfg, gap, step, false, 1 << 29)
    }

    fn mk_mc() -> MemoryController {
        MemoryController::new(DramConfig::ddr2_400(), 1, Policy::fcfs(1))
    }

    #[test]
    fn cache_resident_workload_runs_at_full_width() {
        // Tiny working set (one line revisited): all L1 hits after warm-up.
        let mut core = mk_core(7, 0, 8);
        let mut mc = mk_mc();
        // Long enough to amortize the single cold miss's stall.
        for now in 0..20_000 {
            core.step(now, &mut mc);
            for c in mc.drain_completions(now) {
                core.complete(c.addr);
            }
            mc.tick(now);
        }
        let ipc = core.counters.retired as f64 / 20_000.0;
        assert!(ipc > 7.5, "L1-resident IPC should be ~8, got {ipc}");
        assert_eq!(core.counters.mem_reads, 1); // only the first touch
    }

    #[test]
    fn streaming_workload_is_bandwidth_bound() {
        // Every access misses (64 B stride over a huge region), tiny gap:
        // the core's demand far exceeds DDR2-400.
        let mut core = mk_core(10, 64, 8);
        let mut mc = mk_mc();
        let cycles = 200_000u64;
        for now in 0..cycles {
            mc.tick(now);
            for c in mc.drain_completions(now) {
                core.complete(c.addr);
            }
            core.step(now, &mut mc);
        }
        let apc = core.counters.mem_reads as f64 / cycles as f64;
        // DDR2-400 peak is 0.01 APC; a single saturating stream should get
        // close (no competing traffic, minor refresh overhead).
        assert!(apc > 0.008, "streaming APC {apc} should approach 0.01");
        // And IPC follows Eq. 1: IPC ≈ APC / API with API = 1/11.
        let ipc = core.counters.retired as f64 / cycles as f64;
        let api = 1.0 / 11.0;
        assert!(
            (ipc - apc / api).abs() / ipc < 0.15,
            "Eq.1: ipc {ipc} vs apc/api {}",
            apc / api
        );
    }

    #[test]
    fn mshr_limit_bounds_outstanding_misses() {
        let mut core = mk_core(0, 64, 4);
        let mut mc = mk_mc();
        for now in 0..10_000 {
            mc.tick(now);
            for c in mc.drain_completions(now) {
                core.complete(c.addr);
            }
            core.step(now, &mut mc);
            assert!(core.outstanding_misses() <= 4);
        }
        assert!(core.counters.stall_cycles > 0, "MSHR limit should stall");
    }

    #[test]
    fn lower_mlp_means_lower_alone_bandwidth() {
        let run = |mshrs: usize| {
            let mut core = mk_core(20, 64, mshrs);
            let mut mc = mk_mc();
            let cycles = 200_000u64;
            for now in 0..cycles {
                mc.tick(now);
                for c in mc.drain_completions(now) {
                    core.complete(c.addr);
                }
                core.step(now, &mut mc);
            }
            core.counters.mem_reads as f64 / cycles as f64
        };
        let low = run(1);
        let high = run(8);
        assert!(
            high > low * 1.5,
            "MLP should raise standalone bandwidth: {low} vs {high}"
        );
    }

    #[test]
    fn rob_window_limits_run_ahead() {
        // gap 300 > rob 192: after one outstanding miss the core cannot
        // reach the next memory instruction, so misses never overlap.
        let mut core = Core::new(
            0,
            CoreConfig {
                rob_window: 192,
                mshrs: 8,
                ..CoreConfig::default()
            },
            CacheConfig::l1d(),
            CacheConfig::l2(),
            Box::new(Stride {
                gap: 300,
                next: 0,
                step: 64,
                is_write: false,
            }),
            0,
            1 << 29,
        );
        let mut mc = mk_mc();
        let mut max_out = 0;
        for now in 0..100_000 {
            mc.tick(now);
            for c in mc.drain_completions(now) {
                core.complete(c.addr);
            }
            core.step(now, &mut mc);
            max_out = max_out.max(core.outstanding_misses());
        }
        assert_eq!(max_out, 1, "ROB window should serialize distant misses");
    }

    /// The reference: one `step` per cycle after that cycle's tick and
    /// completions, as `CmpSystem::step` orders them.
    fn run_stepped(core: &mut Core, mc: &mut MemoryController, cycles: u64) {
        for now in 0..cycles {
            mc.tick(now);
            while let Some(c) = mc.pop_completion(now) {
                core.complete(c.addr);
            }
            core.step(now, mc);
        }
    }

    /// The same cycles on the core's own clock: visit only controller
    /// events and the core's begun cycles, then settle the controller's
    /// remaining stalled clocks, as `CmpSystem::run` does.
    fn run_clocked(core: &mut Core, mc: &mut MemoryController, cycles: u64) -> u64 {
        let mut clock = core.run_ahead(0, cycles);
        let mut now = 0;
        let mut visits = 0;
        loop {
            let mut t = mc.next_event_cycle(now).unwrap_or(cycles);
            if !clock.blocked {
                t = t.min(clock.cycle);
            }
            if t >= cycles {
                break;
            }
            visits += 1;
            mc.tick(t);
            while let Some(c) = mc.pop_completion(t) {
                core.complete(c.addr);
                core.wake(&mut clock, t);
            }
            if clock.cycle == t && !clock.blocked {
                core.step_from(t, clock.budget, mc, None);
                clock = core.run_ahead(t + 1, cycles);
            }
            now = t + 1;
        }
        mc.settle_before(cycles);
        core.wake(&mut clock, cycles);
        visits
    }

    #[test]
    fn run_ahead_then_step_from_equals_per_cycle_step() {
        // (gap, stride, writes, region, mshrs, width): L1-resident, an
        // L2-resident set (serialized L2-hit waits), MSHR-bound and
        // ROB-bound streams, a store stream with dirty writebacks, and a
        // 1-wide core.
        let cases = [
            (7, 0, false, 1 << 29, 8, 8),
            (0, 128, false, 1 << 17, 8, 8),
            (0, 64, false, 1 << 29, 2, 8),
            (300, 64, false, 1 << 29, 8, 4),
            (10, 64, true, 1 << 19, 4, 3),
            (3, 64, true, 1 << 29, 16, 1),
        ];
        for (gap, step, is_write, region, mshrs, width) in cases {
            let cfg = CoreConfig {
                width,
                mshrs,
                ..CoreConfig::default()
            };
            let mut stepped = core_with(cfg, gap, step, is_write, region);
            let mut clocked = core_with(cfg, gap, step, is_write, region);
            let (mut mc_s, mut mc_c) = (mk_mc(), mk_mc());
            let cycles = 60_000;
            run_stepped(&mut stepped, &mut mc_s, cycles);
            let visits = run_clocked(&mut clocked, &mut mc_c, cycles);
            let case = (gap, step, is_write, region, mshrs, width);
            assert_eq!(stepped.counters, clocked.counters, "{case:?}");
            assert_eq!(stepped.outstanding, clocked.outstanding, "{case:?}");
            assert_eq!(
                (stepped.seq, stepped.gap_left, stepped.l2_wait),
                (clocked.seq, clocked.gap_left, clocked.l2_wait),
                "{case:?}"
            );
            assert_eq!(mc_s.stats(), mc_c.stats(), "{case:?}");
            assert_eq!(mc_s.dram().stats(), mc_c.dram().stats(), "{case:?}");
            assert!(visits < cycles, "{case:?}: every cycle was visited");
        }
    }

    #[test]
    fn run_ahead_stops_before_an_l1_miss_without_touching_it() {
        // gap 10 at width 8: cycle 0 is pure gap; cycle 1 retires the last
        // two gap instructions and reaches a cold L1 miss.
        let mut core = mk_core(10, 64, 8);
        let clock = core.run_ahead(0, 100);
        assert_eq!(
            clock,
            CoreClock {
                cycle: 1,
                budget: 6,
                blocked: false
            }
        );
        assert_eq!(core.counters.retired, 10);
        assert_eq!((core.l1.hits, core.l1.misses), (0, 0));
        let mut mc = mk_mc();
        core.step_from(1, clock.budget, &mut mc, None);
        assert_eq!(core.counters.l1_misses, 1);
        assert_eq!(core.counters.mem_reads, 1);
        assert_eq!(core.counters.stall_cycles, 0, "cycle 1 already progressed");
        // Once its one cold miss is back, an L1-resident core runs all the
        // way to the limit.
        let mut warm = mk_core(7, 0, 8);
        warm.step(0, &mut mc);
        warm.complete(0);
        let clock = warm.run_ahead(1, 1_000);
        assert_eq!(
            (clock.cycle, clock.budget, clock.blocked),
            (1_000, 8, false)
        );
    }

    #[test]
    fn a_blocked_clock_charges_its_stalls_in_bulk() {
        // gap 0 with one MSHR: the first miss blocks every later cycle.
        let mut stepped = mk_core(0, 64, 1);
        let mut clocked = mk_core(0, 64, 1);
        let mut mc = mk_mc();
        stepped.step(0, &mut mc);
        clocked.step(0, &mut mc);
        let mut clock = clocked.run_ahead(1, 100);
        assert_eq!(
            clock,
            CoreClock {
                cycle: 1,
                budget: 8,
                blocked: true
            }
        );
        for now in 1..40 {
            stepped.step(now, &mut mc);
        }
        clocked.wake(&mut clock, 40);
        assert_eq!(stepped.counters, clocked.counters);
        assert_eq!(stepped.counters.stall_cycles, 39);
        assert_eq!((clock.cycle, clock.budget, clock.blocked), (40, 8, false));
        // A wake before the begun cycle only clears the mark.
        let mut ahead = CoreClock {
            cycle: 50,
            budget: 3,
            blocked: true,
        };
        clocked.wake(&mut ahead, 45);
        assert_eq!((ahead.cycle, ahead.budget, ahead.blocked), (50, 3, false));
        assert_eq!(clocked.counters.stall_cycles, 39);
    }

    #[test]
    fn stores_generate_writeback_traffic() {
        // Write-streaming through a footprint larger than L2: dirty lines
        // must come back out as DRAM writes.
        let mut core = Core::new(
            0,
            CoreConfig::default(),
            CacheConfig::l1d(),
            CacheConfig::l2(),
            Box::new(Stride {
                gap: 10,
                next: 0,
                step: 64,
                is_write: true,
            }),
            0,
            1 << 19, // 512 KB region: twice L2, so dirty lines cycle out
        );
        let mut mc = mk_mc();
        for now in 0..800_000 {
            mc.tick(now);
            for c in mc.drain_completions(now) {
                core.complete(c.addr);
            }
            core.step(now, &mut mc);
        }
        assert!(
            core.counters.mem_writes > 0,
            "dirty evictions must reach DRAM (reads {})",
            core.counters.mem_reads
        );
        // Once L2 is full, fills displace dirty lines (the run spends its
        // first half warming the hierarchy, so the ratio is well below 1).
        let ratio = core.counters.mem_writes as f64 / core.counters.mem_reads as f64;
        assert!(ratio > 0.1, "writeback ratio {ratio}");
    }

    #[test]
    fn addresses_confined_to_region() {
        let mut core = Core::new(
            3,
            CoreConfig::default(),
            CacheConfig::l1d(),
            CacheConfig::l2(),
            Box::new(Stride {
                gap: 0,
                next: 0,
                step: 64,
                is_write: false,
            }),
            3 << 29,
            1 << 29,
        );
        let mut mc = MemoryController::new(DramConfig::ddr2_400(), 4, Policy::fcfs(4));
        for now in 0..5_000 {
            mc.tick(now);
            for c in mc.drain_completions(now) {
                assert!(c.addr >= 3 << 29 && c.addr < 4 << 29);
                core.complete(c.addr);
            }
            core.step(now, &mut mc);
        }
    }

    #[test]
    fn reset_counters_keeps_cache_state() {
        let mut core = mk_core(7, 0, 8);
        let mut mc = mk_mc();
        for now in 0..2_000 {
            mc.tick(now);
            for c in mc.drain_completions(now) {
                core.complete(c.addr);
            }
            core.step(now, &mut mc);
        }
        core.reset_counters();
        assert_eq!(core.counters.retired, 0);
        // Cache stays warm: continuing produces no new memory reads.
        for now in 2_000..3_000 {
            mc.tick(now);
            core.step(now, &mut mc);
        }
        assert_eq!(core.counters.mem_reads, 0);
    }
}
