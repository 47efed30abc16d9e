//! The memory controller: per-application queues in front of the DRAM
//! system, a scheduling policy deciding service order on each DRAM command
//! clock, and the Section IV-C interference/profiling counters.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bwpart_obs::obs_count;
use serde::{Deserialize, Serialize};

use bwpart_dram::{AccessKind, Completion, DramConfig, DramSystem, MemTransaction};

use crate::interference::InterferenceTracker;
use crate::obs::McObsHooks;
use crate::policy::{Candidate, Policy};
use crate::queue::AppQueues;
use crate::request::MemRequest;

/// Controller-level statistics (DRAM-side counters live in
/// [`DramSystem::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct McStats {
    /// Requests served per application (lifetime).
    pub served: Vec<u64>,
    /// Sum of (completion − arrival) latency per application, CPU cycles.
    pub latency_sum: Vec<u64>,
    /// DRAM command clocks on which nothing could be scheduled although
    /// requests were pending (head-of-line / timing stalls).
    pub stalled_ticks: u64,
    /// DRAM command clocks with at least one pending request.
    pub busy_ticks: u64,
}

impl McStats {
    fn new(apps: usize) -> Self {
        McStats {
            served: vec![0; apps],
            latency_sum: vec![0; apps],
            stalled_ticks: 0,
            busy_ticks: 0,
        }
    }

    /// Average queue+service latency for `app`.
    pub fn avg_latency(&self, app: usize) -> f64 {
        if self.served[app] == 0 {
            0.0
        } else {
            self.latency_sum[app] as f64 / self.served[app] as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Pending {
    done: u64,
    seq: u64,
    completion: Completion,
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.done, self.seq).cmp(&(other.done, other.seq))
    }
}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The shared memory controller.
#[derive(Debug, Clone)]
pub struct MemoryController {
    dram: DramSystem,
    queues: AppQueues,
    policy: Policy,
    interference: InterferenceTracker,
    completions: BinaryHeap<Reverse<Pending>>,
    stats: McStats,
    /// Accesses served per application in the current profiling epoch.
    epoch_accesses: Vec<u64>,
    tck: u64,
    next_tick: u64,
    seq: u64,
    /// Per-application scheduling-window depth: how far past the FIFO head
    /// the controller looks for an issuable request.
    sched_window: usize,
    /// Scratch candidate buffer reused across ticks (never observable:
    /// cleared and refilled inside [`tick`](Self::tick)).
    cand_buf: Vec<Candidate>,
    /// Scratch window-position buffer parallel to `cand_buf`.
    pos_buf: Vec<usize>,
    /// Scratch per-candidate head-blocker cache parallel to `cand_buf`:
    /// the interference attribution of each blocked head as of the gather
    /// pass, valid for the interference loop only while no request was
    /// issued in between (a stalled tick).
    blocker_buf: Vec<Option<usize>>,
    /// Scratch list of pending applications for the gather pass (the
    /// per-slot probe caches need `&mut self.queues`, so the pending set is
    /// snapshotted first).
    app_buf: Vec<usize>,
    /// The first command clock at or above the DRAM floor — the lowest
    /// [`DramSystem::channel_floor`] over the channels — refreshed after
    /// each issue (channel state changes only there). No request can
    /// start on a clock before it, so
    /// [`settle_before`](Self::settle_before) accounts those clocks in
    /// closed form.
    floor_clock: u64,
    /// Optional observability hooks (pre-resolved metric handles). Never
    /// observable by the simulation: written only through the zero-cost
    /// `obs_*!` macros, shared by clones.
    obs: Option<Box<McObsHooks>>,
}

impl MemoryController {
    /// Build a controller for `apps` applications over a fresh DRAM system.
    pub fn new(cfg: DramConfig, apps: usize, policy: Policy) -> Self {
        let mut dram = DramSystem::new(cfg);
        dram.set_app_count(apps);
        let tck = dram.timings().tck;
        MemoryController {
            dram,
            queues: AppQueues::new(apps),
            policy,
            interference: InterferenceTracker::new(apps),
            completions: BinaryHeap::new(),
            stats: McStats::new(apps),
            epoch_accesses: vec![0; apps],
            tck,
            next_tick: 0,
            seq: 0,
            sched_window: 8,
            cand_buf: Vec::with_capacity(apps),
            pos_buf: Vec::with_capacity(apps),
            blocker_buf: Vec::with_capacity(apps),
            app_buf: Vec::with_capacity(apps),
            floor_clock: 0,
            obs: None,
        }
    }

    /// Attach observability hooks (controller + DRAM system) resolved
    /// against `registry`. Live counting only happens in builds with the
    /// `bwpart-obs/trace` feature; otherwise the hooks sit inert.
    pub fn attach_obs(&mut self, registry: &bwpart_obs::Registry) {
        self.obs = Some(Box::new(McObsHooks::resolve(registry)));
        self.dram.attach_obs(registry);
    }

    /// Publish derived controller + DRAM gauges into `registry` over
    /// `elapsed` CPU cycles. Cold path: phase/epoch boundaries only.
    pub fn publish_metrics(&self, registry: &bwpart_obs::Registry, elapsed: u64) {
        let queue_lens: Vec<usize> = (0..self.queues.apps())
            .map(|a| self.queues.len(a))
            .collect();
        crate::obs::publish(registry, &self.stats, self.interference.all(), &queue_lens);
        self.dram.publish_metrics(registry, elapsed);
    }

    /// Override the per-application scheduling-window depth (1 = strict
    /// FIFO within each application).
    pub fn set_sched_window(&mut self, window: usize) {
        assert!(window >= 1, "window must be at least 1");
        self.sched_window = window;
    }

    /// Number of applications.
    pub fn apps(&self) -> usize {
        self.queues.apps()
    }

    /// The DRAM system (stats, config).
    pub fn dram(&self) -> &DramSystem {
        &self.dram
    }

    /// The active scheduling policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Mutable access to the policy (epoch repartitioning:
    /// [`Policy::retarget`]).
    pub fn policy_mut(&mut self) -> &mut Policy {
        &mut self.policy
    }

    /// Replace the policy wholesale (e.g. switching schemes mid-run).
    pub fn set_policy(&mut self, policy: Policy) {
        self.policy = policy;
    }

    /// Controller statistics.
    pub fn stats(&self) -> &McStats {
        &self.stats
    }

    /// Pending request count for `app`.
    pub fn queue_len(&self, app: usize) -> usize {
        self.queues.len(app)
    }

    /// Total pending requests.
    pub fn total_queued(&self) -> usize {
        self.queues.total_len()
    }

    /// True while any request is queued or in flight.
    pub fn busy(&self) -> bool {
        !self.queues.is_empty() || !self.completions.is_empty()
    }

    /// Accept a request from a core. Enqueue after [`tick`](Self::tick)
    /// for the cycle the request arrives in: command clocks before it are
    /// accounted against the queues as they were.
    pub fn enqueue(&mut self, req: MemRequest) {
        self.queues.push(req);
    }

    /// Advance the controller to CPU cycle `now`, accounting every DRAM
    /// command clock from the last one accounted through `now` exactly
    /// once.
    ///
    /// The clocks below the DRAM floor (the lowest
    /// [`DramSystem::channel_floor`]; the first clock at or above it is
    /// cached after each issue) are settled in closed form by
    /// [`settle_before`](Self::settle_before): nothing can start on them,
    /// so each is a stalled clock. When `now` itself is
    /// a clock at or above the floor, the Section IV-B scheduler runs on
    /// it and the Section IV-C interference counters are charged. Calling
    /// every CPU cycle is cheap (early-out between clocks); calling only at
    /// the cycles [`next_event_cycle`](Self::next_event_cycle) names, and
    /// before every [`enqueue`](Self::enqueue), leaves every counter
    /// bit-identical.
    pub fn tick(&mut self, now: u64) {
        self.settle_before(now + 1);
        if now < self.next_tick {
            return;
        }
        self.next_tick = (now / self.tck + 1) * self.tck;
        if self.queues.is_empty() {
            return;
        }
        self.stats.busy_ticks += 1;

        // Gather candidates: for each pending application, the oldest
        // *issuable* request within its scheduling window, falling back to
        // the (blocked) head. The buffers live on `self` so the per-tick
        // gather allocates nothing in steady state. Every window position
        // is answered through its slot's version-tagged probe cache
        // (`DramSystem::sched_probe`): while the channel is unchanged the
        // test collapses to a few integer compares, and the head's
        // interference attribution rides along for free.
        self.cand_buf.clear();
        self.pos_buf.clear();
        self.blocker_buf.clear();
        self.app_buf.clear();
        self.app_buf.extend(self.queues.pending_apps());
        for i in 0..self.app_buf.len() {
            let app = self.app_buf[i];
            let limit = self.sched_window.min(self.queues.len(app));
            let mut chosen: Option<(usize, u64, bool)> = None; // (pos, arrival, row_hit)
            let mut head_blocker: Option<usize> = None;
            for pos in 0..limit {
                // lint: allow(R1): pos < queues.len(app) by the loop bound
                let (req, cache) = self.queues.slot_mut(app, pos).expect("in range");
                let txn = MemTransaction {
                    app: req.app,
                    addr: req.addr,
                    is_write: req.is_write,
                };
                let arrival = req.arrival;
                let probe = self.dram.sched_probe(&txn, now, cache);
                if probe.issuable {
                    let row_hit = probe.kind == AccessKind::RowHit;
                    chosen = Some((pos, arrival, row_hit));
                    break;
                }
                if pos == 0 {
                    head_blocker = probe.head_blocker;
                }
            }
            self.push_candidate(app, chosen, head_blocker);
        }

        let served = self.policy.pick(&self.cand_buf);
        if let Some(app) = served {
            let idx = self
                .cand_buf
                .iter()
                .position(|c| c.app == app)
                // lint: allow(R1): Policy::pick returns an app from `candidates`
                .expect("picked app is a candidate");
            let req = self
                .queues
                .remove(app, self.pos_buf[idx])
                // lint: allow(R1): pos_buf[idx] was probed in the gather loop above
                .expect("picked request exists");
            let txn = MemTransaction {
                app: req.app,
                addr: req.addr,
                is_write: req.is_write,
            };
            let completion = self.dram.issue(&txn, now);
            let floor = (0..self.dram.num_channels())
                .map(|c| self.dram.channel_floor(c))
                .fold(u64::MAX, u64::min);
            self.floor_clock = floor.div_ceil(self.tck) * self.tck;
            obs_count!(self.obs, issued);
            if self.pos_buf[idx] > 0 {
                obs_count!(self.obs, window_bypass);
            }
            self.policy.on_served(app);
            self.stats.served[app] += 1;
            self.stats.latency_sum[app] += completion.done_cycle.saturating_sub(req.arrival);
            self.epoch_accesses[app] += 1;
            self.seq += 1;
            self.completions.push(Reverse(Pending {
                done: completion.done_cycle,
                seq: self.seq,
                completion,
            }));
        } else {
            self.stats.stalled_ticks += 1;
        }

        // Section IV-C interference accounting for the un-served apps.
        for (c, cached_blocker) in self.cand_buf.iter().zip(&self.blocker_buf) {
            if Some(c.app) == served {
                continue;
            }
            if c.issuable {
                // The request could have started, but the scheduler chose
                // another application's request.
                if served.is_some() {
                    self.interference.charge(c.app, self.tck);
                    obs_count!(self.obs, interference_charges);
                }
            } else {
                // Blocked by a DRAM resource: charge only if that resource
                // is held by another application's traffic. On a stalled
                // tick nothing was issued since the gather pass, so the
                // head's cached attribution is still exact; after an issue
                // the DRAM state changed and the head must be re-probed.
                let blocker = if served.is_none() {
                    *cached_blocker
                } else {
                    // lint: allow(R1): candidates only contains apps with queued requests
                    let (head, cache) = self.queues.slot_mut(c.app, 0).expect("still pending");
                    let txn = MemTransaction {
                        app: head.app,
                        addr: head.addr,
                        is_write: head.is_write,
                    };
                    // `SchedProbe::head_blocker` is the uncached probe's
                    // cross-application blocker, and refreshing the
                    // head's cache here pre-pays the next tick's probe.
                    self.dram.sched_probe(&txn, now, cache).head_blocker
                };
                if blocker.is_some() {
                    self.interference.charge(c.app, self.tck);
                    obs_count!(self.obs, interference_charges);
                }
            }
        }
    }

    /// Push the scan result for `app` onto the candidate buffers.
    fn push_candidate(
        &mut self,
        app: usize,
        chosen: Option<(usize, u64, bool)>,
        head_blocker: Option<usize>,
    ) {
        match chosen {
            Some((pos, arrival, row_hit)) => {
                self.cand_buf.push(Candidate {
                    app,
                    arrival,
                    issuable: true,
                    row_hit,
                    queue_len: self.queues.len(app),
                });
                self.pos_buf.push(pos);
                self.blocker_buf.push(None);
            }
            None => {
                // lint: allow(R1): app came from pending_apps(), its queue is non-empty
                let head = self.queues.head(app).expect("pending app has a head");
                self.cand_buf.push(Candidate {
                    app,
                    arrival: head.arrival,
                    issuable: false,
                    row_hit: false,
                    queue_len: self.queues.len(app),
                });
                self.pos_buf.push(0);
                self.blocker_buf.push(head_blocker);
            }
        }
    }

    /// Account, in closed form, every DRAM command clock before `end` that
    /// lies below the DRAM floor, and move the command clock past them.
    ///
    /// The result is bit-identical to ticking each of those `k` clocks,
    /// for three reasons. Below the floor no request can start. The queues
    /// are the ones the clocks saw, because callers enqueue only after
    /// ticking the arrival cycle. And every queued request's probe is in
    /// its `now`-independent regime (`now < raw`, see
    /// `DramSystem::sched_probe`), so each head's interference attribution
    /// is the same on every such clock. The `k` clocks therefore add `k`
    /// to `busy_ticks` and `stalled_ticks`, and `k · tCK` of interference
    /// to each head blocked by another application's traffic.
    ///
    /// [`tick`](Self::tick) calls this first; a run that ends between
    /// [`next_event_cycle`](Self::next_event_cycle) visits calls it with
    /// its end cycle, so counters read afterwards are complete.
    pub fn settle_before(&mut self, end: u64) {
        let stop = end.min(self.floor_clock);
        if self.next_tick >= stop || self.queues.is_empty() {
            return;
        }
        let first = self.next_tick;
        // The clocks in [first, stop): `first` itself and every grid point
        // after it. `first` is off the grid only after a hybrid jump; it
        // may then lie at or above the floor, but then it is the only
        // clock here, nothing can start off the grid, and the probes below
        // are taken at `first` itself.
        let grid_end = stop.div_ceil(self.tck);
        let k = grid_end - first / self.tck;
        self.next_tick = grid_end * self.tck;
        self.stats.busy_ticks += k;
        self.stats.stalled_ticks += k;

        self.cand_buf.clear();
        self.pos_buf.clear();
        self.blocker_buf.clear();
        self.app_buf.clear();
        self.app_buf.extend(self.queues.pending_apps());
        for i in 0..self.app_buf.len() {
            let app = self.app_buf[i];
            // lint: allow(R1): app came from pending_apps(), its queue is non-empty
            let (req, cache) = self
                .queues
                .slot_mut(app, 0)
                .expect("pending app has a head");
            let txn = MemTransaction {
                app: req.app,
                addr: req.addr,
                is_write: req.is_write,
            };
            let probe = self.dram.sched_probe(&txn, first, cache);
            // Cross-layer contract: `channel_floor` bounds every start.
            bwpart_core::invariant!(
                !probe.issuable,
                "request issuable at {} below the DRAM floor clock {}",
                first,
                self.floor_clock
            );
            self.push_candidate(app, None, probe.head_blocker);
        }
        // With nothing issuable no policy serves anyone. PARBS re-forms
        // its batch on the first such pick; every later pick over the same
        // candidates leaves the policy unchanged, so one pick stands for
        // all `k`.
        let served = self.policy.pick(&self.cand_buf);
        bwpart_core::invariant!(
            served.is_none(),
            "policy served a blocked request (Section IV-B picks issuable heads only)"
        );
        for (c, blocker) in self.cand_buf.iter().zip(&self.blocker_buf) {
            if blocker.is_some() {
                self.interference.charge(c.app, k * self.tck);
                obs_count!(self.obs, interference_charges, k);
            }
        }
    }

    /// Apply a closed-form analytic jump of the hybrid stepper: credit the
    /// paper-model predictions for a skipped steady-state window directly
    /// to the controller's counters. `served_delta`, `latency_delta` and
    /// `interference_delta` are per-application; `busy`/`stalled` are DRAM
    /// command clocks. Micro-state (queues, bank wheels, in-flight
    /// completions) is deliberately left untouched — the hybrid stepper
    /// resumes cycle-exact simulation from it at cycle `resume`. The
    /// command clock moves to `resume`, so no jumped clock is accounted
    /// again by the next [`tick`](Self::tick).
    pub fn analytic_jump(
        &mut self,
        served_delta: &[u64],
        latency_delta: &[u64],
        interference_delta: &[u64],
        busy: u64,
        stalled: u64,
        resume: u64,
    ) {
        for app in 0..self.queues.apps() {
            self.stats.served[app] += served_delta[app];
            self.stats.latency_sum[app] += latency_delta[app];
            self.epoch_accesses[app] += served_delta[app];
            if interference_delta[app] > 0 {
                self.interference.charge(app, interference_delta[app]);
            }
        }
        self.stats.busy_ticks += busy;
        self.stats.stalled_ticks += stalled;
        self.next_tick = self.next_tick.max(resume);
    }

    /// Pop the oldest completion with `done_cycle ≤ now`, if any — the
    /// allocation-free form of [`drain_completions`](Self::drain_completions)
    /// for callers polling every CPU cycle.
    pub fn pop_completion(&mut self, now: u64) -> Option<Completion> {
        if self
            .completions
            .peek()
            .is_some_and(|Reverse(p)| p.done <= now)
        {
            self.completions.pop().map(|Reverse(p)| p.completion)
        } else {
            None
        }
    }

    /// Pop all completions with `done_cycle ≤ now`, in completion order.
    pub fn drain_completions(&mut self, now: u64) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(c) = self.pop_completion(now) {
            out.push(c);
        }
        out
    }

    /// Earliest pending completion cycle, if any (idle-skip support).
    pub fn next_completion_at(&self) -> Option<u64> {
        self.completions.peek().map(|Reverse(p)| p.done)
    }

    /// The next CPU cycle **at or after** `now` that the caller must visit
    /// with [`tick`](Self::tick), or `None` when the controller is fully
    /// idle.
    ///
    /// With requests queued, that is the first DRAM command clock at or
    /// above the DRAM floor — the first clock on which a request might
    /// issue. The clocks before it can only stall; the next `tick` (or
    /// [`settle_before`](Self::settle_before), at the end of a run)
    /// accounts them in closed form. Pending completions matter at any
    /// cycle, and may finish off the command grid; the earlier of the two
    /// is the event. A completion already overdue at `now` (left behind
    /// by a jump of the caller's clock) makes `now` itself the event,
    /// never a past cycle.
    ///
    /// `CmpSystem::run`'s per-core clocks rely on exactly that guarantee:
    /// a system loop that visits only the returned cycles (and its cores'
    /// own events), ticking before it enqueues and settling at its end,
    /// leaves every controller counter bit-identical to per-cycle
    /// stepping.
    pub fn next_event_cycle(&self, now: u64) -> Option<u64> {
        let completion = self.next_completion_at();
        if let Some(done) = completion {
            // Cross-layer contract: a pending completion is committed DRAM
            // work, so it cannot finish after the DRAM system's quiesce
            // horizon (every committed burst has drained by then).
            bwpart_core::invariant!(
                done <= self.dram.quiesce_at(),
                "pending completion at {} beyond DRAM quiesce horizon {}",
                done,
                self.dram.quiesce_at()
            );
        }
        let tick = if self.queues.is_empty() {
            None
        } else {
            Some(self.next_tick.max(self.floor_clock).max(now))
        };
        match (tick, completion.map(|c| c.max(now))) {
            (Some(t), Some(c)) => Some(t.min(c)),
            (t, c) => t.or(c),
        }
    }

    /// Interference cycles charged to `app` this epoch
    /// (`T_cyc,interference,i`).
    pub fn interference_cycles(&self, app: usize) -> u64 {
        self.interference.cycles(app)
    }

    /// Accesses served per application this epoch (`N_accesses,i`).
    pub fn epoch_accesses(&self) -> &[u64] {
        &self.epoch_accesses
    }

    /// Return `(N_accesses, T_cyc,interference)` for the epoch and reset
    /// both counters (epoch boundary).
    pub fn take_epoch_counters(&mut self) -> (Vec<u64>, Vec<u64>) {
        let acc = std::mem::replace(&mut self.epoch_accesses, vec![0; self.queues.apps()]);
        let intf = self.interference.all().to_vec();
        self.interference.reset();
        (acc, intf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::tests::one_per_kind;
    use bwpart_dram::{DramConfig, DramStats, PagePolicy};

    /// Drive the controller with `apps` synthetic streams that each always
    /// have a request ready (full saturation) for `cycles` CPU cycles, and
    /// return per-app served counts.
    fn run_saturated(policy: Policy, apps: usize, cycles: u64) -> Vec<u64> {
        let mut mc = MemoryController::new(DramConfig::ddr2_400(), apps, policy);
        let mut next_line: Vec<u64> = (0..apps as u64).map(|a| a << 32).collect();
        // Keep a small backlog per app so queues never run dry.
        for now in 0..cycles {
            for (app, line) in next_line.iter_mut().enumerate() {
                while mc.queue_len(app) < 4 {
                    mc.enqueue(MemRequest::read(app, *line * 64, now));
                    *line += 1;
                }
            }
            mc.tick(now);
            let _ = mc.drain_completions(now);
        }
        mc.stats().served.clone()
    }

    #[test]
    fn stf_enforces_share_vector_under_saturation() {
        let served = run_saturated(Policy::stf(vec![0.6, 0.3, 0.1]), 3, 600_000);
        let total: u64 = served.iter().sum();
        assert!(total > 3_000, "should serve many requests, got {total}");
        let frac: Vec<f64> = served.iter().map(|&s| s as f64 / total as f64).collect();
        assert!((frac[0] - 0.6).abs() < 0.05, "fractions {frac:?}");
        assert!((frac[1] - 0.3).abs() < 0.05, "fractions {frac:?}");
        assert!((frac[2] - 0.1).abs() < 0.05, "fractions {frac:?}");
    }

    #[test]
    fn equal_shares_serve_equally() {
        let served = run_saturated(Policy::stf(vec![0.25; 4]), 4, 400_000);
        let total: u64 = served.iter().sum();
        for &s in &served {
            let f = s as f64 / total as f64;
            assert!((f - 0.25).abs() < 0.04, "served {served:?}");
        }
    }

    #[test]
    fn priority_starves_low_priority_under_saturation() {
        // App 0 has the worst (highest) key: it should be almost fully
        // starved while apps 1..2 saturate the bus.
        let served = run_saturated(Policy::priority(vec![9.0, 1.0, 2.0]), 3, 400_000);
        let total: u64 = served.iter().sum();
        assert!(total > 2_000);
        let starved_frac = served[0] as f64 / total as f64;
        assert!(
            starved_frac < 0.02,
            "app 0 should starve, got {starved_frac} of {served:?}"
        );
        // The top-priority app takes (nearly) everything: with a
        // scheduling window over a sequential backlog it almost always has
        // an issuable request, so even app 2 sees only leftovers.
        assert!(
            served[1] as f64 / total as f64 > 0.9,
            "top priority should dominate: {served:?}"
        );
    }

    #[test]
    fn fcfs_serves_in_arrival_order_when_unconstrained() {
        let mut mc = MemoryController::new(DramConfig::ddr2_400(), 2, Policy::fcfs(2));
        // Two requests to different banks, app 1 arrives first.
        mc.enqueue(MemRequest::read(1, 64, 10));
        mc.enqueue(MemRequest::read(0, 128, 20));
        let mut done = Vec::new();
        for now in 0..20_000 {
            mc.tick(now);
            for c in mc.drain_completions(now) {
                done.push(c.app);
            }
        }
        assert_eq!(done, vec![1, 0]);
    }

    #[test]
    fn interference_counted_for_blocked_app() {
        let mut mc = MemoryController::new(DramConfig::ddr2_400(), 2, Policy::fcfs(2));
        // App 0 saturates; app 1 sends one request that must queue behind.
        for i in 0..8u64 {
            mc.enqueue(MemRequest::read(0, i * 64, 0));
        }
        mc.enqueue(MemRequest::read(1, 1 << 20, 1));
        for now in 0..50_000 {
            mc.tick(now);
            let _ = mc.drain_completions(now);
            if !mc.busy() {
                break;
            }
        }
        assert!(
            mc.interference_cycles(1) > 0,
            "app 1 should observe interference from app 0"
        );
        // App 0's own backlog is self-inflicted: far less interference per
        // request than app 1 experienced.
        let (acc, intf) = mc.take_epoch_counters();
        assert_eq!(acc, vec![8, 1]);
        assert!(intf[1] > 0);
        // Counters reset after the epoch boundary.
        assert_eq!(mc.epoch_accesses(), &[0, 0]);
        assert_eq!(mc.interference_cycles(1), 0);
    }

    #[test]
    fn completions_drain_in_done_order() {
        let mut mc = MemoryController::new(DramConfig::ddr2_400(), 2, Policy::fcfs(2));
        for i in 0..6u64 {
            mc.enqueue(MemRequest::read((i % 2) as usize, i * 64, 0));
        }
        let mut last = 0u64;
        for now in 0..100_000 {
            mc.tick(now);
            for c in mc.drain_completions(now) {
                assert!(c.done_cycle >= last);
                assert!(c.done_cycle <= now);
                last = c.done_cycle;
            }
            if !mc.busy() {
                break;
            }
        }
        assert!(!mc.busy());
        assert_eq!(mc.stats().served, vec![3, 3]);
    }

    #[test]
    fn next_completion_supports_idle_skip() {
        let mut mc = MemoryController::new(DramConfig::ddr2_400(), 1, Policy::fcfs(1));
        assert_eq!(mc.next_completion_at(), None);
        mc.enqueue(MemRequest::read(0, 64, 0));
        for now in 0..5_000 {
            mc.tick(now);
            if let Some(at) = mc.next_completion_at() {
                // Jump straight to the completion cycle.
                assert!(mc.drain_completions(at - 1).is_empty());
                let done = mc.drain_completions(at);
                assert_eq!(done.len(), 1);
                return;
            }
        }
        panic!("request never issued");
    }

    #[test]
    fn next_event_cycle_tracks_ticks_and_completions() {
        let mut mc = MemoryController::new(DramConfig::ddr2_400(), 1, Policy::fcfs(1));
        // Fully idle: no event at all.
        assert_eq!(mc.next_event_cycle(0), None);
        // A queued request makes the next DRAM clock the event.
        mc.enqueue(MemRequest::read(0, 64, 0));
        assert_eq!(mc.next_event_cycle(0), Some(0));
        mc.tick(0); // issues the request; queue drains, completion pending
        let done = mc.next_completion_at().expect("request in flight");
        // Queues empty now: the only event is the completion, off-grid.
        assert_eq!(mc.next_event_cycle(1), Some(done));
        assert_ne!(done % 25, 0, "completion drains off the command grid");
        // Skipping straight to it observes the same drain as stepping.
        assert!(mc.drain_completions(done - 1).is_empty());
        assert_eq!(mc.drain_completions(done).len(), 1);
        assert_eq!(mc.next_event_cycle(done + 1), None);
    }

    #[test]
    fn next_event_cycle_never_returns_a_past_cycle() {
        let mut mc = MemoryController::new(DramConfig::ddr2_400(), 1, Policy::fcfs(1));
        mc.enqueue(MemRequest::read(0, 64, 0));
        mc.tick(0);
        let done = mc.next_completion_at().expect("request in flight");
        // A caller whose clock jumped past the completion finds it due now.
        assert_eq!(mc.next_event_cycle(done + 1000), Some(done + 1000));
        assert_eq!(mc.drain_completions(done + 1000).len(), 1);
        assert_eq!(mc.next_event_cycle(done + 1001), None);
    }

    /// A seeded arrival schedule over `[0, horizon)`, sorted by arrival:
    /// bursts and lulls of reads and writes from `apps` applications, two
    /// in three on a sequential stream per application (row hits under
    /// open page), the rest scattered (bank and row conflicts).
    fn arrival_schedule(seed: u64, apps: usize, horizon: u64) -> Vec<MemRequest> {
        let mut state = seed | 1;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut next_line: Vec<u64> = (0..apps as u64).map(|a| a << 24).collect();
        let mut out = Vec::new();
        let mut at = 0;
        loop {
            at += match rng() % 8 {
                0..=2 => 0,
                3..=5 => rng() % 120,
                _ => rng() % 600,
            };
            if at >= horizon {
                return out;
            }
            let app = (rng() % apps as u64) as usize;
            let addr = if rng() % 3 == 0 {
                (rng() % (1 << 28)) & !63
            } else {
                next_line[app] += 1;
                next_line[app] * 64
            };
            out.push(if rng() % 4 == 0 {
                MemRequest::write(app, addr, at)
            } else {
                MemRequest::read(app, addr, at)
            });
        }
    }

    type ControllerDigest = (McStats, Vec<u64>, Vec<u64>, DramStats, Vec<Completion>);

    fn controller_digest(mc: &MemoryController, done: Vec<Completion>) -> ControllerDigest {
        (
            mc.stats().clone(),
            mc.interference.all().to_vec(),
            mc.epoch_accesses().to_vec(),
            mc.dram().stats().clone(),
            done,
        )
    }

    /// The reference: tick every CPU cycle, then enqueue that cycle's
    /// arrivals, then drain its completions. The cached floor is cleared
    /// before each tick, so every command clock runs the full scheduling
    /// pass and nothing is ever settled in closed form.
    fn drive_per_cycle(
        mc: &mut MemoryController,
        reqs: &[MemRequest],
        horizon: u64,
    ) -> Vec<Completion> {
        let mut done = Vec::new();
        let mut next = 0;
        for now in 0..horizon {
            mc.floor_clock = 0;
            mc.tick(now);
            while reqs.get(next).is_some_and(|r| r.arrival == now) {
                mc.enqueue(reqs[next]);
                next += 1;
            }
            while let Some(c) = mc.pop_completion(now) {
                done.push(c);
            }
        }
        done
    }

    /// Visit only the cycles `next_event_cycle` names and the arrival
    /// cycles, then settle the run's end. Returns the completions and the
    /// number of command clocks skipped with work queued; each of those
    /// must lie below the DRAM floor at the time it was skipped.
    fn drive_event_driven(
        mc: &mut MemoryController,
        reqs: &[MemRequest],
        horizon: u64,
    ) -> (Vec<Completion>, u64) {
        let tck = mc.dram().timings().tck;
        let mut skipped = 0;
        let mut check_skipped = |mc: &MemoryController, from: u64, to: u64| {
            if mc.total_queued() == 0 {
                return;
            }
            let floor = (0..mc.dram().num_channels())
                .map(|c| mc.dram().channel_floor(c))
                .min()
                .expect("at least one channel");
            let mut clock = from.div_ceil(tck) * tck;
            while clock < to {
                assert!(
                    clock < floor,
                    "skipped clock {clock} at or above floor {floor}"
                );
                skipped += 1;
                clock += tck;
            }
        };
        let mut done = Vec::new();
        let mut next = 0;
        let mut now = 0;
        loop {
            let arrival = reqs.get(next).map_or(horizon, |r| r.arrival);
            let t = mc.next_event_cycle(now).map_or(arrival, |e| e.min(arrival));
            if t >= horizon {
                break;
            }
            check_skipped(mc, now, t);
            mc.tick(t);
            while reqs.get(next).is_some_and(|r| r.arrival == t) {
                mc.enqueue(reqs[next]);
                next += 1;
            }
            while let Some(c) = mc.pop_completion(t) {
                done.push(c);
            }
            now = t + 1;
        }
        check_skipped(mc, now, horizon);
        mc.settle_before(horizon);
        (done, skipped)
    }

    #[test]
    fn event_driven_ticks_match_per_cycle_ticks() {
        let horizon = 60_000;
        for (d, dram) in [DramConfig::ddr2_400(), DramConfig::ddr2_1600()]
            .iter()
            .enumerate()
        {
            for page_policy in [PagePolicy::ClosePage, PagePolicy::OpenPage] {
                let cfg = DramConfig {
                    page_policy,
                    ..dram.clone()
                };
                for (p, policy) in one_per_kind().into_iter().enumerate() {
                    let reqs = arrival_schedule(0x5EED + (d * 8 + p) as u64, 3, horizon);
                    let mut stepped = MemoryController::new(cfg.clone(), 3, policy.clone());
                    let mut evented = MemoryController::new(cfg.clone(), 3, policy);
                    let stepped_done = drive_per_cycle(&mut stepped, &reqs, horizon);
                    let (evented_done, skipped) = drive_event_driven(&mut evented, &reqs, horizon);
                    let case = (d, page_policy, evented.policy().kind());
                    assert!(
                        stepped_done.len() > reqs.len() / 2,
                        "{case:?}: served too few"
                    );
                    assert_eq!(
                        controller_digest(&stepped, stepped_done),
                        controller_digest(&evented, evented_done),
                        "{case:?}"
                    );
                    assert!(
                        skipped > 0,
                        "{case:?}: no stalled clock was settled in bulk"
                    );
                }
            }
        }
    }

    #[test]
    fn writes_consume_bandwidth_too() {
        let mut mc = MemoryController::new(DramConfig::ddr2_400(), 1, Policy::fcfs(1));
        mc.enqueue(MemRequest::write(0, 64, 0));
        mc.enqueue(MemRequest::read(0, 1 << 20, 0));
        for now in 0..50_000 {
            mc.tick(now);
            let _ = mc.drain_completions(now);
            if !mc.busy() {
                break;
            }
        }
        assert_eq!(mc.dram().stats().writes, 1);
        assert_eq!(mc.dram().stats().reads, 1);
    }

    #[test]
    fn analytic_jump_credits_counters_only() {
        let mut mc = MemoryController::new(DramConfig::ddr2_400(), 2, Policy::fcfs(2));
        mc.analytic_jump(&[10, 4], &[1000, 600], &[0, 250], 14, 3, 0);
        assert_eq!(mc.stats().served, vec![10, 4]);
        assert_eq!(mc.stats().latency_sum, vec![1000, 600]);
        assert_eq!(mc.stats().busy_ticks, 14);
        assert_eq!(mc.stats().stalled_ticks, 3);
        assert_eq!(mc.epoch_accesses(), &[10, 4]);
        assert_eq!(mc.interference_cycles(0), 0);
        assert_eq!(mc.interference_cycles(1), 250);
        // No micro-state was fabricated: the controller is still idle.
        assert!(!mc.busy());
    }

    #[test]
    fn analytic_jump_moves_the_command_clock_past_the_jump() {
        let mut mc = MemoryController::new(DramConfig::ddr2_400(), 1, Policy::fcfs(1));
        for i in 0..4u64 {
            mc.enqueue(MemRequest::read(0, i * 64, 0));
        }
        mc.tick(0);
        // Stalled clocks lie between the last tick and the floor: a jump
        // that left the command clock here would count them again after
        // the jump.
        assert!(mc.next_event_cycle(1).expect("work queued") > 25);
        let resume = 100_000;
        mc.analytic_jump(&[0], &[0], &[0], 500, 400, resume);
        mc.tick(resume);
        assert_eq!(
            mc.stats().busy_ticks,
            1 + 500 + 1,
            "jumped clocks counted twice"
        );
        assert_eq!(mc.stats().served, vec![2]);
    }

    #[test]
    fn stats_latency_accounts_queueing() {
        let mut mc = MemoryController::new(DramConfig::ddr2_400(), 1, Policy::fcfs(1));
        // Two same-bank requests: the second's latency includes waiting for
        // the first's row cycle.
        mc.enqueue(MemRequest::read(0, 64, 0));
        let same_bank_stride = (4 * 8 * 128) as u64 * 64;
        mc.enqueue(MemRequest::read(0, 64 + same_bank_stride, 0));
        for now in 0..100_000 {
            mc.tick(now);
            let _ = mc.drain_completions(now);
            if !mc.busy() {
                break;
            }
        }
        assert_eq!(mc.stats().served[0], 2);
        // Average latency must exceed a single isolated access's latency.
        let t = mc.dram().timings();
        let single = (t.trcd + t.cl + t.tburst) as f64;
        assert!(mc.stats().avg_latency(0) > single);
    }
}
