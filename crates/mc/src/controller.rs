//! The memory controller: per-application queues in front of the DRAM
//! system, a scheduling policy deciding service order on each DRAM command
//! clock, and the Section IV-C interference/profiling counters.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bwpart_core::Divider;
use bwpart_obs::obs_count;
use serde::{Deserialize, Serialize};

use bwpart_dram::{AccessKind, ChannelProbe, Completion, DramConfig, DramSystem, RowLocation};

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

/// Bus-gate memo entries per channel: three access kinds by two
/// directions.
const GATE_KEYS_PER_CHANNEL: usize = 6;

/// The bus-gate memo entry of a `kind` access in direction `is_write` on
/// `channel`.
#[inline]
fn gate_key(channel: usize, kind: AccessKind, is_write: bool) -> usize {
    let kind = match kind {
        AccessKind::RowHit => 0,
        AccessKind::RowMiss => 1,
        AccessKind::RowConflict => 2,
    };
    (channel * 3 + kind) * 2 + usize::from(is_write)
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
    /// Divides by `tck`: the command-clock grid arithmetic of
    /// [`tick`](Self::tick) and [`settle_before`](Self::settle_before).
    tck_div: Divider,
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
    /// The bus gate's memo for one gather: per channel, access kind and
    /// direction ([`gate_key`]), whether the channel's data bus and command
    /// slot let such an access start on the gather's clock (`None` until
    /// asked). Channel state changes only on an issue, after the gather,
    /// so each answer holds for the whole gather. Sized at construction.
    gate_memo: Vec<Option<bool>>,
    /// The settle plan: the pending applications whose blocked head is
    /// held by another application's traffic on the command clocks below
    /// the floor, which [`settle_before`](Self::settle_before) charges.
    /// Reserved for the application count, so it never grows.
    settle_plan: Vec<usize>,
    /// Whether `settle_plan` describes the queues and channels as they
    /// stand and the policy has made the one pick that stands for every
    /// stalled clock until the next issue. An issue, a policy swap and the
    /// end of a [`warm_up`](Self::warm_up) clear it; the next settle that
    /// accounts a clock sets it again.
    plan_valid: bool,
    /// Whether the controller keeps the Section IV-C tally: probes blocked
    /// heads, lists them in the settle plan and charges interference.
    /// Nothing else reads the attribution, so switching it off changes no
    /// other state. Off inside [`warm_up`](Self::warm_up), whose window
    /// nobody reads, and always with one application, whose head can only
    /// be held by its own traffic.
    tally: bool,
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
            queues: AppQueues::new(apps),
            policy,
            interference: InterferenceTracker::new(apps),
            completions: BinaryHeap::new(),
            stats: McStats::new(apps),
            epoch_accesses: vec![0; apps],
            tck,
            tck_div: Divider::new(tck),
            next_tick: 0,
            seq: 0,
            sched_window: 8,
            cand_buf: Vec::with_capacity(apps),
            pos_buf: Vec::with_capacity(apps),
            gate_memo: vec![None; dram.num_channels() * GATE_KEYS_PER_CHANNEL],
            settle_plan: Vec::with_capacity(apps),
            plan_valid: false,
            tally: apps > 1,
            floor_clock: 0,
            obs: None,
            dram,
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
    /// [`Policy::retarget`]). The next settle picks again, as after an
    /// issue.
    pub fn policy_mut(&mut self) -> &mut Policy {
        self.plan_valid = false;
        &mut self.policy
    }

    /// Replace the policy wholesale (e.g. switching schemes mid-run). The
    /// next settle picks again, as after an issue.
    pub fn set_policy(&mut self, policy: Policy) {
        self.plan_valid = false;
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
    /// accounted against the queues as they were. A request that becomes
    /// its application's head joins a valid settle plan when another
    /// application's traffic holds it and the tally is kept.
    pub fn enqueue(&mut self, req: MemRequest) {
        let app = req.app;
        let new_head = self.queues.len(app) == 0;
        self.queues.push(req, self.dram.locate(req.addr));
        // The next settle starts at `next_tick`, so this is the probe its
        // rebuild would make.
        if new_head
            && self.plan_valid
            && self.tally
            && self.head_blocker(app, self.next_tick).is_some()
        {
            self.settle_plan.push(app);
        }
    }

    /// Probe `app`'s head request at `t` from its queued location.
    fn probe_head(&self, app: usize, t: u64) -> ChannelProbe {
        // lint: allow(R1): callers pass an application with a queued request
        let (head, loc) = self.queues.slot(app, 0).expect("pending app has a head");
        self.dram.probe_at(&loc, head.is_write, t)
    }

    /// The Section IV-C attribution of `app`'s head at `t`: the other
    /// application whose traffic holds it back, if any.
    fn head_blocker(&self, app: usize, t: u64) -> Option<usize> {
        self.probe_head(app, t).blocker.filter(|&b| b != app)
    }

    /// The gather's issue check of `req`, queued at `loc`, on command clock
    /// `now`: `Ok` with its access kind when it can start exactly at
    /// `now`, else `Err(gated)`. The bus gate answers first, from this
    /// gather's memo; a request whose channel's data bus or command slot
    /// holds its kind and direction past `now` is rejected (`gated`)
    /// without folding its bank and rank. A request that passes takes the
    /// fold from `now` ([`DramSystem::issuable`]). Debug builds check every
    /// gated reject and every issue check against the uncached probe.
    fn issue_check(
        &mut self,
        req: &MemRequest,
        loc: &RowLocation,
        now: u64,
    ) -> Result<AccessKind, bool> {
        let kind = self.dram.access_kind(loc);
        let dram = &self.dram;
        let clear = *self.gate_memo[gate_key(loc.channel(), kind, req.is_write)]
            .get_or_insert_with(|| dram.bus_clear(loc.channel(), kind, req.is_write, now));
        if !clear {
            bwpart_core::invariant!(
                self.dram.probe(&req.txn(), now).start > now,
                "bus gate rejected {req:?}, which can start at {now}"
            );
            return Err(true);
        }
        let issuable = self.dram.issuable(loc, req.is_write, now);
        bwpart_core::invariant!(
            issuable == (self.dram.probe(&req.txn(), now).start == now),
            "issue check of {req:?} at {now} disagrees with the uncached probe"
        );
        if issuable {
            Ok(kind)
        } else {
            Err(false)
        }
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
        self.next_tick = (now / self.tck_div + 1) * self.tck;
        if self.queues.is_empty() {
            return;
        }
        self.stats.busy_ticks += 1;

        // Gather candidates: for each pending application, the oldest
        // *issuable* request within its scheduling window, falling back to
        // the (blocked) head. The buffers live on `self` so the per-tick
        // gather allocates nothing in steady state. Each window position
        // takes the issue check (`issue_check`): the bus gate, memoized
        // per channel, access kind and direction for this clock, then the
        // fold from `now`. Attribution waits for the charges below.
        self.cand_buf.clear();
        self.pos_buf.clear();
        self.gate_memo.fill(None);
        let mut gated = 0;
        for app in 0..self.queues.apps() {
            let limit = self.sched_window.min(self.queues.len(app));
            if limit == 0 {
                continue;
            }
            let mut chosen: Option<(usize, u64, bool)> = None; // (pos, arrival, row_hit)
            for pos in 0..limit {
                // lint: allow(R1): pos < queues.len(app) by the loop bound
                let (req, loc) = self.queues.slot(app, pos).expect("in range");
                match self.issue_check(&req, &loc, now) {
                    Ok(kind) => {
                        chosen = Some((pos, req.arrival, kind == AccessKind::RowHit));
                        break;
                    }
                    Err(was_gated) => gated += u64::from(was_gated),
                }
            }
            self.push_candidate(app, chosen);
        }
        if gated > 0 {
            obs_count!(self.obs, gate_rejects, gated);
        }

        let served = self.policy.pick(&self.cand_buf);
        if let Some(app) = served {
            let idx = self
                .cand_buf
                .iter()
                .position(|c| c.app == app)
                // lint: allow(R1): Policy::pick returns an app from `candidates`
                .expect("picked app is a candidate");
            let (req, loc) = self
                .queues
                .remove(app, self.pos_buf[idx])
                // lint: allow(R1): pos_buf[idx] was probed in the gather loop above
                .expect("picked request exists");
            // The gather's issue check just accepted this slot at `now`,
            // and nothing has committed since.
            let completion = self.dram.issue_at(&req.txn(), &loc, now);
            self.plan_valid = false;
            let floor = (0..self.dram.num_channels())
                .map(|c| self.dram.channel_floor(c))
                .fold(u64::MAX, u64::min);
            self.floor_clock = self.tck_div.div_ceil(floor) * self.tck;
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
        if !self.tally {
            return;
        }
        for i in 0..self.cand_buf.len() {
            let c = self.cand_buf[i];
            if Some(c.app) == served {
                continue;
            }
            let charged = if c.issuable {
                // The request could have started, but the scheduler chose
                // another application's request.
                served.is_some()
            } else {
                // Blocked by a DRAM resource: charge only if that resource
                // is held by another application's traffic, as the channel
                // stands after this clock's issue. A blocked candidate is
                // its app's head, still queued.
                self.head_blocker(c.app, now).is_some()
            };
            if charged {
                self.interference.charge(c.app, self.tck);
                obs_count!(self.obs, interference_charges);
            }
        }
    }

    /// Push the scan result for `app` onto the candidate buffers.
    fn push_candidate(&mut self, app: usize, chosen: Option<(usize, u64, bool)>) {
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
            }
            None => {
                // lint: allow(R1): callers skip empty queues, so `app` has a head
                let head = self.queues.head(app).expect("pending app has a head");
                self.cand_buf.push(Candidate {
                    app,
                    arrival: head.arrival,
                    issuable: false,
                    row_hit: false,
                    queue_len: self.queues.len(app),
                });
                self.pos_buf.push(0);
            }
        }
    }

    /// Account, in closed form, every DRAM command clock before `end` that
    /// lies below the DRAM floor, and move the command clock past them.
    ///
    /// The result is bit-identical to ticking each of those `k` clocks,
    /// for three reasons. Below the floor no request can start. The queues
    /// are the ones the clocks saw, because callers enqueue only after
    /// ticking the arrival cycle. And every queued request's raw fold lies
    /// past each such clock, where its dominating bound and owner do not
    /// depend on the clock (see [`bwpart_dram::ChannelCore::raw_probe`]),
    /// so each head's interference attribution is the same on every such
    /// clock. The `k` clocks therefore add `k` to `busy_ticks` and
    /// `stalled_ticks`, and `k · tCK` of interference to each head blocked
    /// by another application's traffic.
    ///
    /// Those heads form the settle plan, which changes only when a request
    /// issues (channel state and the floor move), when an enqueue gives an
    /// application a head, or when the policy is swapped. The first settle
    /// after an issue or a swap probes every pending head and makes the one
    /// `Policy::pick` that stands for every stalled clock until the next
    /// issue; an enqueue into an empty queue adds only its new head's
    /// attribution; every other settle charges the plan with no probe and
    /// no pick. Without the tally the plan stays empty: the first settle
    /// after an issue or a swap makes only the pick. Debug builds check
    /// every plan, rebuilt or reused, against uncached probes of every
    /// head.
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
        // `tick` and this function, the only writers of `next_tick`, both
        // write grid points, so `k` counts the clocks in [first, stop).
        bwpart_core::invariant!(
            first.is_multiple_of(self.tck),
            "command clock {first} off the tCK grid"
        );
        let grid_end = self.tck_div.div_ceil(stop);
        let k = grid_end - first / self.tck_div;
        self.next_tick = grid_end * self.tck;
        self.stats.busy_ticks += k;
        self.stats.stalled_ticks += k;
        obs_count!(self.obs, settled_clocks, k);
        if !self.plan_valid {
            self.rebuild_settle_plan(first);
        }
        self.check_settle_plan(first);
        if !self.settle_plan.is_empty() {
            for &app in &self.settle_plan {
                self.interference.charge(app, k * self.tck);
            }
            obs_count!(
                self.obs,
                interference_charges,
                k * self.settle_plan.len() as u64
            );
        }
    }

    /// Rebuild the settle plan at command clock `first`, below the floor:
    /// keep, when tallying, the pending heads held by another
    /// application's traffic, and make the pick.
    fn rebuild_settle_plan(&mut self, first: u64) {
        obs_count!(self.obs, settle_plans);
        self.cand_buf.clear();
        self.pos_buf.clear();
        self.settle_plan.clear();
        for app in 0..self.queues.apps() {
            if self.queues.len(app) == 0 {
                continue;
            }
            if self.tally && self.head_blocker(app, first).is_some() {
                self.settle_plan.push(app);
            }
            self.push_candidate(app, None);
        }
        // With nothing issuable no policy serves anyone. PARBS re-forms
        // its batch on such a pick only when every candidate's marks are
        // spent, and it marks each candidate. Marks fall only on service,
        // and until the next issue the candidates only grow (an enqueue
        // adds a head; nothing leaves a queue), so every later pick before
        // that issue leaves the policy unchanged: this one stands for all
        // of them.
        let served = self.policy.pick(&self.cand_buf);
        bwpart_core::invariant!(
            served.is_none(),
            "policy served a blocked request (Section IV-B picks issuable heads only)"
        );
        self.plan_valid = true;
    }

    /// Debug builds: check the settle plan at command clock `first`
    /// against an uncached probe of every pending head. Nothing may be
    /// issuable below the floor (the cross-layer contract that
    /// `channel_floor` bounds every start), and the plan must hold exactly
    /// the heads another application's traffic blocks, or none without
    /// the tally.
    fn check_settle_plan(&self, first: u64) {
        if !bwpart_core::contracts::ENABLED {
            return;
        }
        let mut held = 0;
        for app in self.queues.pending_apps() {
            // lint: allow(R1): pending_apps() yields only non-empty queues
            let head = self.queues.head(app).expect("pending app has a head");
            let probe = self.dram.probe(&head.txn(), first);
            bwpart_core::invariant!(
                probe.start > first,
                "request issuable at {} below the DRAM floor clock {}",
                first,
                self.floor_clock
            );
            let blocked = self.tally && probe.blocker.is_some_and(|b| b != app);
            bwpart_core::invariant!(
                blocked == self.settle_plan.contains(&app),
                "settle plan {:?} is stale for app {} at {}",
                self.settle_plan,
                app,
                first
            );
            held += usize::from(blocked);
        }
        bwpart_core::invariant!(
            held == self.settle_plan.len(),
            "settle plan {:?} lists {} held heads, the probes {}",
            self.settle_plan,
            self.settle_plan.len(),
            held
        );
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
    /// is the event. A caller that polls late, at a `now` past a pending
    /// completion's cycle, gets `now` itself: the overdue completion is
    /// due at once, and the returned cycle is never in the past.
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

    /// Interference cycles charged to `app` since construction, across
    /// epochs: the lifetime tally that `CmpSystem`'s snapshots carry. A
    /// [`warm_up`](Self::warm_up) adds nothing to it.
    pub fn lifetime_interference_cycles(&self, app: usize) -> u64 {
        self.interference.lifetime(app)
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

    /// Run `advance` on this controller as a warm-up, whose Section IV-C
    /// tally nobody reads.
    ///
    /// Inside, the controller keeps no tally: no head probes, no settle
    /// plan members (a plan that stands on entry keeps its pick and drops
    /// its members), no interference charges. Everything else advances
    /// exactly as it would with the tally kept, because attribution only
    /// reads channel state; in particular the one `Policy::pick` per issue
    /// still happens, so batching policies form the same batches. On
    /// return the tally is restored, the settle plan is invalidated (the
    /// next settle rebuilds it with its probes, and repeats a pick that
    /// changes nothing), and the epoch counters are cleared in place. The
    /// result matches running `advance` with the tally kept and then
    /// discarding [`take_epoch_counters`](Self::take_epoch_counters), in
    /// every counter but the lifetime tally, which the warm-up leaves
    /// uncharged.
    pub fn warm_up(&mut self, advance: impl FnOnce(&mut Self)) {
        let tally = std::mem::replace(&mut self.tally, false);
        // The plan's members are tally; the pick it records still stands.
        self.settle_plan.clear();
        advance(self);
        self.tally = tally;
        self.plan_valid = false;
        self.epoch_accesses.fill(0);
        self.interference.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::tests::one_per_kind;
    use crate::policy::PolicyKind;
    use bwpart_dram::{DramConfig, DramStats, MemTransaction, PagePolicy};

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
        // A caller that polls late finds the overdue completion due now.
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

    /// A mid-run change to a controller's policy, applied after the tick
    /// of its cycle and before that cycle's arrivals.
    #[derive(Debug, Clone)]
    enum PolicyChange {
        /// Replace the policy through `set_policy`.
        Swap(Policy),
        /// Retarget the current policy through `policy_mut`.
        Retarget(Policy),
    }

    fn apply_changes_at(
        mc: &mut MemoryController,
        changes: &[(u64, PolicyChange)],
        next: &mut usize,
        now: u64,
    ) {
        while let Some((_, change)) = changes.get(*next).filter(|(at, _)| *at == now) {
            match change {
                PolicyChange::Swap(p) => mc.set_policy(p.clone()),
                PolicyChange::Retarget(p) => mc.policy_mut().retarget(p.clone()),
            }
            *next += 1;
        }
    }

    /// The reference: tick every CPU cycle, then apply that cycle's policy
    /// changes, enqueue its arrivals and drain its completions. The cached
    /// floor is cleared before each tick, so every command clock runs the
    /// full scheduling pass and nothing is ever settled in closed form.
    fn drive_per_cycle(
        mc: &mut MemoryController,
        reqs: &[MemRequest],
        changes: &[(u64, PolicyChange)],
        horizon: u64,
    ) -> Vec<Completion> {
        let mut done = Vec::new();
        let (mut next, mut next_change) = (0, 0);
        for now in 0..horizon {
            mc.floor_clock = 0;
            mc.tick(now);
            apply_changes_at(mc, changes, &mut next_change, now);
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

    /// What an event-driven run exercised: command clocks skipped with
    /// work queued, and how often a policy change or a new head met a
    /// valid settle plan.
    #[derive(Debug, Default)]
    struct EventCoverage {
        skipped: u64,
        changes_on_plan: u64,
        new_heads_on_plan: u64,
    }

    /// Visit only the cycles `next_event_cycle` names, the arrival cycles
    /// and the policy-change cycles, then settle the run's end. Each
    /// command clock skipped with work queued must lie below the DRAM
    /// floor at the time it was skipped.
    fn drive_event_driven(
        mc: &mut MemoryController,
        reqs: &[MemRequest],
        changes: &[(u64, PolicyChange)],
        horizon: u64,
    ) -> (Vec<Completion>, EventCoverage) {
        let tck = mc.dram().timings().tck;
        let mut cover = EventCoverage::default();
        let check_skipped = |mc: &MemoryController, from: u64, to: u64| {
            if mc.total_queued() == 0 {
                return 0;
            }
            let floor = (0..mc.dram().num_channels())
                .map(|c| mc.dram().channel_floor(c))
                .min()
                .expect("at least one channel");
            let mut clock = from.div_ceil(tck) * tck;
            let mut skipped = 0;
            while clock < to {
                assert!(
                    clock < floor,
                    "skipped clock {clock} at or above floor {floor}"
                );
                skipped += 1;
                clock += tck;
            }
            skipped
        };
        let mut done = Vec::new();
        let (mut next, mut next_change) = (0, 0);
        let mut now = 0;
        loop {
            let arrival = reqs.get(next).map_or(horizon, |r| r.arrival);
            let change = changes.get(next_change).map_or(horizon, |c| c.0);
            let t = mc
                .next_event_cycle(now)
                .map_or(arrival, |e| e.min(arrival))
                .min(change);
            if t >= horizon {
                break;
            }
            cover.skipped += check_skipped(mc, now, t);
            mc.tick(t);
            if change == t && mc.plan_valid {
                cover.changes_on_plan += 1;
            }
            apply_changes_at(mc, changes, &mut next_change, t);
            while reqs.get(next).is_some_and(|r| r.arrival == t) {
                let app = reqs[next].app;
                if mc.plan_valid && mc.queue_len(app) == 0 {
                    cover.new_heads_on_plan += 1;
                }
                mc.enqueue(reqs[next]);
                next += 1;
            }
            while let Some(c) = mc.pop_completion(t) {
                done.push(c);
            }
            now = t + 1;
        }
        cover.skipped += check_skipped(mc, now, horizon);
        mc.settle_before(horizon);
        (done, cover)
    }

    /// Every DRAM configuration the differential tests run: DDR2-400 and
    /// DDR2-1600, each under close and open page.
    fn dram_cases() -> Vec<(usize, DramConfig)> {
        [DramConfig::ddr2_400(), DramConfig::ddr2_1600()]
            .into_iter()
            .enumerate()
            .flat_map(|(d, dram)| {
                [PagePolicy::ClosePage, PagePolicy::OpenPage].map(|page_policy| {
                    (
                        d,
                        DramConfig {
                            page_policy,
                            ..dram.clone()
                        },
                    )
                })
            })
            .collect()
    }

    /// Replay the issues behind `done`, in start order, through a fresh
    /// DRAM system's uncached `issue`: each must start on the clock the
    /// controller started it and complete the same way, so no issue broke
    /// a timing bound. On one channel bursts leave in issue order, so the
    /// completions drained by the horizon are a prefix of the issues.
    fn assert_issues_legal(cfg: &DramConfig, done: &[Completion]) {
        assert_eq!(cfg.channels, 1);
        let mut dram = DramSystem::new(cfg.clone());
        dram.set_app_count(3);
        let mut issued = done.to_vec();
        issued.sort_by_key(|c| c.start_cycle);
        for c in issued {
            let txn = MemTransaction {
                app: c.app,
                addr: c.addr,
                is_write: c.is_write,
            };
            assert_eq!(dram.issue(&txn, c.start_cycle), c, "issue not legal");
        }
    }

    /// Run one schedule through a per-cycle and an event-driven
    /// controller, assert equal digests and timing-legal issues, and
    /// return the event-driven run's coverage.
    fn assert_drivers_agree(
        cfg: &DramConfig,
        policy: Policy,
        reqs: &[MemRequest],
        changes: &[(u64, PolicyChange)],
        horizon: u64,
    ) -> EventCoverage {
        let mut stepped = MemoryController::new(cfg.clone(), 3, policy.clone());
        let mut evented = MemoryController::new(cfg.clone(), 3, policy);
        let case = (cfg.tck_cycles(), cfg.page_policy, stepped.policy().kind());
        let stepped_done = drive_per_cycle(&mut stepped, reqs, changes, horizon);
        let (evented_done, cover) = drive_event_driven(&mut evented, reqs, changes, horizon);
        assert!(
            stepped_done.len() > reqs.len() / 2,
            "{case:?}: served too few"
        );
        assert_issues_legal(cfg, &stepped_done);
        assert_eq!(
            controller_digest(&stepped, stepped_done),
            controller_digest(&evented, evented_done),
            "{case:?}"
        );
        assert!(
            cover.skipped > 0,
            "{case:?}: no stalled clock was settled in bulk"
        );
        cover
    }

    #[test]
    fn event_driven_ticks_match_per_cycle_ticks() {
        let horizon = 60_000;
        for (d, cfg) in dram_cases() {
            for (p, policy) in one_per_kind().into_iter().enumerate() {
                let reqs = arrival_schedule(0x5EED + (d * 8 + p) as u64, 3, horizon);
                assert_drivers_agree(&cfg, policy, &reqs, &[], horizon);
            }
        }
    }

    /// A policy of `kind` with targets unlike `one_per_kind`'s, for
    /// `retarget`.
    fn retarget_of(kind: PolicyKind) -> Policy {
        match kind {
            PolicyKind::Stf => Policy::stf(vec![0.2, 0.2, 0.6]),
            PolicyKind::Priority => Policy::priority(vec![1.0, 3.0, 2.0]),
            _ => one_per_kind()
                .into_iter()
                .find(|p| p.kind() == kind)
                .expect("every kind is covered"),
        }
    }

    /// The settle plan's invalidation points against the per-cycle
    /// reference. Starting from every policy, every 500–1,500 cycles the
    /// run alternately retargets the current policy through `policy_mut`
    /// and swaps it with `set_policy`: to the next kind in turn, or to a
    /// fresh PARBS with a batch cap of 2, whose first pick after the swap
    /// marks its batch from queues short enough that the clock of that
    /// pick decides the marks. The arrival schedule's lulls let queues
    /// empty and refill between settles. Under both page policies at
    /// DDR2-400 and DDR2-1600 the digests must match, and changes and new
    /// heads must have met a valid plan.
    #[test]
    fn event_driven_ticks_match_per_cycle_ticks_across_policy_changes() {
        let horizon = 60_000;
        let kinds = one_per_kind();
        let mut cover = EventCoverage::default();
        for (d, cfg) in dram_cases() {
            for p in 0..kinds.len() {
                let seed = 0xC4A6 + (d * 8 + p) as u64;
                let reqs = arrival_schedule(seed, 3, horizon);
                let mut state = seed;
                let mut rng = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                let mut changes = Vec::new();
                let mut kind = kinds[p].kind();
                let mut at = 0;
                for i in 1.. {
                    at += 500 + rng() % 1_000;
                    if at >= horizon {
                        break;
                    }
                    let change = if i % 2 == 1 {
                        let next = if i % 4 == 1 {
                            kinds[(p + i / 4 + 1) % kinds.len()].clone()
                        } else {
                            Policy::parbs(3, 2)
                        };
                        kind = next.kind();
                        PolicyChange::Swap(next)
                    } else {
                        PolicyChange::Retarget(retarget_of(kind))
                    };
                    changes.push((at, change));
                }
                let run = assert_drivers_agree(&cfg, kinds[p].clone(), &reqs, &changes, horizon);
                cover.changes_on_plan += run.changes_on_plan;
                cover.new_heads_on_plan += run.new_heads_on_plan;
            }
        }
        assert!(
            cover.changes_on_plan > 100 && cover.new_heads_on_plan > 1_000,
            "{cover:?}"
        );
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
