//! Memory scheduling policies.
//!
//! A policy picks, each DRAM command clock, which application's head request
//! to serve among those whose requests are *issuable* (all DRAM timing
//! constraints satisfied right now). Restricting the choice to issuable
//! heads makes every policy work-conserving: bandwidth an application
//! cannot use flows to the others, which is also what lets the start-time-
//! fair mechanism coexist with standalone caps.

use serde::{Deserialize, Serialize};

/// What a policy sees about one pending application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Application index.
    pub app: usize,
    /// Arrival cycle of the head request.
    pub arrival: u64,
    /// Whether the head request could start this clock.
    pub issuable: bool,
    /// Whether the head request would hit an open row (open-page only).
    pub row_hit: bool,
    /// Total requests this application has queued (batch formation).
    pub queue_len: usize,
}

/// Which scheduling discipline a [`Policy`] implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Oldest issuable request first (the `No_partitioning` baseline).
    Fcfs,
    /// Row hits first, then oldest (bandwidth-utilization baseline).
    FrFcfs,
    /// Start-time-fair enforcement of a share vector (Section IV-B).
    Stf,
    /// Strict priority by a fixed per-application key.
    Priority,
    /// PARBS-style batching (Mutlu & Moscibroda, ISCA'08): mark a batch of
    /// the oldest requests per application; batch requests are served
    /// strictly before non-batch ones, shortest-job (fewest marked) first —
    /// a starvation-free heuristic that balances fairness and throughput
    /// without targeting any single objective.
    Parbs,
    /// ATLAS-style least-attained-service (Kim et al., HPCA'10):
    /// applications that have received the least long-term memory service
    /// are served first, with exponential decay of the service history.
    Atlas,
    /// TCM-style thread clustering (Kim et al., MICRO'10): applications
    /// are periodically split into a latency-sensitive cluster (low
    /// bandwidth usage — always prioritized) and a bandwidth-sensitive
    /// cluster (served round-robin with a rotating rank so no heavy
    /// application permanently dominates).
    Tcm,
}

/// A scheduling policy with its mutable state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Policy {
    kind: PolicyKind,
    /// STF: virtual start tag per application.
    tags: Vec<f64>,
    /// STF: share vector β (must sum to 1).
    shares: Vec<f64>,
    /// Priority: per-application key; lower is served first.
    keys: Vec<f64>,
    /// PARBS: marked (batched) requests remaining per application.
    batch: Vec<usize>,
    /// PARBS: per-application marking cap when a batch forms.
    batch_cap: usize,
    /// ATLAS: exponentially-decayed attained service per application.
    attained: Vec<f64>,
    /// ATLAS: decay factor applied to all histories per service.
    decay: f64,
    /// TCM: services observed per application in the current epoch.
    epoch_service: Vec<u64>,
    /// TCM: true = latency-sensitive cluster (prioritized).
    latency_cluster: Vec<bool>,
    /// TCM: services until the next re-clustering.
    recluster_in: u64,
    /// TCM: epoch length in services.
    epoch_len: u64,
    /// TCM: rotating rank offset for the bandwidth cluster.
    rotation: usize,
    /// TCM: reusable index scratch for re-clustering — `recluster` runs on
    /// the served path (reachable from `tick`), so it must not allocate:
    /// [`Policy::tcm`] reserves one slot per application. Cleared before
    /// each use; carrying it through (de)serialization is harmless.
    cluster_order: Vec<usize>,
}

impl Policy {
    /// FCFS policy for `apps` applications.
    pub fn fcfs(apps: usize) -> Self {
        Policy {
            kind: PolicyKind::Fcfs,
            tags: vec![0.0; apps],
            shares: vec![1.0 / apps.max(1) as f64; apps],
            keys: vec![0.0; apps],
            batch: vec![0; apps],
            batch_cap: 5,
            attained: vec![0.0; apps],
            decay: 0.9999,
            epoch_service: vec![0; apps],
            latency_cluster: vec![true; apps],
            recluster_in: 2000,
            epoch_len: 2000,
            rotation: 0,
            cluster_order: Vec::new(),
        }
    }

    /// TCM-style clustering policy. `epoch_len` is the re-clustering period
    /// in served requests (the original uses a time quantum; a service
    /// quantum is equivalent under a saturated bus).
    pub fn tcm(apps: usize, epoch_len: u64) -> Self {
        assert!(epoch_len >= 1, "epoch length must be at least 1");
        Policy {
            kind: PolicyKind::Tcm,
            recluster_in: epoch_len,
            epoch_len,
            cluster_order: Vec::with_capacity(apps),
            ..Self::fcfs(apps)
        }
    }

    /// PARBS-style batching policy for `apps` applications with a
    /// per-application marking cap (the original paper uses 5).
    pub fn parbs(apps: usize, batch_cap: usize) -> Self {
        assert!(batch_cap >= 1, "batch cap must be at least 1");
        Policy {
            kind: PolicyKind::Parbs,
            batch_cap,
            ..Self::fcfs(apps)
        }
    }

    /// ATLAS-style least-attained-service policy. `decay` ∈ (0, 1] is the
    /// per-service exponential forgetting factor (1.0 = infinite memory).
    pub fn atlas(apps: usize, decay: f64) -> Self {
        assert!(decay > 0.0 && decay <= 1.0, "decay must be in (0, 1]");
        Policy {
            kind: PolicyKind::Atlas,
            decay,
            ..Self::fcfs(apps)
        }
    }

    /// FR-FCFS policy for `apps` applications.
    pub fn fr_fcfs(apps: usize) -> Self {
        Policy {
            kind: PolicyKind::FrFcfs,
            ..Self::fcfs(apps)
        }
    }

    /// Start-time-fair policy enforcing `shares` (β, summing to 1).
    ///
    /// # Panics
    /// Panics if `shares` is empty, contains negatives/NaNs, or sums to 0.
    pub fn stf(shares: Vec<f64>) -> Self {
        assert!(!shares.is_empty(), "shares must be non-empty");
        assert!(
            shares.iter().all(|s| s.is_finite() && *s >= 0.0),
            "shares must be non-negative"
        );
        assert!(shares.iter().sum::<f64>() > 0.0, "shares must not all be 0");
        let n = shares.len();
        Policy {
            kind: PolicyKind::Stf,
            shares,
            ..Self::fcfs(n)
        }
    }

    /// Strict-priority policy: applications with lower `keys` are always
    /// served first (e.g. `APC_alone` for `Priority_APC`, `API` for
    /// `Priority_API`).
    pub fn priority(keys: Vec<f64>) -> Self {
        assert!(!keys.is_empty(), "keys must be non-empty");
        assert!(
            keys.iter().all(|k| k.is_finite()),
            "priority keys must be finite"
        );
        let n = keys.len();
        Policy {
            kind: PolicyKind::Priority,
            keys,
            ..Self::fcfs(n)
        }
    }

    /// The discipline this policy implements.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// Adopt `next`'s targets — the STF share vector and the priority
    /// keys — while keeping this policy's scheduling state, so STF start
    /// tags carry their accumulated credit across an epoch repartition.
    ///
    /// # Panics
    /// If `next` is a different discipline or schedules a different
    /// number of applications.
    pub fn retarget(&mut self, next: Policy) {
        assert_eq!(self.kind, next.kind, "retarget across disciplines");
        assert_eq!(next.shares.len(), self.shares.len(), "share vector length");
        self.shares = next.shares;
        self.keys = next.keys;
    }

    /// Current STF tag of `app` (tests/diagnostics).
    pub fn tag(&self, app: usize) -> f64 {
        self.tags[app]
    }

    /// Pick the application to serve among `candidates`. Only issuable
    /// candidates are eligible; returns `None` when none are. Takes `&mut
    /// self` because batching policies re-form their batch state here.
    pub fn pick(&mut self, candidates: &[Candidate]) -> Option<usize> {
        let eligible = candidates.iter().filter(|c| c.issuable);
        match self.kind {
            PolicyKind::Fcfs => eligible.min_by_key(|c| (c.arrival, c.app)).map(|c| c.app),
            PolicyKind::FrFcfs => eligible
                .min_by_key(|c| (!c.row_hit, c.arrival, c.app))
                .map(|c| c.app),
            PolicyKind::Stf => eligible
                .min_by(|a, b| {
                    self.tags[a.app]
                        .total_cmp(&self.tags[b.app])
                        .then(a.app.cmp(&b.app))
                })
                .map(|c| c.app),
            PolicyKind::Priority => eligible
                .min_by(|a, b| {
                    self.keys[a.app]
                        .total_cmp(&self.keys[b.app])
                        .then(a.app.cmp(&b.app))
                })
                .map(|c| c.app),
            PolicyKind::Parbs => {
                // Re-form the batch once every marked request of every
                // still-pending application has been served.
                if candidates.iter().all(|c| self.batch[c.app] == 0) {
                    for c in candidates {
                        self.batch[c.app] = c.queue_len.min(self.batch_cap);
                    }
                }
                // Batched requests strictly first; within the batch,
                // shortest job (fewest marked requests) first. Fall back to
                // unbatched requests (work conservation) by oldest arrival.
                candidates
                    .iter()
                    .filter(|c| c.issuable && self.batch[c.app] > 0)
                    .min_by_key(|c| (self.batch[c.app], c.arrival, c.app))
                    .or_else(|| {
                        candidates
                            .iter()
                            .filter(|c| c.issuable)
                            .min_by_key(|c| (c.arrival, c.app))
                    })
                    .map(|c| c.app)
            }
            PolicyKind::Atlas => eligible
                .min_by(|a, b| {
                    self.attained[a.app]
                        .total_cmp(&self.attained[b.app])
                        .then(a.app.cmp(&b.app))
                })
                .map(|c| c.app),
            PolicyKind::Tcm => {
                // Latency cluster strictly first (oldest request); then the
                // bandwidth cluster under a rotating rank.
                let n = self.latency_cluster.len();
                candidates
                    .iter()
                    .filter(|c| c.issuable && self.latency_cluster[c.app])
                    .min_by_key(|c| (c.arrival, c.app))
                    .or_else(|| {
                        candidates
                            .iter()
                            .filter(|c| c.issuable)
                            .min_by_key(|c| ((c.app + n - self.rotation % n) % n, c.arrival))
                    })
                    .map(|c| c.app)
            }
        }
    }

    /// Account one served request for `app` (advances STF tags:
    /// `S_i = S_{i-1} + 1/β`, Section IV-B — independent of arrival time;
    /// decrements PARBS batch marks; updates ATLAS attained service).
    pub fn on_served(&mut self, app: usize) {
        match self.kind {
            PolicyKind::Stf => {
                let beta = self.shares[app];
                // β = 0 means "no share": push the tag to the far future so
                // the app is only served when it is alone in the queue.
                let previous = self.tags[app];
                self.tags[app] += if beta > 0.0 { 1.0 / beta } else { 1e18 };
                bwpart_core::invariant!(
                    self.tags[app] >= previous,
                    "DSTF start tag regressed for app {}: {} -> {} (S_i = S_i-1 + 1/β must be \
                     monotone, Section IV-B)",
                    app,
                    previous,
                    self.tags[app]
                );
            }
            PolicyKind::Parbs => {
                self.batch[app] = self.batch[app].saturating_sub(1);
            }
            PolicyKind::Atlas => {
                for a in self.attained.iter_mut() {
                    *a *= self.decay;
                }
                self.attained[app] += 1.0;
            }
            PolicyKind::Tcm => {
                self.epoch_service[app] += 1;
                self.recluster_in = self.recluster_in.saturating_sub(1);
                if self.recluster_in == 0 {
                    self.recluster();
                }
            }
            _ => {}
        }
    }

    /// TCM epoch boundary: applications whose cumulative service (lightest
    /// first) stays within 20% of the epoch total form the latency-
    /// sensitive cluster; the rest are bandwidth-sensitive. The bandwidth
    /// cluster's rank rotates each epoch (TCM's "insertion shuffle").
    fn recluster(&mut self) {
        let total: u64 = self.epoch_service.iter().sum();
        // Reused scratch, reserved by `Policy::tcm`; the index tie-break
        // keeps the unstable sort deterministic.
        self.cluster_order.clear();
        self.cluster_order.extend(0..self.epoch_service.len());
        let service = &self.epoch_service;
        self.cluster_order
            .sort_unstable_by_key(|&i| (service[i], i));
        let mut cum = 0u64;
        for &i in &self.cluster_order {
            cum += self.epoch_service[i];
            self.latency_cluster[i] = cum * 5 <= total; // ≤ 20% cumulative
        }
        self.rotation = self.rotation.wrapping_add(1);
        self.epoch_service.iter_mut().for_each(|s| *s = 0);
        self.recluster_in = self.epoch_len;
    }

    /// Whether `app` is currently in TCM's latency-sensitive cluster.
    pub fn in_latency_cluster(&self, app: usize) -> bool {
        self.latency_cluster[app]
    }

    /// ATLAS attained-service history of `app` (tests/diagnostics).
    pub fn attained(&self, app: usize) -> f64 {
        self.attained[app]
    }
}

#[cfg(test)]
// exact float equality is intentional: these check pass-through/zero paths
#[allow(clippy::float_cmp)]
pub(crate) mod tests {
    use super::*;

    /// One policy of each [`PolicyKind`] for three applications.
    pub(crate) fn one_per_kind() -> Vec<Policy> {
        let policies = vec![
            Policy::fcfs(3),
            Policy::fr_fcfs(3),
            Policy::stf(vec![0.5, 0.3, 0.2]),
            Policy::priority(vec![2.0, 1.0, 3.0]),
            Policy::parbs(3, 6),
            Policy::atlas(3, 0.99),
            Policy::tcm(3, 4),
        ];
        for kind in [
            PolicyKind::Fcfs,
            PolicyKind::FrFcfs,
            PolicyKind::Stf,
            PolicyKind::Priority,
            PolicyKind::Parbs,
            PolicyKind::Atlas,
            PolicyKind::Tcm,
        ] {
            assert!(
                policies.iter().any(|p| p.kind() == kind),
                "{kind:?} not covered"
            );
        }
        policies
    }

    fn cand(app: usize, arrival: u64, issuable: bool) -> Candidate {
        Candidate {
            app,
            arrival,
            issuable,
            row_hit: false,
            queue_len: 4,
        }
    }

    #[test]
    fn fcfs_picks_oldest_issuable() {
        let mut p = Policy::fcfs(3);
        let c = [cand(0, 50, true), cand(1, 10, false), cand(2, 30, true)];
        assert_eq!(p.pick(&c), Some(2));
        // Nothing issuable → None.
        let c = [cand(0, 50, false), cand(1, 10, false)];
        assert_eq!(p.pick(&c), None);
    }

    #[test]
    fn frfcfs_prefers_row_hits() {
        let mut p = Policy::fr_fcfs(3);
        let mut c = [cand(0, 10, true), cand(1, 50, true)];
        c[1].row_hit = true;
        assert_eq!(p.pick(&c), Some(1), "younger row hit beats older miss");
        // Among equal hit status, oldest wins.
        c[1].row_hit = false;
        assert_eq!(p.pick(&c), Some(0));
    }

    #[test]
    fn stf_serves_proportionally_to_shares() {
        // β = [0.75, 0.25]: app 0 should be served ~3× as often.
        let mut p = Policy::stf(vec![0.75, 0.25]);
        let mut counts = [0usize; 2];
        for i in 0..400 {
            let c = [cand(0, i, true), cand(1, i, true)];
            let picked = p.pick(&c).unwrap();
            counts[picked] += 1;
            p.on_served(picked);
        }
        assert_eq!(counts[0] + counts[1], 400);
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!(
            (ratio - 3.0).abs() < 0.1,
            "ratio {ratio} should be ~3 (counts {counts:?})"
        );
    }

    #[test]
    fn stf_is_work_conserving() {
        // App 1 absent: app 0 gets everything despite tiny share.
        let mut p = Policy::stf(vec![0.01, 0.99]);
        for i in 0..10 {
            let c = [cand(0, i, true)];
            assert_eq!(p.pick(&c), Some(0));
            p.on_served(0);
        }
        assert!(p.tag(0) > 900.0);
    }

    #[test]
    fn stf_credit_carries_over_idle_periods() {
        // Both apps share 50/50. App 1 is absent for a while; when it
        // returns, its stale (smaller) tag gives it back-to-back service.
        let mut p = Policy::stf(vec![0.5, 0.5]);
        for i in 0..10 {
            let c = [cand(0, i, true)];
            let picked = p.pick(&c).unwrap();
            p.on_served(picked);
        }
        // App 1 returns: its tag (0) lags app 0's (20); it wins repeatedly.
        for i in 0..9 {
            let c = [cand(0, 100 + i, true), cand(1, 100 + i, true)];
            let picked = p.pick(&c).unwrap();
            assert_eq!(picked, 1, "round {i}: app 1 should catch up");
            p.on_served(picked);
        }
        // After catching up (tag 18 vs 20), app 1 still wins once more, then
        // they alternate.
        let c = [cand(0, 200, true), cand(1, 200, true)];
        assert_eq!(p.pick(&c), Some(1));
    }

    #[test]
    fn stf_zero_share_only_served_alone() {
        let mut p = Policy::stf(vec![1.0, 0.0]);
        p.on_served(1); // tag leaps to ~1e18
        let c = [cand(0, 5, true), cand(1, 1, true)];
        assert_eq!(p.pick(&c), Some(0));
        // ...but still served when alone (work conservation).
        let c = [cand(1, 1, true)];
        assert_eq!(p.pick(&c), Some(1));
    }

    #[test]
    fn priority_strictly_orders_by_key() {
        let mut p = Policy::priority(vec![3.0, 1.0, 2.0]);
        let c = [cand(0, 1, true), cand(1, 99, true), cand(2, 50, true)];
        assert_eq!(p.pick(&c), Some(1), "lowest key wins regardless of age");
        // Highest-priority app blocked → next key.
        let c = [cand(0, 1, true), cand(1, 99, false), cand(2, 50, true)];
        assert_eq!(p.pick(&c), Some(2));
    }

    #[test]
    fn retarget_preserves_tags() {
        let mut p = Policy::stf(vec![0.5, 0.5]);
        p.on_served(0);
        let t = p.tag(0);
        p.retarget(Policy::stf(vec![0.9, 0.1]));
        assert_eq!(p.tag(0), t);
        p.on_served(0);
        assert!((p.tag(0) - (t + 1.0 / 0.9)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shares must be non-empty")]
    fn stf_rejects_empty_shares() {
        let _ = Policy::stf(vec![]);
    }

    #[test]
    #[should_panic(expected = "share vector length")]
    fn retarget_rejects_length_change() {
        let mut p = Policy::stf(vec![0.5, 0.5]);
        p.retarget(Policy::stf(vec![1.0]));
    }

    #[test]
    fn retarget_replaces_priority_keys() {
        let mut p = Policy::priority(vec![1.0, 2.0]);
        p.retarget(Policy::priority(vec![3.0, 0.5]));
        let c = [cand(0, 1, true), cand(1, 2, true)];
        assert_eq!(p.pick(&c), Some(1));
    }

    #[test]
    #[should_panic(expected = "retarget across disciplines")]
    fn retarget_rejects_another_discipline() {
        let mut p = Policy::stf(vec![0.5, 0.5]);
        p.retarget(Policy::fcfs(2));
    }

    #[test]
    fn ties_break_deterministically_by_app() {
        let mut p = Policy::fcfs(2);
        let c = [cand(1, 10, true), cand(0, 10, true)];
        assert_eq!(p.pick(&c), Some(0));
        let mut p = Policy::priority(vec![1.0, 1.0]);
        assert_eq!(p.pick(&c), Some(0));
    }

    #[test]
    fn parbs_batches_then_shortest_job_first() {
        let mut p = Policy::parbs(3, 5);
        // Queue lengths 2, 6, 4 → batch marks 2, 5, 4.
        let mk = |ql: [usize; 3]| -> Vec<Candidate> {
            (0..3)
                .map(|app| Candidate {
                    app,
                    arrival: app as u64,
                    issuable: true,
                    row_hit: false,
                    queue_len: ql[app],
                })
                .collect()
        };
        let c = mk([2, 6, 4]);
        // First pick forms the batch and serves the shortest job (app 0).
        assert_eq!(p.pick(&c), Some(0));
        p.on_served(0);
        assert_eq!(p.pick(&c), Some(0));
        p.on_served(0);
        // App 0's marks are exhausted: next-shortest (app 2, 4 marks).
        assert_eq!(p.pick(&c), Some(2));
    }

    #[test]
    fn parbs_prefers_batched_over_unbatched() {
        let mut p = Policy::parbs(2, 1);
        let c: Vec<Candidate> = (0..2)
            .map(|app| Candidate {
                app,
                arrival: 10 - app as u64, // app 1 older
                issuable: true,
                row_hit: false,
                queue_len: 3,
            })
            .collect();
        // Batch forms with 1 mark each; both batched → oldest (app 1).
        assert_eq!(p.pick(&c), Some(1));
        p.on_served(1);
        // App 1 unbatched now; app 0 still batched → app 0 wins despite age.
        assert_eq!(p.pick(&c), Some(0));
    }

    #[test]
    fn parbs_is_starvation_free_under_saturation() {
        // Unlike strict priority, every app keeps getting service because
        // batches must drain before re-forming.
        let mut p = Policy::parbs(3, 5);
        let mut served = [0u64; 3];
        for round in 0..600 {
            let c: Vec<Candidate> = (0..3)
                .map(|app| Candidate {
                    app,
                    arrival: round,
                    issuable: true,
                    row_hit: false,
                    queue_len: [20usize, 4, 1][app],
                })
                .collect();
            let pick = p.pick(&c).unwrap();
            served[pick] += 1;
            p.on_served(pick);
        }
        for (i, &s) in served.iter().enumerate() {
            assert!(s > 30, "app {i} starved: {served:?}");
        }
    }

    #[test]
    fn atlas_balances_attained_service() {
        let mut p = Policy::atlas(2, 1.0);
        let c: Vec<Candidate> = (0..2)
            .map(|app| Candidate {
                app,
                arrival: app as u64,
                issuable: true,
                row_hit: false,
                queue_len: 4,
            })
            .collect();
        let mut served = [0u64; 2];
        for _ in 0..100 {
            let pick = p.pick(&c).unwrap();
            served[pick] += 1;
            p.on_served(pick);
        }
        assert_eq!(served[0], 50);
        assert_eq!(served[1], 50);
        assert!((p.attained(0) - p.attained(1)).abs() <= 1.0);
    }

    #[test]
    fn atlas_catches_up_an_underserved_app() {
        let mut p = Policy::atlas(2, 0.999);
        // App 0 hogs service while app 1 is absent.
        for _ in 0..50 {
            p.on_served(0);
        }
        // When app 1 appears it wins until its history catches up.
        let c: Vec<Candidate> = (0..2)
            .map(|app| Candidate {
                app,
                arrival: 0,
                issuable: true,
                row_hit: false,
                queue_len: 4,
            })
            .collect();
        for _ in 0..20 {
            assert_eq!(p.pick(&c), Some(1));
            p.on_served(1);
        }
    }

    #[test]
    #[should_panic(expected = "batch cap")]
    fn parbs_rejects_zero_cap() {
        let _ = Policy::parbs(2, 0);
    }

    #[test]
    #[should_panic(expected = "decay")]
    fn atlas_rejects_bad_decay() {
        let _ = Policy::atlas(2, 0.0);
    }

    #[test]
    fn tcm_clusters_light_apps_and_prioritizes_them() {
        let mut p = Policy::tcm(3, 100);
        // Epoch 1: app 0 heavy (80), app 1 medium (15), app 2 light (5).
        for _ in 0..80 {
            p.on_served(0);
        }
        for _ in 0..15 {
            p.on_served(1);
        }
        for _ in 0..5 {
            p.on_served(2);
        }
        // 100 services → re-clustered: cumulative lightest-first:
        // app2 (5%) ≤ 20% → latency; app1 (5+15=20%) ≤ 20% → latency;
        // app0 (100%) → bandwidth.
        assert!(p.in_latency_cluster(2));
        assert!(p.in_latency_cluster(1));
        assert!(!p.in_latency_cluster(0));
        // Latency-cluster requests win even when younger.
        let c: Vec<Candidate> = (0..3)
            .map(|app| Candidate {
                app,
                arrival: app as u64, // app 0 oldest
                issuable: true,
                row_hit: false,
                queue_len: 8,
            })
            .collect();
        let pick = p.pick(&c).unwrap();
        assert!(pick == 1 || pick == 2, "latency cluster first, got {pick}");
    }

    #[test]
    fn tcm_rotation_spreads_bandwidth_cluster_service() {
        // All apps heavy: everyone lands in the bandwidth cluster, and the
        // rotating rank must spread first pick across apps over epochs.
        let mut p = Policy::tcm(3, 30);
        let c: Vec<Candidate> = (0..3)
            .map(|app| Candidate {
                app,
                arrival: 0,
                issuable: true,
                row_hit: false,
                queue_len: 8,
            })
            .collect();
        let mut firsts = std::collections::HashSet::new();
        for _ in 0..6 {
            // Burn one epoch with balanced service.
            for _ in 0..10 {
                for app in 0..3 {
                    p.on_served(app);
                }
            }
            firsts.insert(p.pick(&c).unwrap());
        }
        assert!(
            firsts.len() >= 2,
            "rotation should vary the bandwidth-cluster leader: {firsts:?}"
        );
    }

    /// `MemoryController::settle_before` lets one `pick` stand for every
    /// stalled clock until the next issue: with nothing issuable every
    /// policy serves nobody, and after the first such pick its state no
    /// longer moves, also when a new blocked head joins the candidates
    /// (an enqueue into an empty queue between settles).
    #[test]
    fn pick_with_nothing_issuable_serves_nobody_and_then_changes_nothing() {
        let blocked: Vec<Candidate> = (0..3)
            .map(|app| Candidate {
                row_hit: app == 1,
                queue_len: 1 + 2 * app,
                ..cand(app, 10 - app as u64, false)
            })
            .collect();
        for mut p in one_per_kind() {
            // Some service history first, so every stateful field is live
            // (TCM re-clusters, PARBS drains its batch).
            for app in [0, 1, 0, 2, 0, 1] {
                p.on_served(app);
            }
            assert_eq!(p.pick(&blocked[..2]), None, "{:?}", p.kind());
            let state = format!("{p:?}");
            for _ in 0..3 {
                assert_eq!(p.pick(&blocked), None, "{:?}", p.kind());
                assert_eq!(
                    format!("{p:?}"),
                    state,
                    "{:?} changed on a repeat",
                    p.kind()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "epoch length")]
    fn tcm_rejects_zero_epoch() {
        let _ = Policy::tcm(2, 0);
    }
}
