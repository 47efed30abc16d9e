//! The Section IV-C epoch decision, shared by the simulator's phase runner
//! and the `bwpartd` service.
//!
//! An [`EpochPolicy`] holds one group of applications and makes one
//! decision per epoch:
//!
//! 1. **Fold** — sum each application's [`TelemetryDelta`]s into a
//!    [`DeltaAccumulator`] and form the raw Eq. 12–13 `APC_alone`
//!    estimate.
//! 2. **Smooth** — blend the raw estimate into the running one with an
//!    EWMA, unless the jump exceeds [`PHASE_CHANGE_RATIO`]: a phase change
//!    snaps to the new value so the partition tracks the phase instead of
//!    averaging across it.
//! 3. **Solve** — the configured [`PartitionScheme`], or Eq. 11
//!    [`qos::partition`] once targets are admitted, or the calibrated
//!    [`solve_coordinated_scaled`] for the coordinated scheme; the result
//!    is certified against the model contracts.
//! 4. **Publish** — unless **hysteresis** judges the change too small to
//!    disturb the enforcement mechanism.
//!
//! The runner decides with `ewma_alpha = 1` and `hysteresis = 0`, which
//! is the raw per-epoch rule: every epoch publishes exactly
//! `scheme.solve` of that epoch's estimates. The service smooths and
//! holds. Degradation is explicit: an all-idle epoch keeps the previous
//! estimates and decision; a failed solve keeps the last good decision
//! published and marks the policy degraded until a solve succeeds again.

use bwpart_core::prelude::*;
use bwpart_core::{ensures_capped, ensures_simplex};

use crate::profiler::{DeltaAccumulator, TelemetryDelta};

/// Relative jump in an application's raw estimate that is treated as a
/// phase change: `|new − old| / old > PHASE_CHANGE_RATIO` snaps the
/// estimate to `new` instead of smoothing toward it.
pub const PHASE_CHANGE_RATIO: f64 = 0.5;

/// What an [`EpochPolicy`] decides with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochConfig {
    /// Scheme re-solved every epoch (and the best-effort scheme under QoS
    /// reservations).
    pub scheme: PartitionScheme,
    /// Total off-chip bandwidth `B` to partition, in APC units.
    pub bandwidth: f64,
    /// EWMA weight of the *new* epoch estimate in `(0, 1]`; `1` disables
    /// smoothing.
    pub ewma_alpha: f64,
    /// Minimum per-application share change (`β`, or an LLC-way share)
    /// that justifies republishing; smaller changes are held.
    pub hysteresis: f64,
    /// Total shared-LLC ways to partition. Required by
    /// [`PartitionScheme::Coordinated`]; ignored by the bandwidth-only
    /// schemes.
    pub total_ways: Option<usize>,
}

/// What one epoch decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// New shares were computed, certified, and published.
    Repartitioned,
    /// The solve succeeded but the change was below the hysteresis
    /// threshold; the previous shares stand.
    Held,
    /// No application reported any cycles; estimates and shares are
    /// untouched.
    Idle,
    /// The solve failed; the last good shares stay published and the
    /// policy is degraded until a solve succeeds.
    Failed,
}

/// Why the policy refused a request; `bwpartd` maps each kind onto its
/// wire error code one to one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// No estimate exists yet for what was asked.
    NotReady,
    /// The application id is not enrolled.
    UnknownApp,
    /// A numeric argument was non-finite or out of domain.
    InvalidArgument,
    /// Eq. 11: the target exceeds the application's standalone IPC.
    QosUnreachable,
    /// Eq. 11: the reservations would exceed `B`.
    QosInfeasible,
    /// The solver rejected the current inputs.
    SolveFailed,
}

/// A refused request: its kind and a human-readable reason.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyError {
    /// Machine-readable category.
    pub kind: Refusal,
    /// Human-readable detail.
    pub message: String,
}

impl PolicyError {
    fn new(kind: Refusal, message: impl Into<String>) -> Self {
        PolicyError {
            kind,
            message: message.into(),
        }
    }

    /// The refusal for an id no application was enrolled under.
    pub fn unknown_app(app: usize) -> Self {
        Self::new(
            Refusal::UnknownApp,
            format!("no application with id {app}; register first"),
        )
    }

    /// The refusal while no application has a usable estimate.
    pub fn not_ready() -> Self {
        Self::new(
            Refusal::NotReady,
            "no application has an APC_alone estimate yet",
        )
    }

    fn solve(e: ModelError) -> Self {
        Self::new(Refusal::SolveFailed, e.to_string())
    }
}

/// One certified partition over the applications with a usable estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Epoch the decision was solved in.
    pub epoch: u64,
    /// Applications enrolled when it was solved (ids `0..apps`).
    pub apps: usize,
    /// Ids of the applications the solve covered, in solver order: the
    /// columns of `outcome` (the others get nothing).
    pub ids: Vec<usize>,
    /// Scheme, bandwidth, `β` and capped allocation over `ids`.
    pub outcome: SharesOutcome,
    /// For coordinated decisions, the LLC ways of each `ids` entry and
    /// the LLC's total.
    pub ways: Option<(Vec<usize>, usize)>,
}

impl Decision {
    /// `(β, LLC-way share)` of every enrolled application: `(0, None)` for
    /// one the solve did not cover, `None` ways for a bandwidth-only
    /// decision.
    pub fn per_app(&self) -> Vec<(f64, Option<f64>)> {
        let mut rows = vec![(0.0, None); self.apps];
        for (k, &id) in self.ids.iter().enumerate() {
            let way_share = self
                .ways
                .as_ref()
                .map(|(ways, total)| ways[k] as f64 / *total as f64);
            rows[id] = (self.outcome.beta[k], way_share);
        }
        rows
    }
}

/// Largest per-application change of `β` or LLC-way share between two
/// decisions. A changed application set or resource shape counts as a
/// full change (∞), so hysteresis can never mask it.
fn max_share_delta(prev: &Decision, next: &Decision) -> f64 {
    if prev.apps != next.apps {
        return f64::INFINITY;
    }
    prev.per_app()
        .into_iter()
        .zip(next.per_app())
        .map(|((pb, pw), (nb, nw))| {
            let dw = match (pw, nw) {
                (None, None) => 0.0,
                (Some(p), Some(n)) => (p - n).abs(),
                _ => f64::INFINITY,
            };
            (pb - nb).abs().max(dw)
        })
        .fold(0.0, f64::max)
}

/// One enrolled application's decision state.
#[derive(Debug, Clone)]
pub struct PolicyApp {
    /// Application name (the profile label in solves and messages).
    pub name: String,
    /// Accesses per instruction.
    pub api: f64,
    /// Smoothed `APC_alone` estimate; `None` until a non-idle epoch
    /// mentions the application.
    pub estimate: Option<f64>,
    /// Admitted Eq. 11 IPC target.
    pub qos_target: Option<f64>,
    /// Cache-aware profile; coordinated solves need one per application.
    pub cache: Option<CacheAwareProfile>,
    /// LLC ways most recently published for the application: the
    /// calibration anchor of the next coordinated solve (`None` until the
    /// first coordinated publish — the fair split is assumed).
    pub ways: Option<usize>,
    /// Deltas folded since the last decision.
    pending: DeltaAccumulator,
}

/// The Section IV-C decision loop for one group of applications (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct EpochPolicy {
    cfg: EpochConfig,
    apps: Vec<PolicyApp>,
    epoch: u64,
    published: Option<Decision>,
    failure: Option<PolicyError>,
    phase_changes: u64,
}

impl EpochPolicy {
    /// An empty policy; nothing is published until an epoch solves.
    pub fn new(cfg: EpochConfig) -> Self {
        EpochPolicy {
            cfg,
            apps: Vec::new(),
            epoch: 0,
            published: None,
            failure: None,
            phase_changes: 0,
        }
    }

    /// The configuration the policy decides with.
    pub fn config(&self) -> &EpochConfig {
        &self.cfg
    }

    /// Enroll an application and return its id (ids are sequential).
    pub fn enroll(&mut self, name: &str, api: f64, cache: Option<CacheAwareProfile>) -> usize {
        self.apps.push(PolicyApp {
            name: name.to_string(),
            api,
            estimate: None,
            qos_target: None,
            cache,
            ways: None,
            pending: DeltaAccumulator::default(),
        });
        self.apps.len() - 1
    }

    /// Replace an enrolled application's `api` and cache profile (`None`
    /// clears it), keeping its estimate and admission.
    pub fn refresh(&mut self, app: usize, api: f64, cache: Option<CacheAwareProfile>) {
        if let Some(a) = self.apps.get_mut(app) {
            a.api = api;
            a.cache = cache;
        }
    }

    /// Fold one telemetry delta into application `app`'s next decision
    /// (a delta for an id that was never enrolled is dropped).
    pub fn fold(&mut self, app: usize, delta: TelemetryDelta) {
        if let Some(a) = self.apps.get_mut(app) {
            a.pending.fold(delta);
        }
    }

    /// Run one epoch over everything folded since the last one: refresh
    /// the estimates, re-solve, certify, and publish subject to
    /// hysteresis.
    pub fn decide(&mut self) -> Verdict {
        self.epoch += 1;
        let alpha = self.cfg.ewma_alpha;
        let mut any_signal = false;
        for app in &mut self.apps {
            let Some(raw) = std::mem::take(&mut app.pending).apc_alone() else {
                continue; // idle this epoch: keep the previous estimate
            };
            any_signal = true;
            app.estimate = Some(match app.estimate {
                Some(old) if old > 0.0 && (raw - old).abs() / old > PHASE_CHANGE_RATIO => {
                    self.phase_changes += 1;
                    raw
                }
                Some(old) => alpha * raw + (1.0 - alpha) * old,
                None => raw,
            });
        }
        if !any_signal {
            return Verdict::Idle;
        }
        let next = match self.solve(self.cfg.scheme, true) {
            Ok(next) => next,
            Err(e) => {
                self.failure = Some(e);
                return Verdict::Failed;
            }
        };
        self.failure = None;
        if let Some(prev) = &self.published {
            if max_share_delta(prev, &next) < self.cfg.hysteresis {
                return Verdict::Held;
            }
        }
        if let Some((ways, _)) = &next.ways {
            for (&id, &w) in next.ids.iter().zip(ways) {
                self.apps[id].ways = Some(w);
            }
        }
        self.published = Some(next);
        Verdict::Repartitioned
    }

    /// Eq. 11 admission control. Admits `app` (its target then binds every
    /// later solve) only if the target is reachable
    /// (`IPC_target ≤ IPC_alone`) and the total reservation
    /// `Σ IPC_target,i × API_i` still fits inside `B`. Returns the
    /// `(reserved, remaining)` bandwidth in APC; a refusal leaves every
    /// earlier admission untouched.
    pub fn admit(&mut self, app: usize, ipc_target: f64) -> Result<(f64, f64), PolicyError> {
        if !(ipc_target.is_finite() && ipc_target > 0.0) {
            return Err(PolicyError::new(
                Refusal::InvalidArgument,
                format!("invalid ipc_target: {ipc_target}"),
            ));
        }
        let b = self.cfg.bandwidth;
        let a = self
            .apps
            .get(app)
            .ok_or_else(|| PolicyError::unknown_app(app))?;
        let Some(apc_alone) = a.estimate else {
            return Err(PolicyError::new(
                Refusal::NotReady,
                format!(
                    "no APC_alone estimate for `{}` yet; send telemetry and wait an epoch",
                    a.name
                ),
            ));
        };
        // Eq. 1: IPC_alone = APC_alone / API.
        let ipc_alone = apc_alone / a.api;
        if ipc_target > ipc_alone {
            return Err(PolicyError::new(
                Refusal::QosUnreachable,
                format!(
                    "target IPC {ipc_target} exceeds `{}`'s standalone IPC {ipc_alone:.6}",
                    a.name
                ),
            ));
        }
        let reserve = ipc_target * a.api;
        let existing: f64 = self
            .apps
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != app)
            .filter_map(|(_, a)| a.qos_target.map(|t| t * a.api))
            .sum();
        let total = existing + reserve;
        if !contracts::approx_le(total, b, contracts::TOLERANCE) {
            return Err(PolicyError::new(
                Refusal::QosInfeasible,
                format!(
                    "reserving {reserve:.6} APC would bring QoS reservations to {total:.6}, \
                     exceeding B = {b:.6} (Eq. 11)"
                ),
            ));
        }
        self.apps[app].qos_target = Some(ipc_target);
        Ok((reserve, b - total))
    }

    /// What `scheme` would give on the current estimates. Bypasses QoS
    /// reservations (it answers "what would `scheme` give?", not "what
    /// will be enforced") and changes no state.
    pub fn what_if(&self, scheme: PartitionScheme) -> Result<Decision, PolicyError> {
        self.solve(scheme, false)
    }

    /// The enrolled applications, in id order.
    pub fn apps(&self) -> &[PolicyApp] {
        &self.apps
    }

    /// Epochs decided so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The last published decision.
    pub fn published(&self) -> Option<&Decision> {
        self.published.as_ref()
    }

    /// Why the policy is degraded: the refusal of a failed solve, until
    /// a solve succeeds again (`None` while it is not degraded).
    pub fn failure(&self) -> Option<&PolicyError> {
        self.failure.as_ref()
    }

    /// Estimates that snapped instead of smoothing, so far.
    pub fn phase_changes(&self) -> u64 {
        self.phase_changes
    }

    // -- solving -----------------------------------------------------------

    /// Solve `scheme` over every application with a usable estimate, with
    /// the admitted Eq. 11 targets when `honour_qos`, and certify it. The
    /// decision is the public contract of both callers, so it is
    /// certified here (simplex + caps) even though the solvers certify
    /// too: the remap from solver columns back to ids is exactly the step
    /// a bug would hide in.
    fn solve(&self, scheme: PartitionScheme, honour_qos: bool) -> Result<Decision, PolicyError> {
        if scheme == PartitionScheme::Coordinated {
            return self.solve_coordinated(honour_qos);
        }
        let (ids, profiles) = self.profiled()?;
        let b = self.cfg.bandwidth;
        let requests = self.qos_requests(&ids, honour_qos);
        let outcome = if requests.is_empty() {
            scheme.solve(&profiles, b).map_err(PolicyError::solve)?
        } else {
            let part =
                qos::partition(&profiles, &requests, scheme, b).map_err(PolicyError::solve)?;
            SharesOutcome {
                scheme: scheme.canonical_name(),
                bandwidth: b,
                beta: part.shares(),
                allocation: part.allocation,
            }
        };
        ensures_simplex!(outcome.beta);
        let caps: Vec<f64> = profiles.iter().map(|p| p.apc_alone).collect();
        ensures_capped!(outcome.allocation, caps);
        Ok(self.decision(ids, outcome, None))
    }

    /// The coordinated (bandwidth × LLC ways) solve. Every application
    /// with an estimate needs a cache profile; each profile's analytic
    /// `APC_alone(w)` is calibrated to match the Eq. 12–13 estimate at the
    /// currently enforced way count, then the alternating descent runs.
    /// QoS reservations (when honoured) re-split the bandwidth dimension
    /// at the solved way vector through Eq. 11.
    fn solve_coordinated(&self, honour_qos: bool) -> Result<Decision, PolicyError> {
        let total_ways = self.cfg.total_ways.ok_or_else(|| {
            PolicyError::new(
                Refusal::SolveFailed,
                "coordinated solve requires total_ways in the engine config",
            )
        })?;
        let b = self.cfg.bandwidth;
        let (ids, profiles) = self.profiled()?;
        let caches = ids
            .iter()
            .map(|&id| {
                let a = &self.apps[id];
                a.cache.clone().ok_or_else(|| {
                    PolicyError::new(
                        Refusal::SolveFailed,
                        format!(
                            "`{}` has telemetry but no cache spec; \
                             coordinated solves need every application's MRC",
                            a.name
                        ),
                    )
                })
            })
            .collect::<Result<Vec<CacheAwareProfile>, _>>()?;
        let n = ids.len();

        // Calibrate: the telemetry estimate reflects the ways currently
        // enforced (the last published split, or the fair split before
        // any), so the model is scaled to agree there and extrapolated
        // along the MRC everywhere else.
        let fair = (total_ways / n).max(1);
        let scales: Vec<f64> = ids
            .iter()
            .zip(&caches)
            .zip(&profiles)
            .map(|((&id, cache), p)| {
                let anchor = self.apps[id].ways.unwrap_or(fair) as f64;
                let model = cache.apc_alone_at(anchor);
                if model > 0.0 && (p.apc_alone / model).is_finite() {
                    (p.apc_alone / model).max(1e-6)
                } else {
                    1.0
                }
            })
            .collect();
        let coord_cfg = CoordConfig::new(b, total_ways);
        let coord =
            solve_coordinated_scaled(&caches, &scales, &coord_cfg).map_err(PolicyError::solve)?;

        let requests = self.qos_requests(&ids, honour_qos);
        let (beta, allocation) = if requests.is_empty() {
            (coord.bandwidth.beta, coord.bandwidth.allocation)
        } else {
            // QoS applies to the bandwidth dimension: Eq. 11 reservations
            // over the profiles materialized at the coordinated ways.
            let part = qos::partition(&coord.profiles, &requests, coord_cfg.inner, b)
                .map_err(PolicyError::solve)?;
            (part.shares(), part.allocation)
        };
        let outcome = SharesOutcome {
            scheme: PartitionScheme::Coordinated.canonical_name(),
            bandwidth: b,
            beta,
            allocation,
        };

        // Certify per resource: β on the simplex and capped by the
        // calibrated standalone rates, the way shares on the simplex and
        // each count within the LLC.
        ensures_simplex!(outcome.beta);
        let caps: Vec<f64> = coord.profiles.iter().map(|p| p.apc_alone).collect();
        ensures_capped!(outcome.allocation, caps);
        let way_shares: Vec<f64> = coord
            .ways
            .iter()
            .map(|&w| w as f64 / total_ways as f64)
            .collect();
        ensures_simplex!(way_shares);
        let ways_f: Vec<f64> = coord.ways.iter().map(|&w| w as f64).collect();
        ensures_capped!(ways_f, vec![total_ways as f64; n]);

        Ok(self.decision(ids, outcome, Some((coord.ways, total_ways))))
    }

    /// Every application with a usable (positive, finite) estimate: its
    /// id and its model profile, in id order.
    fn profiled(&self) -> Result<(Vec<usize>, Vec<AppProfile>), PolicyError> {
        let mut ids = Vec::new();
        let mut profiles = Vec::new();
        for (id, a) in self.apps.iter().enumerate() {
            let Some(est) = a.estimate else { continue };
            let Ok(p) = AppProfile::new(a.name.clone(), a.api, est) else {
                continue; // zero-rate estimate: nothing to allocate to
            };
            ids.push(id);
            profiles.push(p);
        }
        if ids.is_empty() {
            return Err(PolicyError::not_ready());
        }
        Ok((ids, profiles))
    }

    /// The admitted targets of `ids`, indexed by solver column (none
    /// unless `honour_qos`).
    fn qos_requests(&self, ids: &[usize], honour_qos: bool) -> Vec<qos::QosRequest> {
        if !honour_qos {
            return Vec::new();
        }
        ids.iter()
            .enumerate()
            .filter_map(|(app, &id)| {
                self.apps[id]
                    .qos_target
                    .map(|target_ipc| qos::QosRequest { app, target_ipc })
            })
            .collect()
    }

    fn decision(
        &self,
        ids: Vec<usize>,
        outcome: SharesOutcome,
        ways: Option<(Vec<usize>, usize)>,
    ) -> Decision {
        Decision {
            epoch: self.epoch,
            apps: self.apps.len(),
            ids,
            outcome,
            ways,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The service's defaults: Square_root over Mix-1's `B` with
    /// moderate smoothing.
    fn cfg(scheme: PartitionScheme) -> EpochConfig {
        EpochConfig {
            scheme,
            bandwidth: 0.0095,
            ewma_alpha: 0.5,
            hysteresis: 0.002,
            total_ways: None,
        }
    }

    /// A delta whose Eq. 12 estimate is exactly `apc_alone` (no
    /// interference, one mega-cycle window).
    fn clean_delta(apc_alone: f64) -> TelemetryDelta {
        let cycles = 1_000_000u64;
        TelemetryDelta {
            accesses: (apc_alone * cycles as f64) as u64,
            shared_cycles: cycles,
            interference_cycles: 0,
        }
    }

    fn four_app_policy() -> (EpochPolicy, Vec<usize>) {
        let mut p = EpochPolicy::new(cfg(PartitionScheme::SquareRoot));
        let ids = vec![
            p.enroll("lbm", 0.00939, None),
            p.enroll("libquantum", 0.00692, None),
            p.enroll("omnetpp", 0.00519, None),
            p.enroll("hmmer", 0.00529, None),
        ];
        (p, ids)
    }

    const ALONE: [f64; 4] = [0.0531, 0.0341, 0.0306, 0.0046];

    fn feed_epoch(p: &mut EpochPolicy, ids: &[usize]) {
        for (&id, &apc) in ids.iter().zip(&ALONE) {
            p.fold(id, clean_delta(apc));
        }
    }

    fn published(p: &EpochPolicy) -> Decision {
        p.published().cloned().expect("a published decision")
    }

    /// Every enrolled application's decision state: name, API, estimate,
    /// QoS target and published ways.
    #[allow(clippy::type_complexity)]
    fn app_state(p: &EpochPolicy) -> Vec<(String, f64, Option<f64>, Option<f64>, Option<usize>)> {
        p.apps()
            .iter()
            .map(|a| (a.name.clone(), a.api, a.estimate, a.qos_target, a.ways))
            .collect()
    }

    #[test]
    fn epoch_converges_to_offline_solution() {
        let (mut p, ids) = four_app_policy();
        assert_eq!(p.decide(), Verdict::Idle);

        feed_epoch(&mut p, &ids);
        assert_eq!(p.decide(), Verdict::Repartitioned);
        assert!(p.failure().is_none());
        let d = published(&p);

        // Offline closed-form reference on the true profiles.
        let profiles: Vec<AppProfile> = ids
            .iter()
            .zip(&ALONE)
            .map(|(&id, &apc)| {
                let a = &p.apps()[id];
                AppProfile::new(a.name.clone(), a.api, apc).unwrap()
            })
            .collect();
        let offline = PartitionScheme::SquareRoot
            .solve(&profiles, p.config().bandwidth)
            .unwrap();
        for (got, want) in d.outcome.beta.iter().zip(&offline.beta) {
            assert!(
                (got - want).abs() / want < 0.02,
                "beta {got} vs offline {want}"
            );
        }
    }

    #[test]
    fn hysteresis_holds_tiny_changes() {
        let (mut p, ids) = four_app_policy();
        feed_epoch(&mut p, &ids);
        assert_eq!(p.decide(), Verdict::Repartitioned);
        let first = published(&p);

        // Same telemetry again → same estimates → max|Δβ| = 0 < hysteresis.
        feed_epoch(&mut p, &ids);
        assert_eq!(p.decide(), Verdict::Held);
        assert_eq!(first, published(&p), "a held epoch keeps the decision");
    }

    #[test]
    fn phase_change_snaps_instead_of_smoothing() {
        let (mut p, ids) = four_app_policy();
        feed_epoch(&mut p, &ids);
        p.decide();

        // lbm triples its standalone rate: a >50% jump must snap.
        p.fold(ids[0], clean_delta(ALONE[0] * 3.0));
        for (&id, &apc) in ids.iter().zip(&ALONE).skip(1) {
            p.fold(id, clean_delta(apc));
        }
        p.decide();
        assert_eq!(p.phase_changes(), 1);
        let est = p.apps()[ids[0]].estimate.unwrap();
        assert!(
            (est - ALONE[0] * 3.0).abs() / (ALONE[0] * 3.0) < 0.01,
            "estimate {est} should have snapped to {}",
            ALONE[0] * 3.0
        );
    }

    #[test]
    fn idle_epoch_keeps_last_shares() {
        let (mut p, ids) = four_app_policy();
        feed_epoch(&mut p, &ids);
        p.decide();
        let before = (published(&p), app_state(&p));
        assert_eq!(p.decide(), Verdict::Idle);
        assert_eq!((published(&p), app_state(&p)), before);
    }

    #[test]
    fn qos_admission_and_structured_rejection() {
        let (mut p, ids) = four_app_policy();
        // No estimate yet → NotReady.
        assert_eq!(p.admit(ids[3], 0.5).unwrap_err().kind, Refusal::NotReady);

        feed_epoch(&mut p, &ids);
        p.decide();

        // hmmer: IPC_alone = 0.0046 / 0.00529 ≈ 0.8696.
        let (reserved, _) = p.admit(ids[3], 0.6).unwrap();
        assert!((reserved - 0.6 * 0.00529).abs() < 1e-9);

        // Unreachable target (above standalone IPC) → QosUnreachable.
        assert_eq!(
            p.admit(ids[3], 2.0).unwrap_err().kind,
            Refusal::QosUnreachable
        );

        // Infeasible: omnetpp asking for enough to blow the budget.
        // IPC_alone(omnetpp) ≈ 0.0306/0.00519 ≈ 5.896; a target of 1.4
        // needs 0.007266 APC, and 0.007266 + 0.003174 > B = 0.0095.
        let before = (app_state(&p), p.published().cloned());
        let err = p.admit(ids[2], 1.4).unwrap_err();
        assert_eq!(err.kind, Refusal::QosInfeasible);
        // The rejection must not disturb admitted state.
        assert_eq!(before, (app_state(&p), p.published().cloned()));

        // Unknown app id → UnknownApp.
        assert_eq!(p.admit(99, 0.1).unwrap_err().kind, Refusal::UnknownApp);

        // The next epoch honours the admitted reservation exactly (Eq. 11).
        feed_epoch(&mut p, &ids);
        p.decide();
        let d = published(&p);
        let k = d.ids.iter().position(|&id| id == ids[3]).unwrap();
        assert!((d.outcome.allocation[k] - 0.6 * 0.00529).abs() < 1e-6);
    }

    #[test]
    fn all_idle_policy_never_publishes_nan() {
        // A policy fed only empty/zero telemetry publishes nothing (never
        // NaN shares).
        let mut p = EpochPolicy::new(cfg(PartitionScheme::SquareRoot));
        let id = p.enroll("ghost", 0.01, None);
        p.fold(id, TelemetryDelta::default());
        assert_eq!(p.decide(), Verdict::Idle);
        assert!(p.published().is_none());

        // Cycles but zero accesses: a live-but-silent app solves to a zero
        // rate, which is excluded rather than folded into a NaN β.
        p.fold(
            id,
            TelemetryDelta {
                accesses: 0,
                shared_cycles: 1_000,
                interference_cycles: 0,
            },
        );
        assert_eq!(p.decide(), Verdict::Failed);
        assert!(p.published().is_none());
        assert!(p.failure().is_some());
    }

    #[test]
    fn what_if_solve_does_not_touch_published_state() {
        let (mut p, ids) = four_app_policy();
        feed_epoch(&mut p, &ids);
        p.decide();
        let before = published(&p);
        let whatif = p.what_if(PartitionScheme::Proportional).unwrap();
        assert_eq!(whatif.outcome.scheme, "proportional");
        assert_ne!(whatif.outcome.beta, before.outcome.beta);
        assert_eq!(published(&p), before);
    }

    // -- coordinated (bandwidth × LLC ways) epochs --------------------------

    /// Fit `(ways, miss ratio)` knots into a cache-aware profile.
    fn fitted(
        name: &str,
        api_llc: f64,
        cpi: f64,
        penalty: f64,
        knots: &[(f64, f64)],
    ) -> CacheAwareProfile {
        let mrc = MissRatioCurve::fit(knots).unwrap();
        CacheAwareProfile::new(name, api_llc, cpi, penalty, mrc).unwrap()
    }

    /// A latency-sensitive app: steep MRC, big per-miss stall.
    fn steep(name: &str) -> CacheAwareProfile {
        let knots = [
            (1.0, 0.95),
            (4.0, 0.70),
            (8.0, 0.40),
            (12.0, 0.10),
            (16.0, 0.03),
        ];
        fitted(name, 0.05, 1.0, 60.0, &knots)
    }

    /// A streaming app: the LLC barely helps regardless of ways.
    fn flat(name: &str) -> CacheAwareProfile {
        fitted(name, 0.02, 1.2, 40.0, &[(1.0, 1.0), (16.0, 0.98)])
    }

    fn coordinated_policy() -> (EpochPolicy, [usize; 2], Vec<CacheAwareProfile>) {
        let mut p = EpochPolicy::new(EpochConfig {
            total_ways: Some(16),
            ..cfg(PartitionScheme::Coordinated)
        });
        let caches = vec![steep("llcfit"), flat("stream")];
        let ids = [
            p.enroll("llcfit", 0.002, Some(caches[0].clone())),
            p.enroll("stream", 0.02, Some(caches[1].clone())),
        ];
        (p, ids, caches)
    }

    /// Telemetry-driven coordinated epochs converge to the offline
    /// [`solve_coordinated`] answer. Each epoch the emulated system
    /// reports the model's standalone rate *at the ways the policy
    /// currently enforces*, so the calibration loop (estimate ÷ model at
    /// the anchor) has a consistent fixed point to find.
    #[test]
    fn coordinated_epochs_converge_to_offline_solve() {
        let (mut p, ids, caches) = coordinated_policy();
        let offline = solve_coordinated(&caches, &CoordConfig::new(0.0095, 16)).unwrap();
        assert!(
            offline.ways[0] > offline.ways[1],
            "the steep-MRC app must win ways offline: {:?}",
            offline.ways
        );

        // Before any coordinated publish the fair split is enforced.
        let mut enforced = [8usize, 8];
        for _ in 0..6 {
            for ((&id, cache), &w) in ids.iter().zip(&caches).zip(&enforced) {
                p.fold(id, clean_delta(cache.apc_alone_at(w as f64)));
            }
            p.decide();
            for (slot, &id) in enforced.iter_mut().zip(&ids) {
                if let Some(w) = p.apps()[id].ways {
                    *slot = w;
                }
            }
        }

        let d = published(&p);
        assert!(p.failure().is_none());
        assert_eq!(d.outcome.scheme, "coordinated");
        assert_eq!(d.ids, ids);
        let (ways, total) = d.ways.clone().expect("coordinated ways");
        assert_eq!(total, 16);
        assert_eq!(ways, offline.ways, "way allocation must match offline");
        for (got, want) in d.outcome.beta.iter().zip(&offline.bandwidth.beta) {
            assert!(
                (got - want).abs() / want < 0.02,
                "beta {got} vs offline {want}"
            );
        }
        // The per-app state reports the enforced ways.
        for (&id, &w) in ids.iter().zip(&offline.ways) {
            assert_eq!(p.apps()[id].ways, Some(w));
        }
    }

    /// Coordinated solves need every profiled application's MRC; a
    /// missing profile degrades the epoch instead of publishing nonsense.
    #[test]
    fn coordinated_epoch_fails_without_cache_profiles() {
        let mut p = EpochPolicy::new(EpochConfig {
            total_ways: Some(16),
            ..cfg(PartitionScheme::Coordinated)
        });
        let a = p.enroll("llcfit", 0.002, Some(steep("llcfit")));
        let b = p.enroll("legacy", 0.02, None);
        p.fold(a, clean_delta(0.004));
        p.fold(b, clean_delta(0.009));
        assert_eq!(p.decide(), Verdict::Failed);
        assert!(p.failure().is_some());
        // Refreshing with a profile repairs the next epoch.
        p.refresh(b, 0.02, Some(flat("legacy")));
        p.fold(a, clean_delta(0.004));
        p.fold(b, clean_delta(0.009));
        assert_eq!(p.decide(), Verdict::Repartitioned);
        assert!(p.failure().is_none());
    }

    /// A bandwidth-only policy can answer a coordinated what-if when it
    /// knows the LLC geometry, without touching its published decision.
    #[test]
    fn coordinated_what_if_from_a_bandwidth_policy() {
        let mut p = EpochPolicy::new(EpochConfig {
            total_ways: Some(16),
            ..cfg(PartitionScheme::SquareRoot)
        });
        let ids = [
            p.enroll("llcfit", 0.002, Some(steep("llcfit"))),
            p.enroll("stream", 0.02, Some(flat("stream"))),
        ];
        for &id in &ids {
            p.fold(id, clean_delta(0.006));
        }
        p.decide();
        let before = published(&p);
        assert_eq!(before.outcome.scheme, "square-root");
        assert!(before.ways.is_none());

        let whatif = p.what_if(PartitionScheme::Coordinated).unwrap();
        assert_eq!(whatif.outcome.scheme, "coordinated");
        let (ways, _) = whatif.ways.expect("coordinated ways");
        assert_eq!(ways.iter().sum::<usize>(), 16);
        assert_eq!(published(&p), before, "what-if must not publish");
    }

    /// Eq. 11 reservations ride the bandwidth dimension of a coordinated
    /// publish: the admitted app's allocation covers its reservation.
    #[test]
    fn coordinated_epoch_honours_qos_reservations() {
        let (mut p, ids, caches) = coordinated_policy();
        for (&id, cache) in ids.iter().zip(&caches) {
            p.fold(id, clean_delta(cache.apc_alone_at(8.0)));
        }
        p.decide();

        // Reserve most of what the streamer can use.
        let a = &p.apps()[ids[1]];
        let ipc_alone = a.estimate.unwrap() / a.api;
        let (reserved, _) = p.admit(ids[1], ipc_alone * 0.9).unwrap();

        for (&id, cache) in ids.iter().zip(&caches) {
            p.fold(id, clean_delta(cache.apc_alone_at(8.0)));
        }
        p.decide();
        let d = published(&p);
        assert_eq!(d.outcome.scheme, "coordinated");
        let k = d.ids.iter().position(|&id| id == ids[1]).unwrap();
        assert!(
            d.outcome.allocation[k] >= reserved - 1e-9,
            "allocation {} must cover the reservation {reserved}",
            d.outcome.allocation[k]
        );
    }
}
