//! The epoch engine: fold telemetry, re-estimate, re-partition, publish.
//!
//! This is the service's brain, deliberately free of any networking so it
//! can be driven deterministically in tests. [`ShardMap`] is its public
//! surface: it keeps one private epoch engine per tenant group, and each
//! epoch of a group engine performs one Section IV-C cycle:
//!
//! 1. **Fold** — drain every application's bounded telemetry queue into a
//!    [`DeltaAccumulator`] and form the epoch's raw Eq. 12–13 `APC_alone`
//!    estimate.
//! 2. **Smooth** — blend the raw estimate into the application's running
//!    estimate with an EWMA, unless the jump is large enough to be a
//!    *phase change*, in which case the estimate snaps to the new value so
//!    the partition tracks the phase instead of averaging across it.
//! 3. **Solve** — recompute the partition with the configured
//!    [`PartitionScheme`] (honouring Eq. 11 QoS reservations when
//!    applications have been admitted), certify the result with the model
//!    contracts, and publish it — unless **hysteresis** judges the change
//!    too small to be worth disturbing the enforcement mechanism.
//!
//! Degradation is explicit: an all-idle epoch keeps the previous estimates
//! and shares; a failed solve keeps the last-good shares and marks the
//! reply `degraded` until a solve succeeds again.

use std::collections::VecDeque;
use std::time::Instant;

use bwpart_core::prelude::*;
use bwpart_core::{contracts, ensures_capped, ensures_simplex, qos};
use bwpart_mc::{DeltaAccumulator, TelemetryDelta};
use bwpart_obs::{Counter, Gauge, Histogram, Registry};

use crate::protocol::{
    AppShare, AppStatus, CacheSpec, ErrorCode, MetricsReply, QosGrant, ResourceShare, ServiceError,
    ServiceSnapshot, SharesReply,
};

/// Tuning knobs for the epoch engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Scheme used for the epoch repartition (and as the best-effort
    /// scheme under QoS reservations).
    pub scheme: PartitionScheme,
    /// Total off-chip bandwidth `B` to partition, in APC units.
    pub bandwidth: f64,
    /// EWMA weight of the *new* epoch estimate in `[0, 1]`; `1` disables
    /// smoothing entirely.
    pub ewma_alpha: f64,
    /// Minimum `max_i |Δβ_i|` that justifies republishing; smaller changes
    /// are held (the enforcement mechanism keeps its current partition).
    pub hysteresis: f64,
    /// Relative jump in an application's raw estimate that is treated as a
    /// phase change: `|new − old| / old > phase_change_ratio` snaps the
    /// estimate to `new` instead of smoothing toward it.
    pub phase_change_ratio: f64,
    /// Floor on `T_cyc,alone` as a fraction of the reported window
    /// (mirrors [`bwpart_mc::ApcProfiler`]).
    pub min_alone_fraction: f64,
    /// Telemetry deltas buffered per application between epochs; the
    /// oldest are shed when a client reports faster than epochs run.
    pub queue_capacity: usize,
    /// Total shared-LLC ways the service may partition. Required (and
    /// only used) when `scheme` is [`PartitionScheme::Coordinated`]; the
    /// bandwidth-only schemes ignore it.
    pub total_ways: Option<usize>,
}

impl Default for EngineConfig {
    /// Square_root partitioning of the paper's Mix-1 bandwidth
    /// (`B = 0.0095` APC) with moderate smoothing.
    fn default() -> Self {
        EngineConfig {
            scheme: PartitionScheme::SquareRoot,
            bandwidth: 0.0095,
            ewma_alpha: 0.5,
            hysteresis: 0.002,
            phase_change_ratio: 0.5,
            min_alone_fraction: 0.02,
            queue_capacity: 1024,
            total_ways: None,
        }
    }
}

impl EngineConfig {
    /// Config with the given scheme and bandwidth, defaults elsewhere.
    pub fn new(scheme: PartitionScheme, bandwidth: f64) -> Self {
        EngineConfig {
            scheme,
            bandwidth,
            ..EngineConfig::default()
        }
    }

    /// Validate the numeric fields, returning a structured error for the
    /// first violation.
    pub fn validate(&self) -> Result<(), ServiceError> {
        let bad = |what: &str, v: f64| {
            Err(ServiceError::new(
                ErrorCode::InvalidArgument,
                format!("invalid {what}: {v}"),
            ))
        };
        if !(self.bandwidth.is_finite() && self.bandwidth > 0.0) {
            return bad("bandwidth", self.bandwidth);
        }
        if !(self.ewma_alpha.is_finite() && self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0) {
            return bad("ewma_alpha", self.ewma_alpha);
        }
        if !(self.hysteresis.is_finite() && self.hysteresis >= 0.0) {
            return bad("hysteresis", self.hysteresis);
        }
        if !(self.phase_change_ratio.is_finite() && self.phase_change_ratio > 0.0) {
            return bad("phase_change_ratio", self.phase_change_ratio);
        }
        if self.queue_capacity == 0 {
            return bad("queue_capacity", 0.0);
        }
        if matches!(self.scheme, PartitionScheme::Coordinated) && self.total_ways.is_none() {
            return Err(ServiceError::new(
                ErrorCode::InvalidArgument,
                "coordinated scheme requires total_ways",
            ));
        }
        if self.total_ways == Some(0) {
            return bad("total_ways", 0.0);
        }
        Ok(())
    }
}

/// What one epoch did (aggregated across groups by
/// [`ShardMap::run_epochs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochOutcome {
    /// New shares were computed, certified, and published.
    Repartitioned,
    /// The solve succeeded but the change was below the hysteresis
    /// threshold; the previous shares stand.
    Held,
    /// No application reported any cycles; estimates and shares are
    /// untouched.
    Idle,
    /// The solve failed; last-good shares remain published and replies are
    /// marked degraded until a solve succeeds.
    Failed,
}

/// Per-application engine state.
#[derive(Debug, Clone)]
struct AppState {
    name: String,
    api: f64,
    queue: VecDeque<TelemetryDelta>,
    shed: u64,
    /// Smoothed `APC_alone` estimate; `None` until the first non-idle
    /// epoch mentions this application.
    estimate: Option<f64>,
    qos_target: Option<f64>,
    /// Fitted cache-aware profile, present when the client registered a
    /// [`CacheSpec`]; required for coordinated solves.
    cache: Option<CacheAwareProfile>,
    /// LLC ways most recently *published* for this application; the
    /// calibration anchor for the next coordinated solve (`None` until
    /// the first coordinated publish — the fair split is assumed).
    ways: Option<usize>,
    /// Pre-resolved `bwpartd_app_share{app="<name>"}` gauge, resolved
    /// once at registration so the per-epoch publish never resolves
    /// through the registry (and its internal table lock) while the
    /// shard lock is held.
    share_gauge: Gauge,
}

/// Pre-resolved handles for every metric the epoch path touches. Group
/// engines run epochs and queue telemetry with their shard lock held;
/// resolving a metric by name goes through the registry's internal
/// `table` lock, so per-epoch resolution would nest that lock under the
/// shard lock on every epoch (workspace lock-order rule A4). Resolving
/// once at construction keeps the epoch path down to plain atomic
/// updates.
#[derive(Debug)]
struct EpochMetrics {
    /// `bwpartd_epochs_total`.
    epochs: Counter,
    /// `bwpartd_repartitions_total`.
    repartitions: Counter,
    /// `bwpartd_held_epochs_total`.
    held: Counter,
    /// `bwpartd_idle_epochs_total`.
    idle: Counter,
    /// `bwpartd_failed_epochs_total`.
    failed: Counter,
    /// `bwpartd_degraded_transitions_total`.
    degraded_transitions: Counter,
    /// `bwpartd_degraded` (0/1).
    degraded: Gauge,
    /// `bwpartd_telemetry_shed_total`.
    telemetry_shed: Counter,
}

impl EpochMetrics {
    fn resolve(registry: &Registry) -> Self {
        EpochMetrics {
            epochs: registry.counter("bwpartd_epochs_total"),
            repartitions: registry.counter("bwpartd_repartitions_total"),
            held: registry.counter("bwpartd_held_epochs_total"),
            idle: registry.counter("bwpartd_idle_epochs_total"),
            failed: registry.counter("bwpartd_failed_epochs_total"),
            degraded_transitions: registry.counter("bwpartd_degraded_transitions_total"),
            degraded: registry.gauge("bwpartd_degraded"),
            telemetry_shed: registry.counter("bwpartd_telemetry_shed_total"),
        }
    }
}

/// One tenant group's deterministic, network-free epoch engine, owned by
/// a [`ShardMap`] shard. Its methods are named apart from the map's so
/// the name-based call graph behind lint rule A4 never mistakes a call on
/// a group engine for a call on the map (which takes the shard lock).
#[derive(Debug)]
struct Engine {
    cfg: EngineConfig,
    apps: Vec<AppState>,
    epoch: u64,
    published: Option<SharesReply>,
    repartitions: u64,
    held_epochs: u64,
    idle_epochs: u64,
    failed_epochs: u64,
    phase_changes: u64,
    degraded: bool,
    /// Observability registry, shared by every group engine of a
    /// [`ShardMap`] and served verbatim by [`ShardMap::metrics`]. The
    /// engine is cold-path code (one call per epoch), so it uses the
    /// registry directly — lint rule A1's macro-only discipline applies
    /// to the per-cycle simulator loops, not here.
    registry: Registry,
    /// Pre-resolved epoch-decision latency histogram
    /// (`bwpartd_epoch_latency_seconds`).
    epoch_latency: Histogram,
    /// Pre-resolved counters/gauges for the epoch path (see
    /// [`EpochMetrics`]).
    epoch_metrics: EpochMetrics,
}

impl Engine {
    /// Build an engine publishing into an existing registry; fails on
    /// nonsensical configuration. Cloned registries share their metric
    /// cells, so the per-tenant engines of a [`ShardMap`] aggregate into
    /// one set of service counters for free (`bwpartd_epochs_total` counts
    /// every tenant's epochs, etc.); the `bwpartd_degraded` gauge is
    /// last-writer-wins across tenants — use [`ShardMap::snapshot`]'s
    /// `degraded` (any tenant) for the aggregate.
    fn with_registry(cfg: EngineConfig, registry: Registry) -> Result<Self, ServiceError> {
        cfg.validate()?;
        let epoch_latency = registry.histogram("bwpartd_epoch_latency_seconds");
        let epoch_metrics = EpochMetrics::resolve(&registry);
        Ok(Engine {
            cfg,
            apps: Vec::new(),
            epoch: 0,
            published: None,
            repartitions: 0,
            held_epochs: 0,
            idle_epochs: 0,
            failed_epochs: 0,
            phase_changes: 0,
            degraded: false,
            registry,
            epoch_latency,
            epoch_metrics,
        })
    }

    /// Register an application by name with an optional client-measured
    /// [`CacheSpec`], fitted here into a [`CacheAwareProfile`]. Idempotent:
    /// a known name gets its existing id back (re-registering refreshes
    /// both `api` and the cache profile; `None` clears it); a new name is
    /// appended.
    fn enroll_app(
        &mut self,
        name: &str,
        api: f64,
        cache: Option<CacheSpec>,
    ) -> Result<usize, ServiceError> {
        if name.is_empty() {
            return Err(ServiceError::new(
                ErrorCode::InvalidArgument,
                "application name must be non-empty",
            ));
        }
        if !(api.is_finite() && api > 0.0) {
            return Err(ServiceError::new(
                ErrorCode::InvalidArgument,
                format!("invalid api: {api} (must be finite and positive)"),
            ));
        }
        let cache = cache.map(|spec| fit_cache_spec(name, &spec)).transpose()?;
        if let Some(id) = self.apps.iter().position(|a| a.name == name) {
            self.apps[id].api = api;
            self.apps[id].cache = cache;
            return Ok(id);
        }
        self.apps.push(AppState {
            name: name.to_string(),
            api,
            queue: VecDeque::new(),
            shed: 0,
            estimate: None,
            qos_target: None,
            cache,
            ways: None,
            // Once per registration, not per epoch (see `EpochMetrics`).
            share_gauge: self
                .registry
                .gauge(&format!("bwpartd_app_share{{app=\"{name}\"}}")),
        });
        Ok(self.apps.len() - 1)
    }

    /// Queue one telemetry delta for the next epoch. The queue is bounded:
    /// when full, the *oldest* delta is shed (newest data wins) and the
    /// shed counter ticks — backpressure never blocks and never errors.
    /// Returns the epoch the delta will be folded into.
    fn enqueue_delta(&mut self, app_id: usize, delta: TelemetryDelta) -> Result<u64, ServiceError> {
        let cap = self.cfg.queue_capacity;
        let app = self.app_mut(app_id)?;
        let mut shed = false;
        if app.queue.len() >= cap {
            app.queue.pop_front();
            app.shed += 1;
            shed = true;
        }
        app.queue.push_back(delta);
        if shed {
            self.epoch_metrics.telemetry_shed.inc();
        }
        Ok(self.epoch + 1)
    }

    /// Eq. 11 admission control. Admits the application (recording its
    /// target for every subsequent epoch solve) only if the target is
    /// reachable (`IPC_target ≤ IPC_alone`) and the total reservation
    /// `Σ IPC_target,i × API_i` still fits inside `B`. A rejection is a
    /// structured error and leaves all previously admitted applications
    /// untouched.
    fn admit_qos_target(
        &mut self,
        app_id: usize,
        ipc_target: f64,
    ) -> Result<QosGrant, ServiceError> {
        if !(ipc_target.is_finite() && ipc_target > 0.0) {
            return Err(ServiceError::new(
                ErrorCode::InvalidArgument,
                format!("invalid ipc_target: {ipc_target}"),
            ));
        }
        let b = self.cfg.bandwidth;
        let app = self.app(app_id)?;
        let Some(apc_alone) = app.estimate else {
            return Err(ServiceError::new(
                ErrorCode::NotReady,
                format!(
                    "no APC_alone estimate for `{}` yet; send telemetry and wait an epoch",
                    app.name
                ),
            ));
        };
        // Eq. 1: IPC_alone = APC_alone / API.
        let ipc_alone = apc_alone / app.api;
        if ipc_target > ipc_alone {
            return Err(ServiceError::new(
                ErrorCode::QosUnreachable,
                format!(
                    "target IPC {ipc_target} exceeds `{}`'s standalone IPC {ipc_alone:.6}",
                    app.name
                ),
            ));
        }
        // Eq. 11 reservation, checked against B together with every
        // already-admitted application's reservation.
        let reserve = ipc_target * app.api;
        let existing: f64 = self
            .apps
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != app_id)
            .filter_map(|(_, a)| a.qos_target.map(|t| t * a.api))
            .sum();
        let total = existing + reserve;
        if !contracts::approx_le(total, b, contracts::TOLERANCE) {
            return Err(ServiceError::new(
                ErrorCode::QosInfeasible,
                format!(
                    "reserving {reserve:.6} APC would bring QoS reservations to {total:.6}, \
                     exceeding B = {b:.6} (Eq. 11)"
                ),
            ));
        }
        self.app_mut(app_id)?.qos_target = Some(ipc_target);
        Ok(QosGrant {
            app_id,
            reserved_apc: reserve,
            remaining_apc: b - total,
        })
    }

    /// Run one epoch: fold queued telemetry, refresh estimates, re-solve,
    /// and (subject to hysteresis) publish. Also records the epoch's
    /// decision latency and outcome counters into the metrics registry.
    fn run_epoch(&mut self) -> EpochOutcome {
        let t0 = Instant::now();
        let was_degraded = self.degraded;
        let outcome = self.run_epoch_inner();
        self.epoch_latency.record(t0.elapsed().as_secs_f64());
        // Pre-resolved handles only from here down: the shard map calls
        // run_epoch with the shard lock held, and resolving through the
        // registry would take its internal table lock under that guard
        // (workspace lock-order rule A4) — as well as paying a hash
        // lookup per metric per epoch.
        self.epoch_metrics.epochs.inc();
        match outcome {
            EpochOutcome::Repartitioned => self.epoch_metrics.repartitions.inc(),
            EpochOutcome::Held => self.epoch_metrics.held.inc(),
            EpochOutcome::Idle => self.epoch_metrics.idle.inc(),
            EpochOutcome::Failed => self.epoch_metrics.failed.inc(),
        }
        if self.degraded != was_degraded {
            self.epoch_metrics.degraded_transitions.inc();
        }
        self.epoch_metrics
            .degraded
            .set(if self.degraded { 1.0 } else { 0.0 });
        if let Some(p) = &self.published {
            for a in &p.apps {
                // Published replies only ever name registered apps; the
                // linear scan is over the (small) service population.
                if let Some(state) = self.apps.iter().find(|s| s.name == a.name) {
                    state.share_gauge.set(a.beta);
                }
            }
        }
        outcome
    }

    fn run_epoch_inner(&mut self) -> EpochOutcome {
        self.epoch += 1;
        let frac = self.cfg.min_alone_fraction;
        let alpha = self.cfg.ewma_alpha;
        let snap_ratio = self.cfg.phase_change_ratio;

        let mut any_signal = false;
        let mut phase_changes = 0u64;
        for app in &mut self.apps {
            let mut acc = DeltaAccumulator::new();
            for d in app.queue.drain(..) {
                acc.fold(d);
            }
            let Some(raw) = acc.apc_alone(frac) else {
                continue; // idle this epoch: keep the previous estimate
            };
            any_signal = true;
            app.estimate = Some(match app.estimate {
                None => raw,
                Some(old) => {
                    // Relative jump beyond the ratio is a phase change:
                    // snap so the partition tracks the new phase instead
                    // of averaging across the boundary.
                    if old > 0.0 && ((raw - old).abs() / old) > snap_ratio {
                        phase_changes += 1;
                        raw
                    } else {
                        alpha * raw + (1.0 - alpha) * old
                    }
                }
            });
        }
        self.phase_changes += phase_changes;

        if !any_signal {
            self.idle_epochs += 1;
            return EpochOutcome::Idle;
        }

        match self.solve_current() {
            Ok(mut reply) => {
                self.degraded = false;
                // The reply was assembled while the previous epoch's
                // degraded flag was still set; a successful solve clears
                // it for the reply being published too.
                reply.degraded = false;
                if let Some(prev) = &self.published {
                    let delta = max_share_delta(prev, &reply);
                    if delta < self.cfg.hysteresis {
                        self.held_epochs += 1;
                        // Clear any stale degraded flag on the held reply.
                        if let Some(p) = &mut self.published {
                            p.degraded = false;
                        }
                        return EpochOutcome::Held;
                    }
                }
                self.published = Some(reply);
                self.note_published_ways();
                self.repartitions += 1;
                EpochOutcome::Repartitioned
            }
            Err(_) => {
                self.failed_epochs += 1;
                self.degraded = true;
                // Last-good fallback: keep serving the previous shares,
                // flagged degraded so clients can tell.
                if let Some(p) = &mut self.published {
                    p.degraded = true;
                }
                EpochOutcome::Failed
            }
        }
    }

    /// The currently published shares (epoch-consistent: identical for
    /// every caller between two repartitions).
    fn published_shares(&self) -> Result<SharesReply, ServiceError> {
        self.published.clone().ok_or_else(|| {
            ServiceError::new(
                ErrorCode::NotReady,
                "no shares published yet; send telemetry and wait an epoch",
            )
        })
    }

    /// What-if solve under a different scheme using the current estimates.
    /// Bypasses QoS reservations (it answers "what would `scheme` give?",
    /// not "what will be enforced") and does not touch published state.
    fn what_if_shares(&self, scheme: PartitionScheme) -> Result<SharesReply, ServiceError> {
        if scheme == PartitionScheme::Coordinated {
            return self.solve_coordinated_current(false);
        }
        let (ids, profiles) = self.profiled_apps();
        if profiles.is_empty() {
            return Err(ServiceError::new(
                ErrorCode::NotReady,
                "no application has an APC_alone estimate yet",
            ));
        }
        let outcome = scheme
            .solve(&profiles, self.cfg.bandwidth)
            .map_err(|e| ServiceError::new(ErrorCode::SolveFailed, e.to_string()))?;
        Ok(self.assemble_reply(&ids, outcome))
    }

    /// Group counters and per-application state.
    fn group_status(&self) -> ServiceSnapshot {
        ServiceSnapshot {
            epoch: self.epoch,
            scheme: self.cfg.scheme.canonical_name(),
            bandwidth: self.cfg.bandwidth,
            repartitions: self.repartitions,
            held_epochs: self.held_epochs,
            idle_epochs: self.idle_epochs,
            failed_epochs: self.failed_epochs,
            phase_changes: self.phase_changes,
            telemetry_shed_total: self.apps.iter().map(|a| a.shed).sum(),
            degraded: self.degraded,
            shards: 1,
            groups: Vec::new(),
            apps: self
                .apps
                .iter()
                .enumerate()
                .map(|(id, a)| AppStatus {
                    app_id: id,
                    name: a.name.clone(),
                    api: a.api,
                    apc_alone_estimate: a.estimate,
                    qos_target: a.qos_target,
                    queued: a.queue.len(),
                    shed: a.shed,
                    llc_ways: a.ways,
                })
                .collect(),
        }
    }

    // -- internals ---------------------------------------------------------

    /// Fold the just-published coordinated way counts back into per-app
    /// state: they are the calibration anchor for the next epoch's solve
    /// (what the enforcement mechanism is now giving each application).
    fn note_published_ways(&mut self) {
        let Some(p) = &self.published else { return };
        let published: Vec<(usize, usize)> = p
            .apps
            .iter()
            .filter_map(|row| {
                let rs = row.resources.as_ref()?;
                let w = rs.iter().find(|r| r.kind == "llc-ways")?;
                Some((row.app_id, w.amount.round() as usize))
            })
            .collect();
        for (id, w) in published {
            if let Some(a) = self.apps.get_mut(id) {
                a.ways = Some(w);
            }
        }
    }

    fn app(&self, app_id: usize) -> Result<&AppState, ServiceError> {
        self.apps.get(app_id).ok_or_else(|| unknown_app(app_id))
    }

    fn app_mut(&mut self, app_id: usize) -> Result<&mut AppState, ServiceError> {
        self.apps.get_mut(app_id).ok_or_else(|| unknown_app(app_id))
    }

    /// Applications with a usable (positive) estimate, as model profiles,
    /// plus their engine ids.
    fn profiled_apps(&self) -> (Vec<usize>, Vec<AppProfile>) {
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
        (ids, profiles)
    }

    /// Solve for the configured scheme with QoS reservations and certify
    /// the result. The share vector this produces is the service's public
    /// contract, so it is certified here (simplex + caps) even though the
    /// underlying solvers certify too — the remap from solver indices back
    /// to engine ids is exactly the step a bug would hide in.
    fn solve_current(&self) -> Result<SharesReply, ServiceError> {
        if self.cfg.scheme == PartitionScheme::Coordinated {
            return self.solve_coordinated_current(true);
        }
        let (ids, profiles) = self.profiled_apps();
        if profiles.is_empty() {
            return Err(ServiceError::new(
                ErrorCode::NotReady,
                "no application has an APC_alone estimate yet",
            ));
        }
        let b = self.cfg.bandwidth;
        let requests: Vec<qos::QosRequest> = ids
            .iter()
            .enumerate()
            .filter_map(|(solver_idx, &id)| {
                self.apps[id].qos_target.map(|t| qos::QosRequest {
                    app: solver_idx,
                    target_ipc: t,
                })
            })
            .collect();

        let outcome = if requests.is_empty() {
            self.cfg
                .scheme
                .solve(&profiles, b)
                .map_err(|e| ServiceError::new(ErrorCode::SolveFailed, e.to_string()))?
        } else {
            let part = qos::partition(&profiles, &requests, self.cfg.scheme, b)
                .map_err(|e| ServiceError::new(ErrorCode::SolveFailed, e.to_string()))?;
            SharesOutcome {
                scheme: self.cfg.scheme.canonical_name(),
                bandwidth: b,
                beta: part.shares(),
                allocation: part.allocation,
            }
        };

        // Certify the published contract (debug builds / CI with
        // debug-assertions): β on the simplex, allocation within each
        // application's standalone cap.
        ensures_simplex!(outcome.beta);
        let caps: Vec<f64> = profiles.iter().map(|p| p.apc_alone).collect();
        ensures_capped!(outcome.allocation, caps);

        Ok(self.assemble_reply(&ids, outcome))
    }

    /// The coordinated (bandwidth × LLC ways) epoch solve. Every profiled
    /// application must have registered a [`CacheSpec`]; the analytic
    /// `APC_alone(w)` of each fitted profile is calibrated so it matches
    /// the Eq. 12–13 telemetry estimate at the currently enforced way
    /// count, then [`solve_coordinated_scaled`] runs the alternating
    /// descent. QoS reservations (when honoured) re-split the bandwidth
    /// dimension at the solved way vector through Eq. 11.
    fn solve_coordinated_current(&self, honour_qos: bool) -> Result<SharesReply, ServiceError> {
        let total_ways = self.cfg.total_ways.ok_or_else(|| {
            ServiceError::new(
                ErrorCode::SolveFailed,
                "coordinated solve requires total_ways in the engine config",
            )
        })?;
        let b = self.cfg.bandwidth;

        let mut ids = Vec::new();
        let mut caches: Vec<CacheAwareProfile> = Vec::new();
        let mut estimates = Vec::new();
        for (id, a) in self.apps.iter().enumerate() {
            let Some(est) = a.estimate else { continue };
            if !(est.is_finite() && est > 0.0) {
                continue; // zero-rate estimate: nothing to allocate to
            }
            let Some(cache) = &a.cache else {
                return Err(ServiceError::new(
                    ErrorCode::SolveFailed,
                    format!(
                        "`{}` has telemetry but no cache spec; \
                         coordinated solves need every application's MRC",
                        a.name
                    ),
                ));
            };
            ids.push(id);
            caches.push(cache.clone());
            estimates.push(est);
        }
        if ids.is_empty() {
            return Err(ServiceError::new(
                ErrorCode::NotReady,
                "no application has an APC_alone estimate yet",
            ));
        }
        let n = ids.len();

        // Calibrate: the telemetry estimate reflects the ways currently
        // enforced (last published coordinated split, or the fair split
        // before any publish), so the model is scaled to agree there and
        // extrapolated along the MRC everywhere else.
        let fair = (total_ways / n).max(1);
        let scales: Vec<f64> = ids
            .iter()
            .zip(&caches)
            .zip(&estimates)
            .map(|((&id, cache), &est)| {
                let anchor = self.apps[id].ways.unwrap_or(fair) as f64;
                let model = cache.apc_alone_at(anchor);
                if model > 0.0 && (est / model).is_finite() {
                    (est / model).max(1e-6)
                } else {
                    1.0
                }
            })
            .collect();

        let coord_cfg = CoordConfig::new(b, total_ways);
        let coord = solve_coordinated_scaled(&caches, &scales, &coord_cfg)
            .map_err(|e| ServiceError::new(ErrorCode::SolveFailed, e.to_string()))?;

        let requests: Vec<qos::QosRequest> = if honour_qos {
            ids.iter()
                .enumerate()
                .filter_map(|(solver_idx, &id)| {
                    self.apps[id].qos_target.map(|t| qos::QosRequest {
                        app: solver_idx,
                        target_ipc: t,
                    })
                })
                .collect()
        } else {
            Vec::new()
        };
        let scheme = PartitionScheme::Coordinated.canonical_name();
        let outcome = if requests.is_empty() {
            SharesOutcome {
                scheme,
                bandwidth: b,
                beta: coord.bandwidth.beta.clone(),
                allocation: coord.bandwidth.allocation.clone(),
            }
        } else {
            // QoS applies to the bandwidth dimension: Eq. 11 reservations
            // over the profiles materialized at the coordinated ways.
            let part = qos::partition(&coord.profiles, &requests, coord_cfg.inner, b)
                .map_err(|e| ServiceError::new(ErrorCode::SolveFailed, e.to_string()))?;
            SharesOutcome {
                scheme,
                bandwidth: b,
                beta: part.shares(),
                allocation: part.allocation,
            }
        };

        // Certify the published contract per resource: the bandwidth β on
        // the simplex and capped by the calibrated standalone rates, the
        // way shares on the simplex and each count within the LLC.
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

        Ok(self.assemble_reply_with_ways(&ids, outcome, Some((&coord.ways, total_ways))))
    }

    /// Expand a solver outcome (indexed over profiled apps) into a reply
    /// covering every registered application (unprofiled ones get 0).
    fn assemble_reply(&self, ids: &[usize], outcome: SharesOutcome) -> SharesReply {
        self.assemble_reply_with_ways(ids, outcome, None)
    }

    /// As [`Engine::assemble_reply`], additionally attaching a
    /// per-resource breakdown (`bandwidth` + `llc-ways`) to each solved
    /// row when a coordinated way vector is present.
    fn assemble_reply_with_ways(
        &self,
        ids: &[usize],
        outcome: SharesOutcome,
        ways: Option<(&[usize], usize)>,
    ) -> SharesReply {
        let mut apps: Vec<AppShare> = self
            .apps
            .iter()
            .enumerate()
            .map(|(id, a)| AppShare {
                app_id: id,
                name: a.name.clone(),
                beta: 0.0,
                allocation: 0.0,
                resources: None,
            })
            .collect();
        for (solver_idx, &id) in ids.iter().enumerate() {
            apps[id].beta = outcome.beta[solver_idx];
            apps[id].allocation = outcome.allocation[solver_idx];
            if let Some((ways, total)) = ways {
                let w = ways[solver_idx];
                apps[id].resources = Some(vec![
                    ResourceShare {
                        kind: "bandwidth".into(),
                        share: outcome.beta[solver_idx],
                        amount: outcome.allocation[solver_idx],
                    },
                    ResourceShare {
                        kind: "llc-ways".into(),
                        share: w as f64 / total as f64,
                        amount: w as f64,
                    },
                ]);
            }
        }
        SharesReply {
            epoch: self.epoch,
            outcome,
            apps,
            degraded: self.degraded,
        }
    }
}

fn unknown_app(app_id: usize) -> ServiceError {
    ServiceError::new(
        ErrorCode::UnknownApp,
        format!("no application with id {app_id}; register first"),
    )
}

/// Fit a wire [`CacheSpec`] into the model's cache-aware profile,
/// translating model validation errors into structured service errors (a
/// bad spec is the *client's* mistake, so it surfaces at registration,
/// not as a failed epoch later).
fn fit_cache_spec(name: &str, spec: &CacheSpec) -> Result<CacheAwareProfile, ServiceError> {
    let bad = |e: ModelError| {
        ServiceError::new(
            ErrorCode::InvalidArgument,
            format!("cache spec for `{name}`: {e}"),
        )
    };
    let samples: Vec<(f64, f64)> = spec.mrc.iter().map(|p| (p.ways, p.miss_ratio)).collect();
    let mrc = MissRatioCurve::fit(&samples).map_err(bad)?;
    CacheAwareProfile::new(name, spec.api_llc, spec.cpi_base, spec.mem_penalty, mrc).map_err(bad)
}

// ---------------------------------------------------------------------------
// Tenant sharding
// ---------------------------------------------------------------------------

/// The tenant group of an application name: the prefix before the first
/// `/`, or `"default"` for unprefixed names. `lbm` and `hmmer` share the
/// default group; `acme/lbm` and `acme/web` form group `acme`.
pub fn tenant_of(name: &str) -> &str {
    match name.split_once('/') {
        Some((group, _)) if !group.is_empty() => group,
        _ => "default",
    }
}

/// FNV-1a over the tenant name: stable across runs (no hasher
/// randomization), so an app always lands on the same shard.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One tenant group's independent epoch engine.
#[derive(Debug)]
struct TenantCell {
    group: String,
    engine: Engine,
}

/// One shard: the tenants hashed here plus the id directory that maps
/// this shard's registration sequence numbers to `(tenant, local id)`.
#[derive(Debug, Default)]
struct Shard {
    tenants: Vec<TenantCell>,
    dir: Vec<(usize, usize)>,
}

/// `N` independent groups of epoch engines behind `N` locks.
///
/// Tenant groups (see [`tenant_of`]) hash to shards by FNV-1a, and each
/// group gets its *own* epoch engine — its own telemetry queues, QoS
/// reservations, hysteresis state, and epoch counter — so one tenant's
/// burst cannot delay another's repartition decision, and two shards'
/// epochs run concurrently on the reactor's workers. Every solve is still
/// certified per group engine (`ensures_simplex!` / `ensures_capped!` in
/// its solve); each group partitions the full configured
/// bandwidth `B` independently, modelling separate enforcement domains.
///
/// Public application ids interleave shards (`id = seq × shards + shard`)
/// so a `ShardMap` with one shard and unprefixed names hands out exactly
/// the sequential ids the unsharded engine did.
///
/// All methods take `&self`; shards are locked one at a time via
/// [`ShardMap::lock_shard`] and never nested, so cross-shard aggregation
/// cannot deadlock regardless of traversal order.
// The engine resolves metrics through the registry's internal table lock
// at registration time, under the shard lock.
// lint: lock-order: shard < table
#[derive(Debug)]
pub struct ShardMap {
    cfg: EngineConfig,
    registry: Registry,
    shards: Vec<std::sync::Mutex<Shard>>,
}

impl ShardMap {
    /// A map of `shards` independent engine groups (clamped to ≥ 1);
    /// fails on a nonsensical engine configuration.
    pub fn new(cfg: EngineConfig, shards: usize) -> Result<Self, ServiceError> {
        cfg.validate()?;
        let registry = Registry::new();
        // Touch the epoch-path metrics once so an idle service still
        // exposes zero-valued counters (and so does a sharded one).
        let _ = EpochMetrics::resolve(&registry);
        let _ = registry.histogram("bwpartd_epoch_latency_seconds");
        Ok(ShardMap {
            cfg,
            registry,
            shards: (0..shards.max(1)).map(|_| Default::default()).collect(),
        })
    }

    /// Number of shards (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The configuration every tenant engine is built from.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The shared observability registry (all tenant engines publish into
    /// clones of it, which share its metric cells).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Lock shard `idx`. The single choke point for shard locking so the
    /// lock-order table has one name for it; recovers from poisoning (a
    /// panicked epoch must not take the service down).
    fn lock_shard(&self, idx: usize) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[idx]
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    fn shard_of(&self, group: &str) -> usize {
        (fnv1a(group) % self.shards.len() as u64) as usize
    }

    /// Split a public id into `(shard, seq)`.
    fn locate(&self, app_id: usize) -> (usize, usize) {
        (app_id % self.shards.len(), app_id / self.shards.len())
    }

    /// Public id of this shard's `seq`-th registration.
    fn public_id(&self, shard: usize, seq: usize) -> usize {
        seq * self.shards.len() + shard
    }

    /// Register an application, creating its tenant group's engine on
    /// first sight. Idempotent: a known name returns its existing public
    /// id (with `api` refreshed).
    pub fn register(&self, name: &str, api: f64) -> Result<usize, ServiceError> {
        self.register_with_cache(name, api, None)
    }

    /// Register with an optional client-measured [`CacheSpec`], fitted
    /// into the model's cache-aware profile (re-registering refreshes both
    /// `api` and the cache profile; `None` clears it).
    pub fn register_with_cache(
        &self,
        name: &str,
        api: f64,
        cache: Option<CacheSpec>,
    ) -> Result<usize, ServiceError> {
        if name.is_empty() {
            return Err(ServiceError::new(
                ErrorCode::InvalidArgument,
                "application name must be non-empty",
            ));
        }
        let group = tenant_of(name);
        let shard_idx = self.shard_of(group);
        let mut shard = self.lock_shard(shard_idx);
        let tenant = match shard.tenants.iter().position(|t| t.group == group) {
            Some(t) => t,
            None => {
                let engine = Engine::with_registry(self.cfg.clone(), self.registry.clone())?;
                shard.tenants.push(TenantCell {
                    group: group.to_string(),
                    engine,
                });
                shard.tenants.len() - 1
            }
        };
        let local = shard.tenants[tenant].engine.enroll_app(name, api, cache)?;
        if let Some(seq) = shard.dir.iter().position(|&e| e == (tenant, local)) {
            return Ok(self.public_id(shard_idx, seq));
        }
        shard.dir.push((tenant, local));
        Ok(self.public_id(shard_idx, shard.dir.len() - 1))
    }

    /// Look up a public id inside its (already locked) shard.
    fn entry(shard: &Shard, seq: usize, app_id: usize) -> Result<(usize, usize), ServiceError> {
        shard
            .dir
            .get(seq)
            .copied()
            .ok_or_else(|| unknown_app(app_id))
    }

    /// Queue one telemetry delta; returns the epoch of the application's
    /// *group* engine that will fold it (groups tick independently).
    pub fn push_telemetry(
        &self,
        app_id: usize,
        delta: TelemetryDelta,
    ) -> Result<u64, ServiceError> {
        let (shard_idx, seq) = self.locate(app_id);
        let mut shard = self.lock_shard(shard_idx);
        let (tenant, local) = Self::entry(&shard, seq, app_id)?;
        shard.tenants[tenant].engine.enqueue_delta(local, delta)
    }

    /// Eq. 11 admission against the application's group engine (each
    /// group reserves out of its own bandwidth `B`).
    pub fn qos_admit(&self, app_id: usize, ipc_target: f64) -> Result<QosGrant, ServiceError> {
        let (shard_idx, seq) = self.locate(app_id);
        let mut shard = self.lock_shard(shard_idx);
        let (tenant, local) = Self::entry(&shard, seq, app_id)?;
        let grant = shard.tenants[tenant]
            .engine
            .admit_qos_target(local, ipc_target)?;
        Ok(QosGrant { app_id, ..grant })
    }

    /// Run one epoch on every tenant engine of shard `idx` (the reactor
    /// assigns shards to workers, so epochs tick concurrently across
    /// shards while staying serialized within one).
    pub fn run_shard_epochs(&self, idx: usize) -> EpochOutcome {
        let mut shard = self.lock_shard(idx);
        let mut agg = EpochOutcome::Idle;
        for cell in &mut shard.tenants {
            agg = combine_outcomes(agg, cell.engine.run_epoch());
        }
        agg
    }

    /// Run one epoch on every tenant engine of every shard, locking the
    /// shards one at a time. Returns the aggregate outcome
    /// (Repartitioned ≻ Failed ≻ Held ≻ Idle), the identity for a single
    /// engine.
    pub fn run_epochs(&self) -> EpochOutcome {
        let mut agg = EpochOutcome::Idle;
        for idx in 0..self.shards.len() {
            agg = combine_outcomes(agg, self.run_shard_epochs(idx));
        }
        agg
    }

    /// The published shares of every group, concatenated in public-id
    /// order. Each group's rows come from its own certified simplex, so
    /// in the aggregate reply `β` sums to the number of *published*
    /// groups, not 1 — per-group replies ([`ShardMap::group_shares`])
    /// preserve the single-simplex contract. `epoch` is the maximum group
    /// epoch and `degraded` is true if *any* group is degraded. Errors
    /// with `NotReady` only when no group has published anything.
    pub fn get_shares(&self) -> Result<SharesReply, ServiceError> {
        self.collect_shares(Engine::published_shares)
    }

    /// What-if aggregate: every group re-solved under `scheme` from its
    /// current estimates (bypasses QoS reservations — it answers "what
    /// would `scheme` give?", not "what will be enforced" — and does not
    /// touch published state).
    pub fn solve_with(&self, scheme: PartitionScheme) -> Result<SharesReply, ServiceError> {
        self.collect_shares(|engine| engine.what_if_shares(scheme))
    }

    /// One group's shares, exactly as its engine published them (a single
    /// certified simplex) with public ids substituted; `scheme` asks for
    /// a what-if solve instead of the published allocation.
    pub fn group_shares(
        &self,
        group: &str,
        scheme: Option<PartitionScheme>,
    ) -> Result<SharesReply, ServiceError> {
        let shard_idx = self.shard_of(group);
        let shard = self.lock_shard(shard_idx);
        let Some(tenant) = shard.tenants.iter().position(|t| t.group == group) else {
            return Err(ServiceError::new(
                ErrorCode::UnknownApp,
                format!("no tenant group `{group}`; register an application in it first"),
            ));
        };
        let engine = &shard.tenants[tenant].engine;
        let mut reply = match scheme {
            Some(s) => engine.what_if_shares(s)?,
            None => engine.published_shares()?,
        };
        for row in &mut reply.apps {
            row.app_id = self.resolve_public(&shard, shard_idx, tenant, row.app_id);
        }
        Ok(reply)
    }

    /// Aggregate service counters and per-application state across every
    /// group: counters are summed, `epoch` is the maximum group epoch,
    /// rows are in public-id order, and `groups` lists the tenant groups
    /// alphabetically.
    pub fn snapshot(&self) -> ServiceSnapshot {
        let mut agg = ServiceSnapshot {
            epoch: 0,
            scheme: self.cfg.scheme.canonical_name(),
            bandwidth: self.cfg.bandwidth,
            repartitions: 0,
            held_epochs: 0,
            idle_epochs: 0,
            failed_epochs: 0,
            phase_changes: 0,
            telemetry_shed_total: 0,
            degraded: false,
            shards: self.shards.len(),
            groups: Vec::new(),
            apps: Vec::new(),
        };
        let mut rows: Vec<AppStatus> = Vec::new();
        for shard_idx in 0..self.shards.len() {
            let shard = self.lock_shard(shard_idx);
            for (tenant, cell) in shard.tenants.iter().enumerate() {
                let snap = cell.engine.group_status();
                agg.epoch = agg.epoch.max(snap.epoch);
                agg.repartitions += snap.repartitions;
                agg.held_epochs += snap.held_epochs;
                agg.idle_epochs += snap.idle_epochs;
                agg.failed_epochs += snap.failed_epochs;
                agg.phase_changes += snap.phase_changes;
                agg.telemetry_shed_total += snap.telemetry_shed_total;
                agg.degraded |= snap.degraded;
                agg.groups.push(cell.group.clone());
                for mut row in snap.apps {
                    row.app_id = self.resolve_public(&shard, shard_idx, tenant, row.app_id);
                    rows.push(row);
                }
            }
        }
        rows.sort_by_key(|r| r.app_id);
        agg.apps = rows;
        agg.groups.sort();
        agg
    }

    /// The shared metrics registry in both machine-readable forms;
    /// `epoch` is the maximum group epoch (like [`ShardMap::snapshot`]).
    pub fn metrics(&self) -> MetricsReply {
        // Collect the epoch *before* snapshotting so the registry's table
        // lock is never taken while a shard lock is held.
        let mut epoch = 0;
        for idx in 0..self.shards.len() {
            let shard = self.lock_shard(idx);
            for cell in &shard.tenants {
                epoch = epoch.max(cell.engine.epoch);
            }
        }
        let snapshot = self.registry.snapshot();
        MetricsReply {
            epoch,
            prometheus: snapshot.render_prometheus(),
            snapshot,
        }
    }

    /// Public id of `(tenant, local)` within an already locked shard.
    /// Registered rows always have a directory entry; a missing one would
    /// be an internal inconsistency, reported as the row's local id
    /// rather than a panic.
    fn resolve_public(
        &self,
        shard: &Shard,
        shard_idx: usize,
        tenant: usize,
        local: usize,
    ) -> usize {
        shard
            .dir
            .iter()
            .position(|&e| e == (tenant, local))
            .map(|seq| self.public_id(shard_idx, seq))
            .unwrap_or(local)
    }

    /// Shared shape of [`ShardMap::get_shares`] / [`ShardMap::solve_with`]:
    /// apply `per_engine` to every tenant engine, substitute public ids,
    /// and concatenate in public-id order.
    fn collect_shares(
        &self,
        per_engine: impl Fn(&Engine) -> Result<SharesReply, ServiceError>,
    ) -> Result<SharesReply, ServiceError> {
        let mut rows: Vec<AppShare> = Vec::new();
        let mut epoch = 0u64;
        let mut degraded = false;
        let mut published_groups = 0usize;
        let mut last_err = None;
        // The per-engine replies all carry the same scheme (every group
        // engine shares this config, and a what-if solve passes one scheme
        // to all of them) — keep it rather than assuming the configured
        // one, so what-if aggregates answer under the asked-for scheme.
        let mut scheme = self.cfg.scheme.canonical_name();
        for shard_idx in 0..self.shards.len() {
            let shard = self.lock_shard(shard_idx);
            for (tenant, cell) in shard.tenants.iter().enumerate() {
                match per_engine(&cell.engine) {
                    Ok(reply) => {
                        published_groups += 1;
                        epoch = epoch.max(reply.epoch);
                        degraded |= reply.degraded;
                        scheme = reply.outcome.scheme;
                        for mut row in reply.apps {
                            row.app_id = self.resolve_public(&shard, shard_idx, tenant, row.app_id);
                            rows.push(row);
                        }
                    }
                    Err(e) => last_err = Some(e),
                }
            }
        }
        if published_groups == 0 {
            return Err(last_err.unwrap_or_else(|| {
                ServiceError::new(
                    ErrorCode::NotReady,
                    "no shares published yet; send telemetry and wait an epoch",
                )
            }));
        }
        rows.sort_by_key(|r| r.app_id);
        Ok(SharesReply {
            epoch,
            outcome: SharesOutcome {
                scheme,
                bandwidth: self.cfg.bandwidth,
                beta: rows.iter().map(|r| r.beta).collect(),
                allocation: rows.iter().map(|r| r.allocation).collect(),
            },
            apps: rows,
            degraded,
        })
    }
}

/// Aggregate two epoch outcomes: a repartition anywhere dominates (shares
/// changed), then a failure anywhere (something is degraded), then a hold
/// (a solve ran), then idle. Identity: `combine(Idle, x) = x`.
fn combine_outcomes(a: EpochOutcome, b: EpochOutcome) -> EpochOutcome {
    let rank = |o: EpochOutcome| match o {
        EpochOutcome::Repartitioned => 3,
        EpochOutcome::Failed => 2,
        EpochOutcome::Held => 1,
        EpochOutcome::Idle => 0,
    };
    if rank(b) > rank(a) {
        b
    } else {
        a
    }
}

/// Largest per-application `|Δβ|` between two replies, matching rows by
/// app id. A changed application set always counts as a full change.
fn max_share_delta(prev: &SharesReply, next: &SharesReply) -> f64 {
    if prev.apps.len() != next.apps.len() {
        return f64::INFINITY;
    }
    prev.apps
        .iter()
        .zip(&next.apps)
        .map(|(p, n)| (p.beta - n.beta).abs().max(resource_delta(p, n)))
        .fold(0.0, f64::max)
}

/// Largest per-resource share change between two rows of the same app
/// (0 when neither row carries a resource breakdown; ∞ when the shape
/// changed, so hysteresis can never mask a way reallocation).
fn resource_delta(prev: &AppShare, next: &AppShare) -> f64 {
    match (&prev.resources, &next.resources) {
        (None, None) => 0.0,
        (Some(p), Some(n)) => {
            let mut delta = 0.0f64;
            for nr in n {
                match p.iter().find(|pr| pr.kind == nr.kind) {
                    Some(pr) => delta = delta.max((pr.share - nr.share).abs()),
                    None => return f64::INFINITY,
                }
            }
            delta
        }
        _ => f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-alone group engine with its own registry.
    fn engine(cfg: EngineConfig) -> Result<Engine, ServiceError> {
        Engine::with_registry(cfg, Registry::new())
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

    fn four_app_engine() -> (Engine, Vec<usize>) {
        let mut e = engine(EngineConfig::default()).unwrap();
        let ids = vec![
            e.enroll_app("lbm", 0.00939, None).unwrap(),
            e.enroll_app("libquantum", 0.00692, None).unwrap(),
            e.enroll_app("omnetpp", 0.00519, None).unwrap(),
            e.enroll_app("hmmer", 0.00529, None).unwrap(),
        ];
        (e, ids)
    }

    const ALONE: [f64; 4] = [0.0531, 0.0341, 0.0306, 0.0046];

    fn feed_epoch(e: &mut Engine, ids: &[usize]) {
        for (&id, &apc) in ids.iter().zip(&ALONE) {
            e.enqueue_delta(id, clean_delta(apc)).unwrap();
        }
    }

    #[test]
    fn register_is_idempotent_by_name() {
        let mut e = engine(EngineConfig::default()).unwrap();
        let a = e.enroll_app("milc", 0.01, None).unwrap();
        let b = e.enroll_app("milc", 0.02, None).unwrap();
        assert_eq!(a, b);
        assert!((e.group_status().apps[a].api - 0.02).abs() < 1e-15);
        assert!(e.enroll_app("", 0.01, None).is_err());
        assert!(e.enroll_app("x", f64::NAN, None).is_err());
    }

    #[test]
    fn epoch_converges_to_offline_solution() {
        let (mut e, ids) = four_app_engine();
        assert_eq!(e.run_epoch(), EpochOutcome::Idle);

        feed_epoch(&mut e, &ids);
        assert_eq!(e.run_epoch(), EpochOutcome::Repartitioned);
        let reply = e.published_shares().unwrap();
        assert!(!reply.degraded);

        // Offline closed-form reference on the true profiles.
        let profiles: Vec<AppProfile> = ids
            .iter()
            .zip(&ALONE)
            .map(|(&id, &apc)| {
                let st = e.group_status();
                AppProfile::new(st.apps[id].name.clone(), st.apps[id].api, apc).unwrap()
            })
            .collect();
        let offline = PartitionScheme::SquareRoot
            .solve(&profiles, e.cfg.bandwidth)
            .unwrap();
        for (got, want) in reply.outcome.beta.iter().zip(&offline.beta) {
            assert!(
                (got - want).abs() / want < 0.02,
                "beta {got} vs offline {want}"
            );
        }
    }

    #[test]
    fn hysteresis_holds_tiny_changes() {
        let (mut e, ids) = four_app_engine();
        feed_epoch(&mut e, &ids);
        assert_eq!(e.run_epoch(), EpochOutcome::Repartitioned);
        let first = e.published_shares().unwrap();

        // Same telemetry again → same estimates → max|Δβ| = 0 < hysteresis.
        feed_epoch(&mut e, &ids);
        assert_eq!(e.run_epoch(), EpochOutcome::Held);
        let second = e.published_shares().unwrap();
        assert_eq!(first, second, "held epoch must serve the identical reply");
    }

    #[test]
    fn phase_change_snaps_instead_of_smoothing() {
        let (mut e, ids) = four_app_engine();
        feed_epoch(&mut e, &ids);
        e.run_epoch();

        // lbm triples its standalone rate: a >50% jump must snap.
        e.enqueue_delta(ids[0], clean_delta(ALONE[0] * 3.0))
            .unwrap();
        for (&id, &apc) in ids.iter().zip(&ALONE).skip(1) {
            e.enqueue_delta(id, clean_delta(apc)).unwrap();
        }
        e.run_epoch();
        let st = e.group_status();
        assert_eq!(st.phase_changes, 1);
        let est = st.apps[ids[0]].apc_alone_estimate.unwrap();
        assert!(
            (est - ALONE[0] * 3.0).abs() / (ALONE[0] * 3.0) < 0.01,
            "estimate {est} should have snapped to {}",
            ALONE[0] * 3.0
        );
    }

    #[test]
    fn idle_epoch_keeps_last_shares() {
        let (mut e, ids) = four_app_engine();
        feed_epoch(&mut e, &ids);
        e.run_epoch();
        let before = e.published_shares().unwrap();
        assert_eq!(e.run_epoch(), EpochOutcome::Idle);
        assert_eq!(e.published_shares().unwrap(), before);
        assert_eq!(e.group_status().idle_epochs, 1);
    }

    #[test]
    fn bounded_queue_sheds_oldest() {
        let cfg = EngineConfig {
            queue_capacity: 4,
            ..EngineConfig::default()
        };
        let mut e = engine(cfg).unwrap();
        let id = e.enroll_app("burst", 0.01, None).unwrap();
        for _ in 0..10 {
            e.enqueue_delta(id, clean_delta(0.02)).unwrap();
        }
        let st = e.group_status();
        assert_eq!(st.apps[id].queued, 4);
        assert_eq!(st.apps[id].shed, 6);
    }

    #[test]
    fn qos_admission_and_structured_rejection() {
        let (mut e, ids) = four_app_engine();
        // No estimate yet → NotReady.
        assert_eq!(
            e.admit_qos_target(ids[3], 0.5).unwrap_err().code,
            ErrorCode::NotReady
        );

        feed_epoch(&mut e, &ids);
        e.run_epoch();

        // hmmer: IPC_alone = 0.0046 / 0.00529 ≈ 0.8696.
        let grant = e.admit_qos_target(ids[3], 0.6).unwrap();
        assert!((grant.reserved_apc - 0.6 * 0.00529).abs() < 1e-9);

        // Unreachable target (above standalone IPC) → QosUnreachable.
        assert_eq!(
            e.admit_qos_target(ids[3], 2.0).unwrap_err().code,
            ErrorCode::QosUnreachable
        );

        // Infeasible: omnetpp asking for enough to blow the budget.
        // IPC_alone(omnetpp) ≈ 0.0306/0.00519 ≈ 5.896; a target of 1.4
        // needs 0.007266 APC, and 0.007266 + 0.003174 > B = 0.0095.
        let before = e.group_status();
        let err = e.admit_qos_target(ids[2], 1.4).unwrap_err();
        assert_eq!(err.code, ErrorCode::QosInfeasible);
        // The rejection must not disturb admitted state.
        let after = e.group_status();
        assert_eq!(before.apps, after.apps);

        // Unknown app id → UnknownApp.
        assert_eq!(
            e.admit_qos_target(99, 0.1).unwrap_err().code,
            ErrorCode::UnknownApp
        );

        // The next epoch honours the admitted reservation exactly (Eq. 11).
        feed_epoch(&mut e, &ids);
        e.run_epoch();
        let reply = e.published_shares().unwrap();
        assert!((reply.apps[ids[3]].allocation - 0.6 * 0.00529).abs() < 1e-6);
    }

    #[test]
    fn all_idle_engine_never_publishes_nan() {
        // Regression companion to the profiler-level all-idle test: an
        // engine fed only empty/zero telemetry must stay NotReady (never
        // publish NaN shares).
        let mut e = engine(EngineConfig::default()).unwrap();
        let id = e.enroll_app("ghost", 0.01, None).unwrap();
        e.enqueue_delta(id, TelemetryDelta::default()).unwrap();
        assert_eq!(e.run_epoch(), EpochOutcome::Idle);
        assert_eq!(e.published_shares().unwrap_err().code, ErrorCode::NotReady);

        // Cycles but zero accesses: a live-but-silent app solves to a zero
        // rate, which is excluded rather than folded into a NaN β.
        e.enqueue_delta(
            id,
            TelemetryDelta {
                accesses: 0,
                shared_cycles: 1_000,
                interference_cycles: 0,
            },
        )
        .unwrap();
        assert_eq!(e.run_epoch(), EpochOutcome::Failed);
        assert_eq!(e.published_shares().unwrap_err().code, ErrorCode::NotReady);
        assert_eq!(e.group_status().failed_epochs, 1);
    }

    #[test]
    fn what_if_solve_does_not_touch_published_state() {
        let (mut e, ids) = four_app_engine();
        feed_epoch(&mut e, &ids);
        e.run_epoch();
        let published = e.published_shares().unwrap();
        let whatif = e.what_if_shares(PartitionScheme::Proportional).unwrap();
        assert_eq!(whatif.outcome.scheme, "proportional");
        assert_ne!(whatif.outcome.beta, published.outcome.beta);
        assert_eq!(e.published_shares().unwrap(), published);
    }

    #[test]
    fn metrics_track_epochs_sheds_and_shares() {
        let cfg = EngineConfig {
            queue_capacity: 2,
            ..EngineConfig::default()
        };
        let mut e = engine(cfg).unwrap();
        let ids = [
            e.enroll_app("lbm", 0.00939, None).unwrap(),
            e.enroll_app("hmmer", 0.00529, None).unwrap(),
        ];
        // Overflow one queue: 5 pushes into capacity 2 shed 3.
        for _ in 0..5 {
            e.enqueue_delta(ids[0], clean_delta(0.05)).unwrap();
        }
        e.enqueue_delta(ids[1], clean_delta(0.005)).unwrap();
        assert_eq!(e.run_epoch(), EpochOutcome::Repartitioned);
        assert_eq!(e.run_epoch(), EpochOutcome::Idle);

        assert_eq!(e.epoch, 2);
        let m = e.registry.snapshot();
        let counter = |name: &str| {
            m.counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
                .unwrap_or(0)
        };
        assert_eq!(counter("bwpartd_epochs_total"), 2);
        assert_eq!(counter("bwpartd_repartitions_total"), 1);
        assert_eq!(counter("bwpartd_idle_epochs_total"), 1);
        assert_eq!(counter("bwpartd_telemetry_shed_total"), 3);
        // Snapshot mirrors the aggregate shed count.
        assert_eq!(e.group_status().telemetry_shed_total, 3);
        // Epoch latency was sampled once per epoch.
        let lat = m
            .histograms
            .iter()
            .find(|h| h.name == "bwpartd_epoch_latency_seconds")
            .expect("latency histogram registered");
        assert_eq!(lat.count, 2);
        // Per-app share gauges exist for both registered apps.
        let prometheus = m.render_prometheus();
        assert!(prometheus.contains("bwpartd_app_share{app=\"lbm\"}"));
        assert!(prometheus.contains("bwpartd_app_share{app=\"hmmer\"}"));
    }

    #[test]
    fn degraded_transitions_are_counted_once_per_flip() {
        let mut e = engine(EngineConfig::default()).unwrap();
        let id = e.enroll_app("silent", 0.01, None).unwrap();
        let zero_rate = TelemetryDelta {
            accesses: 0,
            shared_cycles: 1_000,
            interference_cycles: 0,
        };
        // Two consecutive failing epochs: one transition, not two.
        for _ in 0..2 {
            e.enqueue_delta(id, zero_rate).unwrap();
            assert_eq!(e.run_epoch(), EpochOutcome::Failed);
        }
        // Recovery: a real estimate flips degraded back off.
        e.enqueue_delta(id, clean_delta(0.02)).unwrap();
        assert_eq!(e.run_epoch(), EpochOutcome::Repartitioned);
        let flips = e
            .registry
            .snapshot()
            .counters
            .iter()
            .find(|c| c.name == "bwpartd_degraded_transitions_total")
            .map(|c| c.value);
        assert_eq!(flips, Some(2), "off→on and on→off");
    }

    #[test]
    fn tenant_of_splits_on_first_slash() {
        assert_eq!(tenant_of("lbm"), "default");
        assert_eq!(tenant_of("acme/lbm"), "acme");
        assert_eq!(tenant_of("acme/a/b"), "acme");
        assert_eq!(tenant_of("/weird"), "default");
    }

    #[test]
    fn single_shard_default_group_matches_unsharded_engine() {
        // A one-shard map with unprefixed names is the legacy service:
        // sequential ids and byte-identical share rows.
        let map = ShardMap::new(EngineConfig::default(), 1).unwrap();
        let (mut engine, _) = four_app_engine();
        let names = [
            ("lbm", 0.00939),
            ("libquantum", 0.00692),
            ("omnetpp", 0.00519),
            ("hmmer", 0.00529),
        ];
        for (i, (name, api)) in names.iter().enumerate() {
            assert_eq!(map.register(name, *api).unwrap(), i);
        }
        // Idempotent re-registration returns the same public id.
        assert_eq!(map.register("lbm", 0.00939).unwrap(), 0);

        for (id, &apc) in ALONE.iter().enumerate() {
            map.push_telemetry(id, clean_delta(apc)).unwrap();
            engine.enqueue_delta(id, clean_delta(apc)).unwrap();
        }
        assert_eq!(map.run_epochs(), EpochOutcome::Repartitioned);
        assert_eq!(engine.run_epoch(), EpochOutcome::Repartitioned);

        let sharded = map.get_shares().unwrap();
        let plain = engine.published_shares().unwrap();
        assert_eq!(sharded.apps, plain.apps);
        assert_eq!(sharded.epoch, plain.epoch);
        assert_eq!(sharded.outcome.beta, plain.outcome.beta);

        let snap = map.snapshot();
        assert_eq!(snap.shards, 1);
        assert_eq!(snap.groups, vec!["default".to_string()]);
        assert_eq!(snap.apps.len(), 4);
    }

    #[test]
    fn groups_partition_independently() {
        let map = ShardMap::new(EngineConfig::default(), 4).unwrap();
        let a0 = map.register("acme/lbm", 0.00939).unwrap();
        let a1 = map.register("acme/libquantum", 0.00692).unwrap();
        let b0 = map.register("globex/omnetpp", 0.00519).unwrap();
        let b1 = map.register("globex/hmmer", 0.00529).unwrap();
        let ids = [a0, a1, b0, b1];
        // Public ids are distinct and decode back to their shard.
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "public ids must be unique: {ids:?}");

        for (&id, &apc) in ids.iter().zip(&ALONE) {
            map.push_telemetry(id, clean_delta(apc)).unwrap();
        }
        assert_eq!(map.run_epochs(), EpochOutcome::Repartitioned);

        // Each group is its own certified simplex over the full B.
        for group in ["acme", "globex"] {
            let reply = map.group_shares(group, None).unwrap();
            assert_eq!(reply.apps.len(), 2, "{group} rows");
            let total: f64 = reply.outcome.beta.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "{group} β sums to {total}");
            assert!(!reply.degraded);
        }
        // Unknown group is a structured error, not a panic.
        assert_eq!(
            map.group_shares("initech", None).unwrap_err().code,
            ErrorCode::UnknownApp
        );

        // The aggregate view concatenates both simplexes in id order.
        let all = map.get_shares().unwrap();
        assert_eq!(all.apps.len(), 4);
        let total: f64 = all.outcome.beta.iter().sum();
        assert!((total - 2.0).abs() < 1e-9, "two groups → β sums to {total}");
        let row_ids: Vec<usize> = all.apps.iter().map(|r| r.app_id).collect();
        assert_eq!(row_ids, sorted, "rows must be in public-id order");

        // One group going degraded does not touch the other. Zero-rate
        // deltas snap BOTH acme estimates to zero (|0 − old|/old = 1 >
        // phase_change_ratio), leaving acme's solve nothing to allocate.
        for id in [a0, a1] {
            map.push_telemetry(
                id,
                TelemetryDelta {
                    accesses: 0,
                    shared_cycles: 1_000,
                    interference_cycles: 0,
                },
            )
            .unwrap();
        }
        // globex idle this epoch; acme's zero-rate solve fails.
        assert_eq!(map.run_epochs(), EpochOutcome::Failed);
        assert!(map.group_shares("acme", None).unwrap().degraded);
        assert!(!map.group_shares("globex", None).unwrap().degraded);
        let snap = map.snapshot();
        assert!(snap.degraded);
        assert_eq!(snap.shards, 4);
        assert_eq!(snap.groups, vec!["acme".to_string(), "globex".to_string()]);
        assert_eq!(snap.failed_epochs, 1);

        // QoS admission is per-group: both groups can reserve out of
        // their own full B.
        map.push_telemetry(b1, clean_delta(ALONE[3])).unwrap();
        map.run_epochs();
        let grant = map.qos_admit(b1, 0.6).unwrap();
        assert_eq!(grant.app_id, b1);
        assert!((grant.reserved_apc - 0.6 * 0.00529).abs() < 1e-9);
        assert_eq!(
            map.qos_admit(999, 0.1).unwrap_err().code,
            ErrorCode::UnknownApp
        );
    }

    #[test]
    fn shared_registry_aggregates_group_metrics() {
        let map = ShardMap::new(EngineConfig::default(), 2).unwrap();
        let a = map.register("acme/lbm", 0.00939).unwrap();
        let b = map.register("globex/hmmer", 0.00529).unwrap();
        map.push_telemetry(a, clean_delta(ALONE[0])).unwrap();
        map.push_telemetry(b, clean_delta(ALONE[3])).unwrap();
        map.run_epochs();
        let m = map.metrics();
        let counter = |name: &str| {
            m.snapshot
                .counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
                .unwrap_or(0)
        };
        // Both tenant engines ticked once into the shared counter.
        assert_eq!(counter("bwpartd_epochs_total"), 2);
        assert_eq!(counter("bwpartd_repartitions_total"), 2);
        assert!(m.prometheus.contains("bwpartd_app_share{app=\"acme/lbm\"}"));
        assert!(m
            .prometheus
            .contains("bwpartd_app_share{app=\"globex/hmmer\"}"));
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let base = EngineConfig::default;
        assert!(engine(EngineConfig {
            bandwidth: -1.0,
            ..base()
        })
        .is_err());
        assert!(engine(EngineConfig {
            ewma_alpha: 0.0,
            ..base()
        })
        .is_err());
        assert!(engine(EngineConfig {
            queue_capacity: 0,
            ..base()
        })
        .is_err());
        // The coordinated scheme cannot run without an LLC to partition.
        assert!(engine(EngineConfig {
            scheme: PartitionScheme::Coordinated,
            ..base()
        })
        .is_err());
        assert!(engine(EngineConfig {
            total_ways: Some(0),
            ..base()
        })
        .is_err());
    }

    // -- coordinated (bandwidth × LLC ways) epochs --------------------------

    use crate::protocol::MrcPoint;

    /// A latency-sensitive app: steep MRC, big per-miss stall.
    fn steep_spec() -> CacheSpec {
        CacheSpec {
            api_llc: 0.05,
            cpi_base: 1.0,
            mem_penalty: 60.0,
            mrc: [
                (1.0, 0.95),
                (4.0, 0.70),
                (8.0, 0.40),
                (12.0, 0.10),
                (16.0, 0.03),
            ]
            .into_iter()
            .map(|(ways, miss_ratio)| MrcPoint { ways, miss_ratio })
            .collect(),
        }
    }

    /// A streaming app: the LLC barely helps regardless of ways.
    fn flat_spec() -> CacheSpec {
        CacheSpec {
            api_llc: 0.02,
            cpi_base: 1.2,
            mem_penalty: 40.0,
            mrc: [(1.0, 1.0), (16.0, 0.98)]
                .into_iter()
                .map(|(ways, miss_ratio)| MrcPoint { ways, miss_ratio })
                .collect(),
        }
    }

    /// The engine-side fit of a wire spec, for building offline references.
    fn fitted(name: &str, spec: &CacheSpec) -> CacheAwareProfile {
        fit_cache_spec(name, spec).unwrap()
    }

    fn coordinated_engine() -> (Engine, [usize; 2], Vec<CacheAwareProfile>) {
        let cfg = EngineConfig {
            total_ways: Some(16),
            ..EngineConfig::new(PartitionScheme::Coordinated, 0.0095)
        };
        let mut e = engine(cfg).unwrap();
        let specs = [steep_spec(), flat_spec()];
        let ids = [
            e.enroll_app("llcfit", 0.002, Some(specs[0].clone()))
                .unwrap(),
            e.enroll_app("stream", 0.02, Some(specs[1].clone()))
                .unwrap(),
        ];
        let caches = vec![fitted("llcfit", &specs[0]), fitted("stream", &specs[1])];
        (e, ids, caches)
    }

    /// The ISSUE's acceptance criterion: telemetry-driven coordinated
    /// epochs converge to within 2% of the offline
    /// [`solve_coordinated`] answer. Each epoch the emulated system
    /// reports the model's standalone rate *at the ways the service
    /// currently enforces*, so the calibration loop (estimate ÷ model at
    /// the anchor) has a consistent fixed point to find.
    #[test]
    fn coordinated_epochs_converge_to_offline_solve() {
        let (mut e, ids, caches) = coordinated_engine();
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
                e.enqueue_delta(id, clean_delta(cache.apc_alone_at(w as f64)))
                    .unwrap();
            }
            e.run_epoch();
            let snap = e.group_status();
            for (slot, &id) in enforced.iter_mut().zip(&ids) {
                if let Some(w) = snap.apps[id].llc_ways {
                    *slot = w;
                }
            }
        }

        let reply = e.published_shares().unwrap();
        assert!(!reply.degraded);
        assert_eq!(reply.outcome.scheme, "coordinated");
        let ways: Vec<usize> = ids
            .iter()
            .map(|&id| {
                let rs = reply.apps[id].resources.as_ref().expect("resource rows");
                rs.iter()
                    .find(|r| r.kind == "llc-ways")
                    .expect("llc-ways row")
                    .amount
                    .round() as usize
            })
            .collect();
        assert_eq!(ways, offline.ways, "way allocation must match offline");
        for (&id, want) in ids.iter().zip(&offline.bandwidth.beta) {
            let got = reply.apps[id].beta;
            assert!(
                (got - want).abs() / want < 0.02,
                "beta {got} vs offline {want}"
            );
        }
        // The snapshot reports the enforced ways per app.
        let snap = e.group_status();
        for (&id, &w) in ids.iter().zip(&offline.ways) {
            assert_eq!(snap.apps[id].llc_ways, Some(w));
        }
    }

    /// Coordinated solves need every profiled application's MRC; a
    /// missing spec degrades the epoch instead of publishing nonsense.
    #[test]
    fn coordinated_epoch_fails_without_cache_specs() {
        let cfg = EngineConfig {
            total_ways: Some(16),
            ..EngineConfig::new(PartitionScheme::Coordinated, 0.0095)
        };
        let mut e = engine(cfg).unwrap();
        let a = e.enroll_app("llcfit", 0.002, Some(steep_spec())).unwrap();
        let b = e.enroll_app("legacy", 0.02, None).unwrap();
        e.enqueue_delta(a, clean_delta(0.004)).unwrap();
        e.enqueue_delta(b, clean_delta(0.009)).unwrap();
        assert_eq!(e.run_epoch(), EpochOutcome::Failed);
        assert!(e.group_status().degraded);
        // Re-registering with a spec repairs the next epoch.
        e.enroll_app("legacy", 0.02, Some(flat_spec())).unwrap();
        e.enqueue_delta(a, clean_delta(0.004)).unwrap();
        e.enqueue_delta(b, clean_delta(0.009)).unwrap();
        assert_eq!(e.run_epoch(), EpochOutcome::Repartitioned);
        assert!(!e.group_status().degraded);
    }

    /// A bandwidth-only engine can answer a coordinated what-if when it
    /// knows the LLC geometry, without touching its published shares.
    #[test]
    fn coordinated_what_if_from_a_bandwidth_engine() {
        let cfg = EngineConfig {
            total_ways: Some(16),
            ..EngineConfig::default()
        };
        let mut e = engine(cfg).unwrap();
        let ids = [
            e.enroll_app("llcfit", 0.002, Some(steep_spec())).unwrap(),
            e.enroll_app("stream", 0.02, Some(flat_spec())).unwrap(),
        ];
        for &id in &ids {
            e.enqueue_delta(id, clean_delta(0.006)).unwrap();
        }
        e.run_epoch();
        let published = e.published_shares().unwrap();
        assert_eq!(published.outcome.scheme, "square-root");
        assert!(published.apps.iter().all(|a| a.resources.is_none()));

        let whatif = e.what_if_shares(PartitionScheme::Coordinated).unwrap();
        assert_eq!(whatif.outcome.scheme, "coordinated");
        let total: usize = whatif
            .apps
            .iter()
            .filter_map(|a| a.resources.as_ref())
            .flat_map(|rs| rs.iter())
            .filter(|r| r.kind == "llc-ways")
            .map(|r| r.amount.round() as usize)
            .sum();
        assert_eq!(total, 16);
        assert_eq!(
            e.published_shares().unwrap(),
            published,
            "what-if must not publish"
        );
    }

    /// Eq. 11 reservations ride the bandwidth dimension of a coordinated
    /// publish: the admitted app's allocation covers its reservation.
    #[test]
    fn coordinated_epoch_honours_qos_reservations() {
        let (mut e, ids, caches) = coordinated_engine();
        for (&id, cache) in ids.iter().zip(&caches) {
            e.enqueue_delta(id, clean_delta(cache.apc_alone_at(8.0)))
                .unwrap();
        }
        e.run_epoch();

        // Reserve most of what the streamer can use.
        let st = e.group_status();
        let ipc_alone = st.apps[ids[1]].apc_alone_estimate.unwrap() / st.apps[ids[1]].api;
        let grant = e.admit_qos_target(ids[1], ipc_alone * 0.9).unwrap();

        for (&id, cache) in ids.iter().zip(&caches) {
            e.enqueue_delta(id, clean_delta(cache.apc_alone_at(8.0)))
                .unwrap();
        }
        e.run_epoch();
        let reply = e.published_shares().unwrap();
        assert_eq!(reply.outcome.scheme, "coordinated");
        assert!(
            reply.apps[ids[1]].allocation >= grant.reserved_apc - 1e-9,
            "allocation {} must cover the reservation {}",
            reply.apps[ids[1]].allocation,
            grant.reserved_apc
        );
    }
}
