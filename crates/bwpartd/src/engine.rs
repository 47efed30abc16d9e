//! The epoch engine: queue telemetry, decide, publish.
//!
//! This is the service's brain, deliberately free of any networking so it
//! can be driven deterministically in tests. [`ShardMap`] is its public
//! surface: it keeps one private engine per tenant group. The decision
//! itself — fold the Section IV-C deltas, smooth the Eq. 12–13 estimates,
//! re-solve (with Eq. 11 QoS or the coordinated solve), certify, and
//! publish subject to hysteresis — is [`bwpart_mc::EpochPolicy`], the
//! same policy the simulator's phase runner decides through. A group
//! engine adds only what a service needs around it: names and public ids,
//! bounded telemetry queues with shedding, metric handles and decision
//! latency, and wire replies with their error codes.
//!
//! Degradation is explicit: an all-idle epoch keeps the previous estimates
//! and shares; a failed solve keeps the last-good shares and marks the
//! reply `degraded` until a solve succeeds again.

use std::collections::VecDeque;
use std::time::Instant;

use bwpart_core::prelude::*;
use bwpart_mc::{Decision, EpochConfig, EpochPolicy, PolicyError, Refusal, TelemetryDelta};
use bwpart_obs::{Counter, Gauge, Histogram, Registry};

use crate::protocol::{
    AppShare, AppStatus, CacheSpec, ErrorCode, MetricsReply, QosGrant, ResourceShare, ServiceError,
    ServiceSnapshot, SharesReply,
};

/// What one epoch did (aggregated across groups by
/// [`ShardMap::run_epochs`]): the policy's [`bwpart_mc::Verdict`].
pub use bwpart_mc::Verdict as EpochOutcome;

/// Tuning knobs for the epoch engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Scheme used for the epoch repartition (and as the best-effort
    /// scheme under QoS reservations).
    pub scheme: PartitionScheme,
    /// Total off-chip bandwidth `B` to partition, in APC units.
    pub bandwidth: f64,
    /// EWMA weight of the *new* epoch estimate in `(0, 1]`; `1` disables
    /// smoothing entirely.
    pub ewma_alpha: f64,
    /// Minimum `max_i |Δβ_i|` that justifies republishing; smaller changes
    /// are held (the enforcement mechanism keeps its current partition).
    pub hysteresis: f64,
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

impl From<PolicyError> for ServiceError {
    fn from(e: PolicyError) -> Self {
        let code = match e.kind {
            Refusal::NotReady => ErrorCode::NotReady,
            Refusal::UnknownApp => ErrorCode::UnknownApp,
            Refusal::InvalidArgument => ErrorCode::InvalidArgument,
            Refusal::QosUnreachable => ErrorCode::QosUnreachable,
            Refusal::QosInfeasible => ErrorCode::QosInfeasible,
            Refusal::SolveFailed => ErrorCode::SolveFailed,
        };
        ServiceError::new(code, e.message)
    }
}

/// Per-application service state (the decision state lives in the
/// group's [`EpochPolicy`], under the same id).
#[derive(Debug, Clone)]
struct AppState {
    queue: VecDeque<TelemetryDelta>,
    shed: u64,
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
    queue_capacity: usize,
    policy: EpochPolicy,
    apps: Vec<AppState>,
    repartitions: u64,
    held_epochs: u64,
    idle_epochs: u64,
    failed_epochs: u64,
    /// Observability registry, shared by every group engine of a
    /// [`ShardMap`] and served verbatim by [`ShardMap::metrics`]. The
    /// engine is cold-path code (one call per epoch), so it uses the
    /// registry directly — the macro-only discipline of `bwpart_obs`
    /// applies to the per-cycle simulator loops, not here.
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
    fn with_registry(cfg: &EngineConfig, registry: Registry) -> Result<Self, ServiceError> {
        cfg.validate()?;
        let epoch_latency = registry.histogram("bwpartd_epoch_latency_seconds");
        let epoch_metrics = EpochMetrics::resolve(&registry);
        Ok(Engine {
            queue_capacity: cfg.queue_capacity,
            policy: EpochPolicy::new(EpochConfig {
                scheme: cfg.scheme,
                bandwidth: cfg.bandwidth,
                ewma_alpha: cfg.ewma_alpha,
                hysteresis: cfg.hysteresis,
                total_ways: cfg.total_ways,
            }),
            apps: Vec::new(),
            repartitions: 0,
            held_epochs: 0,
            idle_epochs: 0,
            failed_epochs: 0,
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
        if let Some(id) = self.policy.apps().iter().position(|a| a.name == name) {
            self.policy.refresh(id, api, cache);
            return Ok(id);
        }
        self.apps.push(AppState {
            queue: VecDeque::new(),
            shed: 0,
            // Once per registration, not per epoch (see `EpochMetrics`).
            share_gauge: self
                .registry
                .gauge(&format!("bwpartd_app_share{{app=\"{name}\"}}")),
        });
        Ok(self.policy.enroll(name, api, cache))
    }

    /// Queue one telemetry delta for the next epoch. The queue is bounded:
    /// when full, the *oldest* delta is shed (newest data wins) and the
    /// shed counter ticks — backpressure never blocks and never errors.
    /// Returns the epoch the delta will be folded into.
    fn enqueue_delta(&mut self, app_id: usize, delta: TelemetryDelta) -> Result<u64, ServiceError> {
        let cap = self.queue_capacity;
        let app = self
            .apps
            .get_mut(app_id)
            .ok_or_else(|| unknown_app(app_id))?;
        if app.queue.len() >= cap {
            app.queue.pop_front();
            app.shed += 1;
            self.epoch_metrics.telemetry_shed.inc();
        }
        app.queue.push_back(delta);
        Ok(self.policy.epoch() + 1)
    }

    /// Run one epoch: fold the queued telemetry into the policy and let it
    /// decide. Also records the epoch's decision latency and outcome
    /// counters into the metrics registry.
    fn run_epoch(&mut self) -> EpochOutcome {
        let t0 = Instant::now();
        let was_degraded = self.policy.failure().is_some();
        for (id, app) in self.apps.iter_mut().enumerate() {
            for d in app.queue.drain(..) {
                self.policy.fold(id, d);
            }
        }
        let outcome = self.policy.decide();
        self.epoch_latency.record(t0.elapsed().as_secs_f64());
        // Pre-resolved handles only from here down: the shard map calls
        // run_epoch with the shard lock held, and resolving through the
        // registry would take its internal table lock under that guard
        // (workspace lock-order rule A4) — as well as paying a hash
        // lookup per metric per epoch.
        self.epoch_metrics.epochs.inc();
        let (count, counter) = match outcome {
            EpochOutcome::Repartitioned => {
                (&mut self.repartitions, &self.epoch_metrics.repartitions)
            }
            EpochOutcome::Held => (&mut self.held_epochs, &self.epoch_metrics.held),
            EpochOutcome::Idle => (&mut self.idle_epochs, &self.epoch_metrics.idle),
            EpochOutcome::Failed => (&mut self.failed_epochs, &self.epoch_metrics.failed),
        };
        *count += 1;
        counter.inc();
        let degraded = self.policy.failure().is_some();
        if degraded != was_degraded {
            self.epoch_metrics.degraded_transitions.inc();
        }
        self.epoch_metrics
            .degraded
            .set(if degraded { 1.0 } else { 0.0 });
        if let Some(d) = self.policy.published() {
            for (app, (beta, _)) in self.apps.iter().zip(d.per_app()) {
                app.share_gauge.set(beta);
            }
        }
        outcome
    }

    /// The currently published shares (epoch-consistent: identical for
    /// every caller between two repartitions).
    fn published_shares(&self) -> Result<SharesReply, ServiceError> {
        let d = self.policy.published().ok_or_else(not_published)?;
        Ok(self.reply(d))
    }

    /// What-if solve under a different scheme using the current estimates
    /// (see [`EpochPolicy::what_if`]); does not touch published state.
    fn what_if_shares(&self, scheme: PartitionScheme) -> Result<SharesReply, ServiceError> {
        Ok(self.reply(&self.policy.what_if(scheme)?))
    }

    /// Group counters and per-application state.
    fn group_status(&self) -> ServiceSnapshot {
        let cfg = self.policy.config();
        ServiceSnapshot {
            epoch: self.policy.epoch(),
            scheme: cfg.scheme.canonical_name(),
            bandwidth: cfg.bandwidth,
            repartitions: self.repartitions,
            held_epochs: self.held_epochs,
            idle_epochs: self.idle_epochs,
            failed_epochs: self.failed_epochs,
            phase_changes: self.policy.phase_changes(),
            telemetry_shed_total: self.apps.iter().map(|a| a.shed).sum(),
            degraded: self.policy.failure().is_some(),
            shards: 1,
            groups: Vec::new(),
            apps: self
                .apps
                .iter()
                .zip(self.policy.apps())
                .enumerate()
                .map(|(id, (a, p))| AppStatus {
                    app_id: id,
                    name: p.name.clone(),
                    api: p.api,
                    apc_alone_estimate: p.estimate,
                    qos_target: p.qos_target,
                    queued: a.queue.len(),
                    shed: a.shed,
                    llc_ways: p.ways,
                })
                .collect(),
        }
    }

    /// The wire form of a decision: one row per application enrolled when
    /// it was solved (0 for those it did not cover), with a per-resource
    /// breakdown (`bandwidth` + `llc-ways`) on each solved row of a
    /// coordinated decision.
    fn reply(&self, d: &Decision) -> SharesReply {
        let mut apps: Vec<AppShare> = self.policy.apps()[..d.apps]
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
        for (k, &id) in d.ids.iter().enumerate() {
            let row = &mut apps[id];
            row.beta = d.outcome.beta[k];
            row.allocation = d.outcome.allocation[k];
            if let Some((ways, total)) = &d.ways {
                row.resources = Some(vec![
                    ResourceShare {
                        kind: "bandwidth".into(),
                        share: row.beta,
                        amount: row.allocation,
                    },
                    ResourceShare {
                        kind: "llc-ways".into(),
                        share: ways[k] as f64 / *total as f64,
                        amount: ways[k] as f64,
                    },
                ]);
            }
        }
        SharesReply {
            epoch: d.epoch,
            outcome: d.outcome.clone(),
            apps,
            degraded: self.policy.failure().is_some(),
        }
    }
}

fn unknown_app(app_id: usize) -> ServiceError {
    PolicyError::unknown_app(app_id).into()
}

fn not_published() -> ServiceError {
    ServiceError::new(
        ErrorCode::NotReady,
        "no shares published yet; send telemetry and wait an epoch",
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
/// `ShardMap::lock_shard` and never nested, so cross-shard aggregation
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
                let engine = Engine::with_registry(&self.cfg, self.registry.clone())?;
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
        let policy = &mut shard.tenants[tenant].engine.policy;
        let (reserved_apc, remaining_apc) = policy.admit(local, ipc_target)?;
        Ok(QosGrant {
            app_id,
            reserved_apc,
            remaining_apc,
        })
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
                epoch = epoch.max(cell.engine.policy.epoch());
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
            return Err(last_err.unwrap_or_else(not_published));
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-alone group engine with its own registry.
    fn engine(cfg: EngineConfig) -> Result<Engine, ServiceError> {
        Engine::with_registry(&cfg, Registry::new())
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
    fn qos_rejection_leaves_app_status_untouched() {
        let (mut e, ids) = four_app_engine();
        for (&id, &apc) in ids.iter().zip(&ALONE) {
            e.enqueue_delta(id, clean_delta(apc)).unwrap();
        }
        e.run_epoch();
        e.policy.admit(ids[3], 0.6).unwrap();
        // Queued telemetry is part of the status a rejection must keep.
        e.enqueue_delta(ids[0], clean_delta(ALONE[0])).unwrap();

        // omnetpp at IPC 1.4 needs 0.007266 APC; with hmmer's 0.003174
        // that exceeds B = 0.0095 (Eq. 11).
        let before = e.group_status();
        let err = ServiceError::from(e.policy.admit(ids[2], 1.4).unwrap_err());
        assert_eq!(err.code, ErrorCode::QosInfeasible);
        assert_eq!(before.apps, e.group_status().apps);
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
        let shares = e.published_shares().unwrap();
        assert_eq!(e.run_epoch(), EpochOutcome::Idle);
        assert_eq!(e.published_shares().unwrap(), shares);
        assert_eq!(e.group_status().idle_epochs, 1);

        assert_eq!(e.policy.epoch(), 2);
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
        // PHASE_CHANGE_RATIO), leaving acme's solve nothing to allocate.
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

    /// A coordinated publish goes on the wire with a `bandwidth` and an
    /// `llc-ways` row per application, and the snapshot reports the
    /// enforced ways; a group missing a cache spec degrades with the
    /// solver's reason as a structured error on the what-if path.
    #[test]
    fn coordinated_replies_carry_resource_rows() {
        let cfg = EngineConfig {
            total_ways: Some(16),
            ..EngineConfig::new(PartitionScheme::Coordinated, 0.0095)
        };
        let mut e = engine(cfg).unwrap();
        let ids = [
            e.enroll_app("llcfit", 0.002, Some(steep_spec())).unwrap(),
            e.enroll_app("stream", 0.02, Some(flat_spec())).unwrap(),
        ];
        for (&id, &apc) in ids.iter().zip(&[0.004, 0.009]) {
            e.enqueue_delta(id, clean_delta(apc)).unwrap();
        }
        assert_eq!(e.run_epoch(), EpochOutcome::Repartitioned);
        let reply = e.published_shares().unwrap();
        assert_eq!(reply.outcome.scheme, "coordinated");
        let snap = e.group_status();
        let mut total = 0;
        for (&id, row) in ids.iter().zip(&reply.apps) {
            let rs = row.resources.as_ref().expect("resource rows");
            assert_eq!(rs[0].kind, "bandwidth");
            assert_eq!(rs[0].share.to_bits(), row.beta.to_bits());
            assert_eq!(rs[1].kind, "llc-ways");
            let ways = rs[1].amount.round() as usize;
            assert_eq!(snap.apps[id].llc_ways, Some(ways));
            total += ways;
        }
        assert_eq!(total, 16);

        e.enroll_app("stream", 0.02, None).unwrap();
        let err = e.what_if_shares(PartitionScheme::Coordinated).unwrap_err();
        assert_eq!(err.code, ErrorCode::SolveFailed);
        assert!(err
            .message
            .contains("`stream` has telemetry but no cache spec"));
    }
}
