//! Phase-structured simulation driver mirroring Section V-B's methodology:
//! warm up the caches, profile `APC_alone` online, then measure under the
//! chosen partitioning scheme — plus standalone runs for ground truth.

use bwpart_core::prelude::*;
use bwpart_mc::{EpochConfig, EpochPolicy, Policy, PolicyError, TelemetryDelta, Verdict};
use bwpart_obs::{obs_span, Tracer};
use serde::{Deserialize, Serialize};

use crate::core::{CoreConfig, Workload};
use crate::obs::RunObserver;
use crate::stats::AppStats;
use crate::system::{CmpConfig, CmpSystem};

/// Cycle budgets for the three phases. The paper uses 500 M instructions of
/// fast-forward plus 10 M-cycle profile and measurement phases; the default
/// here is a scaled-down equivalent suited to a software-simulated
/// synthetic workload whose caches warm in well under a million cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseConfig {
    /// Cache warm-up cycles (no statistics, no interference tally:
    /// [`CmpSystem::warm_up`]).
    pub warmup: u64,
    /// Profiling cycles (online `APC_alone` estimation, Section IV-C).
    pub profile: u64,
    /// Measurement cycles.
    pub measure: u64,
    /// If set, re-profile and re-partition every this many cycles during
    /// measurement (the paper's periodic update, Section IV-C).
    pub repartition_epoch: Option<u64>,
}

impl Default for PhaseConfig {
    fn default() -> Self {
        PhaseConfig {
            warmup: 1_000_000,
            profile: 3_000_000,
            measure: 5_000_000,
            repartition_epoch: None,
        }
    }
}

impl PhaseConfig {
    /// A tiny configuration for unit tests.
    pub fn fast() -> Self {
        PhaseConfig {
            warmup: 100_000,
            profile: 300_000,
            measure: 400_000,
            repartition_epoch: None,
        }
    }
}

/// Where the `APC_alone`/`API` reference values come from: online, from
/// the profile phase (Eq. 12–13) — the paper's methodology and the only
/// source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ShareSource {
    /// Estimate online from the profile phase (Eq. 12–13).
    OnlineProfile,
}

/// Ground-truth standalone profile of one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AloneProfile {
    /// Workload name.
    pub name: String,
    /// Standalone accesses per cycle.
    pub apc_alone: f64,
    /// Accesses per instruction.
    pub api: f64,
    /// Standalone IPC.
    pub ipc_alone: f64,
    /// Full stats of the standalone measurement window.
    pub stats: AppStats,
}

/// Everything measured for one (workload, scheme) simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimOutcome {
    /// Scheme name.
    pub scheme: String,
    /// Per-application measurement-phase stats.
    pub stats: Vec<AppStats>,
    /// Reference `APC_alone` values used for partitioning *and* metrics
    /// (the paper uses the same estimates for both).
    pub apc_alone_ref: Vec<f64>,
    /// Reference `API` values.
    pub api_ref: Vec<f64>,
    /// Total bandwidth observed during measurement (APC).
    pub total_bandwidth: f64,
}

impl SimOutcome {
    /// Shared-mode IPCs.
    pub fn ipc_shared(&self) -> Vec<f64> {
        self.stats.iter().map(|s| s.ipc()).collect()
    }

    /// Reference standalone IPCs (`APC_alone / API`, Eq. 1).
    pub fn ipc_alone_ref(&self) -> Vec<f64> {
        self.apc_alone_ref
            .iter()
            .zip(&self.api_ref)
            .map(|(&apc, &api)| {
                if api > 0.0 {
                    apc / api
                } else {
                    f64::MIN_POSITIVE
                }
            })
            .collect()
    }

    /// Evaluate one of the paper's four objectives on this outcome.
    pub fn metric(&self, m: Metric) -> f64 {
        metrics::evaluate(m, &self.ipc_shared(), &self.ipc_alone_ref())
            // lint: allow(R1): ipc_alone_ref() clamps to positive finite values
            .expect("well-formed outcome vectors")
    }

    /// Per-application speedups.
    pub fn speedups(&self) -> Vec<f64> {
        metrics::speedups(&self.ipc_shared(), &self.ipc_alone_ref())
            // lint: allow(R1): ipc_alone_ref() clamps to positive finite values
            .expect("well-formed outcome vectors")
    }
}

/// The phase driver.
#[derive(Debug, Clone, Default)]
pub struct Runner {
    /// System configuration.
    pub cmp: CmpConfig,
    /// Phase budgets.
    pub phases: PhaseConfig,
}

fn clamp_pos(v: f64) -> f64 {
    if v.is_finite() && v > 0.0 {
        v
    } else {
        1e-9
    }
}

/// Fold one window's controller counters (`take_epoch_counters`) into the
/// policy as Section IV-C deltas and take its decision.
fn decide(
    policy: &mut EpochPolicy,
    (accesses, interference): &(Vec<u64>, Vec<u64>),
    window_cycles: u64,
) -> Verdict {
    for (app, (&accesses, &interference_cycles)) in accesses.iter().zip(interference).enumerate() {
        policy.fold(
            app,
            TelemetryDelta {
                accesses,
                shared_cycles: window_cycles,
                interference_cycles,
            },
        );
    }
    policy.decide()
}

/// The scheduler enforcing `scheme` from the policy's state: STF over the
/// published `β` (an application left out of it gets no share), strict
/// priority on the estimates or API, or FCFS. `None` while a share scheme
/// has nothing published.
fn enforcement(scheme: PartitionScheme, policy: &EpochPolicy) -> Option<Policy> {
    let apps = policy.apps();
    Some(match scheme {
        PartitionScheme::NoPartitioning => Policy::fcfs(apps.len()),
        PartitionScheme::PriorityApc => {
            Policy::priority(apps.iter().map(|a| a.estimate.unwrap_or(0.0)).collect())
        }
        PartitionScheme::PriorityApi => Policy::priority(apps.iter().map(|a| a.api).collect()),
        _ => Policy::stf(policy.published()?.per_app().iter().map(|r| r.0).collect()),
    })
}

/// Record the published decision's `β` as one share counter sample per
/// application (track id = app index).
fn trace_shares(tracer: Option<&Tracer>, policy: &EpochPolicy, ts: u64) {
    if let (Some(t), Some(d)) = (tracer, policy.published()) {
        for (app, (beta, _)) in d.per_app().into_iter().enumerate() {
            t.counter_at("share", app as u64, ts, beta);
        }
    }
}

impl Runner {
    /// Build the scheduling policy realizing `scheme` for fixed
    /// `profiles` over total bandwidth `b`: the offline counterpart of
    /// what [`Runner::try_run_scheme`] enforces after each decision.
    ///
    /// # Panics
    /// For [`PartitionScheme::Coordinated`], which needs cache-aware
    /// profiles and an LLC, and for a power exponent whose weights over
    /// `profiles` overflow or underflow.
    pub fn policy_for(scheme: PartitionScheme, profiles: &[AppProfile], b: f64) -> Policy {
        let n = profiles.len();
        match scheme {
            PartitionScheme::NoPartitioning => Policy::fcfs(n),
            PartitionScheme::PriorityApc => {
                Policy::priority(profiles.iter().map(|p| p.apc_alone).collect())
            }
            PartitionScheme::PriorityApi => {
                Policy::priority(profiles.iter().map(|p| p.api).collect())
            }
            _ => Policy::stf(
                scheme
                    .shares(profiles, b)
                    // lint: allow(R1): documented panic — Coordinated and unsolvable exponents
                    .expect("a power-family scheme whose weights the profiles can carry"),
            ),
        }
    }

    /// Run one workload mix under `scheme`, following the paper's phase
    /// methodology. `workloads[i]` runs on core `i` with `core_cfgs[i]`.
    ///
    /// # Panics
    /// Where [`Runner::try_run_scheme`] errors.
    pub fn run_scheme(
        &self,
        scheme: PartitionScheme,
        workloads: Vec<Box<dyn Workload>>,
        core_cfgs: Vec<CoreConfig>,
        source: ShareSource,
    ) -> SimOutcome {
        self.run_scheme_traced(scheme, workloads, core_cfgs, source, None)
    }

    /// [`run_scheme`](Self::run_scheme) with observability: the system
    /// stack attaches to `obs.registry`, derived gauges are published at
    /// every phase/epoch boundary, and — when `obs.tracer` is set — the
    /// cycle-domain timeline is recorded (phase instants, per-epoch
    /// complete events, per-app share counter tracks) alongside
    /// wall-clock phase spans. Passing `None` is byte-identical to
    /// [`run_scheme`](Self::run_scheme); observation never changes the
    /// simulation.
    ///
    /// # Panics
    /// Where [`Runner::try_run_scheme`] errors.
    pub fn run_scheme_traced(
        &self,
        scheme: PartitionScheme,
        workloads: Vec<Box<dyn Workload>>,
        core_cfgs: Vec<CoreConfig>,
        source: ShareSource,
        obs: Option<&RunObserver>,
    ) -> SimOutcome {
        let ShareSource::OnlineProfile = source;
        self.try_run_scheme(scheme, workloads, core_cfgs, obs)
            // lint: allow(R1): documented panic — try_run_scheme is the fallible form
            .unwrap_or_else(|e| panic!("cannot run {scheme}: {}", e.message))
    }

    /// The fallible form of [`run_scheme_traced`](Self::run_scheme_traced).
    /// Each Section IV-C decision — at the profile boundary and at every
    /// repartition epoch — is an [`EpochPolicy`] epoch with `ewma_alpha =
    /// 1` and `hysteresis = 0`: exactly `scheme.solve` of that window's
    /// estimates, enforced in place (STF start tags carry over). A window
    /// without any memory access keeps the partition in force.
    ///
    /// # Errors
    /// When the profile phase leaves a share scheme nothing to enforce:
    /// [`PartitionScheme::Coordinated`] (no cache-aware profiles), a power
    /// exponent the estimates cannot carry, or no memory access at all.
    pub fn try_run_scheme(
        &self,
        scheme: PartitionScheme,
        workloads: Vec<Box<dyn Workload>>,
        core_cfgs: Vec<CoreConfig>,
        obs: Option<&RunObserver>,
    ) -> Result<SimOutcome, PolicyError> {
        let n = workloads.len();
        let mut sys = CmpSystem::new(&self.cmp, workloads, core_cfgs, Policy::fcfs(n));
        if let Some(o) = obs {
            sys.attach_obs(&o.registry);
        }
        let tracer: Option<&Tracer> = obs.and_then(|o| o.tracer.as_ref());

        // Phase 1: warm-up, which leaves the epoch counters clear.
        {
            obs_span!(tracer, "phase:warmup");
            sys.warm_up(self.phases.warmup);
        }
        if let Some(t) = tracer {
            t.instant_at("warmup_end", 0, sys.cycle());
        }

        // Phase 2: profile under the unmanaged baseline.
        sys.reset_phase_counters();
        {
            obs_span!(tracer, "phase:profile");
            sys.run(self.phases.profile);
        }
        let counters = sys.mc_mut().take_epoch_counters();
        let api_ref: Vec<f64> = counters
            .0
            .iter()
            .enumerate()
            .map(|(i, &a)| a as f64 / sys.core(i).counters.retired.max(1) as f64)
            .collect();
        let mut policy = EpochPolicy::new(EpochConfig {
            scheme,
            bandwidth: clamp_pos(
                counters.0.iter().sum::<u64>() as f64 / self.phases.profile as f64,
            ),
            ewma_alpha: 1.0,
            hysteresis: 0.0,
            total_ways: None,
        });
        for (i, &api) in api_ref.iter().enumerate() {
            policy.enroll(sys.core(i).workload_name(), clamp_pos(api), None);
        }
        // No_partitioning has no analytic partition, so this decision
        // fails; it still refreshes the estimates every figure is
        // normalised to.
        decide(&mut policy, &counters, self.phases.profile);
        let apc_alone_ref: Vec<f64> = policy
            .apps()
            .iter()
            .map(|a| a.estimate.unwrap_or(0.0))
            .collect();
        let enforced = enforcement(scheme, &policy).ok_or_else(|| {
            policy
                .failure()
                .cloned()
                .unwrap_or_else(PolicyError::not_ready)
        })?;
        sys.mc_mut().set_policy(enforced);
        if let Some(t) = tracer {
            t.instant_at("profile_end", 0, sys.cycle());
        }
        trace_shares(tracer, &policy, sys.cycle());

        // Phase 3: measure, re-deciding at every repartition epoch
        // (No_partitioning enforces nothing, so it never re-decides).
        sys.reset_phase_counters();
        let start = sys.snapshot();
        obs_span!(tracer, "phase:measure");
        let measure = self.phases.measure;
        match self
            .phases
            .repartition_epoch
            .filter(|&e| e > 0 && e < measure)
        {
            None => sys.run(measure),
            Some(epoch) => {
                let mut remaining = measure;
                while remaining > 0 {
                    let chunk = epoch.min(remaining);
                    let epoch_start = sys.cycle();
                    sys.run(chunk);
                    remaining -= chunk;
                    if let Some(t) = tracer {
                        t.complete_at("epoch", 0, epoch_start, chunk);
                    }
                    if let Some(o) = obs {
                        sys.publish_metrics(&o.registry);
                    }
                    if remaining == 0 {
                        break;
                    }
                    // Taken under No_partitioning too, which decides
                    // nothing, so the epoch counters always cover one
                    // epoch. The measured stats read the snapshots'
                    // lifetime tallies, which taking leaves alone.
                    let counters = sys.mc_mut().take_epoch_counters();
                    if scheme == PartitionScheme::NoPartitioning {
                        continue;
                    }
                    let verdict = decide(&mut policy, &counters, chunk);
                    // Priority keys follow every window's estimates; β
                    // moves only on a Repartitioned verdict, so otherwise
                    // this re-applies the one in force.
                    if let Some(next) = enforcement(scheme, &policy) {
                        sys.mc_mut().policy_mut().retarget(next);
                    }
                    if verdict == Verdict::Repartitioned {
                        trace_shares(tracer, &policy, sys.cycle());
                    }
                }
            }
        }
        let end = sys.snapshot();
        let stats = sys.window_stats(&start, &end);
        let total_bandwidth =
            stats.iter().map(|s| s.mem_accesses).sum::<u64>() as f64 / self.phases.measure as f64;
        if let Some(o) = obs {
            sys.publish_metrics(&o.registry);
            o.registry
                .gauge("run_total_bandwidth_apc")
                .set(total_bandwidth);
        }
        if let Some(t) = tracer {
            t.instant_at("measure_end", 0, sys.cycle());
        }

        Ok(SimOutcome {
            scheme: scheme.name(),
            stats,
            apc_alone_ref,
            api_ref,
            total_bandwidth,
        })
    }

    /// Run a mix with an explicit share vector enforced by start-time-fair
    /// scheduling (used by the QoS experiments).
    pub fn run_with_shares(
        &self,
        shares: Vec<f64>,
        label: &str,
        workloads: Vec<Box<dyn Workload>>,
        core_cfgs: Vec<CoreConfig>,
        apc_alone_ref: Vec<f64>,
        api_ref: Vec<f64>,
    ) -> SimOutcome {
        self.run_with_allocation(
            shares,
            None,
            label,
            workloads,
            core_cfgs,
            apc_alone_ref,
            api_ref,
        )
    }

    /// Run a mix under an explicit multi-resource allocation: a bandwidth
    /// share vector enforced by start-time-fair scheduling plus, when
    /// `ways` is given, an LLC way partition installed before warm-up so
    /// the caches warm under the enforced regime (the coordinated-solver
    /// enforcement path; requires [`CmpConfig::llc`] to be set). The
    /// warm-up and profile budgets run as one untallied warm-up under
    /// FCFS; only the measured window is tallied.
    // The seven knobs mirror the coordinated enforcement tuple (shares,
    // way masks, workloads, references); a builder would obscure the
    // one-call experiment surface.
    #[allow(clippy::too_many_arguments)]
    pub fn run_with_allocation(
        &self,
        shares: Vec<f64>,
        ways: Option<&[usize]>,
        label: &str,
        workloads: Vec<Box<dyn Workload>>,
        core_cfgs: Vec<CoreConfig>,
        apc_alone_ref: Vec<f64>,
        api_ref: Vec<f64>,
    ) -> SimOutcome {
        let n = workloads.len();
        assert_eq!(shares.len(), n);
        let mut sys = CmpSystem::new(&self.cmp, workloads, core_cfgs, Policy::fcfs(n));
        if let Some(w) = ways {
            sys.set_llc_ways(w);
        }
        sys.warm_up(self.phases.warmup + self.phases.profile);
        sys.mc_mut().set_policy(Policy::stf(shares));
        sys.reset_phase_counters();
        let start = sys.snapshot();
        sys.run(self.phases.measure);
        let end = sys.snapshot();
        let stats = sys.window_stats(&start, &end);
        let total_bandwidth =
            stats.iter().map(|s| s.mem_accesses).sum::<u64>() as f64 / self.phases.measure as f64;
        SimOutcome {
            scheme: label.to_string(),
            stats,
            apc_alone_ref,
            api_ref,
            total_bandwidth,
        }
    }

    /// Standalone run: the workload owns the whole memory system. Returns
    /// ground-truth `APC_alone`, `API` and `IPC_alone` (Table III's
    /// measurement).
    pub fn run_alone(&self, workload: Box<dyn Workload>, core_cfg: CoreConfig) -> AloneProfile {
        let mut sys = CmpSystem::new(&self.cmp, vec![workload], vec![core_cfg], Policy::fcfs(1));
        sys.warm_up(self.phases.warmup);
        sys.reset_phase_counters();
        let start = sys.snapshot();
        sys.run(self.phases.measure);
        let end = sys.snapshot();
        let stats = sys.window_stats(&start, &end).remove(0);
        AloneProfile {
            name: stats.name.clone(),
            apc_alone: stats.apc(),
            api: stats.api(),
            ipc_alone: stats.ipc(),
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::Access;

    /// Deterministic two-region workload: streams with probability
    /// controlled by a pattern, hot set otherwise.
    struct Synthetic {
        name: String,
        gap: u32,
        stream_period: u32, // every k-th access streams (misses)
        counter: u32,
        stream_next: u64,
        hot_next: u64,
    }

    impl Synthetic {
        fn new(name: &str, gap: u32, stream_period: u32) -> Self {
            Synthetic {
                name: name.into(),
                gap,
                stream_period,
                counter: 0,
                stream_next: 1 << 24,
                hot_next: 0,
            }
        }
    }

    impl Workload for Synthetic {
        fn next_access(&mut self) -> Access {
            self.counter += 1;
            if self.counter.is_multiple_of(self.stream_period) {
                let a = self.stream_next;
                self.stream_next += 64;
                Access {
                    gap: self.gap,
                    addr: a,
                    is_write: false,
                }
            } else {
                let a = self.hot_next % (16 * 1024); // L1-resident hot set
                self.hot_next += 64;
                Access {
                    gap: self.gap,
                    addr: a,
                    is_write: false,
                }
            }
        }
        fn name(&self) -> &str {
            &self.name
        }
    }

    fn heavy() -> Box<dyn Workload> {
        Box::new(Synthetic::new("heavy", 4, 2))
    }
    fn light() -> Box<dyn Workload> {
        Box::new(Synthetic::new("light", 4, 40))
    }

    /// Hot set only: no memory traffic once the caches are warm.
    fn silent() -> Box<dyn Workload> {
        Box::new(Synthetic::new("silent", 4, u32::MAX))
    }

    /// `heavy` for its first `left` accesses, silent after; `issued`
    /// counts every access it generates. A core reads its workload ahead,
    /// up to `RING_LEN` accesses before it consumes them, so `issued` runs
    /// that far ahead of the accesses the core has executed.
    struct Fading {
        inner: Synthetic,
        left: u64,
        issued: std::rc::Rc<std::cell::Cell<u64>>,
    }

    impl Workload for Fading {
        fn next_access(&mut self) -> Access {
            self.issued.set(self.issued.get() + 1);
            match self.left.checked_sub(1) {
                Some(left) => self.left = left,
                None => self.inner.stream_period = u32::MAX,
            }
            self.inner.next_access()
        }
        fn name(&self) -> &str {
            &self.inner.name
        }
    }

    fn runner() -> Runner {
        Runner {
            cmp: CmpConfig::default(),
            phases: PhaseConfig::fast(),
        }
    }

    /// Every `share` counter sample: (timestamp, app, β).
    fn share_samples(obs: &crate::obs::RunObserver) -> Vec<(u64, u64, f64)> {
        // lint: allow(R1): with_tracer always sets the tracer
        let events = obs.tracer.as_ref().unwrap().events();
        events
            .iter()
            .filter(|e| e.name == "share")
            .filter_map(|e| Some((e.ts, e.tid, e.value?)))
            .collect()
    }

    #[test]
    fn alone_run_reports_consistent_rates() {
        let p = runner().run_alone(heavy(), CoreConfig::default());
        assert!(p.apc_alone > 0.0);
        assert!(p.api > 0.0);
        assert!((p.ipc_alone - p.apc_alone / p.api).abs() / p.ipc_alone < 1e-6);
        // Heavy streamer on DDR2-400 should push near the bus limit.
        assert!(p.apc_alone > 0.006, "APC {}", p.apc_alone);
    }

    #[test]
    fn heavy_and_light_profiles_differ() {
        let r = runner();
        let h = r.run_alone(heavy(), CoreConfig::default());
        let l = r.run_alone(light(), CoreConfig::default());
        assert!(h.api > 3.0 * l.api, "API: {} vs {}", h.api, l.api);
        assert!(h.apc_alone > l.apc_alone);
    }

    #[test]
    fn online_profile_estimates_are_positive_and_bounded() {
        let r = runner();
        let out = r.run_scheme(
            PartitionScheme::Equal,
            vec![heavy(), heavy(), light(), light()],
            vec![CoreConfig::default(); 4],
            ShareSource::OnlineProfile,
        );
        for (i, &apc) in out.apc_alone_ref.iter().enumerate() {
            assert!(apc > 0.0, "app {i} estimate zero");
            assert!(apc < 0.02, "app {i} estimate {apc} implausible");
        }
        // The heavies should be estimated as more intensive than the lights.
        assert!(out.apc_alone_ref[0] > out.apc_alone_ref[2]);
    }

    #[test]
    fn equal_partitioning_equalizes_service_of_identical_apps() {
        let r = runner();
        let out = r.run_scheme(
            PartitionScheme::Equal,
            vec![heavy(), heavy()],
            vec![CoreConfig::default(); 2],
            ShareSource::OnlineProfile,
        );
        let a = out.stats[0].apc();
        let b = out.stats[1].apc();
        assert!((a - b).abs() / a < 0.1, "APCs {a} vs {b}");
    }

    #[test]
    fn priority_scheme_starves_the_heavy_app() {
        let r = runner();
        let out = r.run_scheme(
            PartitionScheme::PriorityApc,
            vec![heavy(), light()],
            vec![CoreConfig::default(); 2],
            ShareSource::OnlineProfile,
        );
        // light (low APC_alone) is served first; heavy gets leftovers. The
        // light app keeps most of its standalone speed (it still pays
        // priority-inversion latency behind in-flight heavy bursts).
        let speedups = out.speedups();
        assert!(
            speedups[1] > 0.7,
            "light app should keep most standalone speed, got {}",
            speedups[1]
        );
        assert!(
            speedups[1] > speedups[0],
            "priority must favour the light app: {speedups:?}"
        );
    }

    #[test]
    fn run_with_shares_biases_bandwidth() {
        let r = runner();
        // Two identical heavy apps with a 4:1 share split.
        let out = r.run_with_shares(
            vec![0.8, 0.2],
            "custom",
            vec![heavy(), heavy()],
            vec![CoreConfig::default(); 2],
            vec![0.008, 0.008],
            vec![0.08, 0.08],
        );
        let ratio = out.stats[0].apc() / out.stats[1].apc();
        assert!(
            ratio > 2.5,
            "share enforcement should bias service 4:1, got {ratio}"
        );
    }

    #[test]
    fn repartitioning_epochs_do_not_break_measurement() {
        let mut r = runner();
        r.phases.repartition_epoch = Some(100_000);
        let out = r.run_scheme(
            PartitionScheme::SquareRoot,
            vec![heavy(), light()],
            vec![CoreConfig::default(); 2],
            ShareSource::OnlineProfile,
        );
        assert!(out.metric(Metric::HarmonicWeightedSpeedup) > 0.0);
        assert!(out.total_bandwidth > 0.0);
    }

    #[test]
    fn traced_run_matches_untraced_and_collects_the_timeline() {
        let mut r = runner();
        r.phases.repartition_epoch = Some(100_000);
        let plain = r.run_scheme(
            PartitionScheme::SquareRoot,
            vec![heavy(), light()],
            vec![CoreConfig::default(); 2],
            ShareSource::OnlineProfile,
        );
        let obs = crate::obs::RunObserver::with_tracer(4096);
        let traced = r.run_scheme_traced(
            PartitionScheme::SquareRoot,
            vec![heavy(), light()],
            vec![CoreConfig::default(); 2],
            ShareSource::OnlineProfile,
            Some(&obs),
        );
        // Observation must not perturb the simulation.
        let counters = |o: &SimOutcome| -> Vec<(u64, u64)> {
            o.stats
                .iter()
                .map(|s| (s.instructions, s.mem_accesses))
                .collect()
        };
        assert_eq!(counters(&plain), counters(&traced));
        assert_eq!(plain.apc_alone_ref, traced.apc_alone_ref);
        // Metrics were published…
        let snap = obs.registry.snapshot();
        assert!(snap
            .gauges
            .iter()
            .any(|g| g.name == "run_total_bandwidth_apc"));
        // …and the cycle-domain timeline was recorded: 4 epoch windows,
        // the phase instants, and per-app share tracks for both apps.
        // lint: allow(R1): with_tracer always sets the tracer
        let events = obs.tracer.as_ref().unwrap().events();
        use bwpart_obs::EventPhase;
        let epochs = events
            .iter()
            .filter(|e| e.name == "epoch" && e.ph == EventPhase::Complete)
            .count();
        assert_eq!(epochs, 4, "400k measure cycles / 100k epochs");
        assert!(events.iter().any(|e| e.name == "profile_end"));
        for app in 0..2u64 {
            assert!(
                events
                    .iter()
                    .any(|e| e.name == "share" && e.tid == app && e.value.is_some()),
                "missing share track for app {app}"
            );
        }
    }

    #[test]
    fn a_silent_app_gets_no_share() {
        // No access in the profile window: the decision leaves the app
        // out, so STF enforces β = 0 for it (served only when alone).
        let obs = crate::obs::RunObserver::with_tracer(4096);
        let out = runner()
            .try_run_scheme(
                PartitionScheme::SquareRoot,
                vec![heavy(), silent()],
                vec![CoreConfig::default(); 2],
                Some(&obs),
            )
            .unwrap();
        assert_eq!(out.apc_alone_ref[1..], [0.0]);
        assert!(out.stats[0].mem_accesses > 0);
        let shares: Vec<(u64, f64)> = share_samples(&obs)
            .into_iter()
            .map(|(_, app, beta)| (app, beta))
            .collect();
        assert_eq!(shares, [(0, 1.0), (1, 0.0)]);
    }

    #[test]
    fn all_silent_epochs_keep_the_enforced_partition() {
        let fading = |left: u64, issued: &std::rc::Rc<std::cell::Cell<u64>>| -> Box<dyn Workload> {
            Box::new(Fading {
                inner: Synthetic::new("fading", 4, 2),
                left,
                issued: issued.clone(),
            })
        };
        // Calibrate: accesses generated through warm-up and profile.
        let issued = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut r = runner();
        r.phases.measure = 0;
        r.run_scheme(
            PartitionScheme::SquareRoot,
            vec![fading(u64::MAX, &issued), heavy()],
            vec![CoreConfig::default(); 2],
            ShareSource::OnlineProfile,
        );
        let profiled = issued.get();

        // Both apps go silent early in the first of four measure epochs,
        // so epochs 2 and 3 see no memory access at all: they decide
        // nothing and the first epoch's partition stays enforced.
        let mut r = runner();
        r.phases.repartition_epoch = Some(100_000);
        let obs = crate::obs::RunObserver::with_tracer(4096);
        let (a, b) = (std::rc::Rc::default(), std::rc::Rc::default());
        let out = r
            .try_run_scheme(
                PartitionScheme::SquareRoot,
                vec![fading(profiled + 200, &a), fading(profiled + 200, &b)],
                vec![CoreConfig::default(); 2],
                Some(&obs),
            )
            .unwrap();
        assert!(out.stats.iter().all(|s| s.mem_accesses > 0));
        let measure_start = r.phases.warmup + r.phases.profile;
        let mut decided: Vec<u64> = share_samples(&obs)
            .into_iter()
            .map(|(ts, _, _)| ts - measure_start)
            .collect();
        decided.dedup();
        assert_eq!(decided, [0, 100_000], "profile boundary and epoch 1 only");
    }

    #[test]
    fn try_run_scheme_reports_what_it_cannot_enforce() {
        let r = runner();
        let run = |scheme, w: fn() -> Box<dyn Workload>| {
            r.try_run_scheme(scheme, vec![w(), w()], vec![CoreConfig::default(); 2], None)
        };
        let err = run(PartitionScheme::SquareRoot, silent).unwrap_err();
        assert_eq!(err.kind, bwpart_mc::Refusal::NotReady, "{}", err.message);
        let err = run(PartitionScheme::Power(300.0), heavy).unwrap_err();
        assert_eq!(err.kind, bwpart_mc::Refusal::SolveFailed);
        assert!(
            err.message.contains("overflows or underflows"),
            "{}",
            err.message
        );
        // The priority and baseline schemes enforce from the estimates
        // alone, silent or not.
        for scheme in [
            PartitionScheme::PriorityApc,
            PartitionScheme::NoPartitioning,
        ] {
            assert_eq!(run(scheme, silent).unwrap().apc_alone_ref, [0.0, 0.0]);
        }
    }

    #[test]
    fn outcome_metrics_are_consistent() {
        let r = runner();
        let out = r.run_scheme(
            PartitionScheme::Equal,
            vec![heavy(), light()],
            vec![CoreConfig::default(); 2],
            ShareSource::OnlineProfile,
        );
        let hsp = out.metric(Metric::HarmonicWeightedSpeedup);
        let wsp = out.metric(Metric::WeightedSpeedup);
        assert!(hsp > 0.0 && wsp >= hsp - 1e-12, "Hsp {hsp} Wsp {wsp}");
        let ipcsum = out.metric(Metric::SumOfIpcs);
        assert!((ipcsum - out.ipc_shared().iter().sum::<f64>()).abs() < 1e-12);
    }
}
