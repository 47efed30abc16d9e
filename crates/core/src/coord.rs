//! The coordinated multi-resource solver: alternating descent over
//! (bandwidth shares × LLC way allocations).
//!
//! Coordinated bandwidth + cache partitioning (CBP) observes that the two
//! resources interact: the ways an application holds set its miss traffic
//! — [`CacheAwareProfile::apc_alone_at`] — which in turn sets the optimal
//! bandwidth split. The solver alternates the two coordinates:
//!
//! 1. **Bandwidth step** — at the current way vector `w`, materialize
//!    per-app [`AppProfile`]s via the fitted miss-ratio curves and solve
//!    the inner (paper) scheme for the bandwidth shares.
//! 2. **Way step** — greedy local search over single-way moves
//!    (donor → recipient, keeping every app at `min_ways`); each candidate
//!    is scored by re-running the bandwidth step and evaluating the
//!    objective on the predicted outcome (Section III-F forward model).
//!
//! **Convergence criteria**: the descent stops when no single-way move
//! improves the predicted objective by more than a relative `1e-9`, or
//! after [`CoordConfig::max_rounds`] rounds. Because only improving moves
//! are taken, the objective is non-decreasing across rounds and the search
//! terminates.
//!
//! **Baseline guarantee**: before returning, the solver also scores every
//! enforced single-resource scheme at the fair (equal-ways) split and at
//! the descent's final ways, and returns the argmax over the whole
//! candidate set. The coordinated outcome is therefore *never worse than
//! the best single-resource scheme* on the configured objective — the
//! property the solver proptests pin down. Ties break toward the
//! descent's inner-scheme outcome (a baseline must win by more than an
//! ulp-scale relative margin to displace it), so the returned split is a
//! deterministic, stable function of the inputs even when standalone caps
//! make several schemes outcome-equivalent.
//!
//! The result is certified before it leaves the solver. In every build, β
//! must pass [`validate_shares`](crate::schemes::validate_shares) and the
//! ways must sum to `total_ways` with each at least `min_ways`; in debug
//! builds, [`ensures_capped!`](crate::ensures_capped) also holds the
//! bandwidth allocation within the materialised profiles' `APC_alone`.

use serde::{Deserialize, Serialize};

use crate::app::AppProfile;
use crate::error::ModelError;
use crate::metrics::Metric;
use crate::mrc::CacheAwareProfile;
use crate::predict;
use crate::schemes::{self, PartitionScheme, SharesOutcome};

/// Relative improvement below which a way move is considered converged.
const REL_TOL: f64 = 1e-9;

/// Configuration for the coordinated solve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoordConfig {
    /// Total utilized off-chip bandwidth `B` (APC).
    pub bandwidth: f64,
    /// Total shared-LLC ways to divide.
    pub total_ways: usize,
    /// Minimum ways per application (way masks cannot be empty).
    pub min_ways: usize,
    /// Inner bandwidth scheme used at each way vector (the paper's
    /// `SquareRoot` is the harmonic-speedup optimum and the default).
    pub inner: PartitionScheme,
    /// Objective the descent maximizes.
    pub objective: Metric,
    /// Maximum alternating rounds before the solve settles.
    pub max_rounds: usize,
}

impl CoordConfig {
    /// Defaults: the paper's DDR2-400 `B`, a 16-way LLC, square-root inner
    /// scheme, harmonic weighted speedup objective.
    pub fn new(bandwidth: f64, total_ways: usize) -> Self {
        CoordConfig {
            bandwidth,
            total_ways,
            min_ways: 1,
            inner: PartitionScheme::SquareRoot,
            objective: Metric::HarmonicWeightedSpeedup,
            max_rounds: 16,
        }
    }

    /// Check the configuration against an application count.
    pub fn validate(&self, n_apps: usize) -> Result<(), ModelError> {
        if n_apps == 0 {
            return Err(ModelError::NoApplications);
        }
        if !(self.bandwidth.is_finite() && self.bandwidth > 0.0) {
            return Err(ModelError::InvalidInput {
                what: "total_bandwidth",
                value: self.bandwidth,
            });
        }
        if self.min_ways == 0 {
            return Err(ModelError::InvalidInput {
                what: "min_ways",
                value: 0.0,
            });
        }
        if self.total_ways < n_apps * self.min_ways {
            return Err(ModelError::InvalidInput {
                what: "total_ways below min_ways per app",
                value: self.total_ways as f64,
            });
        }
        Ok(())
    }
}

/// The coordinated solver's result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoordOutcome {
    /// Final integral way allocation (sums to `total_ways`, each ≥
    /// `min_ways`).
    pub ways: Vec<usize>,
    /// The bandwidth solve at the final way vector (the inner scheme's
    /// canonical name, shares, and capped allocation).
    pub bandwidth: SharesOutcome,
    /// Per-app profiles materialized at the final way vector.
    pub profiles: Vec<AppProfile>,
    /// Predicted objective value of the returned partitioning.
    pub objective_value: f64,
    /// Best predicted objective among single-resource baselines (every
    /// enforced scheme at the equal-ways split) — by construction
    /// `objective_value ≥ baseline_value`.
    pub baseline_value: f64,
    /// Alternating rounds the descent ran before converging.
    pub rounds: usize,
}

/// One scored candidate during the search.
struct Candidate {
    ways: Vec<usize>,
    outcome: SharesOutcome,
    profiles: Vec<AppProfile>,
    value: f64,
}

/// Score `scheme` at way vector `ways`: materialize profiles, solve the
/// bandwidth split, run the forward model, evaluate the objective.
///
/// Speedups are normalized against the *standalone* machine — the app
/// alone with the whole LLC (`total_ways`) and the whole bandwidth — not
/// against the candidate's own way count, so that way moves register in
/// the objective instead of cancelling out of the ratio.
fn score(
    apps: &[CacheAwareProfile],
    scales: &[f64],
    ways: &[usize],
    scheme: PartitionScheme,
    cfg: &CoordConfig,
) -> Result<Candidate, ModelError> {
    let profiles: Vec<AppProfile> = apps
        .iter()
        .zip(scales)
        .zip(ways)
        .map(|((a, &s), &w)| a.profile_at(w as f64, s))
        .collect::<Result<_, _>>()?;
    let outcome = scheme.solve(&profiles, cfg.bandwidth)?;
    // Shared-mode IPCs at the candidate ways (Eq. 1, standalone-capped).
    let shared = predict::evaluate_allocation(&profiles, &outcome.allocation)?;
    // Standalone denominators at the full LLC.
    let ipc_alone: Vec<f64> = apps
        .iter()
        .zip(scales)
        .map(|(a, &s)| {
            a.profile_at(cfg.total_ways as f64, s)
                .map(|p| p.ipc_alone())
        })
        .collect::<Result<_, _>>()?;
    let value = crate::metrics::evaluate(cfg.objective, &shared.ipc_shared, &ipc_alone)?;
    Ok(Candidate {
        ways: ways.to_vec(),
        outcome,
        profiles,
        value,
    })
}

/// The fair integral split: `total_ways` divided as evenly as possible.
fn equal_ways(n: usize, cfg: &CoordConfig) -> Vec<usize> {
    let free = cfg.total_ways - n * cfg.min_ways;
    (0..n)
        .map(|i| cfg.min_ways + free / n + usize::from(i < free % n))
        .collect()
}

/// Solve the coordinated (bandwidth × LLC ways) partitioning for pure
/// model profiles (no telemetry calibration).
pub fn solve_coordinated(
    apps: &[CacheAwareProfile],
    cfg: &CoordConfig,
) -> Result<CoordOutcome, ModelError> {
    solve_coordinated_scaled(apps, &vec![1.0; apps.len()], cfg)
}

/// Solve the coordinated partitioning with per-app `APC_alone` calibration
/// factors (`bwpartd` passes the ratio of the Eq. 12–13 telemetry estimate
/// to the model's prediction at the currently enforced ways; offline
/// callers pass 1.0).
pub fn solve_coordinated_scaled(
    apps: &[CacheAwareProfile],
    apc_scales: &[f64],
    cfg: &CoordConfig,
) -> Result<CoordOutcome, ModelError> {
    cfg.validate(apps.len())?;
    if apc_scales.len() != apps.len() {
        return Err(ModelError::LengthMismatch {
            expected: apps.len(),
            got: apc_scales.len(),
        });
    }
    let n = apps.len();
    let fair = equal_ways(n, cfg);
    let mut best = score(apps, apc_scales, &fair, cfg.inner, cfg)?;

    // Alternating descent: bandwidth step is folded into `score`; the way
    // step takes the best improving single-way move per round.
    let mut rounds = 0usize;
    while rounds < cfg.max_rounds {
        rounds += 1;
        let mut round_best: Option<Candidate> = None;
        for donor in 0..n {
            if best.ways[donor] <= cfg.min_ways {
                continue;
            }
            for recipient in 0..n {
                if recipient == donor {
                    continue;
                }
                let mut ways = best.ways.clone();
                ways[donor] -= 1;
                ways[recipient] += 1;
                let cand = score(apps, apc_scales, &ways, cfg.inner, cfg)?;
                if cand.value > round_best.as_ref().map_or(best.value, |c| c.value) {
                    round_best = Some(cand);
                }
            }
        }
        match round_best {
            Some(cand) if cand.value > best.value * (1.0 + REL_TOL) => best = cand,
            _ => break,
        }
    }

    // Baseline guarantee: score every enforced single-resource scheme at
    // the fair split (the bandwidth-only operating point) and at the
    // descent's final ways; return the argmax over all candidates.
    //
    // Ties are common once standalone caps flatten the objective (every
    // scheme whose split saturates the same caps predicts the same
    // speedups), so a candidate only displaces the descent's inner-scheme
    // outcome when it is *strictly* better beyond an ulp-scale margin —
    // otherwise the returned split would flip between outcome-equivalent
    // schemes on float noise in the calibration scales.
    let tie_margin = |v: f64| v.abs() * 1e-12;
    let mut baseline_value = f64::NEG_INFINITY;
    for scheme in PartitionScheme::ENFORCED_SCHEMES {
        let at_fair = score(apps, apc_scales, &fair, scheme, cfg)?;
        baseline_value = baseline_value.max(at_fair.value);
        if at_fair.value > best.value + tie_margin(best.value) {
            best = at_fair;
        }
        if best.ways != fair {
            let at_final = score(apps, apc_scales, &best.ways.clone(), scheme, cfg)?;
            if at_final.value > best.value + tie_margin(best.value) {
                best = at_final;
            }
        }
    }
    crate::invariant!(
        best.value >= baseline_value - tie_margin(baseline_value),
        "coordinated outcome {} must not trail the best single-resource baseline {}",
        best.value,
        baseline_value
    );

    // Certify both resources.
    schemes::validate_shares(&best.outcome.beta, n)?;
    crate::ensures_capped!(
        best.outcome.allocation,
        best.profiles
            .iter()
            .map(|p| p.apc_alone)
            .collect::<Vec<f64>>()
    );
    let granted_ways: usize = best.ways.iter().sum();
    if granted_ways != cfg.total_ways || best.ways.iter().any(|&w| w < cfg.min_ways) {
        return Err(ModelError::InvalidInput {
            what: "way allocation (must sum to total_ways, each at least min_ways)",
            value: granted_ways as f64,
        });
    }

    let Candidate {
        ways,
        outcome,
        profiles,
        value,
    } = best;
    Ok(CoordOutcome {
        ways,
        bandwidth: outcome,
        profiles,
        objective_value: value,
        baseline_value,
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mrc::MissRatioCurve;

    /// A latency-sensitive app whose working set fits in a few ways, and a
    /// streaming hog whose miss ratio barely moves with ways.
    fn cache_mix() -> Vec<CacheAwareProfile> {
        let steep = MissRatioCurve::fit(&[
            (1.0, 0.95),
            (2.0, 0.85),
            (4.0, 0.7),
            (8.0, 0.45),
            (12.0, 0.12),
            (16.0, 0.03),
        ])
        .unwrap();
        let flat = MissRatioCurve::fit(&[(1.0, 0.99), (16.0, 0.97)]).unwrap();
        vec![
            CacheAwareProfile::new("latsens", 0.03, 1.0, 350.0, steep).unwrap(),
            CacheAwareProfile::new("streamhog", 0.06, 0.4, 60.0, flat).unwrap(),
        ]
    }

    fn cfg() -> CoordConfig {
        CoordConfig::new(0.0095, 16)
    }

    #[test]
    fn coordinated_beats_fair_ways_on_cache_mix() {
        let apps = cache_mix();
        let out = solve_coordinated(&apps, &cfg()).unwrap();
        assert!(
            out.objective_value >= out.baseline_value - 1e-12,
            "coordinated {} vs baseline {}",
            out.objective_value,
            out.baseline_value
        );
        // The cache-sensitive app should end up with more ways than the
        // streamer, and strictly more than the fair split.
        assert!(out.ways[0] > out.ways[1], "ways: {:?}", out.ways);
        assert!(out.ways[0] > 8, "ways: {:?}", out.ways);
    }

    #[test]
    fn outcome_is_conservative_and_floored() {
        let apps = cache_mix();
        let c = cfg();
        let out = solve_coordinated(&apps, &c).unwrap();
        assert_eq!(out.ways.iter().sum::<usize>(), c.total_ways);
        assert!(out.ways.iter().all(|&w| w >= c.min_ways));
        assert_eq!(out.profiles.len(), apps.len());
        schemes::validate_shares(&out.bandwidth.beta, apps.len()).unwrap();
        for (a, p) in out.bandwidth.allocation.iter().zip(&out.profiles) {
            assert!((0.0..=p.apc_alone + 1e-12).contains(a), "{a}");
        }
    }

    #[test]
    fn identical_apps_settle_on_fair_ways() {
        let flatish =
            MissRatioCurve::fit(&[(1.0, 0.8), (4.0, 0.4), (8.0, 0.2), (16.0, 0.1)]).unwrap();
        let apps: Vec<CacheAwareProfile> = (0..4)
            .map(|i| {
                CacheAwareProfile::new(format!("a{i}"), 0.03, 0.8, 150.0, flatish.clone()).unwrap()
            })
            .collect();
        let out = solve_coordinated(&apps, &cfg()).unwrap();
        assert_eq!(out.ways, vec![4, 4, 4, 4]);
    }

    #[test]
    fn single_app_takes_everything() {
        let apps = vec![cache_mix().remove(0)];
        let out = solve_coordinated(&apps, &cfg()).unwrap();
        assert_eq!(out.ways, vec![16]);
        assert!((out.bandwidth.beta[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn calibration_scales_the_solve_inputs() {
        let apps = cache_mix();
        let base = solve_coordinated(&apps, &cfg()).unwrap();
        let scaled = solve_coordinated_scaled(&apps, &[1.0, 1.0], &cfg()).unwrap();
        assert_eq!(base, scaled);
        assert!(solve_coordinated_scaled(&apps, &[1.0], &cfg()).is_err());
    }

    #[test]
    fn config_validation() {
        let apps = cache_mix();
        let mut c = cfg();
        c.total_ways = 1;
        assert!(solve_coordinated(&apps, &c).is_err());
        let mut c = cfg();
        c.bandwidth = -1.0;
        assert!(solve_coordinated(&apps, &c).is_err());
        let mut c = cfg();
        c.min_ways = 0;
        assert!(solve_coordinated(&apps, &c).is_err());
        assert!(solve_coordinated(&[], &cfg()).is_err());
    }

    #[test]
    fn determinism() {
        let apps = cache_mix();
        let a = solve_coordinated(&apps, &cfg()).unwrap();
        let b = solve_coordinated(&apps, &cfg()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn outcome_serializes_round_trip() {
        let apps = cache_mix();
        let out = solve_coordinated(&apps, &cfg()).unwrap();
        let json = serde_json::to_string(&out).unwrap();
        let back: CoordOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back, out);
    }
}
