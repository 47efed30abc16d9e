//! The forward model of Section III-F: from a share vector to predicted
//! per-application IPCs and any IPC-based system objective.
//!
//! "Given a particular memory bandwidth partitioning, we can easily have the
//! bandwidth share of each application (APC_i), translate it to IPC_i based
//! on Eq. (1), and calculate the final IPC-based system performance
//! objective."
//!
//! The prediction honours the physical cap `APC_shared,i ≤ APC_alone,i`: an
//! application granted more bandwidth than it can generate simply leaves the
//! surplus unused (its IPC saturates at `IPC_alone`).

use serde::{Deserialize, Serialize};

use crate::app::AppProfile;
use crate::error::ModelError;
use crate::metrics::{self, Metric};
use crate::schemes::{validate_shares, PartitionScheme};

/// The model's prediction for one partitioning of one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Prediction {
    /// Effective bandwidth each application consumes (APC), post-cap.
    pub apc_shared: Vec<f64>,
    /// Predicted shared-mode IPCs (Eq. 1).
    pub ipc_shared: Vec<f64>,
    /// Standalone IPCs used as the speedup denominators.
    pub ipc_alone: Vec<f64>,
}

impl Prediction {
    /// Evaluate one of the paper's objectives on this prediction.
    pub fn metric(&self, metric: Metric) -> f64 {
        metrics::evaluate(metric, &self.ipc_shared, &self.ipc_alone)
            // lint: allow(R1): vectors are validated by the evaluate* constructors
            .expect("prediction vectors are well-formed by construction")
    }

    /// All four objectives in [`Metric::ALL`] order.
    pub fn all_metrics(&self) -> [(Metric, f64); 4] {
        Metric::ALL.map(|m| (m, self.metric(m)))
    }

    /// Per-application speedups.
    // lint: allow(A2): speedups are per-app ratios, not a share vector
    pub fn speedups(&self) -> Vec<f64> {
        metrics::speedups(&self.ipc_shared, &self.ipc_alone)
            // lint: allow(R1): vectors are validated by the evaluate* constructors
            .expect("prediction vectors are well-formed by construction")
    }

    /// Total bandwidth actually consumed (≤ the granted `B` when caps bind).
    pub fn consumed_bandwidth(&self) -> f64 {
        self.apc_shared.iter().sum()
    }
}

/// Predict outcomes for an explicit share vector `beta` over bandwidth `b`.
pub fn evaluate(apps: &[AppProfile], beta: &[f64], b: f64) -> Result<Prediction, ModelError> {
    if apps.is_empty() {
        return Err(ModelError::NoApplications);
    }
    validate_shares(beta, apps.len())?;
    if !(b.is_finite() && b > 0.0) {
        return Err(ModelError::InvalidInput {
            what: "total_bandwidth",
            value: b,
        });
    }
    let apc_shared: Vec<f64> = apps
        .iter()
        .zip(beta)
        .map(|(a, &bi)| (bi * b).min(a.apc_alone))
        .collect();
    finish(apps, apc_shared)
}

/// Predict outcomes for an explicit allocation in APC units (already capped
/// or not; caps are applied here as well).
pub fn evaluate_allocation(apps: &[AppProfile], alloc: &[f64]) -> Result<Prediction, ModelError> {
    if apps.is_empty() {
        return Err(ModelError::NoApplications);
    }
    if alloc.len() != apps.len() {
        return Err(ModelError::LengthMismatch {
            expected: apps.len(),
            got: alloc.len(),
        });
    }
    for &a in alloc {
        if !(a.is_finite() && a >= 0.0) {
            return Err(ModelError::InvalidInput {
                what: "allocation",
                value: a,
            });
        }
    }
    let apc_shared: Vec<f64> = apps
        .iter()
        .zip(alloc)
        .map(|(p, &a)| a.min(p.apc_alone))
        .collect();
    finish(apps, apc_shared)
}

/// Predict outcomes for a named scheme (errors for `NoPartitioning`, which
/// has no analytic allocation).
pub fn evaluate_scheme(
    apps: &[AppProfile],
    scheme: PartitionScheme,
    b: f64,
) -> Result<Prediction, ModelError> {
    let alloc = scheme.allocation(apps, b)?;
    evaluate_allocation(apps, &alloc)
}

fn finish(apps: &[AppProfile], apc_shared: Vec<f64>) -> Result<Prediction, ModelError> {
    let ipc_shared: Vec<f64> = apps
        .iter()
        .zip(&apc_shared)
        .map(|(a, &apc)| apc / a.api)
        .collect();
    let ipc_alone: Vec<f64> = apps.iter().map(|a| a.ipc_alone()).collect();
    Ok(Prediction {
        apc_shared,
        ipc_shared,
        ipc_alone,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apps() -> Vec<AppProfile> {
        vec![
            AppProfile::new("a", 0.04, 0.008).unwrap(),
            AppProfile::new("b", 0.02, 0.004).unwrap(),
            AppProfile::new("c", 0.005, 0.002).unwrap(),
        ]
    }

    #[test]
    fn eq1_translation() {
        let a = apps();
        let p = evaluate(&a, &[0.5, 0.3, 0.2], 0.008).unwrap();
        // app 0: 0.004 APC / 0.04 API = 0.1 IPC
        assert!((p.ipc_shared[0] - 0.1).abs() < 1e-12);
        assert!((p.ipc_shared[1] - 0.12).abs() < 1e-12);
        assert!((p.ipc_shared[2] - 0.32).abs() < 1e-12);
    }

    #[test]
    fn caps_bind_when_share_exceeds_alone_rate() {
        let a = apps();
        // App c alone only reaches 0.002 APC; granting it 0.008 wastes most.
        let p = evaluate(&a, &[0.0, 0.0, 1.0], 0.008).unwrap();
        assert!((p.apc_shared[2] - 0.002).abs() < 1e-12);
        assert!((p.ipc_shared[2] - a[2].ipc_alone()).abs() < 1e-12);
        assert!(p.consumed_bandwidth() < 0.008);
        // Speedup never exceeds 1.
        assert!(p.speedups().iter().all(|&s| s <= 1.0 + 1e-12));
    }

    #[test]
    fn scheme_and_share_paths_agree() {
        let a = apps();
        let b = 0.006;
        for scheme in PartitionScheme::ENFORCED_SCHEMES {
            let via_scheme = evaluate_scheme(&a, scheme, b).unwrap();
            let beta = scheme.shares(&a, b).unwrap();
            // shares() normalizes over the *granted* total, which may be <
            // b if caps bound; reconstruct the same allocation.
            let granted: f64 = scheme.allocation(&a, b).unwrap().iter().sum();
            let via_beta = evaluate(&a, &beta, granted).unwrap();
            for (x, y) in via_scheme.apc_shared.iter().zip(&via_beta.apc_shared) {
                assert!((x - y).abs() < 1e-12, "{scheme}");
            }
        }
    }

    #[test]
    fn all_metrics_returns_four() {
        let a = apps();
        let p = evaluate_scheme(&a, PartitionScheme::Equal, 0.006).unwrap();
        let all = p.all_metrics();
        assert_eq!(all.len(), 4);
        for (m, v) in all {
            assert!(v.is_finite(), "{m} not finite");
            assert!(v >= 0.0);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let a = apps();
        assert!(evaluate(&a, &[0.5, 0.5], 0.01).is_err()); // wrong length
        assert!(evaluate(&a, &[0.5, 0.4, 0.2], 0.01).is_err()); // sum != 1
        assert!(evaluate(&a, &[0.5, 0.3, 0.2], -1.0).is_err());
        assert!(evaluate(&[], &[], 0.01).is_err());
        assert!(evaluate_allocation(&a, &[0.1, f64::NAN, 0.0]).is_err());
    }

    /// The model reproduces the paper's headline qualitative claim: each
    /// derived scheme is the best of the scheme family on its own metric.
    #[test]
    fn each_scheme_wins_its_own_metric() {
        let a = vec![
            AppProfile::new("lbm", 0.0531, 0.00939).unwrap(),
            AppProfile::new("libquantum", 0.0341, 0.00692).unwrap(),
            AppProfile::new("gromacs", 0.0052, 0.00337).unwrap(),
            AppProfile::new("gobmk", 0.0041, 0.00191).unwrap(),
        ];
        let b = 0.0095;
        let winners = [
            (Metric::HarmonicWeightedSpeedup, PartitionScheme::SquareRoot),
            (Metric::MinFairness, PartitionScheme::Proportional),
            (Metric::WeightedSpeedup, PartitionScheme::PriorityApc),
            (Metric::SumOfIpcs, PartitionScheme::PriorityApi),
        ];
        for (metric, winner) in winners {
            let best = evaluate_scheme(&a, winner, b).unwrap().metric(metric);
            for other in PartitionScheme::ENFORCED_SCHEMES {
                let v = evaluate_scheme(&a, other, b).unwrap().metric(metric);
                assert!(
                    best >= v - 1e-9,
                    "{} should win {metric} but {other} scored {v} > {best}",
                    winner
                );
            }
        }
    }
}
