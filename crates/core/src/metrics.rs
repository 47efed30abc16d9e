//! The system-level performance objectives of Section V-A.
//!
//! All four metrics are functions of the per-application pairs
//! `(IPC_shared,i, IPC_alone,i)`; equivalently, of `(APC_shared,i,
//! APC_alone,i)` because the `API` factor cancels inside each speedup ratio.
//!
//! * **Harmonic weighted speedup** (Eq. 3) — harmonic mean of speedups,
//!   balancing throughput and fairness.
//! * **Weighted speedup** (Eq. 9) — arithmetic mean of speedups.
//! * **Sum of IPCs** (Eq. 10) — raw throughput.
//! * **Minimum fairness** (Eq. 14) — `N × min_i speedup_i`; the system is
//!   "minimally fair" when every app keeps at least a `1/N` speedup.

use serde::{Deserialize, Serialize};

use crate::error::ModelError;

/// The four objectives evaluated throughout the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Metric {
    /// Eq. 3 — `N / Σ(IPC_alone,i / IPC_shared,i)`.
    HarmonicWeightedSpeedup,
    /// Eq. 9 — `Σ(IPC_shared,i / IPC_alone,i) / N`.
    WeightedSpeedup,
    /// Eq. 10 — `Σ IPC_shared,i`.
    SumOfIpcs,
    /// Eq. 14 — `N × min_i(IPC_shared,i / IPC_alone,i)`.
    MinFairness,
}

impl Metric {
    /// All four metrics in the paper's presentation order.
    pub const ALL: [Metric; 4] = [
        Metric::HarmonicWeightedSpeedup,
        Metric::MinFairness,
        Metric::WeightedSpeedup,
        Metric::SumOfIpcs,
    ];

    /// Short label used in tables (matches the paper's abbreviations).
    pub fn label(self) -> &'static str {
        match self {
            Metric::HarmonicWeightedSpeedup => "Hsp",
            Metric::WeightedSpeedup => "Wsp",
            Metric::SumOfIpcs => "IPCsum",
            Metric::MinFairness => "MinF",
        }
    }

    /// The partitioning scheme the paper proves (or argues) optimal for this
    /// metric, as a human-readable name.
    pub fn optimal_scheme_name(self) -> &'static str {
        match self {
            Metric::HarmonicWeightedSpeedup => "Square_root",
            Metric::WeightedSpeedup => "Priority_APC",
            Metric::SumOfIpcs => "Priority_API",
            Metric::MinFairness => "Proportional",
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

fn check_pairs(shared: &[f64], alone: &[f64]) -> Result<(), ModelError> {
    if shared.is_empty() {
        return Err(ModelError::NoApplications);
    }
    if shared.len() != alone.len() {
        return Err(ModelError::LengthMismatch {
            expected: alone.len(),
            got: shared.len(),
        });
    }
    for (&s, which) in shared.iter().zip(std::iter::repeat("ipc_shared")) {
        if !(s.is_finite() && s >= 0.0) {
            return Err(ModelError::InvalidInput {
                what: which,
                value: s,
            });
        }
    }
    for &a in alone {
        if !(a.is_finite() && a > 0.0) {
            return Err(ModelError::InvalidInput {
                what: "ipc_alone",
                value: a,
            });
        }
    }
    Ok(())
}

/// Per-application speedups `IPC_shared,i / IPC_alone,i`.
// lint: allow(A2): speedups are per-app ratios, not a share/allocation vector
pub fn speedups(ipc_shared: &[f64], ipc_alone: &[f64]) -> Result<Vec<f64>, ModelError> {
    check_pairs(ipc_shared, ipc_alone)?;
    Ok(ipc_shared
        .iter()
        .zip(ipc_alone)
        .map(|(&s, &a)| s / a)
        .collect())
}

/// Harmonic weighted speedup (Eq. 3). Returns 0 if any application made no
/// progress (its slowdown is infinite, collapsing the harmonic mean).
pub fn harmonic_weighted_speedup(ipc_shared: &[f64], ipc_alone: &[f64]) -> Result<f64, ModelError> {
    check_pairs(ipc_shared, ipc_alone)?;
    let n = ipc_shared.len() as f64;
    if ipc_shared.contains(&0.0) {
        return Ok(0.0);
    }
    let denom: f64 = ipc_shared.iter().zip(ipc_alone).map(|(&s, &a)| a / s).sum();
    Ok(n / denom)
}

/// Weighted speedup (Eq. 9).
pub fn weighted_speedup(ipc_shared: &[f64], ipc_alone: &[f64]) -> Result<f64, ModelError> {
    check_pairs(ipc_shared, ipc_alone)?;
    let n = ipc_shared.len() as f64;
    Ok(ipc_shared
        .iter()
        .zip(ipc_alone)
        .map(|(&s, &a)| s / a)
        .sum::<f64>()
        / n)
}

/// Sum of IPCs (Eq. 10). `ipc_alone` is accepted for interface uniformity
/// but only its length is used.
pub fn sum_of_ipcs(ipc_shared: &[f64], ipc_alone: &[f64]) -> Result<f64, ModelError> {
    check_pairs(ipc_shared, ipc_alone)?;
    Ok(ipc_shared.iter().sum())
}

/// Minimum fairness (Eq. 14): `N × min_i speedup_i`. Values ≥ 1 mean the
/// system achieves minimum fairness (every app retains ≥ 1/N of its alone
/// performance).
pub fn min_fairness(ipc_shared: &[f64], ipc_alone: &[f64]) -> Result<f64, ModelError> {
    check_pairs(ipc_shared, ipc_alone)?;
    let n = ipc_shared.len() as f64;
    let min = ipc_shared
        .iter()
        .zip(ipc_alone)
        .map(|(&s, &a)| s / a)
        .fold(f64::INFINITY, f64::min);
    Ok(n * min)
}

/// Maximum slowdown, the reciprocal view of minimum fairness (the paper
/// notes the equivalence to the metric of Gabor et al.). Returns
/// `max_i (IPC_alone,i / IPC_shared,i)`, or `+inf` if an app starved.
pub fn max_slowdown(ipc_shared: &[f64], ipc_alone: &[f64]) -> Result<f64, ModelError> {
    check_pairs(ipc_shared, ipc_alone)?;
    Ok(ipc_shared
        .iter()
        .zip(ipc_alone)
        .map(|(&s, &a)| if s > 0.0 { a / s } else { f64::INFINITY })
        .fold(0.0, f64::max))
}

/// Evaluate one [`Metric`] on `(IPC_shared, IPC_alone)` vectors.
pub fn evaluate(metric: Metric, ipc_shared: &[f64], ipc_alone: &[f64]) -> Result<f64, ModelError> {
    match metric {
        Metric::HarmonicWeightedSpeedup => harmonic_weighted_speedup(ipc_shared, ipc_alone),
        Metric::WeightedSpeedup => weighted_speedup(ipc_shared, ipc_alone),
        Metric::SumOfIpcs => sum_of_ipcs(ipc_shared, ipc_alone),
        Metric::MinFairness => min_fairness(ipc_shared, ipc_alone),
    }
}

#[cfg(test)]
// exact float equality is intentional: these check pass-through/zero paths
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    const SHARED: [f64; 4] = [0.5, 0.4, 0.8, 1.0];
    const ALONE: [f64; 4] = [1.0, 0.8, 1.0, 1.25];

    #[test]
    fn speedup_vector() {
        let s = speedups(&SHARED, &ALONE).unwrap();
        assert_eq!(s, vec![0.5, 0.5, 0.8, 0.8]);
    }

    #[test]
    fn hsp_is_harmonic_mean_of_speedups() {
        let hsp = harmonic_weighted_speedup(&SHARED, &ALONE).unwrap();
        // harmonic mean of [0.5, 0.5, 0.8, 0.8] = 4 / (2 + 2 + 1.25 + 1.25)
        assert!((hsp - 4.0 / 6.5).abs() < 1e-12);
    }

    #[test]
    fn wsp_is_arithmetic_mean_of_speedups() {
        let wsp = weighted_speedup(&SHARED, &ALONE).unwrap();
        assert!((wsp - 0.65).abs() < 1e-12);
    }

    #[test]
    fn ipcsum_ignores_alone() {
        let s = sum_of_ipcs(&SHARED, &ALONE).unwrap();
        assert!((s - 2.7).abs() < 1e-12);
    }

    #[test]
    fn min_fairness_scales_min_speedup() {
        let mf = min_fairness(&SHARED, &ALONE).unwrap();
        assert!((mf - 4.0 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn max_slowdown_is_reciprocal_of_min_speedup() {
        let ms = max_slowdown(&SHARED, &ALONE).unwrap();
        assert!((ms - 2.0).abs() < 1e-12);
    }

    #[test]
    fn equal_speedups_make_all_means_agree() {
        // When all speedups are identical, Hsp == Wsp == speedup and
        // MinF == N × speedup.
        let shared = [0.3, 0.6, 0.15];
        let alone = [0.5, 1.0, 0.25];
        let hsp = harmonic_weighted_speedup(&shared, &alone).unwrap();
        let wsp = weighted_speedup(&shared, &alone).unwrap();
        let mf = min_fairness(&shared, &alone).unwrap();
        assert!((hsp - 0.6).abs() < 1e-12);
        assert!((wsp - 0.6).abs() < 1e-12);
        assert!((mf - 1.8).abs() < 1e-12);
    }

    #[test]
    fn starved_app_zeroes_hsp_and_minf() {
        let shared = [0.0, 1.0];
        let alone = [1.0, 1.0];
        assert_eq!(harmonic_weighted_speedup(&shared, &alone).unwrap(), 0.0);
        assert_eq!(min_fairness(&shared, &alone).unwrap(), 0.0);
        assert_eq!(max_slowdown(&shared, &alone).unwrap(), f64::INFINITY);
        // ...but the throughput metrics survive.
        assert_eq!(weighted_speedup(&shared, &alone).unwrap(), 0.5);
        assert_eq!(sum_of_ipcs(&shared, &alone).unwrap(), 1.0);
    }

    #[test]
    fn errors_on_bad_shapes() {
        assert!(matches!(
            harmonic_weighted_speedup(&[], &[]),
            Err(ModelError::NoApplications)
        ));
        assert!(matches!(
            weighted_speedup(&[1.0], &[1.0, 2.0]),
            Err(ModelError::LengthMismatch { .. })
        ));
        assert!(min_fairness(&[1.0], &[0.0]).is_err());
        assert!(sum_of_ipcs(&[-1.0], &[1.0]).is_err());
        assert!(sum_of_ipcs(&[f64::NAN], &[1.0]).is_err());
    }

    #[test]
    fn dispatch_matches_direct_calls() {
        for m in Metric::ALL {
            let via_dispatch = evaluate(m, &SHARED, &ALONE).unwrap();
            let direct = match m {
                Metric::HarmonicWeightedSpeedup => {
                    harmonic_weighted_speedup(&SHARED, &ALONE).unwrap()
                }
                Metric::WeightedSpeedup => weighted_speedup(&SHARED, &ALONE).unwrap(),
                Metric::SumOfIpcs => sum_of_ipcs(&SHARED, &ALONE).unwrap(),
                Metric::MinFairness => min_fairness(&SHARED, &ALONE).unwrap(),
            };
            assert_eq!(via_dispatch, direct);
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Metric::HarmonicWeightedSpeedup.label(), "Hsp");
        assert_eq!(Metric::WeightedSpeedup.to_string(), "Wsp");
        assert_eq!(Metric::MinFairness.optimal_scheme_name(), "Proportional");
        assert_eq!(Metric::SumOfIpcs.optimal_scheme_name(), "Priority_API");
    }

    /// Hsp ≤ Wsp always (harmonic mean ≤ arithmetic mean).
    #[test]
    fn hsp_never_exceeds_wsp() {
        let cases: [(&[f64], &[f64]); 3] = [
            (&SHARED, &ALONE),
            (&[0.1, 0.9, 0.5], &[1.0, 1.0, 1.0]),
            (&[2.0, 2.0], &[2.0, 2.0]),
        ];
        for (s, a) in cases {
            let h = harmonic_weighted_speedup(s, a).unwrap();
            let w = weighted_speedup(s, a).unwrap();
            assert!(h <= w + 1e-12, "Hsp {h} > Wsp {w}");
        }
    }
}
