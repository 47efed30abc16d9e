//! The bandwidth-partitioning schemes of Section V-D.
//!
//! A scheme maps application profiles to a share vector `β` (fractions of
//! the total utilized bandwidth `B`, summing to 1) or — for the two strict
//! priority schemes — to a greedy *allocation* in APC units.
//!
//! Two physical caps apply to every allocation:
//!
//! 1. shares are non-negative and sum to `B` (Eq. 2), and
//! 2. no application can consume more bandwidth than it does running alone:
//!    `APC_shared,i ≤ APC_alone,i` (Section III-D).
//!
//! The power-family schemes (`Equal`, `Proportional`, `SquareRoot`,
//! `TwoThirdsPower`, and the generalized `Power(α)`) are defined by
//! `β_i ∝ APC_alone,i^α`; when a raw share would exceed an application's
//! standalone rate, the surplus is redistributed to the remaining
//! applications by water-filling (this only matters when `B` approaches the
//! sum of standalone rates; the paper implicitly assumes it does not).

use serde::{Deserialize, Serialize};

use crate::app::AppProfile;
use crate::error::ModelError;
use crate::solver;

/// A bandwidth-partitioning scheme.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PartitionScheme {
    /// No enforced partitioning: the memory controller serves requests
    /// first-come-first-served and shares emerge from demand. This scheme
    /// has no analytic share vector; it exists as the experimental baseline.
    NoPartitioning,
    /// `β_i = 1/N` — Nesbit et al.'s fair-queueing split (power family α=0).
    Equal,
    /// `β_i ∝ APC_alone,i` — optimal for minimum fairness (α=1).
    Proportional,
    /// `β_i ∝ √APC_alone,i` — optimal for harmonic weighted speedup (α=1/2).
    SquareRoot,
    /// `β_i ∝ APC_alone,i^(2/3)` — Liu et al.'s queueing-model optimum for
    /// weighted speedup, included as the prior state of the art (α=2/3).
    TwoThirdsPower,
    /// Generalized power-family scheme `β_i ∝ APC_alone,i^α`.
    Power(f64),
    /// Strict priority to applications with low `APC_alone` — the fractional
    /// knapsack solution maximizing weighted speedup.
    PriorityApc,
    /// Strict priority to applications with low `API` — the fractional
    /// knapsack solution maximizing sum of IPCs.
    PriorityApi,
    /// Coordinated multi-resource partitioning: alternating descent over
    /// (bandwidth shares × LLC way allocations). It has no bandwidth-only
    /// analytic rule — the solve needs cache-aware profiles and lives in
    /// [`crate::coord::solve_coordinated`].
    Coordinated,
}

impl PartitionScheme {
    /// Every concrete scheme the paper evaluates, in its Figure 2 order.
    pub const PAPER_SCHEMES: [PartitionScheme; 7] = [
        PartitionScheme::NoPartitioning,
        PartitionScheme::Equal,
        PartitionScheme::Proportional,
        PartitionScheme::SquareRoot,
        PartitionScheme::TwoThirdsPower,
        PartitionScheme::PriorityApc,
        PartitionScheme::PriorityApi,
    ];

    /// The six *enforced* schemes compared against `NoPartitioning` in
    /// Figure 2.
    pub const ENFORCED_SCHEMES: [PartitionScheme; 6] = [
        PartitionScheme::Equal,
        PartitionScheme::Proportional,
        PartitionScheme::SquareRoot,
        PartitionScheme::TwoThirdsPower,
        PartitionScheme::PriorityApc,
        PartitionScheme::PriorityApi,
    ];

    /// The paper's name for the scheme, as printed in its tables and
    /// figures. Machine-facing surfaces (CLI flags, the `bwpartd` wire
    /// protocol) use [`PartitionScheme::canonical_name`] instead.
    pub fn name(self) -> String {
        match self {
            PartitionScheme::NoPartitioning => "No_partitioning".into(),
            PartitionScheme::Equal => "Equal".into(),
            PartitionScheme::Proportional => "Proportional".into(),
            PartitionScheme::SquareRoot => "Square_root".into(),
            PartitionScheme::TwoThirdsPower => "2/3_power".into(),
            PartitionScheme::Power(a) => format!("Power({a})"),
            PartitionScheme::PriorityApc => "Priority_APC".into(),
            PartitionScheme::PriorityApi => "Priority_API".into(),
            PartitionScheme::Coordinated => "Coordinated".into(),
        }
    }

    /// The canonical machine-facing name: kebab-case, stable, and the
    /// inverse of [`str::parse::<PartitionScheme>`]. This is the single
    /// spelling every external surface (CLI, wire protocol, JSON reports)
    /// agrees on; the paper spellings from [`PartitionScheme::name`] are
    /// accepted as parse aliases but never emitted.
    pub fn canonical_name(self) -> String {
        match self {
            PartitionScheme::NoPartitioning => "no-partitioning".into(),
            PartitionScheme::Equal => "equal".into(),
            PartitionScheme::Proportional => "proportional".into(),
            PartitionScheme::SquareRoot => "square-root".into(),
            PartitionScheme::TwoThirdsPower => "two-thirds-power".into(),
            PartitionScheme::Power(a) => format!("power:{a}"),
            PartitionScheme::PriorityApc => "priority-apc".into(),
            PartitionScheme::PriorityApi => "priority-api".into(),
            PartitionScheme::Coordinated => "coordinated".into(),
        }
    }

    /// The power-family exponent α for schemes of the form
    /// `β_i ∝ APC_alone,i^α`, or `None` for priority/no-partitioning.
    pub fn power_exponent(self) -> Option<f64> {
        match self {
            PartitionScheme::Equal => Some(0.0),
            PartitionScheme::Proportional => Some(1.0),
            PartitionScheme::SquareRoot => Some(0.5),
            PartitionScheme::TwoThirdsPower => Some(2.0 / 3.0),
            PartitionScheme::Power(a) => Some(a),
            PartitionScheme::NoPartitioning
            | PartitionScheme::PriorityApc
            | PartitionScheme::PriorityApi
            | PartitionScheme::Coordinated => None,
        }
    }

    /// True for the strict-priority (knapsack-greedy) schemes, whose
    /// allocation depends on `B` rather than being a fixed fraction.
    pub fn is_priority(self) -> bool {
        matches!(
            self,
            PartitionScheme::PriorityApc | PartitionScheme::PriorityApi
        )
    }

    /// The bandwidth allocation in APC units for each application under this
    /// scheme, respecting both Eq. 2 (`Σ = min(B, Σ APC_alone)`) and the
    /// per-application standalone caps.
    ///
    /// Errors for [`PartitionScheme::NoPartitioning`], which has no analytic
    /// allocation — use the simulator's FCFS baseline instead.
    pub fn allocation(self, apps: &[AppProfile], b: f64) -> Result<Vec<f64>, ModelError> {
        if apps.is_empty() {
            return Err(ModelError::NoApplications);
        }
        if !(b.is_finite() && b > 0.0) {
            return Err(ModelError::InvalidInput {
                what: "total_bandwidth",
                value: b,
            });
        }
        let caps: Vec<f64> = apps.iter().map(|a| a.apc_alone).collect();
        let alloc = match self {
            PartitionScheme::NoPartitioning => {
                return Err(ModelError::InvalidInput {
                    what: "scheme (No_partitioning has no analytic allocation)",
                    value: f64::NAN,
                })
            }
            PartitionScheme::Coordinated => return Err(ModelError::InvalidInput {
                what:
                    "scheme (Coordinated needs cache-aware profiles; use coord::solve_coordinated)",
                value: f64::NAN,
            }),
            PartitionScheme::PriorityApc => {
                let keys: Vec<f64> = apps.iter().map(|a| a.apc_alone).collect();
                solver::knapsack_greedy(&keys, &caps, b)
            }
            PartitionScheme::PriorityApi => {
                let keys: Vec<f64> = apps.iter().map(|a| a.api).collect();
                solver::knapsack_greedy(&keys, &caps, b)
            }
            PartitionScheme::Equal
            | PartitionScheme::Proportional
            | PartitionScheme::SquareRoot
            | PartitionScheme::TwoThirdsPower
            | PartitionScheme::Power(_) => solver::water_fill(&self.power_weights(apps)?, &caps, b),
        };
        crate::ensures_capped!(alloc, caps);
        Ok(alloc)
    }

    /// The *nominal* share vector `β` (fractions summing to 1). This is
    /// what the enforcement mechanism (start-time-fair scheduling) consumes:
    /// an application that cannot use its nominal share simply leaves the
    /// scheduler work-conserving, so standalone caps need not be applied
    /// here. For the power family this is the pure
    /// `APC_alone^α / Σ APC_alone^α` rule; for the priority schemes the
    /// share is the (bandwidth-dependent) greedy allocation normalized.
    pub fn shares(self, apps: &[AppProfile], b: f64) -> Result<Vec<f64>, ModelError> {
        if apps.is_empty() {
            return Err(ModelError::NoApplications);
        }
        if self.power_exponent().is_some() {
            let weights = self.power_weights(apps)?;
            let sum: f64 = weights.iter().sum();
            let beta: Vec<f64> = weights.iter().map(|&w| w / sum).collect();
            crate::ensures_simplex!(beta);
            return Ok(beta);
        }
        let alloc = self.allocation(apps, b)?;
        let total: f64 = alloc.iter().sum();
        crate::invariant!(
            total > 0.0,
            "priority allocation must grant positive bandwidth"
        );
        let beta: Vec<f64> = alloc.iter().map(|&a| a / total).collect();
        crate::ensures_simplex!(beta);
        Ok(beta)
    }

    /// The power-family weights `APC_alone,i^α` that [`allocation`],
    /// [`shares`] and the LLC-way apportionment all split by.
    ///
    /// Errors with [`ModelError::InvalidInput`] for a scheme outside the
    /// power family, a non-finite `α`, and an exponent the profiles
    /// cannot carry: a weight that overflows, or every weight zero.
    ///
    /// [`allocation`]: PartitionScheme::allocation
    /// [`shares`]: PartitionScheme::shares
    // lint: allow(A2): raw weights, not shares — every caller normalises and certifies
    pub(crate) fn power_weights(self, apps: &[AppProfile]) -> Result<Vec<f64>, ModelError> {
        let Some(alpha) = self.power_exponent() else {
            return Err(ModelError::InvalidInput {
                what: "scheme (expected a power-family scheme)",
                value: f64::NAN,
            });
        };
        if !alpha.is_finite() {
            return Err(ModelError::InvalidInput {
                what: "power exponent",
                value: alpha,
            });
        }
        let weights: Vec<f64> = apps.iter().map(|a| a.apc_alone.powf(alpha)).collect();
        let sum: f64 = weights.iter().sum();
        if !(sum.is_finite() && sum > 0.0) {
            return Err(ModelError::InvalidInput {
                what: "power exponent (APC_alone^alpha overflows or underflows)",
                value: alpha,
            });
        }
        Ok(weights)
    }
}

impl std::fmt::Display for PartitionScheme {
    /// Displays the canonical kebab-case name (see
    /// [`PartitionScheme::canonical_name`]); paper-table rendering goes
    /// through [`PartitionScheme::name`] explicitly.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.canonical_name())
    }
}

impl std::str::FromStr for PartitionScheme {
    type Err = ModelError;

    /// Parse a scheme name. Canonical spellings are kebab-case
    /// (`square-root`, `priority-apc`, `power:<alpha>`); the paper's
    /// spellings (`Square_root`, `2/3_power`, `Priority_APC`, ...) and a
    /// few common shorthands (`sqrt`, `prop`, `none`) are accepted as
    /// aliases. Matching is case-insensitive and treats `_` as `-`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm: String = s.trim().to_ascii_lowercase().replace('_', "-");
        if let Some(alpha) = norm.strip_prefix("power:") {
            let a: f64 = alpha
                .parse()
                .map_err(|_| ModelError::UnknownScheme { name: s.into() })?;
            if !a.is_finite() {
                return Err(ModelError::InvalidInput {
                    what: "power exponent",
                    value: a,
                });
            }
            return Ok(PartitionScheme::Power(a));
        }
        match norm.as_str() {
            "no-partitioning" | "none" | "fcfs" => Ok(PartitionScheme::NoPartitioning),
            "equal" => Ok(PartitionScheme::Equal),
            "proportional" | "prop" => Ok(PartitionScheme::Proportional),
            "square-root" | "sqrt" => Ok(PartitionScheme::SquareRoot),
            "two-thirds-power" | "2/3-power" => Ok(PartitionScheme::TwoThirdsPower),
            "priority-apc" => Ok(PartitionScheme::PriorityApc),
            "priority-api" => Ok(PartitionScheme::PriorityApi),
            "coordinated" | "coord" => Ok(PartitionScheme::Coordinated),
            _ => Err(ModelError::UnknownScheme { name: s.into() }),
        }
    }
}

/// A fully solved partitioning, in a shape that serializes cleanly across
/// process boundaries (the `bwpartd` wire protocol, JSON reports).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SharesOutcome {
    /// Canonical scheme name ([`PartitionScheme::canonical_name`]).
    pub scheme: String,
    /// Total utilized bandwidth `B` the solve used (APC).
    pub bandwidth: f64,
    /// Nominal share vector `β` (sums to 1).
    pub beta: Vec<f64>,
    /// Bandwidth allocation in APC units, standalone-capped.
    pub allocation: Vec<f64>,
}

impl PartitionScheme {
    /// Solve shares and allocation together into a serializable
    /// [`SharesOutcome`] — the form the online service hands to clients.
    pub fn solve(self, apps: &[AppProfile], b: f64) -> Result<SharesOutcome, ModelError> {
        let beta = self.shares(apps, b)?;
        let allocation = self.allocation(apps, b)?;
        Ok(SharesOutcome {
            scheme: self.canonical_name(),
            bandwidth: b,
            beta,
            allocation,
        })
    }
}

/// Validate that `beta` is a share vector for `n` applications: correct
/// length, entries in `[0, 1]`, summing to 1 (±1e-9).
pub fn validate_shares(beta: &[f64], n: usize) -> Result<(), ModelError> {
    if beta.len() != n {
        return Err(ModelError::LengthMismatch {
            expected: n,
            got: beta.len(),
        });
    }
    for &b in beta {
        if !(b.is_finite() && (0.0..=1.0 + 1e-12).contains(&b)) {
            return Err(ModelError::InvalidInput {
                what: "share",
                value: b,
            });
        }
    }
    let sum: f64 = beta.iter().sum();
    if (sum - 1.0).abs() > 1e-9 {
        return Err(ModelError::InvalidShares { sum });
    }
    Ok(())
}

#[cfg(test)]
// exact float equality is intentional: these check pass-through/zero paths
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn four_apps() -> Vec<AppProfile> {
        vec![
            AppProfile::new("libquantum", 0.0341188, 0.00691693).unwrap(),
            AppProfile::new("milc", 0.0422216, 0.00687143).unwrap(),
            AppProfile::new("gromacs", 0.0051976, 0.00336604).unwrap(),
            AppProfile::new("gobmk", 0.0040668, 0.00191485).unwrap(),
        ]
    }

    const B: f64 = 0.01; // DDR2-400 at 5 GHz, 64 B lines

    #[test]
    fn equal_shares_are_uniform() {
        let beta = PartitionScheme::Equal.shares(&four_apps(), B).unwrap();
        for b in &beta {
            assert!((b - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn proportional_ratios_match_apc_alone() {
        let apps = four_apps();
        let beta = PartitionScheme::Proportional.shares(&apps, B).unwrap();
        // β_i / β_j == APC_alone,i / APC_alone,j
        for i in 0..apps.len() {
            for j in 0..apps.len() {
                let lhs = beta[i] / beta[j];
                let rhs = apps[i].apc_alone / apps[j].apc_alone;
                assert!((lhs - rhs).abs() < 1e-9, "({i},{j}): {lhs} vs {rhs}");
            }
        }
    }

    #[test]
    fn sqrt_ratios_match_sqrt_apc_alone() {
        let apps = four_apps();
        let beta = PartitionScheme::SquareRoot.shares(&apps, B).unwrap();
        for i in 0..apps.len() {
            for j in 0..apps.len() {
                let lhs = beta[i] / beta[j];
                let rhs = (apps[i].apc_alone / apps[j].apc_alone).sqrt();
                assert!((lhs - rhs).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn two_thirds_sits_between_sqrt_and_proportional() {
        let apps = four_apps();
        let sqrt = PartitionScheme::SquareRoot.shares(&apps, B).unwrap();
        let twothirds = PartitionScheme::TwoThirdsPower.shares(&apps, B).unwrap();
        let prop = PartitionScheme::Proportional.shares(&apps, B).unwrap();
        // For the most memory-intensive app the share grows with α;
        // for the least intensive it shrinks.
        assert!(sqrt[0] < twothirds[0] && twothirds[0] < prop[0]);
        assert!(sqrt[3] > twothirds[3] && twothirds[3] > prop[3]);
    }

    #[test]
    fn priority_apc_fills_low_apc_first() {
        let apps = four_apps();
        let alloc = PartitionScheme::PriorityApc.allocation(&apps, B).unwrap();
        // gobmk (lowest APC_alone) and gromacs are fully satisfied.
        assert!((alloc[3] - apps[3].apc_alone).abs() < 1e-12);
        assert!((alloc[2] - apps[2].apc_alone).abs() < 1e-12);
        // The rest of B flows to libquantum/milc in APC order (milc lower).
        let rest = B - alloc[2] - alloc[3];
        assert!((alloc[1] - rest.min(apps[1].apc_alone)).abs() < 1e-12);
        assert!((alloc.iter().sum::<f64>() - B).abs() < 1e-12);
    }

    #[test]
    fn priority_api_orders_by_api() {
        let apps = four_apps();
        let alloc = PartitionScheme::PriorityApi.allocation(&apps, B).unwrap();
        // gobmk has lowest API, then gromacs, libquantum, milc.
        assert!((alloc[3] - apps[3].apc_alone).abs() < 1e-12);
        assert!((alloc[2] - apps[2].apc_alone).abs() < 1e-12);
        assert!(alloc[0] >= alloc[1]); // libquantum before milc
    }

    #[test]
    fn priority_schemes_starve_heavy_apps_when_b_small() {
        let apps = four_apps();
        let b = 0.004; // scarce bandwidth
        let alloc = PartitionScheme::PriorityApc.allocation(&apps, b).unwrap();
        // Low-APC apps soak up everything; the heaviest gets nothing.
        assert_eq!(alloc[0], 0.0);
        assert!((alloc.iter().sum::<f64>() - b).abs() < 1e-12);
    }

    #[test]
    fn all_schemes_yield_valid_shares() {
        let apps = four_apps();
        for scheme in PartitionScheme::ENFORCED_SCHEMES {
            let beta = scheme.shares(&apps, B).unwrap();
            validate_shares(&beta, apps.len()).unwrap_or_else(|e| panic!("{scheme}: {e}"));
        }
    }

    #[test]
    fn no_partitioning_has_no_allocation() {
        assert!(PartitionScheme::NoPartitioning
            .allocation(&four_apps(), B)
            .is_err());
    }

    #[test]
    fn coordinated_has_no_bandwidth_only_allocation() {
        // The coordinated scheme needs cache-aware profiles; its bare
        // bandwidth solve errors (see `coord::solve_coordinated`).
        assert!(PartitionScheme::Coordinated
            .allocation(&four_apps(), B)
            .is_err());
        assert!(PartitionScheme::Coordinated
            .shares(&four_apps(), B)
            .is_err());
        assert_eq!(PartitionScheme::Coordinated.power_exponent(), None);
    }

    #[test]
    fn coordinated_names_round_trip() {
        assert_eq!(PartitionScheme::Coordinated.to_string(), "coordinated");
        assert_eq!(PartitionScheme::Coordinated.name(), "Coordinated");
        for alias in ["coordinated", "coord", "Coordinated", " COORD "] {
            assert_eq!(
                alias.parse::<PartitionScheme>().unwrap(),
                PartitionScheme::Coordinated,
                "{alias}"
            );
        }
    }

    #[test]
    fn allocation_respects_caps_when_b_large() {
        let apps = four_apps();
        let total_demand: f64 = apps.iter().map(|a| a.apc_alone).sum();
        let b = total_demand * 2.0; // more bandwidth than anyone can use
        for scheme in PartitionScheme::ENFORCED_SCHEMES {
            let alloc = scheme.allocation(&apps, b).unwrap();
            for (a, app) in alloc.iter().zip(&apps) {
                assert!(
                    *a <= app.apc_alone + 1e-12,
                    "{scheme}: {a} > cap {}",
                    app.apc_alone
                );
            }
            // Everyone is fully satisfied.
            assert!((alloc.iter().sum::<f64>() - total_demand).abs() < 1e-9);
        }
    }

    #[test]
    fn power_family_exponents() {
        assert_eq!(PartitionScheme::Equal.power_exponent(), Some(0.0));
        assert_eq!(PartitionScheme::SquareRoot.power_exponent(), Some(0.5));
        assert_eq!(PartitionScheme::Proportional.power_exponent(), Some(1.0));
        assert_eq!(PartitionScheme::PriorityApc.power_exponent(), None);
        let p = PartitionScheme::Power(0.8);
        assert_eq!(p.power_exponent(), Some(0.8));
    }

    #[test]
    fn generalized_power_interpolates() {
        let apps = four_apps();
        let p05 = PartitionScheme::Power(0.5).shares(&apps, B).unwrap();
        let sqrt = PartitionScheme::SquareRoot.shares(&apps, B).unwrap();
        for (a, b) in p05.iter().zip(&sqrt) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn validate_shares_rejects_bad_vectors() {
        assert!(validate_shares(&[0.5, 0.5], 3).is_err());
        assert!(validate_shares(&[0.7, 0.7], 2).is_err());
        assert!(validate_shares(&[-0.1, 1.1], 2).is_err());
        assert!(validate_shares(&[f64::NAN, 1.0], 2).is_err());
        assert!(validate_shares(&[0.25; 4], 4).is_ok());
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(PartitionScheme::SquareRoot.name(), "Square_root");
        assert_eq!(PartitionScheme::TwoThirdsPower.name(), "2/3_power");
        assert_eq!(PartitionScheme::PriorityApc.name(), "Priority_APC");
    }

    #[test]
    fn display_is_canonical_kebab_case() {
        assert_eq!(PartitionScheme::SquareRoot.to_string(), "square-root");
        assert_eq!(
            PartitionScheme::TwoThirdsPower.to_string(),
            "two-thirds-power"
        );
        assert_eq!(PartitionScheme::PriorityApc.to_string(), "priority-apc");
        assert_eq!(PartitionScheme::Power(0.8).to_string(), "power:0.8");
    }

    #[test]
    fn from_str_round_trips_canonical_names() {
        for scheme in PartitionScheme::PAPER_SCHEMES {
            let parsed: PartitionScheme = scheme.canonical_name().parse().unwrap();
            assert_eq!(parsed, scheme);
        }
        let p: PartitionScheme = PartitionScheme::Power(0.75).to_string().parse().unwrap();
        assert_eq!(p, PartitionScheme::Power(0.75));
    }

    #[test]
    fn from_str_accepts_paper_spellings_and_aliases() {
        for (alias, scheme) in [
            ("No_partitioning", PartitionScheme::NoPartitioning),
            ("Equal", PartitionScheme::Equal),
            ("Proportional", PartitionScheme::Proportional),
            ("Square_root", PartitionScheme::SquareRoot),
            ("2/3_power", PartitionScheme::TwoThirdsPower),
            ("Priority_APC", PartitionScheme::PriorityApc),
            ("Priority_API", PartitionScheme::PriorityApi),
            ("sqrt", PartitionScheme::SquareRoot),
            ("prop", PartitionScheme::Proportional),
            ("none", PartitionScheme::NoPartitioning),
            ("  square-root ", PartitionScheme::SquareRoot),
            ("SQUARE-ROOT", PartitionScheme::SquareRoot),
        ] {
            assert_eq!(alias.parse::<PartitionScheme>().unwrap(), scheme, "{alias}");
        }
    }

    #[test]
    fn from_str_rejects_unknown_and_bad_power() {
        assert!(matches!(
            "bogus".parse::<PartitionScheme>(),
            Err(ModelError::UnknownScheme { .. })
        ));
        assert!("power:x".parse::<PartitionScheme>().is_err());
        assert!("power:inf".parse::<PartitionScheme>().is_err());
        let msg = "bogus".parse::<PartitionScheme>().unwrap_err().to_string();
        assert!(msg.contains("unknown scheme"), "{msg}");
        assert!(msg.contains("bogus"), "{msg}");
    }

    #[test]
    fn solve_packages_shares_and_allocation() {
        let apps = four_apps();
        let out = PartitionScheme::SquareRoot.solve(&apps, B).unwrap();
        assert_eq!(out.scheme, "square-root");
        assert_eq!(
            out.beta,
            PartitionScheme::SquareRoot.shares(&apps, B).unwrap()
        );
        assert_eq!(
            out.allocation,
            PartitionScheme::SquareRoot.allocation(&apps, B).unwrap()
        );
        let json = serde_json::to_string(&out).unwrap();
        let back: SharesOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back, out);
    }

    #[test]
    fn subnormal_power_weights_keep_their_exact_shares() {
        // 0.05^240 ≈ 5.6e-313 and 0.048^240 ≈ 3.2e-317 are both subnormal.
        let apps = vec![
            AppProfile::new("a", 0.01, 0.05).unwrap(),
            AppProfile::new("b", 0.01, 0.048).unwrap(),
        ];
        let raw: Vec<f64> = apps.iter().map(|a| a.apc_alone.powf(240.0)).collect();
        assert!(raw.iter().all(|&w| w > 0.0 && w < f64::MIN_POSITIVE));
        let sum: f64 = raw.iter().sum();
        let want: Vec<f64> = raw.iter().map(|w| w / sum).collect();
        let out = PartitionScheme::Power(240.0).solve(&apps, 0.05).unwrap();
        assert_eq!(out.beta, want, "the plain ratios, bit for bit");
        assert!((out.allocation.iter().sum::<f64>() - 0.05).abs() < 1e-12);
    }
}
