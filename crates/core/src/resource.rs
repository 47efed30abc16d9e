//! Generic multi-resource partitioning: [`Resource`] descriptors and
//! certified [`Allocation`]s.
//!
//! The paper partitions a single resource — off-chip bandwidth — and every
//! share producer in this crate historically returned a bare `Vec<f64>` of
//! bandwidth fractions. Coordinated partitioning (CBP-style bandwidth +
//! shared-LLC ways, see [`crate::coord`]) needs the same machinery over *N*
//! resources, so this module factors the resource-independent parts out:
//!
//! * a [`Resource`] names the thing being divided and its capacity
//!   (bandwidth in APC, LLC ways in ways, prefetch slots later),
//! * an [`Allocation`] carries both absolute amounts and the normalized
//!   share simplex for one resource, certified on construction with the
//!   same [`ensures_simplex!`](crate::ensures_simplex)/
//!   [`ensures_capped!`](crate::ensures_capped) contracts the bandwidth
//!   path uses, and
//! * a [`MultiAllocation`] bundles one allocation per resource — the shape
//!   the coordinated solver returns and `bwpartd` publishes.
//!
//! The four paper schemes remain the single-resource special case: a
//! [`PartitionScheme`] solve over [`ResourceKind::Bandwidth`] reproduces
//! `PartitionScheme::solve` exactly, and the same power-family/priority
//! rules apportion integral LLC ways via largest-remainder rounding.

use serde::{Deserialize, Serialize};

use crate::app::AppProfile;
use crate::error::ModelError;
use crate::schemes::{PartitionScheme, SharesOutcome};

/// The kind of resource being partitioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResourceKind {
    /// Off-chip memory bandwidth, measured in accesses per cycle (APC).
    Bandwidth,
    /// Shared last-level-cache ways (integral, at least one per app).
    LlcWays,
}

impl ResourceKind {
    /// Every resource kind the model knows about.
    pub const ALL: [ResourceKind; 2] = [ResourceKind::Bandwidth, ResourceKind::LlcWays];

    /// Canonical machine-facing name (kebab-case, stable on the wire).
    pub fn canonical_name(self) -> &'static str {
        match self {
            ResourceKind::Bandwidth => "bandwidth",
            ResourceKind::LlcWays => "llc-ways",
        }
    }
}

impl std::fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.canonical_name())
    }
}

impl std::str::FromStr for ResourceKind {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm: String = s.trim().to_ascii_lowercase().replace('_', "-");
        match norm.as_str() {
            "bandwidth" | "bw" => Ok(ResourceKind::Bandwidth),
            "llc-ways" | "ways" | "cache-ways" => Ok(ResourceKind::LlcWays),
            _ => Err(ModelError::UnknownResource { name: s.into() }),
        }
    }
}

/// One partitionable resource: its kind, total capacity, and granularity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Resource {
    /// What is being divided.
    pub kind: ResourceKind,
    /// Total capacity in the resource's natural unit (APC for bandwidth,
    /// ways for the LLC).
    pub capacity: f64,
    /// Whether per-app amounts must be whole units (LLC ways are).
    pub integral: bool,
    /// Minimum per-app grant in natural units (1 way for the LLC; 0 for
    /// bandwidth, where the work-conserving scheduler handles starvation).
    pub min_unit: f64,
}

impl Resource {
    /// The off-chip bandwidth resource with total utilized bandwidth `b`.
    pub fn bandwidth(b: f64) -> Self {
        Resource {
            kind: ResourceKind::Bandwidth,
            capacity: b,
            integral: false,
            min_unit: 0.0,
        }
    }

    /// A shared LLC with `total_ways` ways, at least one per application.
    pub fn llc_ways(total_ways: usize) -> Self {
        Resource {
            kind: ResourceKind::LlcWays,
            capacity: total_ways as f64,
            integral: true,
            min_unit: 1.0,
        }
    }

    /// Check that the descriptor is well-formed.
    pub fn validate(&self) -> Result<(), ModelError> {
        if !(self.capacity.is_finite() && self.capacity > 0.0) {
            return Err(ModelError::InvalidInput {
                what: "resource capacity",
                value: self.capacity,
            });
        }
        if !(self.min_unit.is_finite() && self.min_unit >= 0.0) {
            return Err(ModelError::InvalidInput {
                what: "resource min_unit",
                value: self.min_unit,
            });
        }
        Ok(())
    }
}

/// A certified division of one resource among `n` applications.
///
/// Constructed only through [`Allocation::certified`], which runs the same
/// debug-mode contracts the bandwidth solvers use: the share vector lies on
/// the unit simplex and the absolute amounts respect per-app caps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    /// The resource being divided.
    pub kind: ResourceKind,
    /// Total capacity the division was solved against.
    pub capacity: f64,
    /// Absolute per-app amounts in the resource's natural unit.
    pub amounts: Vec<f64>,
    /// Normalized shares (amounts over the granted total; sums to 1).
    pub shares: Vec<f64>,
}

impl Allocation {
    /// Build and certify an allocation: `amounts` must be non-negative and
    /// elementwise within `caps`, and the derived share vector must lie on
    /// the unit simplex. Certification uses the debug-mode contracts
    /// ([`ensures_simplex!`](crate::ensures_simplex),
    /// [`ensures_capped!`](crate::ensures_capped)); release builds get the
    /// always-on [`validate_allocation`] checks.
    pub fn certified(
        resource: &Resource,
        amounts: Vec<f64>,
        caps: &[f64],
    ) -> Result<Self, ModelError> {
        resource.validate()?;
        if amounts.is_empty() {
            return Err(ModelError::NoApplications);
        }
        if caps.len() != amounts.len() {
            return Err(ModelError::LengthMismatch {
                expected: amounts.len(),
                got: caps.len(),
            });
        }
        let granted: f64 = amounts.iter().sum();
        if !(granted.is_finite() && granted > 0.0) {
            return Err(ModelError::InvalidInput {
                what: "granted resource total",
                value: granted,
            });
        }
        let shares: Vec<f64> = amounts.iter().map(|&a| a / granted).collect();
        let alloc = Allocation {
            kind: resource.kind,
            capacity: resource.capacity,
            amounts,
            shares,
        };
        crate::ensures_simplex!(alloc.shares);
        crate::ensures_capped!(alloc.amounts, caps);
        validate_allocation(&alloc, resource, alloc.amounts.len())?;
        Ok(alloc)
    }

    /// Number of applications this allocation covers.
    pub fn len(&self) -> usize {
        self.amounts.len()
    }

    /// True when the allocation covers no applications (unreachable through
    /// [`Allocation::certified`], provided for completeness).
    pub fn is_empty(&self) -> bool {
        self.amounts.is_empty()
    }
}

/// Always-on validation of an [`Allocation`] against its [`Resource`] — the
/// release-build counterpart of the debug contracts, used by `bwpartd`
/// admission. Checks length, finiteness, non-negativity, capacity,
/// integrality and minimum grants (for integral resources), and that the
/// share vector sums to 1.
pub fn validate_allocation(
    alloc: &Allocation,
    resource: &Resource,
    n: usize,
) -> Result<(), ModelError> {
    if alloc.amounts.len() != n {
        return Err(ModelError::LengthMismatch {
            expected: n,
            got: alloc.amounts.len(),
        });
    }
    if alloc.shares.len() != n {
        return Err(ModelError::LengthMismatch {
            expected: n,
            got: alloc.shares.len(),
        });
    }
    for &a in &alloc.amounts {
        if !(a.is_finite() && a >= 0.0) {
            return Err(ModelError::InvalidInput {
                what: "allocation amount",
                value: a,
            });
        }
        if resource.integral && a.fract().abs() > 1e-9 {
            return Err(ModelError::InvalidInput {
                what: "integral allocation amount",
                value: a,
            });
        }
        if a > 0.0 && a < resource.min_unit - 1e-9 {
            return Err(ModelError::InvalidInput {
                what: "allocation below resource min_unit",
                value: a,
            });
        }
    }
    let total: f64 = alloc.amounts.iter().sum();
    if total > resource.capacity + 1e-9 {
        return Err(ModelError::InvalidInput {
            what: "allocation exceeds resource capacity",
            value: total,
        });
    }
    let sum: f64 = alloc.shares.iter().sum();
    if (sum - 1.0).abs() > 1e-9 {
        return Err(ModelError::InvalidShares { sum });
    }
    Ok(())
}

/// One certified allocation per resource — the coordinated solver's output
/// shape and the `bwpartd` publication unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiAllocation {
    /// Per-resource allocations (one entry per [`ResourceKind`] in play).
    pub per_resource: Vec<Allocation>,
}

impl MultiAllocation {
    /// Look up the allocation for one resource kind.
    pub fn get(&self, kind: ResourceKind) -> Option<&Allocation> {
        self.per_resource.iter().find(|a| a.kind == kind)
    }

    /// Validate that every resource covers the same `n` applications.
    pub fn validate_app_count(&self, n: usize) -> Result<(), ModelError> {
        for a in &self.per_resource {
            if a.amounts.len() != n {
                return Err(ModelError::LengthMismatch {
                    expected: n,
                    got: a.amounts.len(),
                });
            }
        }
        Ok(())
    }
}

/// Apportion `resource.capacity` integral units to weights by the
/// largest-remainder method, honouring a `min_unit` floor per recipient.
/// Deterministic: remainder ties break by index.
fn apportion_integral(weights: &[f64], total: usize, min_each: usize) -> Vec<usize> {
    let n = weights.len();
    debug_assert!(total >= n * min_each);
    let free = total - n * min_each;
    let wsum: f64 = weights.iter().sum();
    let mut grants = vec![min_each; n];
    if free == 0 {
        return grants;
    }
    if wsum <= 0.0 {
        // Degenerate weights: spread the free units round-robin.
        for (i, g) in grants.iter_mut().enumerate() {
            *g += free / n + usize::from(i < free % n);
        }
        return grants;
    }
    let ideal: Vec<f64> = weights
        .iter()
        .map(|&w| {
            // `free × w` overflows for a weight near f64::MAX; the ratio
            // first cannot.
            let x = free as f64 * w / wsum;
            if x.is_finite() {
                x
            } else {
                free as f64 * (w / wsum)
            }
        })
        .collect();
    let mut assigned = 0usize;
    let mut rema: Vec<(usize, f64)> = Vec::with_capacity(n);
    for (i, &x) in ideal.iter().enumerate() {
        let floor = x.floor() as usize;
        grants[i] += floor;
        assigned += floor;
        rema.push((i, x - x.floor()));
    }
    rema.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    for &(i, _) in rema.iter().take(free - assigned) {
        grants[i] += 1;
    }
    grants
}

impl PartitionScheme {
    /// Solve this scheme over an arbitrary [`Resource`] — the N-resource
    /// generalization of [`PartitionScheme::allocation`]. For
    /// [`ResourceKind::Bandwidth`] this reproduces the paper's solve
    /// exactly; for [`ResourceKind::LlcWays`] the same power-family /
    /// priority rules apportion integral ways by largest remainder with a
    /// one-way floor. Errors for `NoPartitioning` and `Coordinated`, which
    /// have no per-resource analytic rule (the coordinated solve lives in
    /// [`crate::coord`]).
    pub fn solve_resource(
        self,
        apps: &[AppProfile],
        resource: &Resource,
    ) -> Result<Allocation, ModelError> {
        resource.validate()?;
        if apps.is_empty() {
            return Err(ModelError::NoApplications);
        }
        match resource.kind {
            ResourceKind::Bandwidth => {
                let amounts = self.allocation(apps, resource.capacity)?;
                let caps: Vec<f64> = apps.iter().map(|a| a.apc_alone).collect();
                Allocation::certified(resource, amounts, &caps)
            }
            ResourceKind::LlcWays => {
                let total = resource.capacity as usize;
                if total < apps.len() {
                    return Err(ModelError::InvalidInput {
                        what: "llc-ways capacity below one way per app",
                        value: resource.capacity,
                    });
                }
                let weights: Vec<f64> = match self {
                    PartitionScheme::NoPartitioning | PartitionScheme::Coordinated => {
                        return Err(ModelError::InvalidInput {
                            what: "scheme (no per-resource analytic rule)",
                            value: f64::NAN,
                        })
                    }
                    // Priority schemes: all free ways to the best key
                    // (ascending APC_alone / API), one-way floor elsewhere.
                    PartitionScheme::PriorityApc | PartitionScheme::PriorityApi => {
                        let keys: Vec<f64> = apps
                            .iter()
                            .map(|a| {
                                if self == PartitionScheme::PriorityApc {
                                    a.apc_alone
                                } else {
                                    a.api
                                }
                            })
                            .collect();
                        let best = (0..apps.len())
                            .min_by(|&i, &j| keys[i].total_cmp(&keys[j]).then(i.cmp(&j)))
                            // lint: allow(R1): apps is non-empty (checked above)
                            .expect("apps is non-empty");
                        (0..apps.len()).map(|i| f64::from(i == best)).collect()
                    }
                    PartitionScheme::Equal
                    | PartitionScheme::Proportional
                    | PartitionScheme::SquareRoot
                    | PartitionScheme::TwoThirdsPower
                    | PartitionScheme::Power(_) => self.power_weights(apps)?,
                };
                let min_each = resource.min_unit.ceil() as usize;
                let ways = apportion_integral(&weights, total, min_each);
                let amounts: Vec<f64> = ways.iter().map(|&w| w as f64).collect();
                // No app may hold more ways than leave one each for the rest.
                let caps = vec![(total - (apps.len() - 1) * min_each) as f64; apps.len()];
                Allocation::certified(resource, amounts, &caps)
            }
        }
    }
}

impl From<&SharesOutcome> for Allocation {
    /// View a solved bandwidth partitioning as a generic [`Allocation`]
    /// (the single-resource special case). The nominal share simplex and
    /// capped allocation are taken verbatim from the outcome.
    fn from(out: &SharesOutcome) -> Self {
        Allocation {
            kind: ResourceKind::Bandwidth,
            capacity: out.bandwidth,
            amounts: out.allocation.clone(),
            shares: out.beta.clone(),
        }
    }
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

    #[test]
    fn kind_names_round_trip() {
        for kind in ResourceKind::ALL {
            let parsed: ResourceKind = kind.canonical_name().parse().unwrap();
            assert_eq!(parsed, kind);
            assert_eq!(kind.to_string(), kind.canonical_name());
        }
        assert_eq!(
            "bw".parse::<ResourceKind>().unwrap(),
            ResourceKind::Bandwidth
        );
        assert_eq!(
            "WAYS".parse::<ResourceKind>().unwrap(),
            ResourceKind::LlcWays
        );
        assert!("disk".parse::<ResourceKind>().is_err());
    }

    #[test]
    fn bandwidth_solve_resource_matches_legacy_solve() {
        let apps = four_apps();
        let b = 0.0095;
        let resource = Resource::bandwidth(b);
        for scheme in PartitionScheme::ENFORCED_SCHEMES {
            let alloc = scheme.solve_resource(&apps, &resource).unwrap();
            let legacy = scheme.allocation(&apps, b).unwrap();
            assert_eq!(alloc.amounts, legacy, "{scheme}");
            assert_eq!(alloc.kind, ResourceKind::Bandwidth);
            let granted: f64 = legacy.iter().sum();
            for (s, a) in alloc.shares.iter().zip(&legacy) {
                assert!((s - a / granted).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn llc_ways_are_integral_with_one_way_floor() {
        let apps = four_apps();
        let resource = Resource::llc_ways(16);
        for scheme in PartitionScheme::ENFORCED_SCHEMES {
            let alloc = scheme.solve_resource(&apps, &resource).unwrap();
            let total: f64 = alloc.amounts.iter().sum();
            assert_eq!(total, 16.0, "{scheme}");
            for &w in &alloc.amounts {
                assert_eq!(w.fract(), 0.0, "{scheme}: non-integral ways {w}");
                assert!(w >= 1.0, "{scheme}: below one-way floor");
            }
        }
    }

    #[test]
    fn equal_ways_split_evenly() {
        let apps = four_apps();
        let alloc = PartitionScheme::Equal
            .solve_resource(&apps, &Resource::llc_ways(16))
            .unwrap();
        assert_eq!(alloc.amounts, vec![4.0; 4]);
        assert_eq!(alloc.shares, vec![0.25; 4]);
    }

    #[test]
    fn proportional_ways_follow_apc_alone_order() {
        let apps = four_apps();
        let alloc = PartitionScheme::Proportional
            .solve_resource(&apps, &Resource::llc_ways(16))
            .unwrap();
        // libquantum and milc (heaviest) must hold at least as many ways as
        // gromacs and gobmk.
        assert!(alloc.amounts[0] >= alloc.amounts[2]);
        assert!(alloc.amounts[1] >= alloc.amounts[3]);
        assert!(alloc.amounts[0] > alloc.amounts[3]);
    }

    #[test]
    fn priority_ways_concentrate_on_best_key() {
        let apps = four_apps();
        let alloc = PartitionScheme::PriorityApc
            .solve_resource(&apps, &Resource::llc_ways(16))
            .unwrap();
        // gobmk has the lowest APC_alone: it gets all free ways.
        assert_eq!(alloc.amounts[3], 13.0);
        assert_eq!(alloc.amounts[0], 1.0);
    }

    #[test]
    fn too_few_ways_is_an_error() {
        let apps = four_apps();
        assert!(PartitionScheme::Equal
            .solve_resource(&apps, &Resource::llc_ways(3))
            .is_err());
    }

    #[test]
    fn no_partitioning_and_coordinated_have_no_resource_rule() {
        let apps = four_apps();
        for scheme in [
            PartitionScheme::NoPartitioning,
            PartitionScheme::Coordinated,
        ] {
            assert!(scheme
                .solve_resource(&apps, &Resource::llc_ways(16))
                .is_err());
        }
        assert!(PartitionScheme::Coordinated
            .solve_resource(&apps, &Resource::bandwidth(0.01))
            .is_err());
    }

    #[test]
    fn certified_rejects_malformed_allocations() {
        let r = Resource::bandwidth(0.01);
        assert!(Allocation::certified(&r, vec![], &[]).is_err());
        assert!(Allocation::certified(&r, vec![0.005], &[0.004, 0.004]).is_err());
        assert!(Allocation::certified(&r, vec![0.0, 0.0], &[0.01, 0.01]).is_err());
    }

    #[test]
    fn validate_allocation_checks_integrality_and_capacity() {
        let r = Resource::llc_ways(8);
        let ok = Allocation {
            kind: ResourceKind::LlcWays,
            capacity: 8.0,
            amounts: vec![6.0, 2.0],
            shares: vec![0.75, 0.25],
        };
        assert!(validate_allocation(&ok, &r, 2).is_ok());
        let frac = Allocation {
            amounts: vec![5.5, 2.5],
            shares: vec![5.5 / 8.0, 2.5 / 8.0],
            ..ok.clone()
        };
        assert!(validate_allocation(&frac, &r, 2).is_err());
        let over = Allocation {
            amounts: vec![7.0, 3.0],
            shares: vec![0.7, 0.3],
            ..ok.clone()
        };
        assert!(validate_allocation(&over, &r, 2).is_err());
        assert!(validate_allocation(&ok, &r, 3).is_err());
    }

    #[test]
    fn multi_allocation_lookup_and_validation() {
        let apps = four_apps();
        let bw = PartitionScheme::SquareRoot
            .solve_resource(&apps, &Resource::bandwidth(0.0095))
            .unwrap();
        let ways = PartitionScheme::SquareRoot
            .solve_resource(&apps, &Resource::llc_ways(16))
            .unwrap();
        let multi = MultiAllocation {
            per_resource: vec![bw, ways],
        };
        assert!(multi.get(ResourceKind::Bandwidth).is_some());
        assert!(multi.get(ResourceKind::LlcWays).is_some());
        assert!(multi.validate_app_count(4).is_ok());
        assert!(multi.validate_app_count(3).is_err());
    }

    #[test]
    fn shares_outcome_converts_to_allocation() {
        let apps = four_apps();
        let out = PartitionScheme::SquareRoot.solve(&apps, 0.0095).unwrap();
        let alloc = Allocation::from(&out);
        assert_eq!(alloc.kind, ResourceKind::Bandwidth);
        assert_eq!(alloc.amounts, out.allocation);
        assert_eq!(alloc.shares, out.beta);
    }

    #[test]
    fn apportion_handles_degenerate_weights() {
        let grants = apportion_integral(&[0.0, 0.0, 0.0], 8, 1);
        assert_eq!(grants.iter().sum::<usize>(), 8);
        assert!(grants.iter().all(|&g| g >= 1));
    }

    #[test]
    fn allocations_serialize_round_trip() {
        let apps = four_apps();
        let alloc = PartitionScheme::SquareRoot
            .solve_resource(&apps, &Resource::llc_ways(16))
            .unwrap();
        let json = serde_json::to_string(&alloc).unwrap();
        let back: Allocation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, alloc);
    }
}
