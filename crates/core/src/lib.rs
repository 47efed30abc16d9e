#![warn(missing_docs)]

//! # bwpart-core — the analytical bandwidth-partitioning model
//!
//! This crate implements the primary contribution of *"An Analytical
//! Performance Model for Partitioning Off-Chip Memory Bandwidth"*
//! (Wang, Chen, Pinkston — IPDPS 2013): a unified analytical model that
//! relates how a chip multiprocessor's off-chip memory bandwidth is divided
//! among co-scheduled applications to a broad family of IPC-based
//! system-level performance objectives.
//!
//! ## The model in two equations
//!
//! For application `i`, performance is tied to its bandwidth share by
//!
//! ```text
//! IPC_i = APC_i / API_i                      (Eq. 1)
//! ```
//!
//! where `APC` is memory accesses per cycle (the bandwidth it occupies) and
//! `API` is memory accesses per instruction (a program property, invariant
//! under partitioning). Shares are coupled by the total-bandwidth constraint
//!
//! ```text
//! Σ_i APC_shared,i = B                       (Eq. 2)
//! ```
//!
//! Any IPC-based objective (weighted speedup, sum of IPCs, harmonic weighted
//! speedup, minimum fairness, ...) becomes a constrained optimization over
//! the share vector. Solving it yields a closed-form *optimal partitioning
//! scheme per objective*:
//!
//! | objective                  | optimal scheme  | share rule                      |
//! |----------------------------|-----------------|---------------------------------|
//! | harmonic weighted speedup  | `SquareRoot`    | `β_i ∝ √APC_alone,i`            |
//! | minimum fairness           | `Proportional`  | `β_i ∝ APC_alone,i`             |
//! | weighted speedup           | `PriorityApc`   | greedy, low `APC_alone` first   |
//! | sum of IPCs                | `PriorityApi`   | greedy, low `API` first         |
//!
//! ## Crate layout
//!
//! * [`app`] — application descriptors ([`AppProfile`]): `API`, `APC_alone`.
//! * [`contracts`] — debug-mode model invariants ([`invariant!`],
//!   [`ensures_simplex!`], [`ensures_capped!`]) and the approved
//!   floating-point comparison helpers.
//! * [`metrics`] — the four system objectives of Section V-A.
//! * [`schemes`] — the seven partitioning schemes of Section V-D.
//! * [`solver`] — the optimization machinery: Lagrange power-family solver,
//!   fractional-knapsack greedy with per-app caps, and a numeric verifier.
//! * [`closed_form`] — Eq. 4/6/8 closed forms and the Cauchy comparisons of
//!   Section III.
//! * [`predict`] — the forward model: share vector → predicted IPCs → any
//!   metric (Section III-F).
//! * [`qos`] — the QoS-guarantee extension of Section III-G (Eq. 11).
//! * [`weighted`] — priority-weighted objectives and their optima (the
//!   Section II-B motivation, derived).
//! * [`mrc`] — fitted miss-ratio curves making `APC_alone(w)` a function
//!   of allocated LLC ways ([`CacheAwareProfile`]).
//! * [`coord`] — the coordinated (bandwidth × LLC ways) solver; its
//!   [`CoordOutcome`] pairs the way vector with the [`SharesOutcome`]
//!   solved at it.
//! * [`divider`] — exact division by a divisor fixed at construction
//!   ([`Divider`]), which the simulator's per-event grid, refresh and
//!   issue arithmetic shares.
//!
//! ## Quick example
//!
//! ```
//! use bwpart_core::prelude::*;
//!
//! // Four applications: (API, APC_alone) pairs, e.g. profiled online.
//! let apps = vec![
//!     AppProfile::new("libquantum", 0.0341, 0.00692).unwrap(),
//!     AppProfile::new("milc",       0.0422, 0.00687).unwrap(),
//!     AppProfile::new("gromacs",    0.0052, 0.00337).unwrap(),
//!     AppProfile::new("gobmk",      0.0041, 0.00191).unwrap(),
//! ];
//! let b = 0.01; // total utilized bandwidth, in accesses per cycle
//!
//! // The optimal scheme for harmonic weighted speedup:
//! let beta = PartitionScheme::SquareRoot.shares(&apps, b).unwrap();
//! let outcome = predict::evaluate(&apps, &beta, b).unwrap();
//! let hsp_sqrt = outcome.metric(Metric::HarmonicWeightedSpeedup);
//!
//! // ... beats Equal partitioning on that metric:
//! let beta_eq = PartitionScheme::Equal.shares(&apps, b).unwrap();
//! let hsp_eq = predict::evaluate(&apps, &beta_eq, b)
//!     .unwrap()
//!     .metric(Metric::HarmonicWeightedSpeedup);
//! assert!(hsp_sqrt >= hsp_eq);
//! ```

pub mod app;
pub mod closed_form;
pub mod contracts;
pub mod coord;
pub mod divider;
pub mod error;
pub mod metrics;
pub mod mrc;
pub mod predict;
pub mod qos;
pub mod schemes;
pub mod solver;
pub mod weighted;

pub use app::AppProfile;
pub use coord::{solve_coordinated, solve_coordinated_scaled, CoordConfig, CoordOutcome};
pub use divider::Divider;
pub use error::ModelError;
pub use metrics::Metric;
pub use mrc::{CacheAwareProfile, MissRatioCurve};
pub use schemes::{PartitionScheme, SharesOutcome};

/// Convenient glob-import surface for downstream crates.
pub mod prelude {
    pub use crate::app::AppProfile;
    pub use crate::contracts;
    pub use crate::coord::{
        self, solve_coordinated, solve_coordinated_scaled, CoordConfig, CoordOutcome,
    };
    pub use crate::error::ModelError;
    pub use crate::metrics::{self, Metric};
    pub use crate::mrc::{CacheAwareProfile, MissRatioCurve};
    pub use crate::predict;
    pub use crate::qos::{self, QosRequest};
    pub use crate::schemes::{PartitionScheme, SharesOutcome};
    pub use crate::solver;
    pub use crate::weighted;
}
