#![warn(missing_docs)]

//! # bwpart-mc — the partitioning memory controller
//!
//! Implements Section IV of the paper: the machinery that *enforces* a
//! bandwidth partition and *profiles* the inputs the analytical model needs.
//!
//! * [`request`] / [`queue`] — per-application transaction queues.
//! * [`policy`] — the scheduling policies:
//!   - **FCFS** (`No_partitioning` baseline): oldest issuable request first.
//!   - **FR-FCFS**: row hits first, then oldest (open-page utilization
//!     baseline).
//!   - **STF** — the paper's modified DRAM Start-Time Fair mechanism
//!     (Section IV-B): per-application virtual start tags
//!     `S_i = S_{i-1} + 1/β` that do **not** depend on arrival time, so an
//!     application that under-used its share earlier can catch up.
//!   - **Priority** — strict priority order (realizes `Priority_APC` /
//!     `Priority_API`, Section III-D/E).
//! * [`interference`] — Section IV-C detection: cycles an application's
//!   head request is blocked by another application's traffic (DRAM bus and
//!   bank conflicts) or passed over by the scheduler in favour of another
//!   application.
//! * [`profiler`] — Eq. 12–13 online `APC_alone` estimation from the three
//!   per-application counters (`N_accesses`, `T_cyc,shared`,
//!   `T_cyc,interference`), folded from [`TelemetryDelta`]s.
//! * [`epoch`] — the Section IV-C epoch decision ([`EpochPolicy`]): fold,
//!   smooth, solve, certify, publish. The simulator's phase runner and
//!   the `bwpartd` service both decide through it.
//! * [`controller`] — the [`MemoryController`] tying it together on the
//!   DRAM command clock.

pub mod controller;
pub mod epoch;
pub mod interference;
pub mod obs;
pub mod policy;
pub mod profiler;
pub mod queue;
pub mod request;

pub use controller::{McStats, MemoryController};
pub use epoch::{Decision, EpochConfig, EpochPolicy, PolicyApp, PolicyError, Refusal, Verdict};
pub use obs::McObsHooks;
pub use policy::{Policy, PolicyKind};
pub use profiler::{DeltaAccumulator, TelemetryDelta};
pub use request::MemRequest;
