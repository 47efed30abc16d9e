#![warn(missing_docs)]

//! # bwpart-cmp — the chip-multiprocessor simulator
//!
//! The full-system substrate replacing GEM5 in the paper's methodology: N
//! cores, private L1/L2 cache hierarchies, and a shared
//! [`bwpart_mc::MemoryController`] in front of the [`bwpart_dram`] DDR
//! model (Table II configuration).
//!
//! The core model is deliberately at the altitude the analytical model
//! needs: an out-of-order core abstracted to issue width, a reorder-buffer
//! window, and MSHR-bounded memory-level parallelism. Its IPC degrades
//! exactly the way Eq. 1 captures — when the memory system limits an
//! application, `IPC → APC/API`; when it doesn't, IPC saturates at the
//! core's intrinsic rate.
//!
//! * [`cache`] — set-associative write-back/write-allocate caches with LRU
//!   and proper dirty-eviction traffic.
//! * [`core`] — the core model and the [`Workload`] trait it executes.
//! * [`llc`] — the shared, way-partitioned last-level cache between the
//!   private L2s and the memory controller (fill-time mask enforcement).
//! * [`system`] — [`CmpSystem`]: cores × caches × controller × DRAM on a
//!   global CPU-cycle loop.
//! * [`runner`] — the paper's phase methodology (warm-up → profile →
//!   measure, Section V-B) plus standalone runs for ground-truth
//!   `APC_alone`.
//! * [`obs`] — observability wiring: cycle-loop hooks for `bwpart-obs`
//!   and the [`RunObserver`] bundle for instrumented runs.
//! * [`stats`] — per-application counters and derived rates.

pub mod cache;
pub mod core;
pub mod llc;
pub mod obs;
pub mod runner;
pub mod stats;
pub mod system;

pub use crate::core::{Access, Core, CoreConfig, Workload};
pub use cache::{Cache, CacheConfig};
pub use llc::{LlcAppCounters, LlcConfig, SharedLlc};
pub use obs::{CmpObsHooks, RunObserver};
pub use runner::{PhaseConfig, Runner, ShareSource, SimOutcome};
pub use stats::AppStats;
pub use system::{CmpConfig, CmpSystem, Snapshot};
