#![warn(missing_docs)]

//! # bwpart-dram — cycle-level DDR DRAM subsystem simulator
//!
//! A from-scratch substitute for DRAMSim2, providing the off-chip memory
//! substrate the paper's evaluation runs on (Table II: DDR2-400/PC3200,
//! close-page policy, 8-byte data bus, 12.5 ns tRP-tRCD-CL, 32 banks,
//! channel/row/col/bank/rank address mapping).
//!
//! ## Model
//!
//! The simulator operates at *transaction* granularity with *command-level
//! timing*: each 64-byte line transfer is an ACT + RD/WR (+ implicit
//! precharge under the close-page policy, or an explicit PRE on a row
//! conflict under open-page). All inter-command constraints are enforced in
//! CPU-cycle resolution:
//!
//! * per-bank: tRC/tRAS/tRP/tRCD/CL/CWL/tWR/tRTP state machine,
//! * per-rank: tRRD and the tFAW four-activate window, periodic refresh
//!   blackouts (tREFI/tRFC),
//! * per-channel: data-bus occupancy (tBURST), write→read (tWTR) and
//!   read→write turnaround, one transaction start per DRAM clock.
//!
//! Every timing parameter is specified in nanoseconds and converted to CPU
//! cycles, so "scale bandwidth by raising only the bus frequency" (the
//! paper's Section VI-C methodology) is expressed directly: latency
//! parameters stay fixed in ns while `tCK` shrinks.
//!
//! The engine also exposes *blocking attribution* — which application's
//! in-flight traffic is currently blocking a given transaction — which the
//! memory controller uses for the paper's interference counters
//! (Section IV-C).
//!
//! ## Quick example
//!
//! ```
//! use bwpart_dram::{DramConfig, DramSystem, MemTransaction};
//!
//! let cfg = DramConfig::ddr2_400();
//! let mut dram = DramSystem::new(cfg);
//! let txn = MemTransaction { app: 0, addr: 0x4000, is_write: false };
//! let now = 0;
//! assert_eq!(dram.probe(&txn, now).start, now);
//! let completion = dram.issue(&txn, now);
//! assert!(completion.done_cycle > now);
//! ```

pub mod address;
pub mod config;
pub mod dram;
pub mod obs;
pub mod soa;
pub mod stats;

pub use address::{AddressMapper, Location, MappingScheme, RowLocation};
pub use config::{DramConfig, PagePolicy, TimingNs};
pub use dram::{Completion, DramSystem, MemTransaction};
pub use obs::DramObsHooks;
pub use soa::{AccessKind, BlockReason, ChannelCore, ChannelProbe, Timings};
pub use stats::DramStats;
