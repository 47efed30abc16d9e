#![warn(missing_docs)]

//! # bwpartd — the online bandwidth-partitioning service
//!
//! Everything else in this workspace is offline: profiles in, closed-form
//! shares out. `bwpartd` closes the loop the paper sketches in Section IV —
//! a long-running service that *continuously* re-derives the partition
//! from live telemetry:
//!
//! * [`protocol`] — a versioned, length-prefixed JSON wire protocol
//!   (pure codec, testable without sockets).
//! * [`engine`] — the epoch engine behind one public type, [`ShardMap`]:
//!   per tenant group, queue Section IV-C telemetry deltas and, each
//!   epoch, let a [`bwpart_mc::EpochPolicy`] — the decision loop the
//!   simulator's phase runner shares — fold them into Eq. 12–13
//!   `APC_alone` estimates (EWMA-smoothed, with phase-change snapping),
//!   re-solve the configured [`PartitionScheme`] (honouring Eq. 11 QoS
//!   reservations), certify the result against the model contracts, and
//!   publish it subject to hysteresis.
//! * [`server`] — the TCP front-end (vendored-`mio` epoll/poll
//!   readiness loop, DESIGN.md §16): a fixed pool of nonblocking workers
//!   multiplexing hundreds of pipelined connections, with bounded
//!   per-connection buffers, shard epochs ticking on a timer wheel, and
//!   an idle sweep.
//! * [`client`] — a typed blocking client speaking the same codec
//!   (JSON or the v2 binary framing, see [`protocol::Codec`]).
//!
//! Degradation is deliberate and bounded: malformed frames kill one
//! connection, a client that stops reading is pushed back by TCP,
//! telemetry queues shed oldest-first, failed solves serve last-good
//! shares flagged `degraded`, and all-idle epochs change nothing.
//!
//! ```no_run
//! use bwpartd::{serve, Client, ServeConfig};
//! use bwpart_mc::TelemetryDelta;
//!
//! let handle = serve(ServeConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let id = client.register("milc", 0.00692).unwrap();
//! client.telemetry(id, TelemetryDelta {
//!     accesses: 34_100,
//!     shared_cycles: 1_000_000,
//!     interference_cycles: 120_000,
//! }).unwrap();
//! // ... after an epoch: client.get_shares(None) / client.qos_admit(...)
//! client.shutdown().unwrap();
//! handle.join();
//! ```

pub use bwpart_core::PartitionScheme;

pub mod client;
pub mod engine;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError};
pub use engine::{EngineConfig, EpochOutcome, ShardMap};
pub use protocol::{
    AppShare, AppStatus, CacheSpec, Codec, ErrorCode, FrameError, MetricsReply, MrcPoint, QosGrant,
    Request, ResourceShare, Response, ServiceError, ServiceSnapshot, SharesReply,
};
pub use server::{serve, ServeConfig, ServerHandle};
