//! The `bwpartd` wire protocol: versioned, length-prefixed frames.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! offset  size  field
//! 0       2     magic  `b"BW"`
//! 2       1     wire version: [`WIRE_VERSION`] (JSON payload) or
//!               [`WIRE_VERSION_BINARY`] (tagged binary payload)
//! 3       1     reserved, must be 0
//! 4       4     payload length, big-endian u32, ≤ [`MAX_PAYLOAD`]
//! 8       n     payload: one [`Request`] / [`Response`] in the codec
//!               named by the version byte
//! ```
//!
//! The version byte doubles as codec negotiation: v1 frames carry UTF-8
//! JSON, v2 frames carry the compact tagged-binary encoding of the same
//! value tree (see [`Codec::Binary`]). A server answers in whatever codec
//! the request arrived in, so old v1 clients keep working unchanged.
//!
//! The codec here is pure (`&[u8]` in, frames out) so it can be tested
//! without sockets — including under miri — and so both the server's read
//! loop and the [`client`](crate::client) share one parsing path.
//! [`decode_frame`] is *incremental*: a partial frame yields `Ok(None)`
//! ("need more bytes"), while a malformed one yields a [`FrameError`] that
//! the server answers with a best-effort [`Response::Error`] before
//! closing that connection only.

use bwpart_core::SharesOutcome;
use serde::{Deserialize, Serialize};

/// First two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"BW";
/// Wire version whose payloads are UTF-8 JSON (the v1 codec).
pub const WIRE_VERSION: u8 = 1;
/// Wire version whose payloads are the tagged binary encoding.
pub const WIRE_VERSION_BINARY: u8 = 2;
/// Fixed frame header length in bytes.
pub const HEADER_LEN: usize = 8;
/// Hard ceiling on payload size; larger frames are rejected without
/// buffering (a garbage length prefix must not make the server allocate).
pub const MAX_PAYLOAD: usize = 64 * 1024;

/// The payload encoding named by a frame's version byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// v1: UTF-8 JSON text (human-debuggable, the compatibility default).
    Json,
    /// v2: tagged binary. Each value is a one-byte tag followed by its
    /// payload: `0` null, `1` false, `2` true, `3` u64 (LEB128 varint),
    /// `4` i64 (zigzag varint), `5` f64 (8 bytes little-endian), `6`
    /// string (varint length + UTF-8 bytes), `7` array (varint count +
    /// values), `8` object (varint count + `(varint key length, key
    /// bytes, value)` pairs). Both codecs encode the same value tree, so
    /// they are semantically interchangeable frame-by-frame.
    Binary,
}

impl Codec {
    /// The version byte this codec travels under.
    pub fn version(self) -> u8 {
        match self {
            Codec::Json => WIRE_VERSION,
            Codec::Binary => WIRE_VERSION_BINARY,
        }
    }

    /// Codec for a version byte, or `None` for versions this build does
    /// not speak.
    pub fn from_version(version: u8) -> Option<Codec> {
        match version {
            WIRE_VERSION => Some(Codec::Json),
            WIRE_VERSION_BINARY => Some(Codec::Binary),
            _ => None,
        }
    }

    /// Canonical lowercase name (CLI flag value, bench metadata).
    pub fn name(self) -> &'static str {
        match self {
            Codec::Json => "json",
            Codec::Binary => "binary",
        }
    }
}

impl std::str::FromStr for Codec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "json" => Ok(Codec::Json),
            "binary" => Ok(Codec::Binary),
            other => Err(format!("unknown codec `{other}` (expected json|binary)")),
        }
    }
}

impl std::fmt::Display for Codec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a byte sequence failed to parse as a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first two bytes were not [`MAGIC`].
    BadMagic {
        /// The bytes actually seen.
        got: [u8; 2],
    },
    /// The version byte did not match [`WIRE_VERSION`].
    UnsupportedVersion {
        /// The version actually seen.
        got: u8,
    },
    /// The reserved byte was non-zero.
    NonZeroReserved {
        /// The byte actually seen.
        got: u8,
    },
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The declared length.
        len: usize,
    },
    /// The payload was not valid UTF-8 JSON for the expected type.
    BadPayload {
        /// Parser diagnostic.
        detail: String,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic { got } => {
                write!(f, "bad frame magic {got:?} (expected {MAGIC:?})")
            }
            FrameError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported wire version {got} (this build speaks {WIRE_VERSION})"
                )
            }
            FrameError::NonZeroReserved { got } => {
                write!(f, "reserved header byte must be 0, got {got}")
            }
            FrameError::Oversized { len } => {
                write!(
                    f,
                    "payload length {len} exceeds the {MAX_PAYLOAD}-byte frame limit"
                )
            }
            FrameError::BadPayload { detail } => write!(f, "bad frame payload: {detail}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// The [`ErrorCode`] a server reports for this frame error: version
    /// mismatches get their own code (a peer can downgrade on it), every
    /// other framing fault is [`ErrorCode::BadFrame`].
    pub fn error_code(&self) -> ErrorCode {
        match self {
            FrameError::UnsupportedVersion { .. } => ErrorCode::UnsupportedVersion,
            _ => ErrorCode::BadFrame,
        }
    }
}

/// Encode one message as a framed byte vector in the v1 JSON codec.
pub fn encode<T: Serialize>(msg: &T) -> Result<Vec<u8>, FrameError> {
    encode_with(msg, Codec::Json)
}

/// Encode one message as a framed byte vector in the given codec.
pub fn encode_with<T: Serialize>(msg: &T, codec: Codec) -> Result<Vec<u8>, FrameError> {
    let payload = match codec {
        Codec::Json => serde_json::to_string(msg)
            .map_err(|e| FrameError::BadPayload {
                detail: e.to_string(),
            })?
            .into_bytes(),
        Codec::Binary => {
            let mut bytes = Vec::new();
            binary::encode_value(&msg.to_value(), &mut bytes);
            bytes
        }
    };
    if payload.len() > MAX_PAYLOAD {
        return Err(FrameError::Oversized { len: payload.len() });
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(codec.version());
    out.push(0);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Try to decode one frame from the front of `buf`, accepting any codec
/// this build speaks and reporting which one the frame used (so a server
/// can reply in kind).
///
/// * `Ok(Some((msg, consumed, codec)))` — a complete frame was parsed;
///   the caller should drop the first `consumed` bytes.
/// * `Ok(None)` — `buf` holds a valid but incomplete frame; read more.
/// * `Err(_)` — the stream is unrecoverably out of protocol; the caller
///   should drop the connection (not the server).
pub fn decode_frame<T: serde::de::DeserializeOwned>(
    buf: &[u8],
) -> Result<Option<(T, usize, Codec)>, FrameError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    if buf[0..2] != MAGIC {
        return Err(FrameError::BadMagic {
            got: [buf[0], buf[1]],
        });
    }
    let codec =
        Codec::from_version(buf[2]).ok_or(FrameError::UnsupportedVersion { got: buf[2] })?;
    if buf[3] != 0 {
        return Err(FrameError::NonZeroReserved { got: buf[3] });
    }
    let len = u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversized { len });
    }
    if buf.len() < HEADER_LEN + len {
        return Ok(None);
    }
    let payload = &buf[HEADER_LEN..HEADER_LEN + len];
    let msg = match codec {
        Codec::Json => {
            let text = std::str::from_utf8(payload).map_err(|e| FrameError::BadPayload {
                detail: format!("payload is not UTF-8: {e}"),
            })?;
            serde_json::from_str(text).map_err(|e| FrameError::BadPayload {
                detail: e.to_string(),
            })?
        }
        Codec::Binary => {
            let value = binary::decode_value(payload).map_err(|detail| FrameError::BadPayload {
                detail: format!("binary payload: {detail}"),
            })?;
            T::from_value(&value).map_err(|e| FrameError::BadPayload {
                detail: e.to_string(),
            })?
        }
    };
    Ok(Some((msg, HEADER_LEN + len, codec)))
}

/// [`decode_frame`] without the codec report, for callers that do not
/// need to reply in kind.
pub fn decode<T: serde::de::DeserializeOwned>(
    buf: &[u8],
) -> Result<Option<(T, usize)>, FrameError> {
    Ok(decode_frame(buf)?.map(|(msg, used, _)| (msg, used)))
}

/// The v2 tagged-binary payload codec: a direct byte encoding of the
/// serde [`Value`](serde::Value) tree (see [`Codec::Binary`] for the tag
/// table), so JSON and binary frames are interconvertible by
/// construction.
///
/// Decoding is defensive to the same standard as the frame header: no
/// input — truncated, corrupted, or adversarial — may panic or allocate
/// proportionally to a length *claimed* by the input rather than bytes
/// actually present. Collections are built with `push`, never
/// `with_capacity(claimed)`, and claimed counts are sanity-checked
/// against the bytes remaining.
pub mod binary {
    use serde::Value;

    /// Maximum value-tree nesting; deeper input is rejected (the protocol
    /// types nest ~4 levels, and unbounded recursion on attacker input
    /// would overflow the stack long before this limit matters).
    pub const MAX_DEPTH: usize = 64;

    const TAG_NULL: u8 = 0;
    const TAG_FALSE: u8 = 1;
    const TAG_TRUE: u8 = 2;
    const TAG_U64: u8 = 3;
    const TAG_I64: u8 = 4;
    const TAG_F64: u8 = 5;
    const TAG_STRING: u8 = 6;
    const TAG_ARRAY: u8 = 7;
    const TAG_OBJECT: u8 = 8;

    fn push_varint(mut v: u64, out: &mut Vec<u8>) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    fn zigzag(i: i64) -> u64 {
        ((i << 1) ^ (i >> 63)) as u64
    }

    fn unzigzag(u: u64) -> i64 {
        ((u >> 1) as i64) ^ -((u & 1) as i64)
    }

    /// Append the binary encoding of `value` to `out`.
    pub fn encode_value(value: &Value, out: &mut Vec<u8>) {
        match value {
            Value::Null => out.push(TAG_NULL),
            Value::Bool(false) => out.push(TAG_FALSE),
            Value::Bool(true) => out.push(TAG_TRUE),
            Value::U64(u) => {
                out.push(TAG_U64);
                push_varint(*u, out);
            }
            Value::I64(i) => {
                out.push(TAG_I64);
                push_varint(zigzag(*i), out);
            }
            Value::F64(f) => {
                out.push(TAG_F64);
                out.extend_from_slice(&f.to_le_bytes());
            }
            Value::String(s) => {
                out.push(TAG_STRING);
                push_varint(s.len() as u64, out);
                out.extend_from_slice(s.as_bytes());
            }
            Value::Array(items) => {
                out.push(TAG_ARRAY);
                push_varint(items.len() as u64, out);
                for item in items {
                    encode_value(item, out);
                }
            }
            Value::Object(pairs) => {
                out.push(TAG_OBJECT);
                push_varint(pairs.len() as u64, out);
                for (key, item) in pairs {
                    push_varint(key.len() as u64, out);
                    out.extend_from_slice(key.as_bytes());
                    encode_value(item, out);
                }
            }
        }
    }

    /// Decode one value occupying the whole of `payload`; trailing bytes
    /// are an error (a frame carries exactly one message).
    pub fn decode_value(payload: &[u8]) -> Result<Value, String> {
        let mut cur = Cursor {
            buf: payload,
            pos: 0,
        };
        let value = cur.value(0)?;
        if cur.pos != payload.len() {
            return Err(format!(
                "{} trailing byte(s) after the value",
                payload.len() - cur.pos
            ));
        }
        Ok(value)
    }

    struct Cursor<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl Cursor<'_> {
        fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }

        fn byte(&mut self) -> Result<u8, String> {
            let b = *self
                .buf
                .get(self.pos)
                .ok_or_else(|| "truncated value".to_string())?;
            self.pos += 1;
            Ok(b)
        }

        fn bytes(&mut self, n: usize) -> Result<&[u8], String> {
            if self.remaining() < n {
                return Err(format!(
                    "truncated value: need {n} more byte(s), have {}",
                    self.remaining()
                ));
            }
            let s = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }

        fn varint(&mut self) -> Result<u64, String> {
            let mut v = 0u64;
            for shift in (0..64).step_by(7) {
                let byte = self.byte()?;
                let low = (byte & 0x7f) as u64;
                // The 10th byte (shift 63) may only contribute one bit.
                if shift == 63 && low > 1 {
                    return Err("varint overflows u64".to_string());
                }
                v |= low << shift;
                if byte & 0x80 == 0 {
                    // Reject overlong encodings so every value has exactly
                    // one byte representation.
                    if byte == 0 && shift != 0 {
                        return Err("overlong varint".to_string());
                    }
                    return Ok(v);
                }
            }
            Err("varint longer than 10 bytes".to_string())
        }

        /// A claimed element count is a lie if the remaining bytes could
        /// not hold that many elements even at `min_bytes` apiece.
        fn checked_count(&self, claimed: u64, min_bytes: usize) -> Result<usize, String> {
            let max = self.remaining() / min_bytes.max(1);
            if claimed > max as u64 {
                return Err(format!(
                    "claimed count {claimed} exceeds what {} remaining byte(s) can hold",
                    self.remaining()
                ));
            }
            Ok(claimed as usize)
        }

        fn string(&mut self) -> Result<String, String> {
            let len = self.varint()?;
            if len > self.remaining() as u64 {
                return Err(format!(
                    "claimed string length {len} exceeds {} remaining byte(s)",
                    self.remaining()
                ));
            }
            let bytes = self.bytes(len as usize)?;
            std::str::from_utf8(bytes)
                .map(str::to_owned)
                .map_err(|e| format!("string is not UTF-8: {e}"))
        }

        fn value(&mut self, depth: usize) -> Result<Value, String> {
            if depth > MAX_DEPTH {
                return Err(format!("nesting exceeds {MAX_DEPTH} levels"));
            }
            match self.byte()? {
                TAG_NULL => Ok(Value::Null),
                TAG_FALSE => Ok(Value::Bool(false)),
                TAG_TRUE => Ok(Value::Bool(true)),
                TAG_U64 => Ok(Value::U64(self.varint()?)),
                TAG_I64 => Ok(Value::I64(unzigzag(self.varint()?))),
                TAG_F64 => {
                    let mut raw = [0u8; 8];
                    raw.copy_from_slice(self.bytes(8)?);
                    Ok(Value::F64(f64::from_le_bytes(raw)))
                }
                TAG_STRING => Ok(Value::String(self.string()?)),
                TAG_ARRAY => {
                    let count = self.varint()?;
                    // Every element is at least one tag byte.
                    let count = self.checked_count(count, 1)?;
                    let mut items = Vec::new();
                    for _ in 0..count {
                        items.push(self.value(depth + 1)?);
                    }
                    Ok(Value::Array(items))
                }
                TAG_OBJECT => {
                    let count = self.varint()?;
                    // Every pair is at least a key-length byte + a tag.
                    let count = self.checked_count(count, 2)?;
                    let mut pairs = Vec::new();
                    for _ in 0..count {
                        let key = self.string()?;
                        let item = self.value(depth + 1)?;
                        pairs.push((key, item));
                    }
                    Ok(Value::Object(pairs))
                }
                tag => Err(format!("unknown value tag {tag}")),
            }
        }
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Register an application by name; idempotent (re-registering a name
    /// returns the same id and updates its `API` and cache profile).
    Register {
        /// Human-readable application name (unique key).
        name: String,
        /// Accesses per instruction (`API`, Eq. 1) — the core-side counter
        /// ratio the client measures for itself.
        api: f64,
        /// Optional cache-side profile for coordinated (bandwidth × LLC
        /// ways) partitioning. Absent on the wire for v1-era clients —
        /// both codecs decode a missing field as `None` — and required
        /// of every application before a `coordinated` solve can run.
        cache: Option<CacheSpec>,
    },
    /// One telemetry delta: the Section IV-C counters accumulated since the
    /// previous report.
    Telemetry {
        /// Id returned by `Register`.
        app_id: usize,
        /// `ΔN_accesses`.
        accesses: u64,
        /// `ΔT_cyc,shared`.
        shared_cycles: u64,
        /// `ΔT_cyc,interference`.
        interference_cycles: u64,
    },
    /// Fetch the current published shares, or a what-if solve under a
    /// different scheme (canonical kebab-case name, e.g. `square-root`).
    GetShares {
        /// `None` → the epoch engine's published allocation;
        /// `Some(name)` → an ad-hoc solve that bypasses QoS reservations.
        scheme: Option<String>,
    },
    /// Fetch one tenant group's shares (a single certified simplex; see
    /// the engine's `ShardMap`), or a what-if solve for that group.
    GroupShares {
        /// The tenant group (the app-name prefix before the first `/`, or
        /// `default`).
        group: String,
        /// As in [`Request::GetShares`].
        scheme: Option<String>,
    },
    /// Ask for an Eq. 11 QoS guarantee: reserve `IPC_target × API`.
    QosAdmit {
        /// Id returned by `Register`.
        app_id: usize,
        /// The IPC the service must guarantee.
        ipc_target: f64,
    },
    /// Fetch service counters and per-application state.
    Snapshot,
    /// Fetch the service's observability metrics (Prometheus text plus a
    /// typed [`bwpart_obs::MetricsSnapshot`]).
    Metrics,
    /// Stop the service (all connections, epoch thread, listener).
    Shutdown,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Reply to [`Request::Register`].
    Registered {
        /// The application's id for subsequent requests.
        app_id: usize,
    },
    /// Reply to [`Request::Telemetry`].
    TelemetryAck {
        /// Echo of the reporting application.
        app_id: usize,
        /// Epoch the delta will be folded into.
        epoch: u64,
    },
    /// Reply to [`Request::GetShares`].
    Shares(SharesReply),
    /// Reply to a successful [`Request::QosAdmit`].
    QosAdmitted(QosGrant),
    /// Reply to [`Request::Snapshot`].
    Snapshot(ServiceSnapshot),
    /// Reply to [`Request::Metrics`].
    Metrics(MetricsReply),
    /// Reply to [`Request::Shutdown`]; the connection closes after this.
    ShuttingDown,
    /// Any request may fail with a structured error instead of its normal
    /// reply; the connection stays usable (except after frame errors).
    Error(ServiceError),
}

/// A published share vector, consistent within one epoch: every client
/// asking between two repartitions receives an identical reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SharesReply {
    /// Epoch in which this allocation was computed.
    pub epoch: u64,
    /// Solver outcome: canonical scheme name, bandwidth `B`, the share
    /// vector `β` and the capped allocation, indexed like `apps`.
    pub outcome: SharesOutcome,
    /// Per-application labels for the `outcome` columns.
    pub apps: Vec<AppShare>,
    /// True when the engine is serving last-good shares because the most
    /// recent epoch solve failed.
    pub degraded: bool,
}

/// One application's row in a [`SharesReply`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppShare {
    /// Application id.
    pub app_id: usize,
    /// Application name.
    pub name: String,
    /// Nominal share `β_i` (0 for applications not yet profiled).
    pub beta: f64,
    /// Capped allocation in APC units (0 for applications not yet
    /// profiled).
    pub allocation: f64,
    /// Per-resource breakdown for coordinated solves: one row per
    /// partitioned resource (`bandwidth`, `llc-ways`). `None` for
    /// bandwidth-only schemes, so v1-era replies are byte-identical.
    pub resources: Option<Vec<ResourceShare>>,
}

/// One fitted miss-ratio-curve knot in a [`CacheSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MrcPoint {
    /// Allocated LLC ways the point was sampled at.
    pub ways: f64,
    /// Observed LLC miss ratio in `[0, 1]`.
    pub miss_ratio: f64,
}

/// Client-measured cache profile: the inputs of a
/// [`bwpart_core::CacheAwareProfile`], shipped raw so the service owns
/// the (isotonic) fit and its validation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheSpec {
    /// LLC-incoming accesses per instruction (the L2 miss rate —
    /// invariant under way partitioning).
    pub api_llc: f64,
    /// Standalone CPI with a fully hitting LLC.
    pub cpi_base: f64,
    /// Standalone stall cycles per DDR access (MLP-discounted).
    pub mem_penalty: f64,
    /// Sampled miss-ratio curve, at least one point.
    pub mrc: Vec<MrcPoint>,
}

/// One resource's row in an [`AppShare`] breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceShare {
    /// Canonical resource name: `bandwidth` or `llc-ways`.
    pub kind: String,
    /// Fraction of the resource's total in `[0, 1]`.
    pub share: f64,
    /// Absolute amount in the resource's native unit (APC for bandwidth,
    /// ways for the LLC).
    pub amount: f64,
}

/// Reply to a successful Eq. 11 admission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QosGrant {
    /// The admitted application.
    pub app_id: usize,
    /// Reserved bandwidth `B_QoS = IPC_target × API` (APC units).
    pub reserved_apc: f64,
    /// Bandwidth left for best-effort applications after all reservations.
    pub remaining_apc: f64,
}

/// Reply to [`Request::Metrics`]: the service's observability registry in
/// both machine-readable forms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReply {
    /// Epoch at which the metrics were sampled.
    pub epoch: u64,
    /// Prometheus text exposition of every metric.
    pub prometheus: String,
    /// The same metrics as a typed snapshot.
    pub snapshot: bwpart_obs::MetricsSnapshot,
}

/// Service counters and per-application state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceSnapshot {
    /// Epochs elapsed since start.
    pub epoch: u64,
    /// Canonical name of the engine's configured scheme.
    pub scheme: String,
    /// Total bandwidth `B` being partitioned (APC units).
    pub bandwidth: f64,
    /// Epochs whose solve repartitioned (published new shares).
    pub repartitions: u64,
    /// Epochs held back by hysteresis (change below threshold).
    pub held_epochs: u64,
    /// Epochs skipped because no application reported any cycles.
    pub idle_epochs: u64,
    /// Epochs whose solve failed (served last-good instead).
    pub failed_epochs: u64,
    /// Phase changes detected (estimate snapped instead of smoothed).
    pub phase_changes: u64,
    /// Telemetry deltas shed across all applications since start (the sum
    /// of every [`AppStatus::shed`], kept here so backpressure is visible
    /// without scanning rows).
    pub telemetry_shed_total: u64,
    /// True while serving last-good shares after a failed solve.
    pub degraded: bool,
    /// Engine shards serving this snapshot (1 for an unsharded engine).
    pub shards: usize,
    /// Tenant groups present, alphabetically (empty for a plain
    /// single-engine service).
    pub groups: Vec<String>,
    /// Per-application state.
    pub apps: Vec<AppStatus>,
}

/// One application's row in a [`ServiceSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppStatus {
    /// Application id.
    pub app_id: usize,
    /// Application name.
    pub name: String,
    /// Registered accesses-per-instruction ratio.
    pub api: f64,
    /// Current smoothed `APC_alone` estimate (Eq. 12–13 + EWMA), absent
    /// until the first non-idle epoch.
    pub apc_alone_estimate: Option<f64>,
    /// Admitted QoS target IPC, if any.
    pub qos_target: Option<f64>,
    /// Telemetry deltas queued for the next epoch.
    pub queued: usize,
    /// Deltas shed (oldest-first) because the queue was full.
    pub shed: u64,
    /// LLC ways most recently published for this application by a
    /// coordinated solve (`None` under bandwidth-only schemes and for
    /// replies from pre-coordinated servers).
    pub llc_ways: Option<usize>,
}

/// Machine-readable error category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The frame itself was malformed (the connection closes after this).
    BadFrame,
    /// The frame's version byte named a codec this build does not speak
    /// (the connection closes after this). Distinct from
    /// [`BadFrame`](ErrorCode::BadFrame) so a newer client talking to an
    /// older server gets a signal it can downgrade on.
    UnsupportedVersion,
    /// `app_id` does not name a registered application.
    UnknownApp,
    /// The scheme name failed to parse.
    UnknownScheme,
    /// A numeric argument was non-finite or out of domain.
    InvalidArgument,
    /// The engine has no published shares / no estimate yet.
    NotReady,
    /// Eq. 11: the target exceeds the application's standalone IPC.
    QosUnreachable,
    /// Eq. 11: reservations would exceed the total bandwidth `B`.
    QosInfeasible,
    /// The epoch solve failed for the requested inputs.
    SolveFailed,
    /// The service is shutting down.
    ShuttingDown,
}

/// A structured error reply: a stable [`ErrorCode`] plus a human-readable
/// message. Errors never tear down the service; frame-level errors tear
/// down only the offending connection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceError {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ServiceError {
    /// Convenience constructor.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ServiceError {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request::Telemetry {
            app_id: 3,
            accesses: 1_000,
            shared_cycles: 100_000,
            interference_cycles: 40_000,
        }
    }

    #[test]
    fn round_trip_request() {
        let req = sample_request();
        let frame = encode(&req).unwrap();
        let (back, used): (Request, usize) = decode(&frame).unwrap().unwrap();
        assert_eq!(back, req);
        assert_eq!(used, frame.len());
    }

    #[test]
    fn incomplete_frames_ask_for_more() {
        let frame = encode(&Request::Snapshot).unwrap();
        for cut in 0..frame.len() {
            let r: Result<Option<(Request, usize)>, FrameError> = decode(&frame[..cut]);
            assert_eq!(r.unwrap(), None, "cut at {cut} should be incomplete");
        }
    }

    #[test]
    fn back_to_back_frames_decode_in_sequence() {
        let mut buf = encode(&Request::Snapshot).unwrap();
        buf.extend(encode(&sample_request()).unwrap());
        let (first, used): (Request, usize) = decode(&buf).unwrap().unwrap();
        assert_eq!(first, Request::Snapshot);
        let (second, used2): (Request, usize) = decode(&buf[used..]).unwrap().unwrap();
        assert_eq!(second, sample_request());
        assert_eq!(used + used2, buf.len());
    }

    #[test]
    fn bad_magic_version_reserved_rejected() {
        let good = encode(&Request::Snapshot).unwrap();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode::<Request>(&bad),
            Err(FrameError::BadMagic { .. })
        ));

        // Every version this build does not speak is rejected with the
        // version-specific error (not BadFrame), for both codec bodies.
        for unknown in [0u8, 3, 4, 0x7f, 0xff] {
            let mut bad = good.clone();
            bad[2] = unknown;
            assert_eq!(
                decode::<Request>(&bad),
                Err(FrameError::UnsupportedVersion { got: unknown }),
                "version {unknown} must be rejected"
            );
            assert_eq!(
                FrameError::UnsupportedVersion { got: unknown }.error_code(),
                ErrorCode::UnsupportedVersion
            );
        }

        let mut bad = good;
        bad[3] = 7;
        let err = decode::<Request>(&bad).unwrap_err();
        assert_eq!(err, FrameError::NonZeroReserved { got: 7 });
        assert_eq!(err.error_code(), ErrorCode::BadFrame);
    }

    #[test]
    fn known_versions_map_to_their_codecs() {
        assert_eq!(Codec::from_version(WIRE_VERSION), Some(Codec::Json));
        assert_eq!(
            Codec::from_version(WIRE_VERSION_BINARY),
            Some(Codec::Binary)
        );
        assert_eq!(Codec::Json.version(), WIRE_VERSION);
        assert_eq!(Codec::Binary.version(), WIRE_VERSION_BINARY);
        for unknown in [0u8, 3, 255] {
            assert_eq!(Codec::from_version(unknown), None);
        }
        assert_eq!("json".parse::<Codec>(), Ok(Codec::Json));
        assert_eq!("binary".parse::<Codec>(), Ok(Codec::Binary));
        assert!("cbor".parse::<Codec>().is_err());

        // The version byte on the wire matches the codec that encoded it,
        // and decode_frame reports the codec it actually saw.
        for codec in [Codec::Json, Codec::Binary] {
            let frame = encode_with(&Request::Snapshot, codec).unwrap();
            assert_eq!(frame[2], codec.version());
            let (back, used, seen): (Request, usize, Codec) =
                decode_frame(&frame).unwrap().unwrap();
            assert_eq!(back, Request::Snapshot);
            assert_eq!(used, frame.len());
            assert_eq!(seen, codec, "decode must report the frame's codec");
        }
    }

    #[test]
    fn binary_round_trip_matches_json() {
        let messages: Vec<Request> = vec![
            sample_request(),
            Request::Register {
                name: "lbm/t0".into(),
                api: 0.015,
                cache: None,
            },
            Request::Register {
                name: "llcfit".into(),
                api: 0.02,
                cache: Some(CacheSpec {
                    api_llc: 0.05,
                    cpi_base: 1.2,
                    mem_penalty: 80.0,
                    mrc: vec![
                        MrcPoint {
                            ways: 1.0,
                            miss_ratio: 0.9,
                        },
                        MrcPoint {
                            ways: 16.0,
                            miss_ratio: 0.05,
                        },
                    ],
                }),
            },
            Request::GetShares { scheme: None },
            Request::GetShares {
                scheme: Some("square-root".into()),
            },
            Request::QosAdmit {
                app_id: 2,
                ipc_target: 0.75,
            },
            Request::Shutdown,
        ];
        for msg in &messages {
            let bin = encode_with(msg, Codec::Binary).unwrap();
            let json = encode_with(msg, Codec::Json).unwrap();
            let (from_bin, _): (Request, usize) = decode(&bin).unwrap().unwrap();
            let (from_json, _): (Request, usize) = decode(&json).unwrap().unwrap();
            assert_eq!(&from_bin, msg, "binary round trip");
            assert_eq!(from_bin, from_json, "codecs must agree on {msg:?}");
        }
    }

    #[test]
    fn binary_incomplete_frames_ask_for_more() {
        let frame = encode_with(&sample_request(), Codec::Binary).unwrap();
        for cut in 0..frame.len() {
            let r: Result<Option<(Request, usize)>, FrameError> = decode(&frame[..cut]);
            assert_eq!(r.unwrap(), None, "cut at {cut} should be incomplete");
        }
    }

    #[test]
    fn binary_corruption_rejected_without_panic() {
        // Truncating the *payload* while fixing up the header length must
        // produce BadPayload (a complete frame with a truncated value),
        // never a panic.
        let full = encode_with(&sample_request(), Codec::Binary).unwrap();
        let payload = &full[HEADER_LEN..];
        for cut in 0..payload.len() {
            let mut frame = Vec::from(MAGIC);
            frame.push(WIRE_VERSION_BINARY);
            frame.push(0);
            frame.extend_from_slice(&(cut as u32).to_be_bytes());
            frame.extend_from_slice(&payload[..cut]);
            assert!(
                matches!(
                    decode::<Request>(&frame),
                    Err(FrameError::BadPayload { .. })
                ),
                "payload cut at {cut} must be BadPayload"
            );
        }

        // A lying collection count cannot trigger a proportional
        // allocation: tag 7 (array) claiming 2^32 elements in a payload
        // with zero element bytes.
        let lying: Vec<u8> = vec![7, 0x80, 0x80, 0x80, 0x80, 0x10];
        let mut frame = Vec::from(MAGIC);
        frame.push(WIRE_VERSION_BINARY);
        frame.push(0);
        frame.extend_from_slice(&(lying.len() as u32).to_be_bytes());
        frame.extend_from_slice(&lying);
        assert!(matches!(
            decode::<Request>(&frame),
            Err(FrameError::BadPayload { .. })
        ));
    }

    #[test]
    fn binary_value_tree_round_trips_edge_cases() {
        use serde::Value;
        let tree = Value::Object(vec![
            ("null".into(), Value::Null),
            ("t".into(), Value::Bool(true)),
            ("f".into(), Value::Bool(false)),
            ("zero".into(), Value::U64(0)),
            ("max".into(), Value::U64(u64::MAX)),
            ("imin".into(), Value::I64(i64::MIN)),
            ("imax".into(), Value::I64(i64::MAX)),
            ("neg".into(), Value::I64(-1)),
            ("pi".into(), Value::F64(std::f64::consts::PI)),
            ("negzero".into(), Value::F64(-0.0)),
            ("empty".into(), Value::String(String::new())),
            ("uni".into(), Value::String("βi ≤ 1 ∑".into())),
            ("arr".into(), Value::Array(vec![])),
            (
                "nested".into(),
                Value::Array(vec![Value::Object(vec![(
                    "k".into(),
                    Value::Array(vec![Value::U64(300), Value::I64(-300)]),
                )])]),
            ),
        ]);
        let mut bytes = Vec::new();
        binary::encode_value(&tree, &mut bytes);
        let back = binary::decode_value(&bytes).unwrap();
        // Bitwise f64 comparison (NaN-free tree, but -0.0 must survive).
        assert_eq!(back, tree);
        match back.get("negzero") {
            Some(Value::F64(f)) => assert!(f.is_sign_negative()),
            other => panic!("negzero decoded as {other:?}"),
        }

        // Trailing garbage after a complete value is rejected.
        bytes.push(0);
        assert!(binary::decode_value(&bytes).is_err());

        // Nesting past MAX_DEPTH is rejected, not a stack overflow.
        let mut deep = Value::U64(1);
        for _ in 0..(binary::MAX_DEPTH + 8) {
            deep = Value::Array(vec![deep]);
        }
        let mut bytes = Vec::new();
        binary::encode_value(&deep, &mut bytes);
        assert!(binary::decode_value(&bytes).is_err());
    }

    #[test]
    fn oversized_length_rejected_before_buffering() {
        let mut frame = Vec::from(MAGIC);
        frame.push(WIRE_VERSION);
        frame.push(0);
        frame.extend_from_slice(&(u32::MAX).to_be_bytes());
        // Only the header is present — the bogus length alone must reject.
        assert!(matches!(
            decode::<Request>(&frame),
            Err(FrameError::Oversized { .. })
        ));
        assert!(encode(&vec!["x".repeat(1024); 80]).is_err());
    }

    #[test]
    fn garbage_payload_rejected() {
        let mut frame = Vec::from(MAGIC);
        frame.push(WIRE_VERSION);
        frame.push(0);
        frame.extend_from_slice(&4u32.to_be_bytes());
        frame.extend_from_slice(&[0xff, 0xfe, 0x00, 0x01]);
        assert!(matches!(
            decode::<Request>(&frame),
            Err(FrameError::BadPayload { .. })
        ));

        let mut frame = Vec::from(MAGIC);
        frame.push(WIRE_VERSION);
        frame.push(0);
        frame.extend_from_slice(&2u32.to_be_bytes());
        frame.extend_from_slice(b"{}");
        assert!(matches!(
            decode::<Request>(&frame),
            Err(FrameError::BadPayload { .. })
        ));
    }

    #[test]
    fn metrics_round_trip() {
        let frame = encode(&Request::Metrics).unwrap();
        let (back, _): (Request, usize) = decode(&frame).unwrap().unwrap();
        assert_eq!(back, Request::Metrics);

        let reg = bwpart_obs::Registry::new();
        reg.counter("bwpartd_epochs_total").add(3);
        reg.gauge("bwpartd_app_share{app=\"lbm\"}").set(0.4);
        reg.histogram("bwpartd_epoch_latency_seconds").record(1e-4);
        let snapshot = reg.snapshot();
        let resp = Response::Metrics(MetricsReply {
            epoch: 3,
            prometheus: snapshot.render_prometheus(),
            snapshot,
        });
        let frame = encode(&resp).unwrap();
        let (back, _): (Response, usize) = decode(&frame).unwrap().unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn responses_round_trip() {
        let resp = Response::Shares(SharesReply {
            epoch: 12,
            outcome: SharesOutcome {
                scheme: "square-root".into(),
                bandwidth: 0.0095,
                beta: vec![0.25, 0.75],
                allocation: vec![0.0025, 0.007],
            },
            apps: vec![
                AppShare {
                    app_id: 0,
                    name: "milc".into(),
                    beta: 0.25,
                    allocation: 0.0025,
                    resources: None,
                },
                AppShare {
                    app_id: 1,
                    name: "lbm".into(),
                    beta: 0.75,
                    allocation: 0.007,
                    resources: Some(vec![
                        ResourceShare {
                            kind: "bandwidth".into(),
                            share: 0.75,
                            amount: 0.007,
                        },
                        ResourceShare {
                            kind: "llc-ways".into(),
                            share: 0.125,
                            amount: 2.0,
                        },
                    ]),
                },
            ],
            degraded: false,
        });
        let frame = encode(&resp).unwrap();
        let (back, _): (Response, usize) = decode(&frame).unwrap().unwrap();
        assert_eq!(back, resp);

        let err = Response::Error(ServiceError::new(
            ErrorCode::QosInfeasible,
            "reservations exceed B",
        ));
        let frame = encode(&err).unwrap();
        let (back, _): (Response, usize) = decode(&frame).unwrap().unwrap();
        assert_eq!(back, err);
    }

    /// Frames emitted before the coordinated extension lack the `cache`
    /// and `resources` fields entirely; both must decode to `None` so old
    /// clients and old servers interoperate with this build.
    #[test]
    fn legacy_frames_without_multiresource_fields_still_decode() {
        let legacy = br#"{"Register":{"name":"lbm","api":0.015}}"#;
        let mut frame = Vec::from(MAGIC);
        frame.push(WIRE_VERSION);
        frame.push(0);
        frame.extend_from_slice(&(legacy.len() as u32).to_be_bytes());
        frame.extend_from_slice(legacy);
        let (req, _): (Request, usize) = decode(&frame).unwrap().unwrap();
        assert_eq!(
            req,
            Request::Register {
                name: "lbm".into(),
                api: 0.015,
                cache: None,
            }
        );

        let legacy_share = br#"{"app_id":1,"name":"lbm","beta":0.75,"allocation":0.007}"#;
        let mut frame = Vec::from(MAGIC);
        frame.push(WIRE_VERSION);
        frame.push(0);
        frame.extend_from_slice(&(legacy_share.len() as u32).to_be_bytes());
        frame.extend_from_slice(legacy_share);
        let (share, _): (AppShare, usize) = decode(&frame).unwrap().unwrap();
        assert_eq!(share.resources, None);
        assert!((share.beta - 0.75).abs() < 1e-12);
    }
}
