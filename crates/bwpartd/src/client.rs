//! Typed client for the `bwpartd` wire protocol.
//!
//! One method per request type, sharing a single blocking TCP stream and
//! the same [`protocol`] codec the server uses. Service
//! errors come back as [`ClientError::Service`] with their structured
//! [`ErrorCode`](crate::protocol::ErrorCode) intact, so callers can branch
//! on e.g. a QoS rejection without string-matching.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use bwpart_mc::TelemetryDelta;

use crate::protocol::{
    self, CacheSpec, Codec, FrameError, MetricsReply, QosGrant, Request, Response, ServiceError,
    ServiceSnapshot, SharesReply,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure.
    Io(std::io::Error),
    /// The server's bytes did not parse as a frame.
    Frame(FrameError),
    /// The server answered with a structured error.
    Service(ServiceError),
    /// The server answered with the wrong response type for the request.
    UnexpectedReply(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "frame error: {e}"),
            ClientError::Service(e) => write!(f, "service error: {e}"),
            ClientError::UnexpectedReply(got) => write!(f, "unexpected reply: {got}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// A blocking connection to a `bwpartd` service.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    codec: Codec,
}

impl Client {
    /// Connect to the service at `addr` (anything `ToSocketAddrs`
    /// accepts, e.g. `"127.0.0.1:4780"` or a `SocketAddr`), speaking the
    /// default v1 JSON codec.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_with(addr, Codec::Json)
    }

    /// Connect speaking a specific codec ([`Codec::Binary`] for the
    /// compact v2 framing). The server answers each request in the codec
    /// it arrived in, so no negotiation round-trip is needed.
    pub fn connect_with(
        addr: impl std::net::ToSocketAddrs,
        codec: Codec,
    ) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::new(),
            codec,
        })
    }

    /// The codec this client frames its requests in.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Surrender the underlying socket (for load generators that pipeline
    /// raw frames instead of the one-in-flight call discipline). Any
    /// buffered reply bytes are discarded — only take the stream when no
    /// call is mid-flight.
    pub fn into_stream(self) -> TcpStream {
        self.stream
    }

    /// Bound how long calls wait for the server's reply.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Register (or re-register) this application; returns its id.
    pub fn register(&mut self, name: &str, api: f64) -> Result<usize, ClientError> {
        self.register_with_cache(name, api, None)
    }

    /// Register with a client-measured cache profile (sampled miss-ratio
    /// curve and CPI decomposition), enabling the application to take
    /// part in coordinated (bandwidth × LLC ways) solves.
    pub fn register_with_cache(
        &mut self,
        name: &str,
        api: f64,
        cache: Option<CacheSpec>,
    ) -> Result<usize, ClientError> {
        match self.call(&Request::Register {
            name: name.to_string(),
            api,
            cache,
        })? {
            Response::Registered { app_id } => Ok(app_id),
            other => Err(unexpected(other)),
        }
    }

    /// Report one telemetry delta; returns the epoch it will fold into.
    pub fn telemetry(&mut self, app_id: usize, delta: TelemetryDelta) -> Result<u64, ClientError> {
        match self.call(&Request::Telemetry {
            app_id,
            accesses: delta.accesses,
            shared_cycles: delta.shared_cycles,
            interference_cycles: delta.interference_cycles,
        })? {
            Response::TelemetryAck { epoch, .. } => Ok(epoch),
            other => Err(unexpected(other)),
        }
    }

    /// Fetch the published shares (`scheme = None`) or a what-if solve
    /// under another scheme (canonical kebab-case name).
    pub fn get_shares(&mut self, scheme: Option<&str>) -> Result<SharesReply, ClientError> {
        match self.call(&Request::GetShares {
            scheme: scheme.map(str::to_string),
        })? {
            Response::Shares(reply) => Ok(reply),
            other => Err(unexpected(other)),
        }
    }

    /// Fetch one tenant group's published shares (its own certified
    /// simplex over the full bandwidth), or a what-if solve for it.
    /// Only meaningful against a sharded service; on an unsharded one the
    /// single group is named `default`.
    pub fn group_shares(
        &mut self,
        group: &str,
        scheme: Option<&str>,
    ) -> Result<SharesReply, ClientError> {
        match self.call(&Request::GroupShares {
            group: group.to_string(),
            scheme: scheme.map(str::to_string),
        })? {
            Response::Shares(reply) => Ok(reply),
            other => Err(unexpected(other)),
        }
    }

    /// Ask for an Eq. 11 QoS guarantee.
    pub fn qos_admit(&mut self, app_id: usize, ipc_target: f64) -> Result<QosGrant, ClientError> {
        match self.call(&Request::QosAdmit { app_id, ipc_target })? {
            Response::QosAdmitted(grant) => Ok(grant),
            other => Err(unexpected(other)),
        }
    }

    /// Fetch service counters and per-application state.
    pub fn snapshot(&mut self) -> Result<ServiceSnapshot, ClientError> {
        match self.call(&Request::Snapshot)? {
            Response::Snapshot(snap) => Ok(snap),
            other => Err(unexpected(other)),
        }
    }

    /// Fetch the service's observability metrics (Prometheus text plus
    /// the typed snapshot).
    pub fn metrics(&mut self) -> Result<MetricsReply, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(reply) => Ok(reply),
            other => Err(unexpected(other)),
        }
    }

    /// Stop the service.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Send one request and read exactly one response.
    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let frame = protocol::encode_with(req, self.codec)?;
        self.stream.write_all(&frame)?;
        let mut chunk = [0u8; 4096];
        loop {
            if let Some((resp, used)) = protocol::decode::<Response>(&self.buf)? {
                self.buf.drain(..used);
                if let Response::Error(e) = resp {
                    return Err(ClientError::Service(e));
                }
                return Ok(resp);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(ClientError::Io(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection mid-reply",
                    )))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }
}

fn unexpected(resp: Response) -> ClientError {
    ClientError::UnexpectedReply(format!("{resp:?}"))
}
