//! The TCP front-end: a fixed pool of nonblocking event-loop workers on
//! the vendored `mio` readiness substrate (DESIGN.md §16), multiplexing
//! hundreds of pipelined connections over a few threads.
//!
//! * **Worker 0** owns the nonblocking listener. Accepted connections are
//!   handed round-robin to the workers through each worker's
//!   [`Mailbox`] + [`Waker`] pair (the wake-dedup protocol is
//!   model-checked under loomlite — see `vendor/mio/src/models.rs`).
//! * **Every worker** runs one [`Poller`] (epoll on Linux, poll(2)
//!   fallback) over its own connections, decoding frames incrementally,
//!   dispatching through `handle_request`, and answering each request
//!   in the codec its frame arrived in — JSON and binary clients share
//!   one connection-handling path.
//! * **Epoch ticks ride the timer wheel.** Shard `s` of the
//!   [`ShardMap`] belongs to worker `s % workers`, so with ≥ 2 workers
//!   and ≥ 2 shards, epoch solves genuinely overlap. A second recurring
//!   timer sweeps idle connections past the read timeout.
//!
//! Degradation is deliberate and bounded:
//!
//! * **Malformed frames kill the connection, not the server.** A frame
//!   error gets a best-effort [`Response::Error`] — with
//!   [`ErrorCode::UnsupportedVersion`] for a version byte this build does
//!   not speak, [`ErrorCode::BadFrame`] otherwise — in the connection's
//!   last-seen codec, then the connection closes; every other client is
//!   untouched.
//! * **Memory per connection is bounded.** Requests stop being processed
//!   once a connection's reply backlog reaches [`WRITE_BUFFER_CAP`], and
//!   the socket stops being read once that backlog is full or the request
//!   buffer holds [`READ_BUFFER_CAP`] bytes; the socket's receive window
//!   then pushes back on the client. Read interest is registered only
//!   while the connection may read and write interest only while a reply
//!   is pending, so an idle connection costs one readable registration.
//! * **Stalled clients cannot pin resources.** A connection with no
//!   traffic in either direction for the read timeout is closed (it can
//!   reconnect — registration is idempotent by name).
//! * **Telemetry backpressure never blocks.** The engine's
//!   per-application queues are bounded and shed oldest-first, and
//!   [`protocol::MAX_PAYLOAD`] caps a frame before any allocation.
//! * **The shard map is the only shared state.** Its per-shard mutexes
//!   live inside [`ShardMap`] (lock-order table in `engine.rs`); the
//!   workers themselves hold no locks.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bwpart_mc::TelemetryDelta;
use mio::{wake_pair, Event, Events, Interest, Mailbox, Poller, TimerWheel, Token, WakeRx, Waker};

use crate::engine::{EngineConfig, ShardMap};
use crate::protocol::{self, Codec, ErrorCode, Request, Response, ServiceError};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 picks a free port; read
    /// the actual one from [`ServerHandle::addr`]).
    pub addr: String,
    /// Epoch-engine tuning (every tenant group's engine is built from
    /// this).
    pub engine: EngineConfig,
    /// Wall-clock interval between epochs. The engine also exposes manual
    /// epochs through [`ServerHandle::force_epoch`] for deterministic
    /// tests, so the interval may be generous.
    pub epoch_interval: Duration,
    /// A connection with no traffic in either direction for longer is
    /// disconnected.
    pub read_timeout: Duration,
    /// Tenant-shard count (≥ 1); see [`ShardMap`].
    pub shards: usize,
    /// Worker threads; `0` picks a default from the host's parallelism.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            engine: EngineConfig::default(),
            epoch_interval: Duration::from_millis(100),
            read_timeout: Duration::from_secs(5),
            shards: 1,
            workers: 0,
        }
    }
}

/// Handle to a running service.
pub struct ServerHandle {
    addr: SocketAddr,
    map: Arc<ShardMap>,
    shutdown: Arc<AtomicBool>,
    /// One waker per worker so [`ServerHandle::shutdown`] interrupts
    /// blocked polls immediately.
    wakers: Vec<Waker>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the service actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request shutdown (idempotent; also triggered by a client's
    /// [`Request::Shutdown`]).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for w in &self.wakers {
            let _ = w.wake();
        }
    }

    /// Run one epoch on every tenant engine immediately (deterministic
    /// alternative to waiting for the timer; used by tests and the CLI's
    /// one-shot mode).
    pub fn force_epoch(&self) -> crate::engine::EpochOutcome {
        self.map.run_epochs()
    }

    /// In-process view of the service counters (what a client would get
    /// from [`Request::Snapshot`]).
    pub fn snapshot(&self) -> crate::protocol::ServiceSnapshot {
        self.map.snapshot()
    }

    /// Wait for the service to stop (after [`ServerHandle::shutdown`] or a
    /// client-issued shutdown), returning the final counters — a snapshot
    /// taken any earlier would miss every epoch run while blocked here.
    pub fn join(mut self) -> crate::protocol::ServiceSnapshot {
        for t in self.threads.drain(..) {
            // lint: allow(R1): joining service threads; a panicking worker
            // already aborted the run in debug, best-effort in release
            let _ = t.join();
        }
        self.map.snapshot()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// A connection's reply backlog beyond which its requests stop being
/// processed until the peer reads (1 MiB ≈ 16 maximum-size frames).
pub const WRITE_BUFFER_CAP: usize = 1 << 20;

/// Bytes read from a socket per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// Ceiling on a connection's buffered request bytes: one maximum-size
/// frame plus one read chunk. A socket is read only while a whole chunk
/// still fits, so an incomplete frame always has room to finish, and a
/// buffer that is full always holds a complete frame to answer.
pub const READ_BUFFER_CAP: usize = protocol::HEADER_LEN + protocol::MAX_PAYLOAD + READ_CHUNK;

/// Wake pipe token.
const WAKE: Token = Token(0);
/// Listener token (worker 0 only).
const LISTEN: Token = Token(1);
/// First connection-slot token; slot `i` is token `i + CONN_BASE`.
const CONN_BASE: usize = 2;
/// Timer-wheel cookie: run this worker's shard epochs.
const TIMER_EPOCH: Token = Token(usize::MAX);
/// Timer-wheel cookie: sweep idle connections.
const TIMER_SWEEP: Token = Token(usize::MAX - 1);

/// Ceiling on one poll's block time: keeps the shutdown flag responsive
/// even if every timer is far out (wakers cut the latency further).
const MAX_POLL: Duration = Duration::from_millis(100);

/// Start the service: bind, spawn the worker pool (worker 0 also
/// accepts), and return immediately.
pub fn serve(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let map = ShardMap::new(cfg.engine.clone(), cfg.shards)
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e.to_string()))?;
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let map = Arc::new(map);
    let shutdown = Arc::new(AtomicBool::new(false));
    let nworkers = effective_workers(cfg.workers);

    // Build every worker's wake pair up front so each worker (and the
    // handle) can wake all of them: shutdown must interrupt blocked polls
    // no matter which worker learns of it first.
    let mut wake_rxs = Vec::with_capacity(nworkers);
    let mut wakers = Vec::with_capacity(nworkers);
    for _ in 0..nworkers {
        let (tx, rx) = wake_pair()?;
        wakers.push(tx);
        wake_rxs.push(rx);
    }
    let mailboxes: Arc<Vec<Mailbox<TcpStream>>> =
        Arc::new((0..nworkers).map(|_| Mailbox::new()).collect());
    let handle_wakers = wakers
        .iter()
        .map(|w| w.try_clone())
        .collect::<std::io::Result<Vec<_>>>()?;

    let mut threads = Vec::with_capacity(nworkers);
    let mut listener = Some(listener);
    for (idx, rx) in wake_rxs.into_iter().enumerate() {
        let peer_wakers = wakers
            .iter()
            .map(|w| w.try_clone())
            .collect::<std::io::Result<Vec<_>>>()?;
        let worker = Worker::new(
            idx,
            nworkers,
            if idx == 0 { listener.take() } else { None },
            rx,
            peer_wakers,
            Arc::clone(&mailboxes),
            Arc::clone(&map),
            Arc::clone(&shutdown),
            &cfg,
        )?;
        threads.push(
            std::thread::Builder::new()
                .name(format!("bwpartd-reactor-{idx}"))
                .spawn(move || worker.run())?,
        );
    }

    Ok(ServerHandle {
        addr,
        map,
        shutdown,
        wakers: handle_wakers,
        threads,
    })
}

/// `0` → min(4, available parallelism); anything else is taken as-is.
fn effective_workers(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(|p| p.get().min(4))
        .unwrap_or(2)
        .max(1)
}

/// One nonblocking connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Buffered request bytes; answered frames are cut off the front once
    /// per pass.
    rbuf: Vec<u8>,
    /// Encoded replies not yet accepted by the socket; `wpos` marks the
    /// already-written prefix (compacted once it grows past half).
    wbuf: Vec<u8>,
    wpos: usize,
    /// Codec of the most recent well-formed frame: frame-error replies go
    /// out in it (JSON before the first frame).
    last_codec: Codec,
    /// Peer half-closed its write side: answer what is buffered, flush,
    /// then close.
    read_closed: bool,
    /// Fatal frame error or shutdown reply queued: close once flushed.
    closing: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
    last_active: Instant,
}

impl Conn {
    fn pending(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Whether the socket should be read: the peer may still send, no
    /// fatal reply is queued, the reply backlog is under its cap, and a
    /// whole read chunk fits under [`READ_BUFFER_CAP`].
    fn wants_read(&self) -> bool {
        !self.read_closed
            && !self.closing
            && self.pending() < WRITE_BUFFER_CAP
            && self.rbuf.len() + READ_CHUNK <= READ_BUFFER_CAP
    }
}

/// What a connection event handler decided about the connection's fate.
enum Fate {
    Keep,
    Close,
}

struct Worker {
    idx: usize,
    nworkers: usize,
    listener: Option<TcpListener>,
    poller: Poller,
    wake_rx: WakeRx,
    /// All workers' wakers (index = worker), for shutdown broadcast and
    /// round-robin handoff.
    wakers: Vec<Waker>,
    mailboxes: Arc<Vec<Mailbox<TcpStream>>>,
    map: Arc<ShardMap>,
    shutdown: Arc<AtomicBool>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    wheel: TimerWheel,
    epoch_interval: Duration,
    read_timeout: Duration,
    sweep_interval: Duration,
    /// Worker 0's round-robin cursor over workers for accepted sockets.
    next_worker: usize,
}

impl Worker {
    // One-time wiring of everything a worker owns; a builder would add a
    // type for a single private call site.
    #[allow(clippy::too_many_arguments)]
    fn new(
        idx: usize,
        nworkers: usize,
        listener: Option<TcpListener>,
        wake_rx: WakeRx,
        wakers: Vec<Waker>,
        mailboxes: Arc<Vec<Mailbox<TcpStream>>>,
        map: Arc<ShardMap>,
        shutdown: Arc<AtomicBool>,
        cfg: &ServeConfig,
    ) -> std::io::Result<Worker> {
        let mut poller = Poller::new()?;
        poller.register(wake_rx.fd(), WAKE, Interest::READABLE)?;
        if let Some(l) = &listener {
            poller.register(l.as_raw_fd(), LISTEN, Interest::READABLE)?;
        }
        // Epoch quantum: fine enough that a fraction of the epoch
        // interval lands on a boundary, coarse enough that an idle wheel
        // advance visits few slots.
        let mut wheel = TimerWheel::new(Duration::from_millis(1), 256);
        wheel.schedule(cfg.epoch_interval, TIMER_EPOCH);
        let sweep_interval = (cfg.read_timeout / 4).max(Duration::from_millis(25));
        wheel.schedule(sweep_interval, TIMER_SWEEP);
        Ok(Worker {
            idx,
            nworkers,
            listener,
            poller,
            wake_rx,
            wakers,
            mailboxes,
            map,
            shutdown,
            conns: Vec::new(),
            free: Vec::new(),
            wheel,
            epoch_interval: cfg.epoch_interval,
            read_timeout: cfg.read_timeout,
            sweep_interval,
            next_worker: 0,
        })
    }

    fn run(mut self) {
        let mut events = Events::with_capacity(256);
        let mut fired: Vec<Token> = Vec::new();
        let mut adopted: Vec<TcpStream> = Vec::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            let timeout = self.wheel.next_timeout().unwrap_or(MAX_POLL).min(MAX_POLL);
            if self.poller.poll(&mut events, Some(timeout)).is_err() {
                // A failed poll is unrecoverable for this worker; flag the
                // whole service down rather than spinning blind.
                self.shutdown.store(true, Ordering::SeqCst);
                break;
            }
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            for &ev in events.iter() {
                match ev.token() {
                    WAKE => self.wake_rx.drain(),
                    LISTEN => self.accept_burst(),
                    Token(t) => self.conn_event(t - CONN_BASE, ev),
                }
                if self.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            // Adopt handed-off connections whether or not the wake edge
            // was observed this pass (the mailbox protocol guarantees a
            // wake is pending for anything left here).
            adopted.clear();
            self.mailboxes[self.idx].drain(&mut adopted);
            for stream in adopted.drain(..) {
                self.adopt(stream);
            }
            fired.clear();
            self.wheel.poll_expired(&mut fired);
            for t in fired.drain(..) {
                match t {
                    TIMER_EPOCH => {
                        self.tick_epochs();
                        self.wheel.schedule(self.epoch_interval, TIMER_EPOCH);
                    }
                    TIMER_SWEEP => {
                        self.sweep_idle();
                        self.wheel.schedule(self.sweep_interval, TIMER_SWEEP);
                    }
                    _ => {}
                }
            }
        }
        // Shutdown: wake the other workers (first one here pays the
        // broadcast; wake() on an already-woken pipe coalesces), close
        // every owned connection, and drop any handed-off sockets still
        // in the mailbox.
        for w in &self.wakers {
            let _ = w.wake();
        }
        let mut leftovers = Vec::new();
        self.mailboxes[self.idx].drain(&mut leftovers);
        drop(leftovers);
    }

    /// Run epochs on the shards this worker owns (`s % nworkers == idx`).
    fn tick_epochs(&self) {
        let mut s = self.idx;
        while s < self.map.shard_count() {
            let _ = self.map.run_shard_epochs(s);
            s += self.nworkers;
        }
    }

    fn sweep_idle(&mut self) {
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let stale = self.conns[slot]
                .as_ref()
                .is_some_and(|c| now.duration_since(c.last_active) >= self.read_timeout);
            if stale {
                self.close(slot);
            }
        }
    }

    /// Accept until `WouldBlock`, handing sockets round-robin across the
    /// pool (self included — a direct adopt skips the mailbox).
    fn accept_burst(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let target = self.next_worker % self.nworkers;
                    self.next_worker = self.next_worker.wrapping_add(1);
                    if target == self.idx {
                        self.adopt(stream);
                    } else {
                        let waker = &self.wakers[target];
                        self.mailboxes[target].push(stream, || {
                            let _ = waker.wake();
                        });
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // Transient accept failure (aborted handshake, fd
                // pressure): keep serving what we have.
                Err(_) => return,
            }
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let token = Token(slot + CONN_BASE);
        if self
            .poller
            .register(stream.as_raw_fd(), token, Interest::READABLE)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.conns[slot] = Some(Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            last_codec: Codec::Json,
            read_closed: false,
            closing: false,
            interest: Interest::READABLE,
            last_active: Instant::now(),
        });
    }

    fn conn_event(&mut self, slot: usize, ev: Event) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return; // stale event for a closed slot
        };
        let mut fate = Fate::Keep;
        if ev.is_readable() {
            fate = Self::fill_read_buffer(conn);
        }
        // Answer and flush until the buffered frames run out or the peer
        // stops reading. A flush that brings the backlog back under the
        // cap must resume processing here: those request bytes already
        // left the socket, so no readiness event will return to them.
        while matches!(fate, Fate::Keep) {
            fate = Self::process_frames(conn, &self.map, &self.shutdown);
            let parked = conn.pending() >= WRITE_BUFFER_CAP;
            if matches!(fate, Fate::Keep) {
                fate = Self::flush(conn);
            }
            if !parked || conn.pending() >= WRITE_BUFFER_CAP {
                break;
            }
        }
        // Processing stops short of the cap only when no complete frame is
        // left, so a half-closed or closing connection with nothing left
        // to flush is done.
        if matches!(fate, Fate::Keep) && (conn.read_closed || conn.closing) && conn.pending() == 0 {
            fate = Fate::Close;
        }
        match fate {
            Fate::Close => self.close(slot),
            Fate::Keep => self.update_interest(slot),
        }
    }

    /// Read while [`Conn::wants_read`] holds; level-triggered readiness
    /// reports whatever is left once reading resumes.
    fn fill_read_buffer(conn: &mut Conn) -> Fate {
        let mut chunk = [0u8; READ_CHUNK];
        while conn.wants_read() {
            match conn.stream.read(&mut chunk) {
                Ok(0) => conn.read_closed = true, // answer what we have, then close
                Ok(n) => {
                    conn.last_active = Instant::now();
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Fate::Close,
            }
        }
        Fate::Keep
    }

    /// Decode and dispatch buffered frames until the buffer runs dry, the
    /// reply backlog hits the cap, or the connection turns fatal; then cut
    /// the answered frames off the buffer in one move.
    fn process_frames(conn: &mut Conn, map: &ShardMap, shutdown: &AtomicBool) -> Fate {
        let mut pos = 0;
        while !conn.closing && conn.pending() < WRITE_BUFFER_CAP {
            match protocol::decode_frame::<Request>(&conn.rbuf[pos..]) {
                Ok(Some((req, used, codec))) => {
                    pos += used;
                    conn.last_codec = codec;
                    conn.closing = matches!(req, Request::Shutdown);
                    let resp = handle_request(req, map, shutdown);
                    if Self::queue_response(conn, &resp, codec).is_err() {
                        return Fate::Close;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Malformed frame: best-effort structured reply
                    // (UnsupportedVersion for unknown version bytes, see
                    // FrameError::error_code), then close once flushed.
                    let resp = Response::Error(ServiceError::new(e.error_code(), e.to_string()));
                    let _ = Self::queue_response(conn, &resp, conn.last_codec);
                    conn.closing = true;
                }
            }
        }
        conn.rbuf.drain(..pos);
        Fate::Keep
    }

    fn queue_response(conn: &mut Conn, resp: &Response, codec: Codec) -> Result<(), ()> {
        let frame = protocol::encode_with(resp, codec).map_err(|_| ())?;
        // Compact the consumed prefix before growing (amortized O(1)).
        if conn.wpos > 0 && conn.wpos * 2 >= conn.wbuf.len() {
            conn.wbuf.drain(..conn.wpos);
            conn.wpos = 0;
        }
        conn.wbuf.extend_from_slice(&frame);
        Ok(())
    }

    /// Write pending reply bytes until `WouldBlock` or empty.
    fn flush(conn: &mut Conn) -> Fate {
        while conn.pending() > 0 {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => return Fate::Close,
                Ok(n) => {
                    conn.wpos += n;
                    conn.last_active = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Fate::Close,
            }
        }
        if conn.pending() == 0 {
            conn.wbuf.clear();
            conn.wpos = 0;
        }
        Fate::Keep
    }

    /// Keep the registered interest in sync with the connection's state:
    /// read interest while [`Conn::wants_read`] holds, write interest
    /// while replies are pending.
    fn update_interest(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let interest = match (conn.wants_read(), conn.pending() > 0) {
            (true, true) => Interest::READABLE.add(Interest::WRITABLE),
            (true, false) => Interest::READABLE,
            (false, true) => Interest::WRITABLE,
            // Unreachable after `conn_event`: a connection that may not
            // read has a reply backlog, a complete frame it would have
            // answered, or nothing left (and was closed). Close rather
            // than strand it.
            (false, false) => return self.close(slot),
        };
        if interest == conn.interest {
            return;
        }
        let token = Token(slot + CONN_BASE);
        if self
            .poller
            .reregister(conn.stream.as_raw_fd(), token, interest)
            .is_ok()
        {
            conn.interest = interest;
        } else {
            self.close(slot);
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.free.push(slot);
            // conn (and its socket) drops here.
        }
    }
}

/// Dispatch one request against the shard map. Never panics; every
/// failure is a structured [`Response::Error`].
fn handle_request(req: Request, map: &ShardMap, shutdown: &AtomicBool) -> Response {
    match req {
        Request::Register { name, api, cache } => {
            match map.register_with_cache(&name, api, cache) {
                Ok(app_id) => Response::Registered { app_id },
                Err(e) => Response::Error(e),
            }
        }
        Request::Telemetry {
            app_id,
            accesses,
            shared_cycles,
            interference_cycles,
        } => {
            let delta = TelemetryDelta {
                accesses,
                shared_cycles,
                interference_cycles,
            };
            match map.push_telemetry(app_id, delta) {
                Ok(epoch) => Response::TelemetryAck { app_id, epoch },
                Err(e) => Response::Error(e),
            }
        }
        Request::GetShares { scheme } => {
            let result = match parse_scheme(scheme) {
                Ok(None) => map.get_shares(),
                Ok(Some(s)) => map.solve_with(s),
                Err(e) => Err(e),
            };
            match result {
                Ok(reply) => Response::Shares(reply),
                Err(e) => Response::Error(e),
            }
        }
        Request::GroupShares { group, scheme } => {
            let result = parse_scheme(scheme).and_then(|scheme| map.group_shares(&group, scheme));
            match result {
                Ok(reply) => Response::Shares(reply),
                Err(e) => Response::Error(e),
            }
        }
        Request::QosAdmit { app_id, ipc_target } => match map.qos_admit(app_id, ipc_target) {
            Ok(grant) => Response::QosAdmitted(grant),
            Err(e) => Response::Error(e),
        },
        Request::Snapshot => Response::Snapshot(map.snapshot()),
        Request::Metrics => Response::Metrics(map.metrics()),
        Request::Shutdown => {
            shutdown.store(true, Ordering::SeqCst);
            Response::ShuttingDown
        }
    }
}

fn parse_scheme(
    scheme: Option<String>,
) -> Result<Option<bwpart_core::PartitionScheme>, ServiceError> {
    match scheme {
        None => Ok(None),
        Some(name) => name
            .parse::<bwpart_core::PartitionScheme>()
            .map(Some)
            .map_err(|e| ServiceError::new(ErrorCode::UnknownScheme, e.to_string())),
    }
}
