//! Seeded hostile-client harness: one single-worker service meets a
//! series of misbehaving clients, and during and after each one a
//! well-behaved client checks the service invariants:
//!
//! * no registration is lost — `Snapshot` lists every app registered so
//!   far;
//! * the epoch never goes down;
//! * every `GroupShares` reply is a valid share vector
//!   ([`validate_shares`]);
//! * every reply arrives within 1 s.
//!
//! The seed fixes the step order, the byte pacing, the frame split
//! points and every generated value, so a failure replays exactly.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use bwpart_core::schemes::validate_shares;
use bwpart_mc::TelemetryDelta;
use bwpartd::protocol::{self, ErrorCode, Response};
use bwpartd::{
    serve, Client, ClientError, Codec, EngineConfig, Request, ServeConfig, ServerHandle,
};

const SEED: u64 = 0x5eed_b0a7_d15c_0de5;
/// Tenant groups every hostile registration lands in.
const GROUPS: [&str; 2] = ["acme", "zeta"];
/// The latency bound every well-behaved request must meet.
const REPLY_BOUND: Duration = Duration::from_secs(1);

/// xorshift64*: a tiny deterministic generator (no rand dependency).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn delta(&mut self) -> TelemetryDelta {
        let shared_cycles = 1_000_000 + self.below(200_000);
        TelemetryDelta {
            accesses: 5_000 + self.below(40_000),
            shared_cycles,
            interference_cycles: shared_cycles / 5 + self.below(100_000),
        }
    }
}

struct Harness {
    handle: ServerHandle,
    rng: Rng,
    /// Every application registered so far.
    names: Vec<String>,
    /// Highest epoch any check has seen.
    epoch: u64,
}

fn frame(req: &Request, codec: Codec) -> Vec<u8> {
    protocol::encode_with(req, codec).expect("encode request")
}

fn raw_connect(handle: &ServerHandle) -> TcpStream {
    let s = TcpStream::connect(handle.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    s
}

/// Read one reply frame, reporting the codec it came back in.
fn read_reply(s: &mut TcpStream, buf: &mut Vec<u8>) -> (Response, Codec) {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some((resp, used, codec)) =
            protocol::decode_frame::<Response>(buf).expect("well-formed reply")
        {
            buf.drain(..used);
            return (resp, codec);
        }
        let n = s.read(&mut chunk).expect("read reply");
        assert!(n > 0, "connection closed before the reply");
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn expect_error_then_close(s: &mut TcpStream, code: ErrorCode) {
    let (resp, _) = read_reply(s, &mut Vec::new());
    let Response::Error(e) = resp else {
        panic!("expected a {code:?} error, got {resp:?}");
    };
    assert_eq!(e.code, code, "{}", e.message);
    assert_eq!(s.read(&mut [0u8; 64]).expect("read EOF"), 0);
}

/// One well-behaved request, bounded by [`REPLY_BOUND`].
fn timed<T>(what: &str, f: impl FnOnce() -> Result<T, ClientError>) -> T {
    let t0 = Instant::now();
    let out = f().unwrap_or_else(|e| panic!("{what}: {e}"));
    let took = t0.elapsed();
    assert!(took < REPLY_BOUND, "{what} took {took:?}");
    out
}

impl Harness {
    fn start() -> Harness {
        let handle = serve(ServeConfig {
            // Small queues, so the flood below overflows them between
            // epochs.
            engine: EngineConfig {
                queue_capacity: 64,
                ..EngineConfig::default()
            },
            workers: 1,
            shards: 2,
            epoch_interval: Duration::from_millis(20),
            read_timeout: Duration::from_secs(5),
            ..ServeConfig::default()
        })
        .expect("bind on loopback");
        let mut h = Harness {
            handle,
            rng: Rng(SEED),
            names: Vec::new(),
            epoch: 0,
        };
        let mut c = Client::connect(h.handle.addr()).expect("connect");
        for group in GROUPS {
            for i in 0..3 {
                let name = format!("{group}/app-{i}");
                let id = c
                    .register(&name, 0.002 + 0.001 * i as f64)
                    .expect("register");
                c.telemetry(id, h.rng.delta()).expect("telemetry");
                h.names.push(name);
            }
        }
        h.handle.force_epoch();
        h.check("setup");
        h
    }

    fn fresh_name(&mut self, step: &str) -> String {
        let group = GROUPS[self.rng.below(GROUPS.len() as u64) as usize];
        format!("{group}/{step}-{}", self.names.len())
    }

    /// The well-behaved client's invariant check, on a fresh connection
    /// in a seeded codec.
    fn check(&mut self, when: &str) {
        let codec = [Codec::Json, Codec::Binary][self.rng.below(2) as usize];
        let mut c = timed(&format!("{when}: connect"), || {
            Client::connect_with(self.handle.addr(), codec)
        });
        c.set_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let snap = timed(&format!("{when}: snapshot"), || c.snapshot());
        for name in &self.names {
            assert!(
                snap.apps.iter().any(|a| &a.name == name),
                "{when}: registration `{name}` lost"
            );
        }
        assert!(
            snap.epoch >= self.epoch,
            "{when}: epoch went down from {} to {}",
            self.epoch,
            snap.epoch
        );
        self.epoch = snap.epoch;
        for group in GROUPS {
            let reply = timed(&format!("{when}: group-shares {group}"), || {
                c.group_shares(group, None)
            });
            let rows: Vec<f64> = reply.apps.iter().map(|r| r.beta).collect();
            validate_shares(&rows, rows.len())
                .and(validate_shares(
                    &reply.outcome.beta,
                    reply.outcome.beta.len(),
                ))
                .unwrap_or_else(|e| panic!("{when}: {group} shares invalid: {e}"));
        }
    }

    /// Register an app through a raw connection that sends each frame one
    /// byte at a time, with the service checked halfway through.
    fn slow_loris(&mut self) {
        let name = self.fresh_name("loris");
        let bytes = frame(
            &Request::Register {
                name: name.clone(),
                api: 0.003,
                cache: None,
            },
            Codec::Json,
        );
        let mut s = raw_connect(&self.handle);
        s.set_nodelay(true).expect("nodelay");
        let half = bytes.len() / 2;
        for (i, b) in bytes.iter().enumerate() {
            s.write_all(std::slice::from_ref(b)).expect("dribble");
            std::thread::sleep(Duration::from_micros(self.rng.below(1500)));
            if i == half {
                self.check("slow-loris mid-frame");
            }
        }
        let (resp, codec) = read_reply(&mut s, &mut Vec::new());
        assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
        assert_eq!(codec, Codec::Json);
        self.names.push(name);
    }

    /// Send a seeded prefix of a registration and disconnect: the torn
    /// frame must register nothing.
    fn disconnect_mid_frame(&mut self) {
        let ghost = self.fresh_name("ghost");
        let bytes = frame(
            &Request::Register {
                name: ghost.clone(),
                api: 0.003,
                cache: None,
            },
            Codec::Binary,
        );
        let cut = 1 + self.rng.below(bytes.len() as u64 - 1) as usize;
        let mut s = raw_connect(&self.handle);
        s.write_all(&bytes[..cut]).expect("write prefix");
        drop(s);
        std::thread::sleep(Duration::from_millis(20));
        let snap = self.handle.snapshot();
        assert!(
            snap.apps.iter().all(|a| a.name != ghost),
            "a torn frame registered `{ghost}`"
        );
    }

    /// One pipeline alternating codecs frame by frame: every reply comes
    /// back in its request's codec, in order.
    fn codec_switch_mid_pipeline(&mut self) {
        let name = self.fresh_name("switch");
        let group = name.split('/').next().expect("group").to_string();
        let reqs = [
            Request::Register {
                name: name.clone(),
                api: 0.004,
                cache: None,
            },
            Request::Snapshot,
            Request::GroupShares {
                group,
                scheme: None,
            },
            Request::Metrics,
        ];
        let first = self.rng.below(2) as usize;
        let codecs: Vec<Codec> = (0..reqs.len())
            .map(|i| [Codec::Json, Codec::Binary][(first + i) % 2])
            .collect();
        let batch: Vec<u8> = reqs
            .iter()
            .zip(&codecs)
            .flat_map(|(r, &c)| frame(r, c))
            .collect();
        let mut s = raw_connect(&self.handle);
        let split = self.rng.below(batch.len() as u64) as usize;
        s.write_all(&batch[..split]).expect("write");
        s.write_all(&batch[split..]).expect("write");
        let mut buf = Vec::new();
        for (i, &want) in codecs.iter().enumerate() {
            let (resp, codec) = read_reply(&mut s, &mut buf);
            assert_eq!(codec, want, "reply {i} came back in the wrong codec");
            assert!(!matches!(resp, Response::Error(_)), "reply {i}: {resp:?}");
        }
        self.names.push(name);
    }

    fn unknown_version(&mut self) {
        let mut bytes = frame(&Request::Snapshot, Codec::Json);
        bytes[2] = 3 + self.rng.below(253) as u8;
        let mut s = raw_connect(&self.handle);
        s.write_all(&bytes).expect("write");
        expect_error_then_close(&mut s, ErrorCode::UnsupportedVersion);
    }

    fn oversized_length(&mut self) {
        let mut header = frame(&Request::Snapshot, Codec::Binary);
        header.truncate(protocol::HEADER_LEN);
        let over = protocol::MAX_PAYLOAD as u64 + 1;
        let len = over + self.rng.below(u64::from(u32::MAX) - over);
        header[4..8].copy_from_slice(&(len as u32).to_be_bytes());
        let mut s = raw_connect(&self.handle);
        s.write_all(&header).expect("write");
        expect_error_then_close(&mut s, ErrorCode::BadFrame);
    }

    /// Far more telemetry than the per-app queues hold, pipelined from a
    /// writer thread while the service is checked; every frame is acked.
    fn telemetry_flood(&mut self) {
        const FRAMES: usize = 20_000;
        let ids: Vec<usize> = self
            .handle
            .snapshot()
            .apps
            .iter()
            .map(|a| a.app_id)
            .collect();
        let batch: Vec<u8> = (0..FRAMES)
            .flat_map(|i| {
                let d = self.rng.delta();
                let req = Request::Telemetry {
                    app_id: ids[i % ids.len()],
                    accesses: d.accesses,
                    shared_cycles: d.shared_cycles,
                    interference_cycles: d.interference_cycles,
                };
                frame(&req, Codec::Binary)
            })
            .collect();
        let mut s = raw_connect(&self.handle);
        let mut writer = s.try_clone().expect("clone");
        let flood = std::thread::spawn(move || writer.write_all(&batch));
        self.check("telemetry flood in flight");
        let mut buf = Vec::new();
        for i in 0..FRAMES {
            let (resp, _) = read_reply(&mut s, &mut buf);
            assert!(
                matches!(resp, Response::TelemetryAck { .. }),
                "flood reply {i}: {resp:?}"
            );
        }
        flood.join().expect("writer").expect("flood write");
        assert!(self.handle.snapshot().telemetry_shed_total > 0);
    }

    /// What-if solves whose power-family weights `APC_alone^α` overflow
    /// (large negative α) or underflow (large positive α) get a
    /// structured `SolveFailed`, never a panicked worker or a torn reply.
    fn unsolvable_what_ifs(&mut self) {
        let mut c = Client::connect(self.handle.addr()).expect("connect");
        c.set_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        for scheme in ["power:-300", "power:-1e308", "power:300", "power:1e308"] {
            let group = GROUPS[self.rng.below(GROUPS.len() as u64) as usize];
            for reply in [
                c.get_shares(Some(scheme)),
                c.group_shares(group, Some(scheme)),
            ] {
                match reply {
                    Err(ClientError::Service(e)) => {
                        assert_eq!(e.code, ErrorCode::SolveFailed, "{scheme}: {}", e.message)
                    }
                    other => panic!("{scheme}: expected SolveFailed, got {other:?}"),
                }
            }
        }
    }

    /// Pipeline until TCP pushes back without ever reading, half-close,
    /// and check the service while that connection stays parked.
    fn never_reading_pipeliner(&mut self) {
        const LIMIT: usize = 64 << 20;
        let req = [Request::Snapshot, Request::Metrics][self.rng.below(2) as usize].clone();
        let batch = frame(&req, Codec::Json).repeat(2048);
        let mut s = raw_connect(&self.handle);
        s.set_nonblocking(true).expect("nonblocking");
        let (mut sent, mut off) = (0usize, 0usize);
        let mut stalled_since: Option<Instant> = None;
        while stalled_since.is_none_or(|t| t.elapsed() < Duration::from_millis(300)) {
            match s.write(&batch[off..]) {
                Ok(n) => {
                    sent += n;
                    off = (off + n) % batch.len();
                    stalled_since = None;
                    assert!(sent <= LIMIT, "still reading after {sent} B");
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    stalled_since.get_or_insert_with(Instant::now);
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("pipeliner write after {sent} B: {e}"),
            }
        }
        s.shutdown(Shutdown::Write).expect("half-close");
        self.check("pipeliner parked");
        drop(s);
    }
}

#[test]
fn service_survives_hostile_clients() {
    type Step = fn(&mut Harness);
    let mut steps: Vec<(&str, Step)> = vec![
        ("slow-loris", Harness::slow_loris),
        ("disconnect mid-frame", Harness::disconnect_mid_frame),
        (
            "codec switch mid-pipeline",
            Harness::codec_switch_mid_pipeline,
        ),
        ("unknown version", Harness::unknown_version),
        ("oversized length", Harness::oversized_length),
        ("telemetry flood", Harness::telemetry_flood),
        ("never-reading pipeliner", Harness::never_reading_pipeliner),
        ("unsolvable what-ifs", Harness::unsolvable_what_ifs),
    ];
    let mut h = Harness::start();
    // Seeded Fisher-Yates: the order is part of what the seed replays.
    for i in (1..steps.len()).rev() {
        let j = h.rng.below(i as u64 + 1) as usize;
        steps.swap(i, j);
    }
    for (name, step) in steps {
        step(&mut h);
        h.check(&format!("after {name}"));
    }
    h.handle.shutdown();
    h.handle.join();
}
