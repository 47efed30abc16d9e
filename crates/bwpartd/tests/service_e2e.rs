//! End-to-end service tests over real TCP connections.
//!
//! The epoch timer is set far beyond test duration and epochs are driven
//! explicitly with [`ServerHandle::force_epoch`], so every test is
//! deterministic regardless of scheduler timing.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use bwpart_core::prelude::*;
use bwpart_mc::TelemetryDelta;
use bwpartd::protocol::{self, ErrorCode, Response};
use bwpartd::{serve, Client, ClientError, Codec, EngineConfig, ServeConfig, ServerHandle};

/// The paper's Mix-1-style four-application workload (name, API,
/// true standalone APC).
const APPS: [(&str, f64, f64); 4] = [
    ("lbm", 0.00939, 0.0531),
    ("libquantum", 0.00692, 0.0341),
    ("omnetpp", 0.00519, 0.0306),
    ("hmmer", 0.00529, 0.0046),
];

fn base_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig::new(PartitionScheme::SquareRoot, 0.0095),
        // Epochs are forced manually; the timer must never fire mid-test.
        epoch_interval: Duration::from_secs(3600),
        read_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    }
}

fn start_service() -> ServerHandle {
    serve(base_config()).expect("bind on loopback")
}

/// Tiny deterministic LCG for telemetry jitter (no rand dependency).
struct Lcg(u64);

impl Lcg {
    fn next_unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One epoch's telemetry for an application whose true standalone rate is
/// `apc_alone`, observed with ±3% multiplicative noise and a noisy
/// interference fraction — the counters a real controller would report.
fn noisy_delta(apc_alone: f64, rng: &mut Lcg) -> TelemetryDelta {
    let shared_cycles = 900_000 + (rng.next_unit() * 200_000.0) as u64;
    let interference_fraction = 0.2 + 0.2 * rng.next_unit();
    let interference_cycles = (shared_cycles as f64 * interference_fraction) as u64;
    let observed_apc = apc_alone * (0.97 + 0.06 * rng.next_unit());
    // Invert Eq. 12: N = APC_alone × (T_shared − T_interference).
    let accesses = (observed_apc * (shared_cycles - interference_cycles) as f64) as u64;
    TelemetryDelta {
        accesses,
        shared_cycles,
        interference_cycles,
    }
}

/// The ISSUE's acceptance demo: four independent clients stream noisy
/// telemetry; after a handful of epochs the published shares are within 2%
/// of the offline closed-form Square_root solution on the true profiles.
#[test]
fn four_app_telemetry_converges_to_offline_square_root() {
    let handle = start_service();
    let mut rng = Lcg(0x5eed);

    let mut clients: Vec<(Client, usize, f64)> = APPS
        .iter()
        .map(|&(name, api, apc)| {
            let mut c = Client::connect(handle.addr()).expect("connect");
            let id = c.register(name, api).expect("register");
            (c, id, apc)
        })
        .collect();

    for _ in 0..8 {
        for (client, id, apc) in &mut clients {
            let epoch = client
                .telemetry(*id, noisy_delta(*apc, &mut rng))
                .expect("telemetry");
            assert!(epoch > 0);
        }
        handle.force_epoch();
    }

    let reply = clients[0].0.get_shares(None).expect("published shares");
    assert!(!reply.degraded);
    assert_eq!(reply.outcome.scheme, "square-root");

    // Offline closed-form reference on the *true* profiles.
    let profiles: Vec<AppProfile> = APPS
        .iter()
        .map(|&(name, api, apc)| AppProfile::new(name, api, apc).expect("profile"))
        .collect();
    let offline = PartitionScheme::SquareRoot
        .solve(&profiles, 0.0095)
        .expect("offline solve");

    for (row, want) in reply.apps.iter().zip(&offline.beta) {
        let got = row.beta;
        assert!(
            (got - want).abs() / want < 0.02,
            "{}: online β {got:.5} deviates >2% from offline β {want:.5}",
            row.name
        );
    }
    for (row, want) in reply.apps.iter().zip(&offline.allocation) {
        assert!(
            (row.allocation - want).abs() / want < 0.02,
            "{}: online allocation deviates >2% from offline",
            row.name
        );
    }
}

/// Shares are epoch-consistent: between two repartitions, every client
/// sees the identical reply (same epoch stamp, same numbers).
#[test]
fn shares_are_consistent_across_clients_within_an_epoch() {
    let handle = start_service();
    let mut rng = Lcg(42);

    let mut feeder = Client::connect(handle.addr()).expect("connect");
    let ids: Vec<usize> = APPS
        .iter()
        .map(|&(name, api, _)| feeder.register(name, api).expect("register"))
        .collect();
    for (&id, &(_, _, apc)) in ids.iter().zip(&APPS) {
        feeder
            .telemetry(id, noisy_delta(apc, &mut rng))
            .expect("telemetry");
    }
    handle.force_epoch();

    let mut observers: Vec<Client> = (0..3)
        .map(|_| Client::connect(handle.addr()).expect("connect"))
        .collect();
    let replies: Vec<_> = observers
        .iter_mut()
        .map(|c| c.get_shares(None).expect("shares"))
        .collect();
    assert_eq!(replies[0], replies[1]);
    assert_eq!(replies[1], replies[2]);

    // Queued telemetry alone must not change what is served mid-epoch.
    feeder
        .telemetry(ids[0], noisy_delta(APPS[0].2 * 3.0, &mut rng))
        .expect("telemetry");
    let again = observers[0].get_shares(None).expect("shares");
    assert_eq!(again, replies[0]);
}

/// QoS admission over the wire: a feasible target is granted (Eq. 11
/// reservation visible in the next epoch's allocation), an infeasible one
/// is rejected with a structured error, and the rejection does not disturb
/// the already-admitted application.
#[test]
fn qos_admission_and_structured_rejection_over_the_wire() {
    let handle = start_service();
    let mut rng = Lcg(7);

    let mut c = Client::connect(handle.addr()).expect("connect");
    let ids: Vec<usize> = APPS
        .iter()
        .map(|&(name, api, _)| c.register(name, api).expect("register"))
        .collect();
    for _ in 0..3 {
        for (&id, &(_, _, apc)) in ids.iter().zip(&APPS) {
            c.telemetry(id, noisy_delta(apc, &mut rng))
                .expect("telemetry");
        }
        handle.force_epoch();
    }

    // hmmer: IPC_alone ≈ 0.0046 / 0.00529 ≈ 0.87 — a 0.6 target fits.
    let grant = c.qos_admit(ids[3], 0.6).expect("admit hmmer");
    assert!((grant.reserved_apc - 0.6 * 0.00529).abs() < 1e-4);

    // omnetpp demanding 1.4 IPC needs ~0.0073 APC on top of hmmer's
    // ~0.0032 — more than B = 0.0095: structured rejection.
    let err = c.qos_admit(ids[2], 1.4).expect_err("must be rejected");
    let ClientError::Service(service_err) = err else {
        panic!("expected a structured service error, got {err}");
    };
    assert_eq!(service_err.code, ErrorCode::QosInfeasible);

    // The admitted app is untouched: next epoch still honours Eq. 11.
    for (&id, &(_, _, apc)) in ids.iter().zip(&APPS) {
        c.telemetry(id, noisy_delta(apc, &mut rng))
            .expect("telemetry");
    }
    handle.force_epoch();
    let reply = c.get_shares(None).expect("shares");
    let hmmer = &reply.apps[ids[3]];
    assert!(
        (hmmer.allocation - 0.6 * 0.00529).abs() / (0.6 * 0.00529) < 0.01,
        "admitted reservation drifted: {}",
        hmmer.allocation
    );
    let snap = c.snapshot().expect("snapshot");
    let admitted: Vec<_> = snap
        .apps
        .iter()
        .filter(|a| a.qos_target.is_some())
        .collect();
    assert_eq!(admitted.len(), 1);
    assert_eq!(admitted[0].app_id, ids[3]);

    // Unreachable target (above standalone IPC) is its own error code.
    let err = c.qos_admit(ids[3], 5.0).expect_err("unreachable");
    let ClientError::Service(service_err) = err else {
        panic!("expected a structured service error, got {err}");
    };
    assert_eq!(service_err.code, ErrorCode::QosUnreachable);
}

/// A malformed frame earns a `BadFrame` error and kills that connection —
/// and only that connection: a well-behaved client on another socket keeps
/// working.
#[test]
fn malformed_frame_isolates_one_connection() {
    let handle = start_service();

    let mut good = Client::connect(handle.addr()).expect("connect good");
    let id = good.register("survivor", 0.01).expect("register");

    // Raw socket speaking garbage.
    let mut bad = TcpStream::connect(handle.addr()).expect("connect bad");
    bad.write_all(b"GET / HTTP/1.1\r\n\r\n")
        .expect("write garbage");
    bad.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let resp: Response = loop {
        match protocol::decode::<Response>(&buf) {
            Ok(Some((resp, _))) => break resp,
            Ok(None) => {}
            Err(e) => panic!("server reply did not frame: {e}"),
        }
        let n = bad.read(&mut chunk).expect("read error reply");
        assert!(n > 0, "connection closed before the error reply");
        buf.extend_from_slice(&chunk[..n]);
    };
    let Response::Error(service_err) = resp else {
        panic!("expected BadFrame error, got {resp:?}");
    };
    assert_eq!(service_err.code, ErrorCode::BadFrame);
    // The offending connection is closed...
    let n = bad.read(&mut chunk).expect("read EOF");
    assert_eq!(n, 0, "connection must close after a frame error");

    // ...while the good client still gets service.
    let epoch = good
        .telemetry(
            id,
            TelemetryDelta {
                accesses: 100,
                shared_cycles: 10_000,
                interference_cycles: 0,
            },
        )
        .expect("good client still served");
    assert!(epoch > 0);
    let snap = good.snapshot().expect("snapshot still works");
    assert_eq!(snap.apps.len(), 1);
}

/// An oversized length prefix is rejected from the header alone — the
/// server must not try to buffer 4 GiB because a client claimed it.
#[test]
fn oversized_frame_is_rejected_not_buffered() {
    let handle = start_service();
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    let mut frame = Vec::from(protocol::MAGIC);
    frame.push(protocol::WIRE_VERSION);
    frame.push(0);
    frame.extend_from_slice(&u32::MAX.to_be_bytes());
    s.write_all(&frame).expect("write header");
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");

    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match protocol::decode::<Response>(&buf) {
            Ok(Some((Response::Error(e), _))) => {
                assert_eq!(e.code, ErrorCode::BadFrame);
                assert!(e.message.contains("exceeds"), "message: {}", e.message);
                break;
            }
            Ok(Some((other, _))) => panic!("unexpected reply {other:?}"),
            Ok(None) => {}
            Err(e) => panic!("unframed reply: {e}"),
        }
        let n = s.read(&mut chunk).expect("read");
        assert!(n > 0, "closed without an error reply");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Unknown app ids and unknown scheme names come back as structured errors
/// on a connection that stays usable.
#[test]
fn structured_errors_leave_connection_usable() {
    let handle = start_service();
    let mut c = Client::connect(handle.addr()).expect("connect");

    let err = c
        .telemetry(99, TelemetryDelta::default())
        .expect_err("unknown app");
    let ClientError::Service(e) = err else {
        panic!("expected service error");
    };
    assert_eq!(e.code, ErrorCode::UnknownApp);

    let err = c.get_shares(Some("bogus")).expect_err("unknown scheme");
    let ClientError::Service(e) = err else {
        panic!("expected service error");
    };
    assert_eq!(e.code, ErrorCode::UnknownScheme);

    let err = c.get_shares(None).expect_err("nothing published yet");
    let ClientError::Service(e) = err else {
        panic!("expected service error");
    };
    assert_eq!(e.code, ErrorCode::NotReady);

    // Same connection, still alive.
    let id = c.register("alive", 0.01).expect("register still works");
    assert_eq!(id, 0);
}

/// The `Metrics` request over the wire: the Prometheus text and the typed
/// snapshot agree with the engine's behaviour, and telemetry shed under
/// queue backpressure is visible in both the metrics counter and the
/// extended `Snapshot` aggregate.
#[test]
fn metrics_over_the_wire_expose_epochs_and_backpressure_sheds() {
    let cfg = ServeConfig {
        engine: EngineConfig {
            // Tiny queue so the flood below forces oldest-first shedding.
            queue_capacity: 2,
            ..EngineConfig::new(PartitionScheme::SquareRoot, 0.0095)
        },
        ..base_config()
    };
    let handle = serve(cfg).expect("bind on loopback");
    let mut rng = Lcg(99);
    let mut c = Client::connect(handle.addr()).expect("connect");
    let id = c.register("flood", 0.00939).expect("register");

    // 7 deltas into a 2-deep queue: 5 shed, newest data wins.
    for _ in 0..7 {
        c.telemetry(id, noisy_delta(0.0531, &mut rng))
            .expect("telemetry");
    }
    handle.force_epoch();
    handle.force_epoch(); // idle epoch: nothing queued

    let m = c.metrics().expect("metrics");
    assert_eq!(m.epoch, 2);
    let counter = |name: &str| {
        m.snapshot
            .counters
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
            .unwrap_or(0)
    };
    assert_eq!(counter("bwpartd_epochs_total"), 2);
    assert_eq!(counter("bwpartd_repartitions_total"), 1);
    assert_eq!(counter("bwpartd_idle_epochs_total"), 1);
    assert_eq!(counter("bwpartd_telemetry_shed_total"), 5);
    // Both renderings carry the same counters.
    assert!(m.prometheus.contains("bwpartd_telemetry_shed_total 5\n"));
    assert!(m.prometheus.contains("# TYPE bwpartd_epochs_total counter"));
    // Epoch-decision latency was sampled once per epoch.
    let lat = m
        .snapshot
        .histograms
        .iter()
        .find(|h| h.name == "bwpartd_epoch_latency_seconds")
        .expect("latency histogram");
    assert_eq!(lat.count, 2);
    // The per-app share gauge tracks the published partition (one app:
    // the whole share).
    let share = m
        .snapshot
        .gauges
        .iter()
        .find(|g| g.name == "bwpartd_app_share{app=\"flood\"}")
        .expect("share gauge");
    assert!((share.value - 1.0).abs() < 1e-9, "β = {}", share.value);

    // The extended Snapshot reply exposes the same aggregate shed count.
    let snap = c.snapshot().expect("snapshot");
    assert_eq!(snap.telemetry_shed_total, 5);
    assert_eq!(snap.apps[id].shed, 5);
}

/// A client-issued shutdown stops the whole service; `join` returns.
#[test]
fn client_shutdown_stops_service() {
    let handle = start_service();
    let mut c = Client::connect(handle.addr()).expect("connect");
    c.register("x", 0.01).expect("register");
    c.shutdown().expect("shutdown ack");
    handle.join();
}

/// Tenant sharding on two reactor workers: two tenants each stream the
/// four-app workload over binary-codec connections, and every tenant
/// group's published shares converge — independently — to within 2% of the
/// offline closed-form Square_root solution, exactly like the unsharded
/// service.
#[test]
fn reactor_sharded_convergence_matches_offline_square_root() {
    let handle = serve(ServeConfig {
        shards: 4,
        workers: 2,
        ..base_config()
    })
    .expect("bind on loopback");
    let mut rng = Lcg(0xacce55);

    const TENANTS: [&str; 2] = ["acme", "zeta"];
    let mut clients: Vec<(Client, usize, f64)> = Vec::new();
    for tenant in TENANTS {
        for &(name, api, apc) in &APPS {
            let mut c = Client::connect_with(handle.addr(), Codec::Binary).expect("connect");
            let id = c
                .register(&format!("{tenant}/{name}"), api)
                .expect("register");
            clients.push((c, id, apc));
        }
    }

    for _ in 0..8 {
        for (client, id, apc) in &mut clients {
            let epoch = client
                .telemetry(*id, noisy_delta(*apc, &mut rng))
                .expect("telemetry");
            assert!(epoch > 0);
        }
        handle.force_epoch();
    }

    // Offline closed-form reference on the *true* profiles (per tenant the
    // group solves over the full bandwidth, so one reference serves both).
    let profiles: Vec<AppProfile> = APPS
        .iter()
        .map(|&(name, api, apc)| AppProfile::new(name, api, apc).expect("profile"))
        .collect();
    let offline = PartitionScheme::SquareRoot
        .solve(&profiles, 0.0095)
        .expect("offline solve");

    for tenant in TENANTS {
        let reply = clients[0]
            .0
            .group_shares(tenant, None)
            .expect("group shares");
        assert!(!reply.degraded, "{tenant} published degraded shares");
        assert_eq!(reply.outcome.scheme, "square-root");
        for (i, &(name, _, _)) in APPS.iter().enumerate() {
            let full = format!("{tenant}/{name}");
            let row = reply
                .apps
                .iter()
                .find(|r| r.name == full)
                .unwrap_or_else(|| panic!("{full} missing from group reply"));
            let (want_beta, want_alloc) = (offline.beta[i], offline.allocation[i]);
            assert!(
                (row.beta - want_beta).abs() / want_beta < 0.02,
                "{full}: online β {:.5} deviates >2% from offline β {want_beta:.5}",
                row.beta
            );
            assert!(
                (row.allocation - want_alloc).abs() / want_alloc < 0.02,
                "{full}: online allocation deviates >2% from offline"
            );
        }
    }

    // An unknown tenant is a structured error, not a crash.
    let err = clients[0]
        .0
        .group_shares("nobody", None)
        .expect_err("unknown tenant");
    let ClientError::Service(e) = err else {
        panic!("expected service error");
    };
    assert_eq!(e.code, ErrorCode::UnknownApp);

    handle.shutdown();
    handle.join();
}

/// JSON and binary clients interleave on the same server and see
/// identical epoch-consistent replies — the server answers each request in
/// the codec it arrived in, with no per-connection negotiation.
#[test]
fn mixed_codec_clients_see_identical_epoch_state() {
    let handle = start_service();
    let mut rng = Lcg(0x0dec);

    let mut json = Client::connect(handle.addr()).expect("connect json");
    let mut binary = Client::connect_with(handle.addr(), Codec::Binary).expect("connect binary");
    assert_eq!(json.codec(), Codec::Json);
    assert_eq!(binary.codec(), Codec::Binary);

    // Registration and telemetry alternate codecs app by app.
    let ids: Vec<usize> = APPS
        .iter()
        .enumerate()
        .map(|(i, &(name, api, _))| {
            let c = if i % 2 == 0 { &mut json } else { &mut binary };
            c.register(name, api).expect("register")
        })
        .collect();
    for _ in 0..4 {
        for (i, (&id, &(_, _, apc))) in ids.iter().zip(&APPS).enumerate() {
            let c = if i % 2 == 0 { &mut binary } else { &mut json };
            c.telemetry(id, noisy_delta(apc, &mut rng))
                .expect("telemetry");
        }
        handle.force_epoch();
    }

    // Same epoch, same numbers, regardless of wire encoding.
    let from_json = json.get_shares(None).expect("shares via json");
    let from_binary = binary.get_shares(None).expect("shares via binary");
    assert_eq!(from_json, from_binary);
    assert!(!from_json.degraded);

    handle.shutdown();
    handle.join();
}

/// A frame carrying an unknown protocol version byte earns a structured
/// `UnsupportedVersion` error and a closed connection.
#[test]
fn unknown_wire_version_is_rejected_with_structured_error() {
    let handle = start_service();

    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    let mut frame = Vec::from(protocol::MAGIC);
    frame.push(3); // one past the highest negotiated version
    frame.push(0);
    frame.extend_from_slice(&4u32.to_be_bytes());
    frame.extend_from_slice(b"null");
    s.write_all(&frame).expect("write versioned frame");
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");

    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let resp: Response = loop {
        match protocol::decode::<Response>(&buf) {
            Ok(Some((resp, _))) => break resp,
            Ok(None) => {}
            Err(e) => panic!("reply did not frame: {e}"),
        }
        let n = s.read(&mut chunk).expect("read error reply");
        assert!(n > 0, "connection closed before the error reply");
        buf.extend_from_slice(&chunk[..n]);
    };
    let Response::Error(service_err) = resp else {
        panic!("expected an error, got {resp:?}");
    };
    assert_eq!(service_err.code, ErrorCode::UnsupportedVersion);
    // ...and the offending connection is closed.
    let n = s.read(&mut chunk).expect("read EOF");
    assert_eq!(n, 0, "connection must close after a version error");

    handle.shutdown();
    handle.join();
}

/// The what-if query answers under a different scheme without changing
/// what is published.
#[test]
fn what_if_scheme_query_over_the_wire() {
    let handle = start_service();
    let mut rng = Lcg(11);
    let mut c = Client::connect(handle.addr()).expect("connect");
    let ids: Vec<usize> = APPS
        .iter()
        .map(|&(name, api, _)| c.register(name, api).expect("register"))
        .collect();
    for (&id, &(_, _, apc)) in ids.iter().zip(&APPS) {
        c.telemetry(id, noisy_delta(apc, &mut rng))
            .expect("telemetry");
    }
    handle.force_epoch();

    let published = c.get_shares(None).expect("published");
    let whatif = c.get_shares(Some("proportional")).expect("what-if");
    assert_eq!(whatif.outcome.scheme, "proportional");
    assert_ne!(whatif.outcome.beta, published.outcome.beta);
    let again = c.get_shares(None).expect("published again");
    assert_eq!(again, published);
}
