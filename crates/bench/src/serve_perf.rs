//! Perf harness for the `bwpartd` online service behind
//! `cargo xtask bench-serve`.
//!
//! Three measurements, written to `BENCH_serve.json` (schema v3):
//!
//! * **Synchronous wire throughput/latency** — the service on loopback,
//!   `clients` blocking connections each driving a telemetry →
//!   get-shares loop through the framed JSON protocol, one request in
//!   flight per connection.
//! * **Pipelined throughput** — a sharded service
//!   (`ServeConfig { shards, workers }`) under hundreds of connections,
//!   each keeping a deep pipeline of binary-codec frames in flight:
//!   per-request syscall and wakeup costs amortize across the pipeline,
//!   and tenant shards solve their epochs independently.
//! * **Epoch decision latency** — a one-shard [`ShardMap`] alone, no
//!   sockets: fold telemetry for `apps` applications and time
//!   [`ShardMap::run_epochs`] (profile update + scheme solve + contract
//!   certification) over many epochs.
//!
//! Per-request latency is recorded through the `bwpart-obs` macro layer:
//! every client thread carries its own pre-resolved [`obs_hist!`] hooks
//! into one shared log-bucketed histogram per case, so the report's
//! percentiles come from the same instrumentation path production code
//! uses (exact to within one bucket, ≤ 25% relative error).
//!
//! Each wire case carries a [`ServeCaseEnv`] fingerprint; `cargo xtask
//! bench-serve --check` compares fresh throughput against the committed
//! report like-for-like and skips cases whose environment differs, so a
//! multi-core workstation never "regresses" numbers committed from a
//! 1-core CI container.
//!
//! The epoch timer is parked at one hour so the wire numbers measure the
//! request path, not repartitioning; a single forced epoch before the
//! measured loop guarantees share queries have a published reply to serve.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use bwpart_mc::TelemetryDelta;
use bwpart_obs::{obs_hist, Histogram, Registry};
use bwpartd::{
    protocol, serve, Client, Codec, EngineConfig, EpochOutcome, PartitionScheme, Request, Response,
    ServeConfig, ShardMap,
};
use serde::{Deserialize, Serialize};

pub use crate::perf::CheckOutcome;

/// Shared bandwidth used by all benches (the paper's 0.0095 APC budget).
const BANDWIDTH: f64 = 0.0095;

/// Current report schema tag. Bumped whenever the report shape changes;
/// `--check` refuses to compare reports across schema versions.
pub const SCHEMA: &str = "bwpart-bench-serve/v3";

/// Maximum tolerated throughput drop of any wire case against the
/// committed baseline before `--check` fails, in percent. Wider than the
/// simulator gate: loopback RPC numbers jitter more than pure-CPU loops.
pub const SERVE_CHECK_REGRESSION_PCT: f64 = 25.0;

/// Request-latency percentiles in microseconds, read from the shared
/// log-bucketed `bwpart-obs` histogram (exact to within one bucket).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Median latency, µs.
    pub p50_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
}

/// The service/load-generator shape a wire case was measured under.
/// `--check` refuses to compare cases whose environments differ.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeCaseEnv {
    /// Wire codec the load generator framed requests in.
    pub codec: String,
    /// Tenant shards in the service.
    pub shards: usize,
    /// Reactor worker threads.
    pub workers: usize,
    /// Requests kept in flight per connection (1 = synchronous).
    pub pipeline: usize,
    /// Host logical core count at measurement time.
    pub host_cores: usize,
}

/// Throughput and latency of one wire-protocol case end to end.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireBench {
    /// Case name (`json_sync` or `binary_pipelined`).
    pub name: String,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests issued per connection.
    pub requests_per_client: usize,
    /// Total requests across all connections.
    pub requests_total: usize,
    /// Aggregate requests per second over the measured window.
    pub requests_per_sec: f64,
    /// Per-request round-trip latency (pipelined cases: batch round-trip
    /// divided by depth — the effective per-request cost under load).
    pub latency: LatencyStats,
    /// Environment fingerprint for like-for-like `--check` comparison.
    pub env: ServeCaseEnv,
}

/// Latency of one epoch decision in a one-shard [`ShardMap`] (no
/// sockets).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochBench {
    /// Registered applications.
    pub apps: usize,
    /// Epochs timed.
    pub epochs: usize,
    /// How many of those epochs actually republished shares (the rest
    /// were held by hysteresis once the EWMA estimates settled).
    pub repartitions: u64,
    /// Per-epoch `run_epochs` latency.
    pub latency: LatencyStats,
}

/// The full report serialized to `BENCH_serve.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeBenchReport {
    /// Report schema tag ([`SCHEMA`]).
    pub schema: String,
    /// True when run with the CI smoke budget (timings not comparable to
    /// full runs).
    pub smoke: bool,
    /// Wire-protocol cases.
    pub wire: Vec<WireBench>,
    /// Epoch-engine bench.
    pub epoch: EpochBench,
}

/// Per-client-thread pre-resolved latency hooks (the `obs_hist!`
/// discipline: resolve once, record via a relaxed atomic per sample).
#[derive(Debug, Clone)]
struct ClientHooks {
    /// Request round-trip latency in microseconds.
    latency_us: Histogram,
}

/// Resolve one case's shared latency histogram into per-thread hooks.
fn latency_hooks(registry: &Registry, case: &str) -> Option<Box<ClientHooks>> {
    Some(Box::new(ClientHooks {
        latency_us: registry.histogram(&format!("bench_{case}_request_latency_us")),
    }))
}

/// Percentiles from the case's shared histogram, rounded to 0.1 µs.
fn stats(registry: &Registry, case: &str) -> LatencyStats {
    let h = registry.histogram(&format!("bench_{case}_request_latency_us"));
    let round = |v: f64| (v * 10.0).round() / 10.0;
    LatencyStats {
        p50_us: round(h.quantile(0.5)),
        p99_us: round(h.quantile(0.99)),
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A plausible telemetry delta, varied deterministically by `(app, step)`
/// so estimates stay stable while the bytes on the wire differ.
fn delta(app: usize, step: usize) -> TelemetryDelta {
    let jitter = ((app * 31 + step * 7) % 97) as u64;
    TelemetryDelta {
        accesses: 50_000 + (app as u64) * 1_000 + jitter,
        shared_cycles: 10_000_000 + jitter * 101,
        interference_cycles: 2_000_000 + (app as u64) * 50_000,
    }
}

/// Reactor workers for the synchronous case (as many as the pipelined
/// case runs).
const SYNC_WORKERS: usize = 2;

/// Run the synchronous wire case: `clients` blocking connections, `iters`
/// telemetry+get-shares pairs each, one request in flight at a time.
fn wire_bench_sync(clients: usize, iters: usize, registry: &Registry) -> WireBench {
    const CASE: &str = "json_sync";
    let cfg = ServeConfig {
        epoch_interval: Duration::from_secs(3600),
        engine: EngineConfig::new(PartitionScheme::SquareRoot, BANDWIDTH),
        workers: SYNC_WORKERS,
        ..ServeConfig::default()
    };
    // lint: allow(R1): bench harness — failing to bind loopback is fatal
    let handle = serve(cfg).expect("bind bwpartd on loopback");
    let addr = handle.addr();

    // All clients register and seed one telemetry delta, then rendezvous
    // so the forced epoch below publishes shares covering every app.
    let ready = Arc::new(Barrier::new(clients + 1));
    let go = Arc::new(Barrier::new(clients + 1));
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let (ready, go) = (Arc::clone(&ready), Arc::clone(&go));
            let obs = latency_hooks(registry, CASE);
            thread::spawn(move || {
                // lint: allow(R1): bench harness — loopback connect is fatal
                let mut cl = Client::connect(addr).expect("connect to bwpartd");
                let id = cl
                    .register(&format!("bench-{c}"), 0.005 + 0.002 * c as f64)
                    // lint: allow(R1): bench harness — registration is fatal
                    .expect("register bench app");
                // lint: allow(R1): bench harness — seeding telemetry is fatal
                cl.telemetry(id, delta(c, 0)).expect("seed telemetry");
                ready.wait();
                go.wait();
                for step in 1..=iters {
                    let t0 = Instant::now();
                    // lint: allow(R1): bench harness — request failure is fatal
                    cl.telemetry(id, delta(c, step)).expect("telemetry");
                    obs_hist!(obs, latency_us, t0.elapsed().as_nanos() as f64 / 1000.0);
                    let t0 = Instant::now();
                    // lint: allow(R1): bench harness — request failure is fatal
                    let shares = cl.get_shares(None).expect("get shares");
                    obs_hist!(obs, latency_us, t0.elapsed().as_nanos() as f64 / 1000.0);
                    std::hint::black_box(shares);
                }
            })
        })
        .collect();

    ready.wait();
    handle.force_epoch();
    go.wait();
    let t0 = Instant::now();
    for w in workers {
        // lint: allow(R1): bench harness — a panicked client is a real failure
        w.join().expect("client thread panicked");
    }
    let wall = t0.elapsed();
    handle.shutdown();
    handle.join();

    let total = clients * iters * 2;
    WireBench {
        name: CASE.to_string(),
        clients,
        requests_per_client: iters * 2,
        requests_total: total,
        requests_per_sec: (total as f64 / wall.as_secs_f64().max(1e-12)).round(),
        latency: stats(registry, CASE),
        env: ServeCaseEnv {
            codec: Codec::Json.name().to_string(),
            shards: 1,
            workers: SYNC_WORKERS,
            pipeline: 1,
            host_cores: host_cores(),
        },
    }
}

/// Load-generator shape for the pipelined case.
struct PipelinedLoad {
    /// Driver threads.
    threads: usize,
    /// Connections per driver thread.
    conns_per_thread: usize,
    /// Frames kept in flight per connection.
    pipeline: usize,
    /// Write→drain rounds per connection.
    rounds: usize,
    /// Tenant shards in the service.
    shards: usize,
    /// Reactor workers.
    workers: usize,
}

/// One pipelined connection: raw framed I/O, `pipeline` requests per
/// round. The telemetry frame is encoded once and replayed — the server
/// decodes every copy, which is exactly the cost under measurement; the
/// final frame of each round is a `group-shares` read for the
/// connection's tenant, so the solve/publish path stays on the wire too.
struct PipeConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    batch: Vec<u8>,
    started: Instant,
}

impl PipeConn {
    /// Count complete response frames in `rbuf`, draining them.
    fn drain_replies(&mut self) -> usize {
        let mut n = 0;
        // lint: allow(R1): bench harness — a malformed reply is fatal
        while let Some((resp, used)) =
            protocol::decode::<Response>(&self.rbuf).expect("well-formed reply")
        {
            self.rbuf.drain(..used);
            if let Response::Error(e) = resp {
                // lint: allow(R1): bench harness — a service error is fatal
                panic!("service error under bench load: {e}");
            }
            n += 1;
        }
        n
    }
}

/// Run the pipelined case: a sharded service, `threads ×
/// conns_per_thread` connections each keeping `pipeline` binary-codec
/// frames in flight for `rounds` rounds.
fn wire_bench_pipelined(load: &PipelinedLoad, registry: &Registry) -> WireBench {
    const CASE: &str = "binary_pipelined";
    let codec = Codec::Binary;
    let cfg = ServeConfig {
        epoch_interval: Duration::from_secs(3600),
        engine: EngineConfig::new(PartitionScheme::SquareRoot, BANDWIDTH),
        shards: load.shards,
        workers: load.workers,
        ..ServeConfig::default()
    };
    // lint: allow(R1): bench harness — failing to bind loopback is fatal
    let handle = serve(cfg).expect("bind sharded bwpartd on loopback");
    let addr = handle.addr();

    let ready = Arc::new(Barrier::new(load.threads + 1));
    let go = Arc::new(Barrier::new(load.threads + 1));
    let (conns, pipeline, rounds) = (load.conns_per_thread, load.pipeline, load.rounds);
    let workers: Vec<_> = (0..load.threads)
        .map(|t| {
            let (ready, go) = (Arc::clone(&ready), Arc::clone(&go));
            let obs = latency_hooks(registry, CASE);
            thread::spawn(move || {
                // Register one app per connection under the thread's tenant
                // group; seed telemetry so the forced epoch covers it.
                let mut pipes: Vec<PipeConn> = (0..conns)
                    .map(|c| {
                        // lint: allow(R1): bench harness — connect is fatal
                        let mut cl = Client::connect_with(addr, codec).expect("connect to bwpartd");
                        let name = format!("t{t}/app-{c}");
                        // lint: allow(R1): bench harness — registration is fatal
                        let id = cl
                            .register(&name, 0.004 + 0.0001 * c as f64)
                            .expect("register");
                        // lint: allow(R1): bench harness — seeding telemetry is fatal
                        cl.telemetry(id, delta(c, 0)).expect("seed telemetry");

                        // Pre-encode the round's batch: pipeline−1 telemetry
                        // frames and one group-shares read.
                        let tele = Request::Telemetry {
                            app_id: id,
                            accesses: 50_000 + c as u64,
                            shared_cycles: 10_000_000,
                            interference_cycles: 2_000_000,
                        };
                        // lint: allow(R1): bench harness — encoding is fatal
                        let tele_frame = protocol::encode_with(&tele, codec).expect("encode");
                        let reads = Request::GroupShares {
                            group: format!("t{t}"),
                            scheme: None,
                        };
                        // lint: allow(R1): bench harness — encoding is fatal
                        let read_frame = protocol::encode_with(&reads, codec).expect("encode");
                        let mut batch = Vec::with_capacity(
                            tele_frame.len() * (pipeline - 1) + read_frame.len(),
                        );
                        for _ in 0..pipeline - 1 {
                            batch.extend_from_slice(&tele_frame);
                        }
                        batch.extend_from_slice(&read_frame);
                        PipeConn {
                            stream: cl.into_stream(),
                            rbuf: Vec::new(),
                            batch,
                            started: Instant::now(),
                        }
                    })
                    .collect();
                ready.wait();
                go.wait();
                // Keep every connection's pipeline full: write all batches,
                // then drain replies round-robin until each connection has
                // answered its round.
                for _ in 0..rounds {
                    for p in pipes.iter_mut() {
                        p.started = Instant::now();
                        // lint: allow(R1): bench harness — write failure is fatal
                        p.stream.write_all(&p.batch).expect("write batch");
                    }
                    let mut outstanding: Vec<usize> = vec![pipeline; conns];
                    let mut live = conns;
                    let mut chunk = [0u8; 64 * 1024];
                    while live > 0 {
                        for (i, p) in pipes.iter_mut().enumerate() {
                            if outstanding[i] == 0 {
                                continue;
                            }
                            // lint: allow(R1): bench harness — read failure is fatal
                            let n = p.stream.read(&mut chunk).expect("read replies");
                            assert!(n > 0, "server closed mid-pipeline");
                            p.rbuf.extend_from_slice(&chunk[..n]);
                            let got = p.drain_replies();
                            outstanding[i] = outstanding[i].saturating_sub(got);
                            if outstanding[i] == 0 {
                                live -= 1;
                                // Effective per-request latency: the batch
                                // round-trip amortized over its depth.
                                let us = p.started.elapsed().as_nanos() as f64
                                    / 1000.0
                                    / pipeline as f64;
                                obs_hist!(obs, latency_us, us);
                            }
                        }
                    }
                }
            })
        })
        .collect();

    ready.wait();
    handle.force_epoch();
    go.wait();
    let t0 = Instant::now();
    for w in workers {
        // lint: allow(R1): bench harness — a panicked driver is a real failure
        w.join().expect("driver thread panicked");
    }
    let wall = t0.elapsed();
    handle.shutdown();
    handle.join();

    let clients = load.threads * load.conns_per_thread;
    let per_client = load.rounds * load.pipeline;
    let total = clients * per_client;
    WireBench {
        name: CASE.to_string(),
        clients,
        requests_per_client: per_client,
        requests_total: total,
        requests_per_sec: (total as f64 / wall.as_secs_f64().max(1e-12)).round(),
        latency: stats(registry, CASE),
        env: ServeCaseEnv {
            codec: codec.name().to_string(),
            shards: load.shards,
            workers: load.workers,
            pipeline: load.pipeline,
            host_cores: host_cores(),
        },
    }
}

/// Run the epoch-decision bench: fold telemetry for `apps` applications
/// and time `run_epochs` alone over `epochs` epochs.
fn epoch_bench(apps: usize, epochs: usize, registry: &Registry) -> EpochBench {
    const CASE: &str = "epoch_decision";
    let map = ShardMap::new(EngineConfig::new(PartitionScheme::SquareRoot, BANDWIDTH), 1)
        // lint: allow(R1): bench harness — the default config is valid
        .expect("engine config");
    let ids: Vec<usize> = (0..apps)
        .map(|i| {
            map.register(&format!("app-{i}"), 0.004 + 0.001 * i as f64)
                // lint: allow(R1): bench harness — registration is fatal
                .expect("register app")
        })
        .collect();
    let obs = latency_hooks(registry, CASE);
    let mut repartitions = 0u64;
    for e in 0..epochs {
        for (i, &id) in ids.iter().enumerate() {
            map.push_telemetry(id, delta(i, e))
                // lint: allow(R1): bench harness — app ids are valid here
                .expect("push telemetry");
        }
        let t0 = Instant::now();
        let outcome = map.run_epochs();
        obs_hist!(obs, latency_us, t0.elapsed().as_nanos() as f64 / 1000.0);
        if outcome == EpochOutcome::Repartitioned {
            repartitions += 1;
        }
    }
    EpochBench {
        apps,
        epochs,
        repartitions,
        latency: stats(registry, CASE),
    }
}

/// Run the full harness. `smoke` shrinks client/iteration counts ~10× for
/// CI.
pub fn run(smoke: bool) -> ServeBenchReport {
    let registry = Registry::new();
    let (clients, iters) = if smoke { (2, 100) } else { (4, 2_000) };
    let load = if smoke {
        PipelinedLoad {
            threads: 2,
            conns_per_thread: 8,
            pipeline: 8,
            rounds: 10,
            shards: 4,
            workers: 2,
        }
    } else {
        PipelinedLoad {
            threads: 8,
            conns_per_thread: 32,
            pipeline: 32,
            rounds: 25,
            shards: 4,
            workers: 2,
        }
    };
    let (apps, epochs) = if smoke { (8, 200) } else { (16, 2_000) };
    ServeBenchReport {
        schema: SCHEMA.to_string(),
        smoke,
        wire: vec![
            wire_bench_sync(clients, iters, &registry),
            wire_bench_pipelined(&load, &registry),
        ],
        epoch: epoch_bench(apps, epochs, &registry),
    }
}

/// Compare a fresh report against the committed baseline, like-for-like.
///
/// A wire case is only compared when its name, smoke flag, request
/// count, and [`ServeCaseEnv`] all match the committed entry; mismatched
/// cases are skipped, not failed. A compared case regresses when its
/// `requests_per_sec` falls more than [`SERVE_CHECK_REGRESSION_PCT`]
/// percent below the committed number.
pub fn check(committed: &ServeBenchReport, fresh: &ServeBenchReport) -> CheckOutcome {
    let mut out = CheckOutcome::default();
    if committed.schema != fresh.schema {
        out.regressions.push(format!(
            "schema mismatch: committed {} vs fresh {} — regenerate BENCH_serve.json",
            committed.schema, fresh.schema
        ));
        return out;
    }
    for f in &fresh.wire {
        let Some(c) = committed.wire.iter().find(|c| c.name == f.name) else {
            out.skipped
                .push((f.name.clone(), "no committed entry".to_string()));
            continue;
        };
        if committed.smoke != fresh.smoke || c.requests_total != f.requests_total {
            out.skipped.push((
                f.name.clone(),
                format!(
                    "budget mismatch (smoke {} vs {}, requests {} vs {})",
                    committed.smoke, fresh.smoke, c.requests_total, f.requests_total
                ),
            ));
            continue;
        }
        if c.env != f.env {
            out.skipped.push((
                f.name.clone(),
                format!("environment mismatch ({:?} vs {:?})", c.env, f.env),
            ));
            continue;
        }
        // Positive delta = fresh is slower (lower throughput), matching
        // the wall-time convention of the simulator gate.
        let delta_pct = (c.requests_per_sec - f.requests_per_sec) / c.requests_per_sec * 100.0;
        out.compared.push((f.name.clone(), delta_pct));
        if delta_pct > SERVE_CHECK_REGRESSION_PCT {
            out.regressions.push(format!(
                "{}: {:.0} req/s vs committed {:.0} req/s \
                 ({:+.1}% slower > {:.0}% budget)",
                f.name,
                f.requests_per_sec,
                c.requests_per_sec,
                delta_pct,
                SERVE_CHECK_REGRESSION_PCT
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_is_complete_and_consistent() {
        let report = run(true);
        assert_eq!(report.schema, SCHEMA);
        assert!(report.smoke);
        assert_eq!(report.wire.len(), 2);

        let sync = &report.wire[0];
        assert_eq!(sync.name, "json_sync");
        assert_eq!(sync.clients, 2);
        assert_eq!(sync.requests_total, sync.clients * sync.requests_per_client);
        assert!(sync.requests_per_sec > 0.0);
        assert!(sync.latency.p50_us > 0.0);
        assert!(sync.latency.p99_us >= sync.latency.p50_us);
        assert_eq!(sync.env.codec, "json");
        assert_eq!(sync.env.pipeline, 1);

        let piped = &report.wire[1];
        assert_eq!(piped.name, "binary_pipelined");
        assert_eq!(piped.clients, 16);
        assert_eq!(
            piped.requests_total,
            piped.clients * piped.requests_per_client
        );
        assert!(piped.requests_per_sec > 0.0);
        assert_eq!(piped.env.codec, "binary");
        assert_eq!(piped.env.shards, 4);
        assert!(piped.env.pipeline > 1);

        assert_eq!(report.epoch.apps, 8);
        assert_eq!(report.epoch.epochs, 200);
        // The first epoch always repartitions (no previous shares).
        assert!(report.epoch.repartitions >= 1);
        assert!(report.epoch.latency.p99_us >= report.epoch.latency.p50_us);

        // The report must round-trip through serde_json for
        // BENCH_serve.json and the --check reload path.
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: ServeBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.wire.len(), 2);
        assert_eq!(back.wire[1].env, report.wire[1].env);
    }

    #[test]
    fn check_compares_like_for_like_and_flags_regressions() {
        let case = |name: &str, rps: f64| WireBench {
            name: name.to_string(),
            clients: 2,
            requests_per_client: 100,
            requests_total: 200,
            requests_per_sec: rps,
            latency: LatencyStats {
                p50_us: 10.0,
                p99_us: 20.0,
            },
            env: ServeCaseEnv {
                codec: "binary".into(),
                shards: 4,
                workers: 2,
                pipeline: 8,
                host_cores: 1,
            },
        };
        let epoch = EpochBench {
            apps: 8,
            epochs: 200,
            repartitions: 1,
            latency: LatencyStats {
                p50_us: 2.0,
                p99_us: 5.0,
            },
        };
        let report = |rps: f64| ServeBenchReport {
            schema: SCHEMA.to_string(),
            smoke: true,
            wire: vec![case("binary_pipelined", rps)],
            epoch: epoch.clone(),
        };

        // Same throughput: compared, no regression.
        let out = check(&report(100_000.0), &report(100_000.0));
        assert!(out.passed());
        assert_eq!(out.compared.len(), 1);

        // Within budget: a 10% drop passes a 25% gate.
        assert!(check(&report(100_000.0), &report(90_000.0)).passed());

        // Beyond budget: a 50% drop fails.
        let out = check(&report(100_000.0), &report(50_000.0));
        assert!(!out.passed());
        assert!(out.regressions[0].contains("binary_pipelined"));

        // Environment mismatch: skipped, never a regression.
        let mut other = report(50_000.0);
        other.wire[0].env.shards = 8;
        let out = check(&report(100_000.0), &other);
        assert!(out.passed());
        assert_eq!(out.skipped.len(), 1);
        assert!(out.skipped[0].1.contains("environment mismatch"));

        // Schema mismatch is an explicit failure.
        let mut old = report(100_000.0);
        old.schema = "bwpart-bench-serve/v2".to_string();
        assert!(!check(&old, &report(100_000.0)).passed());
    }
}
