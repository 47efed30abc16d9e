//! `serve-coord`: the real `bwpart serve` daemon as a child process,
//! partitioning bandwidth × LLC ways (`--scheme coordinated --ways 16`)
//! for 4 tenant groups × 8 applications on one reactor worker.
//!
//! Applications are twins of the simulator's benchmarks; each registers
//! with a cache spec sampled from its twin's miss-ratio curve. The load
//! is two closed-loop blocking clients (one binary, one JSON codec) on
//! their own threads: 80% telemetry writes, 20% `group-shares` reads.
//! bwpartd's agents block on every reply, so a closed loop is the load
//! they put on it. Set-up is starting the daemon, registering every
//! application, and waiting until every group has published shares.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use bwpart_core::prelude::*;
use bwpart_core::schemes::validate_shares;
use bwpart_mc::TelemetryDelta;
use bwpart_workloads::mrcprobe::fit_profile;
use bwpart_workloads::{cache_profiles, table3_profiles, Mix, MrcSampler, ProbePoint};
use bwpartd::protocol::{self, CacheSpec, MrcPoint, SharesReply};
use bwpartd::{Codec, EngineConfig, Request, Response, ShardMap};

use crate::digest::note_failure;
use crate::layers::Layers;
use crate::measure::{input_seed, mean, median, EndToEnd, HostSpeed, OpLog, Proc, Report, Rng};
use crate::Args;

const WORKLOAD: &str = "serve-coord";
/// Percentile reported as `tail_us`.
pub const TAIL_PCT: f64 = 90.0;
const GROUPS: usize = 4;
const APPS_PER_GROUP: usize = 8;
const WAYS: usize = 16;
/// The daemon's default `--bandwidth`.
const BANDWIDTH: f64 = 0.0095;
const SETUP_REPS: usize = 5;
/// Share of requests that are telemetry writes.
const TELEMETRY_SHARE: f64 = 0.8;
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);
/// Length of the service session a simulator workload's traced run uses
/// to measure the service layers.
const SESSION_SECONDS: f64 = 1.0;

/// One registered application.
pub struct App {
    pub name: String,
    pub api: f64,
    pub spec: CacheSpec,
    pub profile: CacheAwareProfile,
    /// Standalone accesses per cycle at the fair split (2 of 16 ways).
    rate: f64,
    /// Share of each telemetry window charged as interference.
    interference: f64,
}

impl App {
    fn delta(&self, rng: &mut Rng) -> TelemetryDelta {
        let shared = 100_000 + rng.below(20_000);
        let interference = (shared as f64 * self.interference) as u64;
        let noise = 1.0 + 0.02 * (rng.unit() - 0.5);
        let accesses = (self.rate * (shared - interference) as f64 * noise).round() as u64;
        TelemetryDelta {
            accesses: accesses.max(1),
            shared_cycles: shared,
            interference_cycles: interference,
        }
    }
}

/// The service's input population.
pub struct Population {
    pub apps: Vec<App>,
    pub groups: Vec<String>,
    /// Benchmark twins of group 0, in draw order.
    pub head: Vec<&'static str>,
    /// Host time of each `MrcSampler::probe_ways` call, ms.
    pub probe_ms: Vec<f64>,
}

impl Population {
    fn group_of(&self, app: usize) -> usize {
        app / APPS_PER_GROUP
    }
}

/// The LLC probe grid of `MrcSampler::new` for a 16-way LLC.
const PROBE_WAYS: [usize; 5] = [1, 2, 4, 8, 16];

/// Draw 8 distinct benchmark twins per group and sample each twin's
/// miss-ratio curve through `MrcSampler::probe_ways` (spans go to `l`).
pub fn population(seed: u64, l: Option<&Layers>) -> Result<Population, String> {
    let twins: Vec<_> = table3_profiles()
        .into_iter()
        .chain(cache_profiles())
        .collect();
    let mut rng = Rng::new(input_seed(0x5E27_E000, seed));
    let sampler = MrcSampler {
        warmup: 1_000_000,
        measure: 200_000,
        seed: input_seed(0xC0DE, seed),
        ..MrcSampler::new(crate::llc::llc_config())
    };
    let mut fitted: Vec<Option<(CacheAwareProfile, Vec<ProbePoint>)>> = vec![None; twins.len()];
    let mut pop = Population {
        apps: Vec::new(),
        groups: (0..GROUPS).map(|g| format!("t{g}")).collect(),
        head: Vec::new(),
        probe_ms: Vec::new(),
    };
    for g in 0..GROUPS {
        let mut order: Vec<usize> = (0..twins.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for &t in order.iter().take(APPS_PER_GROUP) {
            if fitted[t].is_none() {
                let mut points = Vec::new();
                for w in PROBE_WAYS {
                    let start = Instant::now();
                    points.push(sampler.probe_ways(&twins[t], w));
                    let d = start.elapsed();
                    pop.probe_ms.push(d.as_secs_f64() * 1e3);
                    if let Some(l) = l {
                        l.record("workloads.mrcprobe.probe_ways", start, d);
                    }
                }
                let profile = fit_profile(twins[t].name, &points).map_err(|e| e.to_string())?;
                fitted[t] = Some((profile, points));
            }
            let (profile, points) = fitted[t].clone().ok_or("twin was not sampled")?;
            let fair = (WAYS / APPS_PER_GROUP) as f64;
            if g == 0 {
                pop.head.push(twins[t].name);
            }
            pop.apps.push(App {
                name: format!("t{g}/{}", twins[t].name),
                api: profile.api_at(fair),
                spec: CacheSpec {
                    api_llc: profile.api_llc,
                    cpi_base: profile.cpi_base,
                    mem_penalty: profile.mem_penalty,
                    mrc: points
                        .iter()
                        .map(|p| MrcPoint {
                            ways: p.ways as f64,
                            miss_ratio: p.miss_ratio,
                        })
                        .collect(),
                },
                rate: profile.apc_alone_at(fair).max(1e-4),
                interference: 0.1 + 0.3 * rng.unit(),
                profile,
            });
        }
    }
    Ok(pop)
}

/// One blocking connection speaking one codec.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    codec: Codec,
}

impl Conn {
    fn connect(addr: SocketAddr, codec: Codec) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(4096),
            codec,
        })
    }

    /// Send one request and read exactly one reply (a timeout is an error).
    fn call(&mut self, req: &Request) -> Result<Response, String> {
        let frame = protocol::encode_with(req, self.codec).map_err(|e| e.to_string())?;
        self.stream.write_all(&frame).map_err(|e| e.to_string())?;
        let mut chunk = [0u8; 8192];
        loop {
            if let Some((resp, used)) =
                protocol::decode::<Response>(&self.buf).map_err(|e| e.to_string())?
            {
                self.buf.drain(..used);
                return Ok(resp);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("daemon closed the connection".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("reply: {e}")),
            }
        }
    }
}

/// A running daemon. Dropping it shuts the daemon down and waits for it.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon's exit summary never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    proc: Proc,
}

fn daemon_exe() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let exe = me.with_file_name("bwpart");
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!("daemon binary {} not found", exe.display()))
    }
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let exe = daemon_exe()?;
        let mut child = Command::new(&exe)
            .args([
                "serve",
                "--reactor",
                "--workers",
                "1",
                "--shards",
                "4",
                "--scheme",
                "coordinated",
                "--ways",
                "16",
                "--epoch-ms",
                "20",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let proc = Proc(child.id().to_string());
        let mut stdout = BufReader::new(child.stdout.take().ok_or("daemon has no stdout")?);
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .trim()
            .strip_prefix("bwpartd listening on ")
            .and_then(|a| a.parse::<SocketAddr>().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
                proc,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "daemon did not announce its address (got `{}`)",
                    banner.trim()
                ))
            }
        }
    }

    fn metrics(&self) -> Result<bwpart_obs::MetricsSnapshot, String> {
        match Conn::connect(self.addr, Codec::Binary)?.call(&Request::Metrics)? {
            Response::Metrics(m) => Ok(m.snapshot),
            other => Err(format!("metrics: unexpected reply {other:?}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(mut c) = Conn::connect(self.addr, Codec::Binary) {
            let _ = c.call(&Request::Shutdown);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A certified group reply: β on the simplex, and integral LLC ways of
/// at least one per application summing to the LLC's 16.
fn check_shares(r: &SharesReply) -> Result<(), String> {
    if r.degraded {
        return Err("degraded reply (last-good shares after a failed solve)".into());
    }
    validate_shares(&r.outcome.beta, r.apps.len()).map_err(|e| format!("shares: {e}"))?;
    let mut total = 0.0;
    for row in &r.apps {
        let ways = row
            .resources
            .as_ref()
            .and_then(|rs| rs.iter().find(|x| x.kind == "llc-ways"))
            .map(|x| x.amount)
            .ok_or_else(|| format!("app {} has no llc-ways row", row.app_id))?;
        if ways.fract() != 0.0 || ways < 1.0 {
            return Err(format!("app {} holds {ways} ways", row.app_id));
        }
        total += ways;
    }
    if total != WAYS as f64 {
        return Err(format!("ways sum to {total}, not {WAYS}"));
    }
    Ok(())
}

/// What a reply must be for the op to count as correct.
enum Expect {
    Ack(usize),
    Shares,
}

fn verdict(resp: &Response, expect: &Expect) -> Result<(), String> {
    match (resp, expect) {
        (Response::TelemetryAck { app_id, .. }, Expect::Ack(want)) if app_id == want => Ok(()),
        (Response::TelemetryAck { app_id, .. }, Expect::Ack(want)) => {
            Err(format!("ack names app {app_id}, sent app {want}"))
        }
        (Response::Shares(r), Expect::Shares) => check_shares(r),
        (other, _) => Err(format!("unexpected reply {other:?}")),
    }
}

/// Start a daemon, register the population with its cache specs, send
/// one telemetry delta per application, and wait until every group has
/// published shares. Returns the daemon and the applications' ids.
fn bring_up(pop: &Population, rng: &mut Rng) -> Result<(Daemon, Vec<usize>), String> {
    let daemon = Daemon::start()?;
    let mut c = Conn::connect(daemon.addr, Codec::Binary)?;
    let mut ids = Vec::with_capacity(pop.apps.len());
    for app in &pop.apps {
        match c.call(&Request::Register {
            name: app.name.clone(),
            api: app.api,
            cache: Some(app.spec.clone()),
        })? {
            Response::Registered { app_id } => ids.push(app_id),
            other => return Err(format!("register {}: {other:?}", app.name)),
        }
    }
    for (app, &id) in pop.apps.iter().zip(&ids) {
        let d = app.delta(rng);
        let resp = c.call(&telemetry(id, d))?;
        verdict(&resp, &Expect::Ack(id)).map_err(|e| format!("telemetry {}: {e}", app.name))?;
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut waiting: Vec<&String> = pop.groups.iter().collect();
    while !waiting.is_empty() {
        if Instant::now() > deadline {
            return Err(format!("groups {waiting:?} never published shares"));
        }
        let mut still = Vec::new();
        for g in waiting {
            match c.call(&group_shares(g))? {
                Response::Shares(r) => check_shares(&r).map_err(|e| format!("group {g}: {e}"))?,
                Response::Error(_) => still.push(g),
                other => return Err(format!("group {g}: {other:?}")),
            }
        }
        waiting = still;
        if !waiting.is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    Ok((daemon, ids))
}

fn telemetry(app_id: usize, d: TelemetryDelta) -> Request {
    Request::Telemetry {
        app_id,
        accesses: d.accesses,
        shared_cycles: d.shared_cycles,
        interference_cycles: d.interference_cycles,
    }
}

fn group_shares(group: &str) -> Request {
    Request::GroupShares {
        group: group.to_string(),
        scheme: None,
    }
}

/// The seeded request stream of one client.
struct Requests<'a> {
    pop: &'a Population,
    ids: &'a [usize],
    rng: Rng,
}

impl Requests<'_> {
    fn next(&mut self) -> (Request, Expect) {
        if self.rng.unit() < TELEMETRY_SHARE {
            let i = self.rng.below(self.pop.apps.len() as u64) as usize;
            let d = self.pop.apps[i].delta(&mut self.rng);
            (telemetry(self.ids[i], d), Expect::Ack(self.ids[i]))
        } else {
            let g = self.rng.below(self.pop.groups.len() as u64) as usize;
            (group_shares(&self.pop.groups[g]), Expect::Shares)
        }
    }
}

/// Drive the daemon with the two closed-loop clients for `seconds`.
/// With `trace`, every request is also recorded as a span.
fn load(
    addr: SocketAddr,
    pop: &Population,
    ids: &[usize],
    seed: u64,
    seconds: f64,
    trace: Option<&Layers>,
) -> Result<(OpLog, f64), String> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let logs: Vec<Result<OpLog, String>> = std::thread::scope(|s| {
        let clients: Vec<_> = [Codec::Binary, Codec::Json]
            .into_iter()
            .enumerate()
            .map(|(k, codec)| {
                s.spawn(move || -> Result<OpLog, String> {
                    let mut conn = Conn::connect(addr, codec)?;
                    let mut reqs = Requests {
                        pop,
                        ids,
                        rng: Rng::new(input_seed(0x10AD_0000 + k as u64, seed)),
                    };
                    let mut log = OpLog::default();
                    loop {
                        let (req, expect) = reqs.next();
                        let t = Instant::now();
                        let result = conn.call(&req);
                        let latency = t.elapsed();
                        if let Some(l) = trace {
                            let name = match expect {
                                Expect::Ack(_) => "bwpartd.request.telemetry",
                                Expect::Shares => "bwpartd.request.group_shares",
                            };
                            l.record(name, t, latency);
                        }
                        let ok = match result {
                            Ok(resp) => verdict(&resp, &expect),
                            Err(e) => {
                                // The stream may hold a late reply: start over.
                                conn = Conn::connect(addr, codec)?;
                                Err(e)
                            }
                        };
                        if let Err(e) = &ok {
                            note_failure(WORKLOAD, e);
                        }
                        log.record(latency, ok.is_ok());
                        if Instant::now() >= deadline {
                            return Ok(log);
                        }
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut all = OpLog::default();
    for log in logs {
        all.merge(log?);
    }
    Ok((all, wall))
}

/// Bring the daemon up `reps` times (each time a fresh process); the
/// previous daemon is stopped before the next set-up is timed.
fn timed_bring_up(
    pop: &Population,
    seed: u64,
    reps: usize,
) -> Result<((Daemon, Vec<usize>), f64), String> {
    let mut rng = Rng::new(input_seed(0x5E7_0000, seed));
    let mut times = Vec::new();
    let mut up = None;
    for _ in 0..reps.max(1) {
        drop(up.take());
        let t = Instant::now();
        up = Some(bring_up(pop, &mut rng)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((up.ok_or("no set-up ran")?, median(&times)))
}

/// The service's figures are not host-speed normalised: its latency is
/// set by wake-ups, scheduling and the daemon's epoch solves, which the
/// kernel does not track (per-second throughput and kernel time
/// correlated at no better than -0.31).
pub fn run(args: &Args) -> Result<Report, String> {
    if args.trace {
        return traced(args);
    }
    let pop = population(args.seed, None)?;
    let reps = if args.tiny { 1 } else { SETUP_REPS };
    let ((daemon, ids), setup_s) = timed_bring_up(&pop, args.seed, reps)?;
    let cpu0 = daemon.proc.cpu_seconds()?;
    let (log, wall_s) = load(daemon.addr, &pop, &ids, args.seed, args.seconds, None)?;
    let cpu_s = daemon.proc.cpu_seconds()? - cpu0;
    let peak_rss_mb = daemon.proc.peak_rss_mb()?;
    drop(daemon);
    Ok(EndToEnd {
        setup_s,
        setup_host: HostSpeed::default(),
        log,
        wall_s,
        cpu_s,
        host: HostSpeed::default(),
        peak_rss_mb,
        tail_pct: TAIL_PCT,
    }
    .report())
}

/// Untraced then traced halves of the load against one daemon, the
/// service-layer replays, and the simulator layers on group 0's twins.
fn traced(args: &Args) -> Result<Report, String> {
    let mut l = Layers::new();
    let pop = population(args.seed, Some(&l))?;
    let ((daemon, ids), _) = timed_bring_up(&pop, args.seed, 1)?;
    let half = args.seconds * 0.4;
    let (plain, plain_wall) = load(daemon.addr, &pop, &ids, args.seed, half, None)?;
    let (traced, traced_wall) = load(daemon.addr, &pop, &ids, args.seed, half, Some(&l))?;
    let snapshot = daemon.metrics()?;
    drop(daemon);
    let per_op = |log: &OpLog, wall: f64| wall / log.attempted.max(1) as f64;
    l.set(
        "trace.overhead_pct",
        (per_op(&traced, traced_wall) / per_op(&plain, plain_wall) - 1.0) * 100.0,
        "%",
    );
    let explained = service_layers(&mut l, &pop, args.seed, &plain, &snapshot)?;
    l.set("trace.coverage", explained, "ratio");

    // Simulator layers, on a 4-application mix of group 0's twins.
    let mix = Mix {
        name: "serve-head".into(),
        benches: pop.head.iter().take(4).map(|b| b.to_string()).collect(),
    };
    crate::grid::sim_layers(&mut l, args, &mix)?;
    Ok(l.finish(
        WORKLOAD,
        args.seed,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
    ))
}

/// The service layers for a simulator workload's traced run: a short
/// session against a fresh daemon, then the in-process replays. Returns
/// the session's requests attempted and failed.
pub fn layers(l: &mut Layers, args: &Args) -> Result<(u64, u64), String> {
    let pop = population(args.seed, Some(l))?;
    let ((daemon, ids), _) = timed_bring_up(&pop, args.seed, 1)?;
    let seconds = if args.tiny { 0.3 } else { SESSION_SECONDS };
    let (log, _) = load(daemon.addr, &pop, &ids, args.seed, seconds, None)?;
    let snapshot = daemon.metrics()?;
    drop(daemon);
    service_layers(l, &pop, args.seed, &log, &snapshot)?;
    Ok((log.attempted, log.failed))
}

/// Codec and engine replays over the population, the coordinated solve,
/// the daemon's own counters, and the derived reactor/loopback share of
/// the median request. Returns the share of the median request the
/// in-process codec and engine replays explain.
fn service_layers(
    l: &mut Layers,
    pop: &Population,
    seed: u64,
    log: &OpLog,
    daemon: &bwpart_obs::MetricsSnapshot,
) -> Result<f64, String> {
    l.set("workloads.mrcprobe.probe_ms", median(&pop.probe_ms), "ms");

    // core.coord: the solve each group's epoch runs.
    let mut solve_us = Vec::new();
    for _ in 0..5 {
        for g in 0..GROUPS {
            let profiles: Vec<CacheAwareProfile> = (0..pop.apps.len())
                .filter(|&i| pop.group_of(i) == g)
                .map(|i| pop.apps[i].profile.clone())
                .collect();
            let (res, d) = l.span("core.coord.solve", || {
                solve_coordinated(&profiles, &CoordConfig::new(BANDWIDTH, WAYS))
            });
            res.map_err(|e| format!("coordinated solve: {e}"))?;
            solve_us.push(d.as_secs_f64() * 1e6);
        }
    }
    l.set("core.coord.solve_us", median(&solve_us), "us");

    // bwpartd.engine: the daemon's ShardMap in process, same population.
    let map = ShardMap::new(
        EngineConfig {
            total_ways: Some(WAYS),
            ..EngineConfig::new(PartitionScheme::Coordinated, BANDWIDTH)
        },
        GROUPS,
    )
    .map_err(|e| e.to_string())?;
    let mut ids = Vec::new();
    for app in &pop.apps {
        ids.push(
            map.register_with_cache(&app.name, app.api, Some(app.spec.clone()))
                .map_err(|e| e.to_string())?,
        );
    }
    let mut rng = Rng::new(input_seed(0xE9_0000, seed));
    let (mut push_ns, mut shares_ns, mut epoch_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut replies: Vec<SharesReply> = Vec::new();
    const EPOCHS: usize = 12;
    const DELTAS_PER_APP: usize = 16;
    const READS_PER_GROUP: usize = 16;
    for _ in 0..EPOCHS {
        let deltas: Vec<(usize, TelemetryDelta)> = (0..DELTAS_PER_APP)
            .flat_map(|_| {
                ids.iter()
                    .zip(&pop.apps)
                    .map(|(&id, a)| (id, a.delta(&mut rng)))
                    .collect::<Vec<_>>()
            })
            .collect();
        let (res, d) = l.span("bwpartd.engine.push_telemetry", || {
            deltas
                .iter()
                .try_for_each(|&(id, dl)| map.push_telemetry(id, dl).map(|_| ()))
        });
        res.map_err(|e| e.to_string())?;
        push_ns.push(d.as_nanos() as f64 / deltas.len() as f64);
        let (_, d) = l.span("bwpartd.engine.run_epochs", || map.run_epochs());
        epoch_us.push(d.as_secs_f64() * 1e6);
        let (res, d) = l.span("bwpartd.engine.group_shares", || {
            let mut out = Vec::new();
            for g in &pop.groups {
                for _ in 0..READS_PER_GROUP {
                    out.push(map.group_shares(g, None));
                }
            }
            out
        });
        shares_ns.push(d.as_nanos() as f64 / (GROUPS * READS_PER_GROUP) as f64);
        replies = res
            .into_iter()
            .step_by(READS_PER_GROUP)
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
    }
    let push = median(&push_ns);
    let shares = median(&shares_ns);
    l.set("bwpartd.engine.push_ns", push, "ns");
    l.set("bwpartd.engine.group_shares_ns", shares, "ns");
    l.set("bwpartd.engine.epoch_us", median(&epoch_us), "us");
    let snap = map.metrics().snapshot;
    let counter = |s: &bwpart_obs::MetricsSnapshot, n: &str| {
        s.counters
            .iter()
            .find(|c| c.name == n)
            .map_or(0.0, |c| c.value as f64)
    };
    l.set(
        "bwpartd.engine.repartition_frac",
        counter(&snap, "bwpartd_repartitions_total")
            / counter(&snap, "bwpartd_epochs_total").max(1.0),
        "ratio",
    );

    // bwpartd.protocol: one op = request and reply, each encoded once and
    // decoded once, over the load's request mix.
    let mut ops: Vec<(Request, Response)> = Vec::new();
    for i in 0..1000usize {
        if rng.unit() < TELEMETRY_SHARE {
            let a = i % pop.apps.len();
            ops.push((
                telemetry(ids[a], pop.apps[a].delta(&mut rng)),
                Response::TelemetryAck {
                    app_id: ids[a],
                    epoch: EPOCHS as u64,
                },
            ));
        } else {
            let g = i % GROUPS;
            ops.push((
                group_shares(&pop.groups[g]),
                Response::Shares(replies[g].clone()),
            ));
        }
    }
    let mut codec_us = Vec::new();
    for codec in [Codec::Binary, Codec::Json] {
        let (enc, dec, bytes) = codec_replay(l, codec, &ops)?;
        let name = codec.name();
        l.set(&format!("bwpartd.protocol.encode_ns.{name}"), enc, "ns");
        l.set(&format!("bwpartd.protocol.decode_ns.{name}"), dec, "ns");
        l.set(
            &format!("bwpartd.protocol.frame_bytes.{name}"),
            bytes,
            "bytes",
        );
        codec_us.push((enc + dec) / 1e3);
    }

    // The daemon's own counters.
    let p99 = daemon
        .histograms
        .iter()
        .find(|h| h.name == "bwpartd_epoch_latency_seconds")
        .map_or(0.0, |h| h.p99 * 1e6);
    l.set("bwpartd.daemon.epoch_p99_us", p99, "us");
    l.set(
        "bwpartd.engine.telemetry_shed",
        counter(daemon, "bwpartd_telemetry_shed_total"),
        "count",
    );

    // The reactor and loopback share of the median request: what the
    // in-process codec and engine work for the same mix leaves over.
    let mut sorted = log.latencies_us.clone();
    sorted.sort_by(f64::total_cmp);
    let p50 = crate::measure::percentile(&sorted, 50.0);
    let in_process =
        mean(&codec_us) + (TELEMETRY_SHARE * push + (1.0 - TELEMETRY_SHARE) * shares) / 1e3;
    l.set("bwpartd.rserver.wire_us", p50 - in_process, "us");
    Ok(in_process / p50.max(1e-9))
}

/// Encode and decode every op's request and reply; returns ns per op for
/// encoding, ns per op for decoding, and bytes per op on the wire.
fn codec_replay(
    l: &Layers,
    codec: Codec,
    ops: &[(Request, Response)],
) -> Result<(f64, f64, f64), String> {
    let err = |e: protocol::FrameError| e.to_string();
    let mut enc_ns = Vec::new();
    let mut dec_ns = Vec::new();
    let mut bytes = 0usize;
    for rep in 0..5 {
        let (frames, d) = l.span(&format!("bwpartd.protocol.encode.{}", codec.name()), || {
            ops.iter()
                .map(|(req, resp)| {
                    Ok((
                        protocol::encode_with(req, codec)?,
                        protocol::encode_with(resp, codec)?,
                    ))
                })
                .collect::<Result<Vec<_>, protocol::FrameError>>()
        });
        let frames = frames.map_err(err)?;
        enc_ns.push(d.as_nanos() as f64 / ops.len() as f64);
        if rep == 0 {
            bytes = frames.iter().map(|(a, b)| a.len() + b.len()).sum();
        }
        let (decoded, d) = l.span(&format!("bwpartd.protocol.decode.{}", codec.name()), || {
            frames
                .iter()
                .map(|(a, b)| {
                    let req = protocol::decode::<Request>(a)?;
                    let resp = protocol::decode::<Response>(b)?;
                    Ok(req.is_some() && resp.is_some())
                })
                .collect::<Result<Vec<bool>, protocol::FrameError>>()
        });
        if !decoded.map_err(err)?.iter().all(|&ok| ok) {
            return Err(format!("{} replay: a frame did not decode", codec.name()));
        }
        dec_ns.push(d.as_nanos() as f64 / ops.len() as f64);
    }
    Ok((
        median(&enc_ns),
        median(&dec_ns),
        bytes as f64 / ops.len() as f64,
    ))
}
