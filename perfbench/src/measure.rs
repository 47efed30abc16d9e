//! Shared measurement plumbing: the result line, order statistics,
//! `/proc` readers, the seeded input generator, and the end-to-end
//! metric set every workload reports.

use std::time::{Duration, Instant};

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The benchmark's result line.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The single-line JSON object the benchmark prints last. Values are
    /// printed with Rust's shortest round-trip formatting (every digit,
    /// never an exponent, so always a valid JSON number).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of a sample (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `/proc/<pid>` of a process: `"self"` or a child's pid.
#[derive(Debug, Clone)]
pub struct Proc(pub String);

impl Proc {
    pub fn me() -> Proc {
        Proc("self".into())
    }

    /// User plus system CPU time of the whole process (every thread, live
    /// or exited), from `/proc/<pid>/stat` in USER_HZ (100 Hz) ticks.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.0);
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // The command name may hold spaces; fields resume after its ')'.
        let rest = text
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or_else(|| format!("{path}: no command field"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .map(|t| t as f64 / 100.0)
                .ok_or_else(|| format!("{path}: bad field {i}"))
        };
        // Fields 14 (utime) and 15 (stime) of stat(5), counted from the
        // state field (field 3) after the command name.
        Ok(tick(11)? + tick(12)?)
    }

    /// Peak resident set size (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.0);
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let kb = text
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: no VmHWM"))?;
        Ok(kb / 1024.0)
    }
}

/// SplitMix64: the benchmark's only source of input randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// The input seed a workload derives from `--seed`: seed 0 is the
/// repository's own `base` seed, every other seed a distinct stream.
pub fn input_seed(base: u64, seed: u64) -> u64 {
    base.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The host-speed kernel: a fixed integer loop that does not depend on
/// the program under test. Timed between ops, it tracks how fast the
/// shared host is running at the moment.
const KERNEL_STEPS: u64 = 2_000_000;
/// The kernel's median time on the recording host (Intel Xeon, 2 vCPUs
/// shared with other tenants), ms.
const KERNEL_REF_MS: f64 = 2.2;

fn kernel(steps: u64) -> u64 {
    let (mut x, mut y) = (1u64, 3u64);
    for i in 0..steps {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        y ^= x >> 17;
    }
    x ^ y
}

/// Samples of the host-speed kernel taken during one phase of a run.
///
/// Co-tenants on this host change its speed by up to 1.8× within a
/// minute, in the simulator's host time and the kernel's alike, so a
/// simulator phase's timings are divided by its
/// [`HostSpeed::slowness`]: the kernel's median time in the phase over
/// its time on the recording host. Measured over 20 s windows for four
/// minutes, this cut the spread of a fixed op's median from 10.6% to
/// 4.7%. An empty sample means "not normalised" (slowness 1).
#[derive(Debug, Default)]
pub struct HostSpeed {
    ms: Vec<f64>,
    spent: Duration,
}

impl HostSpeed {
    /// Time the kernel once.
    pub fn sample(&mut self) {
        let start = Instant::now();
        std::hint::black_box(kernel(std::hint::black_box(KERNEL_STEPS)));
        let d = start.elapsed();
        self.ms.push(d.as_secs_f64() * 1e3);
        self.spent += d;
    }

    /// How much slower than the recording host this phase ran (1 = as
    /// fast).
    pub fn slowness(&self) -> f64 {
        let m = median(&self.ms);
        if m > 0.0 {
            m / KERNEL_REF_MS
        } else {
            1.0
        }
    }

    /// Wall time spent in the kernel.
    pub fn spent(&self) -> Duration {
        self.spent
    }
}

/// Run `setup` `reps` times, sampling the host speed around each, and
/// return the last result, the median set-up time in seconds, and the
/// samples.
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64, HostSpeed), String> {
    let mut host = HostSpeed::default();
    let sample = |host: &mut HostSpeed| (0..3).for_each(|_| host.sample());
    sample(&mut host);
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let value = setup()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
        sample(&mut host);
    }
    let value = last.ok_or("set-up never ran")?;
    Ok((value, median(&times), host))
}

/// Op latencies and outcomes of one timed phase.
#[derive(Debug, Clone, Default)]
pub struct OpLog {
    pub latencies_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl OpLog {
    pub fn record(&mut self, latency: Duration, ok: bool) {
        self.latencies_us.push(latency.as_secs_f64() * 1e6);
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: OpLog) {
        self.latencies_us.extend(other.latencies_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The six end-to-end metrics, in `BENCHMARK.json` order.
pub struct EndToEnd {
    pub setup_s: f64,
    /// Host speed during set-up.
    pub setup_host: HostSpeed,
    pub log: OpLog,
    /// Timed wall time of the measured phase (host-speed kernel excluded).
    pub wall_s: f64,
    /// CPU seconds the working process spent on the measured ops.
    pub cpu_s: f64,
    /// Host speed during the measured phase.
    pub host: HostSpeed,
    pub peak_rss_mb: f64,
    /// Percentile reported as `tail_us`.
    pub tail_pct: f64,
}

impl EndToEnd {
    /// The metrics, every time divided by its phase's host slowness
    /// (the raw figures go to standard error).
    pub fn report(self) -> Report {
        let mut sorted = self.log.latencies_us.clone();
        sorted.sort_by(f64::total_cmp);
        let ops = self.log.attempted.max(1) as f64;
        let (s0, s1) = (self.setup_host.slowness(), self.host.slowness());
        let raw = [
            ("setup_s", self.setup_s, "s", s0),
            ("throughput", ops / self.wall_s.max(1e-9), "ops/s", 1.0 / s1),
            ("p50_us", percentile(&sorted, 50.0), "us", s1),
            ("tail_us", percentile(&sorted, self.tail_pct), "us", s1),
            ("cpu_us_per_op", self.cpu_s * 1e6 / ops, "us", s1),
            ("peak_rss_mb", self.peak_rss_mb, "MB", 1.0),
        ];
        let mut r = Report {
            attempted: self.log.attempted,
            failed: self.log.failed,
            metrics: Vec::new(),
        };
        eprintln!(
            "perfbench: {} ops ({} failed) in {:.3} s; tail_us is p{} of {} samples; \
             host slowness {s0:.4} in set-up, {s1:.4} in the run",
            self.log.attempted,
            self.log.failed,
            self.wall_s,
            self.tail_pct,
            sorted.len()
        );
        eprintln!(
            "perfbench: latency percentiles (us): p90 {} p95 {} p98 {} p99 {}",
            percentile(&sorted, 90.0),
            percentile(&sorted, 95.0),
            percentile(&sorted, 98.0),
            percentile(&sorted, 99.0)
        );
        for (name, value, unit, slowness) in raw {
            eprintln!("perfbench: raw {name} = {value} {unit}");
            r.push(name, value / slowness, unit);
        }
        r
    }
}

/// Repeat whole passes over an op set until `seconds` are used: another
/// pass starts only when it is expected to end no more than half a pass
/// past the deadline, so every run measures complete passes (at least
/// one) and the latency sample always has the same composition. The
/// host-speed kernel runs after every op; returns the log, the wall time
/// without the kernel, and the kernel's samples.
pub fn run_passes(
    seconds: f64,
    ops_per_pass: usize,
    mut op: impl FnMut(usize) -> (Duration, bool),
) -> (OpLog, f64, HostSpeed) {
    let mut log = OpLog::default();
    let mut host = HostSpeed::default();
    let start = Instant::now();
    let mut passes = 0usize;
    loop {
        for i in 0..ops_per_pass {
            let (latency, ok) = op(i);
            log.record(latency, ok);
            host.sample();
        }
        passes += 1;
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / passes as f64;
        if elapsed + per_pass > seconds + per_pass / 2.0 {
            let wall = elapsed - host.spent().as_secs_f64();
            return (log, wall, host);
        }
    }
}
