//! The metrics registry: named atomic counters, gauges and log-bucketed
//! histograms, snapshot-able at any time without stopping writers.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones
//! of the registered cells, so instrumentation sites resolve their metric
//! once (cold, at attach time) and then touch a single atomic on the hot
//! path. Every load/store uses `Relaxed`: metrics are monotone event
//! counts and last-writer-wins samples, not synchronization — a snapshot
//! may observe a momentarily torn *set* of metrics (counter A from cycle
//! N, counter B from cycle N+1) but never a torn value.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        // hb: none needed — a counter is a commutative event tally; readers
        // only ever fold the final/loaded value, never synchronize on it.
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // hb: none needed — commutative tally, as in `inc`.
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // hb: none needed — a snapshot read of a monotone tally.
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins sampled value (stored as `f64` bits).
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }
}

impl Gauge {
    /// Overwrite the sample.
    #[inline]
    pub fn set(&self, v: f64) {
        // hb: none needed — last-writer-wins sample; the store is the whole
        // protocol and readers accept any published value.
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current sample.
    pub fn get(&self) -> f64 {
        // hb: none needed — reads a single self-contained sample.
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Smallest power-of-two octave the histogram resolves; anything at or
/// below `2^MIN_EXP` (including zero, negatives and NaN) lands in the
/// underflow bucket.
const MIN_EXP: i32 = -64;
/// One past the largest resolved octave; `2^MAX_EXP` and above (including
/// `+inf`) land in the overflow bucket.
const MAX_EXP: i32 = 64;
/// Sub-buckets per octave (top two mantissa bits → relative error ≤ 25%).
const SUBDIV: usize = 4;
/// Total bucket count: underflow + resolved range + overflow.
pub const HIST_BUCKETS: usize = 2 + (MAX_EXP - MIN_EXP) as usize * SUBDIV;

/// Map a recorded value to its bucket index, branch-free on the common
/// path: the f64 exponent plus the top two mantissa bits select one of
/// `SUBDIV` geometric sub-buckets per power-of-two octave.
pub fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= 0.0 {
        return 0; // underflow: zero, negatives, NaN
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    if exp < MIN_EXP {
        return 0;
    }
    if exp >= MAX_EXP {
        return HIST_BUCKETS - 1;
    }
    let sub = ((bits >> 50) & 0x3) as usize;
    1 + (exp - MIN_EXP) as usize * SUBDIV + sub
}

/// Inclusive lower bound of bucket `i` (0 for the underflow bucket).
pub fn bucket_lower(i: usize) -> f64 {
    if i == 0 {
        return 0.0;
    }
    if i >= HIST_BUCKETS - 1 {
        return (MAX_EXP as f64).exp2();
    }
    let k = i - 1;
    let oct = MIN_EXP + (k / SUBDIV) as i32;
    (oct as f64).exp2() * (1.0 + (k % SUBDIV) as f64 / SUBDIV as f64)
}

/// Exclusive upper bound of bucket `i` (`+inf` for the overflow bucket).
pub fn bucket_upper(i: usize) -> f64 {
    if i >= HIST_BUCKETS - 1 {
        return f64::INFINITY;
    }
    if i == 0 {
        return (MIN_EXP as f64).exp2();
    }
    let k = i - 1;
    let oct = MIN_EXP + (k / SUBDIV) as i32;
    (oct as f64).exp2() * (1.0 + (k % SUBDIV + 1) as f64 / SUBDIV as f64)
}

#[derive(Debug)]
struct HistCells {
    buckets: Vec<AtomicU64>, // HIST_BUCKETS cells
    count: AtomicU64,
    /// Sum of recorded values in milli-units (`v * 1000` rounded), so the
    /// accumulation stays a single `fetch_add` instead of a CAS loop.
    sum_milli: AtomicU64,
}

/// A log-bucketed histogram: geometric buckets spanning `2^-64..2^64`
/// with four sub-buckets per octave, plus underflow/overflow. Quantiles
/// are read from a lock-free snapshot of the buckets and are exact to
/// within one bucket (≤ 25% relative error in the resolved range).
#[derive(Debug, Clone)]
pub struct Histogram {
    cells: Arc<HistCells>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            cells: Arc::new(HistCells {
                buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum_milli: AtomicU64::new(0),
            }),
        }
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, v: f64) {
        let idx = bucket_index(v);
        if let Some(cell) = self.cells.buckets.get(idx) {
            // hb: none needed — independent commutative tallies; a reader
            // folding mid-record sees a value the writer passed through.
            cell.fetch_add(1, Ordering::Relaxed);
        }
        // hb: none needed — same commutative-tally argument.
        self.cells.count.fetch_add(1, Ordering::Relaxed);
        let milli = if v.is_finite() && v > 0.0 {
            (v * 1000.0).round().min(u64::MAX as f64 / 2.0) as u64
        } else {
            0
        };
        // hb: none needed — same commutative-tally argument.
        self.cells.sum_milli.fetch_add(milli, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        // hb: none needed — snapshot read of a monotone tally.
        self.cells.count.load(Ordering::Relaxed)
    }

    /// Approximate sum of recorded observations (milli-unit resolution;
    /// non-finite and non-positive values contribute zero).
    pub fn sum(&self) -> f64 {
        // hb: none needed — snapshot read of a monotone tally.
        self.cells.sum_milli.load(Ordering::Relaxed) as f64 / 1000.0
    }

    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the bucket
    /// containing the order statistic — except the overflow bucket, whose
    /// lower bound is returned so the result stays finite. Returns 0 when
    /// nothing was recorded.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .cells
            .buckets
            .iter()
            // hb: none needed — per-bucket snapshot reads; quantiles
            // tolerate a bucket vector spanning a few in-flight records.
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let n: u64 = counts.iter().sum();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == HIST_BUCKETS - 1 {
                    bucket_lower(i)
                } else {
                    bucket_upper(i)
                };
            }
        }
        bucket_lower(HIST_BUCKETS - 1)
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named-metric registry. Cloning shares the underlying table, so one
/// registry can be attached to many components; registration takes a
/// short mutex, but registered handles bypass it entirely.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    table: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn table(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        // A poisoned table means a panic elsewhere while registering; the
        // map itself is still structurally sound, so keep serving it.
        self.table
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Get or register the counter `name`. If `name` is already registered
    /// as a different kind, a detached (unregistered) handle is returned
    /// rather than panicking — the mismatch shows up as a frozen metric.
    pub fn counter(&self, name: &str) -> Counter {
        let mut t = self.table();
        match t
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => Counter::default(),
        }
    }

    /// Get or register the gauge `name` (kind mismatch: detached handle).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut t = self.table();
        match t
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => Gauge::default(),
        }
    }

    /// Get or register the histogram `name` (kind mismatch: detached
    /// handle).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut t = self.table();
        match t
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => Histogram::default(),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.table().len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.table().is_empty()
    }

    /// Snapshot every metric without stopping writers. Values are loaded
    /// with `Relaxed` atomics: each individual value is untorn, the set as
    /// a whole is a point-in-time approximation.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let t = self.table();
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in t.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push(CounterSample {
                    name: name.clone(),
                    value: c.get(),
                }),
                Metric::Gauge(g) => snap.gauges.push(GaugeSample {
                    name: name.clone(),
                    value: g.get(),
                }),
                Metric::Histogram(h) => snap.histograms.push(HistogramSample {
                    name: name.clone(),
                    count: h.count(),
                    sum: h.sum(),
                    p50: h.quantile(0.50),
                    p95: h.quantile(0.95),
                    p99: h.quantile(0.99),
                }),
            }
        }
        snap
    }
}

/// A counter's name and value at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric name (may carry `{label="value"}` suffixes verbatim).
    pub name: String,
    /// Counter value.
    pub value: u64,
}

/// A gauge's name and value at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Metric name (may carry `{label="value"}` suffixes verbatim).
    pub name: String,
    /// Last sampled value.
    pub value: f64,
}

/// A histogram's summary at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Approximate sum of observations (milli-unit resolution).
    pub sum: f64,
    /// Median (bucket-upper-bound estimator).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Point-in-time view of a [`Registry`], ordered by metric name — the
/// typed-JSON payload of the bwpartd `Metrics` reply.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters, name-ordered.
    pub counters: Vec<CounterSample>,
    /// All gauges, name-ordered.
    pub gauges: Vec<GaugeSample>,
    /// All histograms, name-ordered.
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// Render the snapshot in the Prometheus text exposition format.
    /// Histograms are rendered summary-style (`_count`, `_sum`, and
    /// `{quantile="..."}` sample lines).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            let base = base_name(&c.name);
            out.push_str(&format!("# TYPE {base} counter\n{} {}\n", c.name, c.value));
        }
        for g in &self.gauges {
            let base = base_name(&g.name);
            out.push_str(&format!(
                "# TYPE {base} gauge\n{} {}\n",
                g.name,
                fmt_f64(g.value)
            ));
        }
        for h in &self.histograms {
            let base = base_name(&h.name);
            out.push_str(&format!("# TYPE {base} summary\n"));
            for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                out.push_str(&format!("{base}{{quantile=\"{q}\"}} {}\n", fmt_f64(v)));
            }
            out.push_str(&format!("{base}_sum {}\n", fmt_f64(h.sum)));
            out.push_str(&format!("{base}_count {}\n", h.count));
        }
        out
    }
}

/// The metric name before any `{label}` suffix.
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Prometheus-safe float formatting (`+Inf`/`-Inf`/`NaN` spellings).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("mc_ticks_total");
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        // Re-resolving by name shares the same cell.
        assert_eq!(reg.counter("mc_ticks_total").get(), 10);
    }

    #[test]
    fn gauge_last_writer_wins() {
        let reg = Registry::new();
        let g = reg.gauge("queue_depth");
        g.set(3.0);
        g.set(-1.5);
        assert!((g.get() - -1.5).abs() < 1e-12);
    }

    #[test]
    fn kind_mismatch_returns_detached_handle() {
        let reg = Registry::new();
        let c = reg.counter("x");
        c.inc();
        let g = reg.gauge("x"); // wrong kind: detached
        g.set(42.0);
        assert_eq!(reg.counter("x").get(), 1, "registered counter untouched");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn bucket_bounds_are_monotone_and_nest() {
        let mut prev = -1.0f64;
        for i in 0..HIST_BUCKETS {
            let lo = bucket_lower(i);
            let hi = bucket_upper(i);
            assert!(lo >= prev, "lower bounds monotone at {i}");
            assert!(hi > lo, "bucket {i} non-empty");
            prev = lo;
            if i + 1 < HIST_BUCKETS {
                assert!(
                    (bucket_lower(i + 1) - hi).abs() <= hi * 1e-12,
                    "buckets {i}/{} tile the line",
                    i + 1
                );
            }
        }
    }

    #[test]
    fn bucket_index_respects_bounds() {
        for v in [
            0.0,
            -3.5,
            f64::NAN,
            1e-300,
            0.75,
            1.0,
            1.49,
            2.0,
            1234.5,
            1e300,
            f64::INFINITY,
        ] {
            let i = bucket_index(v);
            assert!(i < HIST_BUCKETS);
            if v.is_finite() && v > 0.0 && i > 0 && i < HIST_BUCKETS - 1 {
                assert!(bucket_lower(i) <= v && v < bucket_upper(i), "v={v} i={i}");
            }
        }
    }

    #[test]
    fn histogram_quantiles_order() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        for i in 1..=1000u64 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 1000);
        let (p50, p95, p99) = (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99));
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // Bucket estimator: within 25% of the exact order statistic.
        assert!((p50 - 500.0).abs() / 500.0 < 0.26, "p50={p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.26, "p99={p99}");
        assert!((h.sum() - 500_500.0).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::default();
        assert!((h.quantile(0.99) - 0.0).abs() < 1e-12);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn snapshot_is_name_ordered_and_complete() {
        let reg = Registry::new();
        reg.counter("b_total").add(2);
        reg.gauge("a_gauge").set(1.25);
        reg.histogram("c_hist").record(4.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.counters[0].name, "b_total");
        assert_eq!(snap.counters[0].value, 2);
        assert_eq!(snap.histograms[0].count, 1);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let reg = Registry::new();
        reg.counter("reqs_total{app=\"lbm\"}").add(7);
        reg.gauge("util").set(0.5);
        reg.histogram("lat_us").record(10.0);
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("# TYPE reqs_total counter\n"));
        assert!(text.contains("reqs_total{app=\"lbm\"} 7\n"));
        assert!(text.contains("# TYPE util gauge\nutil 0.5\n"));
        assert!(text.contains("# TYPE lat_us summary\n"));
        assert!(text.contains("lat_us{quantile=\"0.99\"}"));
        assert!(text.contains("lat_us_count 1\n"));
    }

    #[test]
    fn writers_race_snapshot_without_tearing() {
        let reg = Registry::new();
        let c = reg.counter("racing_total");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        // Snapshots mid-race must see monotone values.
        let mut last = 0u64;
        for _ in 0..100 {
            let v = reg.counter("racing_total").get();
            assert!(v >= last);
            last = v;
        }
        for t in threads {
            // lint: allow(R1): test-only join
            t.join().expect("writer thread");
        }
        assert_eq!(c.get(), 40_000);
    }
}
