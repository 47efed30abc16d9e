//! `bwpart-obs` — zero-cost observability for the bwpart stack.
//!
//! Three pieces (see DESIGN.md §12 "Observability architecture"):
//!
//! * **[`Registry`]** — named atomic [`Counter`]s, [`Gauge`]s and
//!   log-bucketed [`Histogram`]s (p50/p95/p99), snapshot-able at any time
//!   without stopping writers, with Prometheus-text and typed-JSON
//!   ([`MetricsSnapshot`]) rendering.
//! * **[`Tracer`]** — a bounded ring buffer of trace events with Chrome
//!   trace-event JSON export (`chrome://tracing` / Perfetto), supporting
//!   deterministic cycle-domain events and wall-clock RAII spans.
//! * **The macro layer** — [`obs_count!`], [`obs_gauge!`], [`obs_hist!`]
//!   and [`obs_span!`]. With the `trace` cargo feature enabled they expand
//!   to a null-check plus one relaxed atomic op against pre-resolved
//!   handles; **without it they expand to nothing at all**, so the
//!   per-cycle simulator hot path carries zero observability code. The
//!   `cfg` is evaluated against *this* crate's features, so consumers
//!   need no features of their own — enabling `bwpart-obs/trace` anywhere
//!   in the build graph turns instrumentation on everywhere.
//!
//! Hot-path discipline: per-cycle code in `crates/dram`, `crates/mc` and
//! `crates/cmp` must instrument exclusively through these macros over an
//! `Option<Box<Hooks>>` of pre-resolved handles — never by calling the
//! registry (a mutex + map lookup that allocates its key) directly. The
//! workspace test `tests/warm_loop_alloc.rs` enforces it: it runs the
//! simulator with a registry attached and fails on any allocation once
//! the run is warm.

mod registry;
mod trace;

pub use registry::{
    bucket_index, bucket_lower, bucket_upper, Counter, CounterSample, Gauge, GaugeSample,
    Histogram, HistogramSample, MetricsSnapshot, Registry, HIST_BUCKETS,
};
pub use trace::{EventPhase, SpanGuard, TraceEvent, Tracer};

/// Increment a pre-resolved [`Counter`] field on an optional hooks struct.
///
/// `obs_count!(self.obs, row_hits)` → `self.obs.as_deref()` null-check +
/// `Counter::inc`; `obs_count!(self.obs, cycles, n)` adds `n`. Expands to
/// nothing without the `trace` feature (arguments are not evaluated).
#[cfg(feature = "trace")]
#[macro_export]
macro_rules! obs_count {
    ($hooks:expr, $field:ident) => {{
        if let Some(__obs_h) = ($hooks).as_deref() {
            __obs_h.$field.inc();
        }
    }};
    ($hooks:expr, $field:ident, $n:expr) => {{
        if let Some(__obs_h) = ($hooks).as_deref() {
            __obs_h.$field.add($n);
        }
    }};
}

/// Disabled form of [`obs_count!`]: expands to nothing.
#[cfg(not(feature = "trace"))]
#[macro_export]
macro_rules! obs_count {
    ($($tt:tt)*) => {
        ()
    };
}

/// Set a pre-resolved [`Gauge`] field on an optional hooks struct:
/// `obs_gauge!(self.obs, queue_depth, v)`. The value expression is only
/// evaluated when hooks are attached; expands to nothing without the
/// `trace` feature.
#[cfg(feature = "trace")]
#[macro_export]
macro_rules! obs_gauge {
    ($hooks:expr, $field:ident, $v:expr) => {{
        if let Some(__obs_h) = ($hooks).as_deref() {
            __obs_h.$field.set($v);
        }
    }};
}

/// Disabled form of [`obs_gauge!`]: expands to nothing.
#[cfg(not(feature = "trace"))]
#[macro_export]
macro_rules! obs_gauge {
    ($($tt:tt)*) => {
        ()
    };
}

/// Record into a pre-resolved [`Histogram`] field on an optional hooks
/// struct: `obs_hist!(self.obs, latency, v)`. Expands to nothing without
/// the `trace` feature.
#[cfg(feature = "trace")]
#[macro_export]
macro_rules! obs_hist {
    ($hooks:expr, $field:ident, $v:expr) => {{
        if let Some(__obs_h) = ($hooks).as_deref() {
            __obs_h.$field.record($v);
        }
    }};
}

/// Disabled form of [`obs_hist!`]: expands to nothing.
#[cfg(not(feature = "trace"))]
#[macro_export]
macro_rules! obs_hist {
    ($($tt:tt)*) => {
        ()
    };
}

/// Open a wall-clock RAII span on an `Option<&Tracer>` for the rest of
/// the enclosing scope: `obs_span!(tracer_opt, "epoch");`. Expands to
/// nothing without the `trace` feature.
#[cfg(feature = "trace")]
#[macro_export]
macro_rules! obs_span {
    ($tracer:expr, $name:expr) => {
        let __obs_span_guard = ($tracer).map(|__obs_t| __obs_t.span($name));
    };
}

/// Disabled form of [`obs_span!`]: expands to nothing.
#[cfg(not(feature = "trace"))]
#[macro_export]
macro_rules! obs_span {
    ($($tt:tt)*) => {};
}

/// True when this build carries live instrumentation (the `trace`
/// feature); lets callers (and the bench guardrail) report which mode
/// they measured.
pub const fn trace_enabled() -> bool {
    cfg!(feature = "trace")
}

#[cfg(test)]
mod macro_tests {
    use crate::{Counter, Gauge, Histogram, Registry, Tracer};

    /// A consumer-shaped hooks struct: pre-resolved handles.
    #[derive(Debug, Clone)]
    #[allow(dead_code)] // fields are only read via the trace-feature macros
    struct Hooks {
        hits: Counter,
        depth: Gauge,
        lat: Histogram,
    }

    #[test]
    fn macros_compile_in_both_feature_states() {
        let reg = Registry::new();
        let obs: Option<Box<Hooks>> = Some(Box::new(Hooks {
            hits: reg.counter("hits_total"),
            depth: reg.gauge("depth"),
            lat: reg.histogram("lat"),
        }));
        obs_count!(obs, hits);
        obs_count!(obs, hits, 4);
        obs_gauge!(obs, depth, 2.5);
        obs_hist!(obs, lat, 10.0);
        assert!(obs.is_some(), "macros must not consume the hooks");
        let tracer = Tracer::new(8);
        {
            obs_span!(Some(&tracer), "scope");
        }
        if crate::trace_enabled() {
            assert_eq!(reg.counter("hits_total").get(), 5);
            assert!((reg.gauge("depth").get() - 2.5).abs() < 1e-12);
            assert_eq!(reg.histogram("lat").count(), 1);
            assert_eq!(tracer.len(), 1);
        } else {
            // Zero-cost: nothing was evaluated, nothing recorded.
            assert_eq!(reg.counter("hits_total").get(), 0);
            assert_eq!(tracer.len(), 0);
        }
    }

    #[test]
    fn detached_hooks_record_nothing() {
        let obs: Option<Box<Hooks>> = None;
        obs_count!(obs, hits);
        obs_gauge!(obs, depth, 1.0);
        obs_hist!(obs, lat, 1.0);
        // `obs` must stay usable (macros take it by reference).
        assert!(obs.is_none());
    }
}
