//! Observability wiring for the CMP simulator.
//!
//! [`CmpObsHooks`] carries the pre-resolved handles the system loop
//! touches through the zero-cost `obs_*!` macros (visit counts and the
//! cycles the per-core clocks skip); [`RunObserver`] bundles the
//! registry and optional tracer a caller hands to
//! [`crate::Runner::run_scheme_traced`] to collect metrics and a
//! Chrome-trace timeline from one simulation.

use bwpart_obs::{Counter, Registry, Tracer};

/// Pre-resolved metric handles for [`crate::CmpSystem`]'s cycle loop.
#[derive(Debug, Clone)]
pub struct CmpObsHooks {
    /// System-loop visits: cycles with a shared event, or every cycle
    /// under per-cycle stepping (`cmp_steps_total`).
    pub steps: Counter,
    /// Runs of consecutive cycles with no visit (`cmp_ff_jumps_total`).
    pub ff_jumps: Counter,
    /// Cycles with no visit; visits plus these equal the simulated
    /// cycles (`cmp_ff_skipped_cycles_total`).
    pub ff_skipped_cycles: Counter,
}

impl CmpObsHooks {
    /// Resolve every handle against `registry` (cold; once at attach).
    pub fn resolve(registry: &Registry) -> Self {
        CmpObsHooks {
            steps: registry.counter("cmp_steps_total"),
            ff_jumps: registry.counter("cmp_ff_jumps_total"),
            ff_skipped_cycles: registry.counter("cmp_ff_skipped_cycles_total"),
        }
    }
}

/// Everything a caller supplies to observe one simulation run: a metrics
/// [`Registry`] the whole system stack attaches to, and optionally a
/// [`Tracer`] collecting the cycle-domain timeline (epoch windows,
/// per-app share time-series) plus wall-clock phase spans.
#[derive(Debug, Clone, Default)]
pub struct RunObserver {
    /// Registry the system's hooks resolve against.
    pub registry: Registry,
    /// Optional event tracer (None: metrics only).
    pub tracer: Option<Tracer>,
}

impl RunObserver {
    /// Metrics-only observer.
    pub fn new() -> Self {
        RunObserver::default()
    }

    /// Observer that also traces, into a ring of `capacity` events.
    pub fn with_tracer(capacity: usize) -> Self {
        RunObserver {
            registry: Registry::new(),
            tracer: Some(Tracer::new(capacity)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hooks_share_registry_cells() {
        let reg = Registry::new();
        let hooks = CmpObsHooks::resolve(&reg);
        hooks.ff_skipped_cycles.add(42);
        assert_eq!(reg.counter("cmp_ff_skipped_cycles_total").get(), 42);
    }

    #[test]
    fn observer_constructors() {
        assert!(RunObserver::new().tracer.is_none());
        let o = RunObserver::with_tracer(16);
        // lint: allow(R1): constructed Some on the line above
        o.tracer.as_ref().unwrap().instant_at("x", 0, 1);
        assert_eq!(o.tracer.as_ref().map(Tracer::len), Some(1));
    }
}
