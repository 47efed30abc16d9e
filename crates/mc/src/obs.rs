//! Observability hooks for the memory controller.
//!
//! Same discipline as `bwpart_dram::obs`: the per-DRAM-clock
//! scheduling path in [`crate::MemoryController::tick`] touches metrics
//! only through the zero-cost `obs_*!` macros over these pre-resolved
//! handles; everything derived (latencies, interference, queue state) is
//! published from the cold path at phase/epoch boundaries.

use bwpart_obs::{Counter, Registry};

use crate::controller::McStats;

/// Pre-resolved metric handles for the controller's scheduling hot path.
///
/// Only *per-memory-access* events (orders of magnitude rarer than DRAM
/// scheduling clocks) and per-settle or per-gather batches live here;
/// per-clock facts — busy/stalled ticks, queue depth — are already tracked
/// by plain [`McStats`] fields and exported from the cold [`publish`]
/// path, so the hot loop pays no per-tick atomics for them. A settle adds
/// its whole batch of clocks, and its interference charges, in one add
/// each, and a gather adds its gated rejects in one.
#[derive(Debug, Clone)]
pub struct McObsHooks {
    /// Requests handed to the DRAM system (`mc_issued_total`).
    pub issued: Counter,
    /// Issues that bypassed a blocked FIFO head via the scheduling window
    /// (`mc_window_bypass_total`).
    pub window_bypass: Counter,
    /// Individual interference charges — Section IV-C accounting events
    /// (`mc_interference_charges_total`).
    pub interference_charges: Counter,
    /// Settles that rebuilt the settle plan: probed every pending head and
    /// picked (`mc_settle_plans_total`).
    pub settle_plans: Counter,
    /// Gather issue checks the bus gate rejected without folding the
    /// request's bank and rank (`mc_gate_rejects_total`); a gather adds
    /// its rejects in one add.
    pub gate_rejects: Counter,
    /// Command clocks accounted in closed form below the DRAM floor
    /// (`mc_settled_clocks_total`).
    pub settled_clocks: Counter,
}

impl McObsHooks {
    /// Resolve every handle against `registry` (cold; once at attach).
    pub fn resolve(registry: &Registry) -> Self {
        McObsHooks {
            issued: registry.counter("mc_issued_total"),
            window_bypass: registry.counter("mc_window_bypass_total"),
            interference_charges: registry.counter("mc_interference_charges_total"),
            settle_plans: registry.counter("mc_settle_plans_total"),
            gate_rejects: registry.counter("mc_gate_rejects_total"),
            settled_clocks: registry.counter("mc_settled_clocks_total"),
        }
    }
}

/// Publish derived controller gauges into `registry`: busy/stall clocks,
/// per-app served counts, average latencies, epoch interference cycles
/// and queue lengths. Cold path only (phase or epoch boundaries).
pub fn publish(registry: &Registry, stats: &McStats, interference: &[u64], queue_lens: &[usize]) {
    registry.gauge("mc_busy_ticks").set(stats.busy_ticks as f64);
    registry
        .gauge("mc_stalled_ticks")
        .set(stats.stalled_ticks as f64);
    registry
        .gauge("mc_queue_depth")
        .set(queue_lens.iter().sum::<usize>() as f64);
    for (app, &served) in stats.served.iter().enumerate() {
        registry
            .gauge(&format!("mc_served{{app=\"{app}\"}}"))
            .set(served as f64);
        registry
            .gauge(&format!("mc_avg_latency_cycles{{app=\"{app}\"}}"))
            .set(stats.avg_latency(app));
    }
    for (app, &cycles) in interference.iter().enumerate() {
        registry
            .gauge(&format!("mc_interference_cycles{{app=\"{app}\"}}"))
            .set(cycles as f64);
    }
    for (app, &len) in queue_lens.iter().enumerate() {
        registry
            .gauge(&format!("mc_queue_len{{app=\"{app}\"}}"))
            .set(len as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_exports_per_app_gauges() {
        let stats = McStats {
            served: vec![4, 0],
            latency_sum: vec![400, 0],
            busy_ticks: 7,
            stalled_ticks: 2,
        };
        let reg = Registry::new();
        publish(&reg, &stats, &[123, 0], &[3, 1]);
        let snap = reg.snapshot();
        let gauge = |name: &str| {
            snap.gauges
                .iter()
                .find(|g| g.name == name)
                .map(|g| g.value)
                .unwrap_or(-1.0)
        };
        assert!((gauge("mc_busy_ticks") - 7.0).abs() < 1e-12);
        assert!((gauge("mc_queue_depth") - 4.0).abs() < 1e-12);
        assert!((gauge("mc_avg_latency_cycles{app=\"0\"}") - 100.0).abs() < 1e-12);
        assert!((gauge("mc_interference_cycles{app=\"0\"}") - 123.0).abs() < 1e-12);
        assert!((gauge("mc_queue_len{app=\"1\"}") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hooks_share_registry_cells() {
        let reg = Registry::new();
        let hooks = McObsHooks::resolve(&reg);
        hooks.issued.add(3);
        hooks.interference_charges.inc();
        hooks.settle_plans.inc();
        hooks.gate_rejects.add(4);
        hooks.settled_clocks.add(5);
        assert_eq!(reg.counter("mc_issued_total").get(), 3);
        assert_eq!(reg.counter("mc_interference_charges_total").get(), 1);
        assert_eq!(reg.counter("mc_settle_plans_total").get(), 1);
        assert_eq!(reg.counter("mc_gate_rejects_total").get(), 4);
        assert_eq!(reg.counter("mc_settled_clocks_total").get(), 5);
    }
}
