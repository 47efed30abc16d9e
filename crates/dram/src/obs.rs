//! Observability hooks for the DRAM system.
//!
//! [`DramObsHooks`] holds pre-resolved [`bwpart_obs`] handles so the
//! per-transaction paths in [`crate::DramSystem`] touch at most one
//! relaxed atomic per event, and only through the zero-cost `obs_*!`
//! macros (lint rule A1). The derived per-channel / per-bank gauges are
//! published from the cold path ([`publish`]) at phase boundaries.

use bwpart_obs::{Counter, Registry};

use crate::config::DramConfig;
use crate::stats::DramStats;

/// Pre-resolved metric handles for the DRAM hot path. Cloning shares the
/// underlying cells (the handles are `Arc`s into the registry).
///
/// Exactly one counter fires per served transaction (the row-buffer
/// outcome); everything else the hot path learns — reads vs. writes, bus
/// occupancy, per-app/per-bank service — is already accumulated in plain
/// [`DramStats`] fields and exported by the cold [`publish`] pass.
#[derive(Debug, Clone)]
pub struct DramObsHooks {
    /// Row-buffer hits (`dram_row_hits_total`).
    pub row_hits: Counter,
    /// Row misses — bank closed (`dram_row_misses_total`).
    pub row_misses: Counter,
    /// Row conflicts — wrong row open (`dram_row_conflicts_total`).
    pub row_conflicts: Counter,
}

/// Hooks are runtime plumbing, not simulated state: they serialize as
/// `Null` — exactly what a detached `Option<Box<DramObsHooks>>` field
/// produces — so a serialized [`crate::DramSystem`] is byte-identical
/// whether or not observability was attached.
impl serde::Serialize for DramObsHooks {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

/// Never materialized from data (the owning `Option` field maps `Null` to
/// `None` before this impl could run); deserializing a hooks value
/// directly is an error by construction.
impl<'de> serde::Deserialize<'de> for DramObsHooks {
    fn from_value(_v: &serde::Value) -> Result<Self, serde::DeError> {
        Err(serde::DeError::new(
            "observability hooks are not deserializable; re-attach at runtime",
        ))
    }
}

impl DramObsHooks {
    /// Resolve every handle against `registry` (cold; called once at
    /// attach time).
    pub fn resolve(registry: &Registry) -> Self {
        DramObsHooks {
            row_hits: registry.counter("dram_row_hits_total"),
            row_misses: registry.counter("dram_row_misses_total"),
            row_conflicts: registry.counter("dram_row_conflicts_total"),
        }
    }
}

/// Publish derived DRAM gauges from the accumulated [`DramStats`] into
/// `registry`: bus utilization, row-hit rate, and per-channel utilization
/// / per-bank service counts over `elapsed` CPU cycles. Cold path only
/// (phase or epoch boundaries) — never call from per-cycle code.
pub fn publish(registry: &Registry, cfg: &DramConfig, stats: &DramStats, elapsed: u64) {
    registry
        .gauge("dram_bus_utilization")
        .set(stats.bus_utilization(elapsed));
    registry
        .gauge("dram_row_hit_rate")
        .set(stats.row_hit_rate());
    registry.gauge("dram_served_total").set(stats.served as f64);
    registry.gauge("dram_reads").set(stats.reads as f64);
    registry.gauge("dram_writes").set(stats.writes as f64);
    registry
        .gauge("dram_bus_busy_cycles")
        .set(stats.bus_busy_cycles as f64);
    // flat_bank is channel-major (channel * ranks * banks_per_rank + ...),
    // so each channel owns one contiguous slice of the per-bank counters.
    let banks_per_channel = cfg.ranks * cfg.banks_per_rank;
    let tburst = cfg.burst_cycles();
    for ch in 0..cfg.channels {
        let served: u64 = stats
            .per_bank_served
            .iter()
            .skip(ch * banks_per_channel)
            .take(banks_per_channel)
            .sum();
        // Burst-occupancy approximation of per-channel data-bus
        // utilization: served bursts × tburst over the elapsed window.
        let util = if elapsed == 0 {
            0.0
        } else {
            served as f64 * tburst as f64 / elapsed as f64
        };
        registry
            .gauge(&format!("dram_channel_utilization{{channel=\"{ch}\"}}"))
            .set(util);
    }
    for (bank, &served) in stats.per_bank_served.iter().enumerate() {
        registry
            .gauge(&format!("dram_bank_served{{bank=\"{bank}\"}}"))
            .set(served as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::AccessKind;

    #[test]
    fn publish_exports_utilization_and_per_channel_gauges() {
        let cfg = DramConfig::ddr2_400();
        let mut stats = DramStats::new(2, cfg.total_banks());
        let tburst = cfg.burst_cycles();
        stats.record(0, 0, false, AccessKind::RowMiss, tburst, 100);
        stats.record(1, 1, true, AccessKind::RowHit, tburst, 120);
        let reg = Registry::new();
        publish(&reg, &cfg, &stats, 1_000);
        let snap = reg.snapshot();
        let gauge = |name: &str| snap.gauges.iter().find(|g| g.name == name).map(|g| g.value);
        let util = gauge("dram_bus_utilization").unwrap_or(-1.0);
        assert!((util - stats.bus_utilization(1_000)).abs() < 1e-12);
        let ch0 = gauge("dram_channel_utilization{channel=\"0\"}").unwrap_or(-1.0);
        assert!((ch0 - 2.0 * tburst as f64 / 1_000.0).abs() < 1e-12);
        assert!((gauge("dram_bank_served{bank=\"1\"}").unwrap_or(-1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hooks_resolve_against_shared_cells() {
        let reg = Registry::new();
        let hooks = DramObsHooks::resolve(&reg);
        hooks.row_hits.inc();
        assert_eq!(reg.counter("dram_row_hits_total").get(), 1);
    }
}
