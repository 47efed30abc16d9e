//! DRAM-side statistics: served transactions, row-buffer outcomes, bus
//! utilization and per-application service counts.

use serde::{Deserialize, Serialize};

use crate::soa::AccessKind;

/// Aggregated counters for one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramStats {
    /// Total transactions served (reads + writes).
    pub served: u64,
    /// Reads served.
    pub reads: u64,
    /// Writes served.
    pub writes: u64,
    /// Row-buffer hits (open-page only).
    pub row_hits: u64,
    /// Row misses (bank was closed).
    pub row_misses: u64,
    /// Row conflicts (open-page, wrong row open).
    pub row_conflicts: u64,
    /// Total CPU cycles the data bus carried bursts.
    pub bus_busy_cycles: u64,
    /// Per-application served-transaction counts.
    pub per_app_served: Vec<u64>,
    /// Per-application total queuing+service latency (arrival → data end),
    /// accumulated in CPU cycles; divide by `per_app_served` for averages.
    pub per_app_latency: Vec<u64>,
    /// Per-flat-bank access counts.
    pub per_bank_served: Vec<u64>,
}

impl DramStats {
    /// Create counters sized for `apps` applications and `banks` banks.
    pub fn new(apps: usize, banks: usize) -> Self {
        DramStats {
            per_app_served: vec![0; apps],
            per_app_latency: vec![0; apps],
            per_bank_served: vec![0; banks],
            ..Default::default()
        }
    }

    /// Record one served transaction.
    pub fn record(
        &mut self,
        app: usize,
        flat_bank: usize,
        is_write: bool,
        kind: AccessKind,
        burst_cycles: u64,
        latency: u64,
    ) {
        self.served += 1;
        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        match kind {
            AccessKind::RowHit => self.row_hits += 1,
            AccessKind::RowMiss => self.row_misses += 1,
            AccessKind::RowConflict => self.row_conflicts += 1,
        }
        self.bus_busy_cycles += burst_cycles;
        if app < self.per_app_served.len() {
            self.per_app_served[app] += 1;
            self.per_app_latency[app] += latency;
        }
        if flat_bank < self.per_bank_served.len() {
            self.per_bank_served[flat_bank] += 1;
        }
    }

    /// Data-bus utilization over `elapsed` cycles (0..=1).
    pub fn bus_utilization(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.bus_busy_cycles as f64 / elapsed as f64
        }
    }

    /// Row-buffer hit rate among all served transactions (open-page).
    pub fn row_hit_rate(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.served as f64
        }
    }

    /// Average service latency (arrival to data end) for `app`.
    pub fn avg_latency(&self, app: usize) -> f64 {
        if self.per_app_served.get(app).copied().unwrap_or(0) == 0 {
            0.0
        } else {
            self.per_app_latency[app] as f64 / self.per_app_served[app] as f64
        }
    }
}

#[cfg(test)]
// exact float equality is intentional: these check pass-through/zero paths
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut s = DramStats::new(2, 4);
        s.record(0, 1, false, AccessKind::RowMiss, 100, 250);
        s.record(1, 1, true, AccessKind::RowHit, 100, 400);
        s.record(0, 3, false, AccessKind::RowConflict, 100, 150);
        assert_eq!(s.served, 3);
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.row_hits, 1);
        assert_eq!(s.row_misses, 1);
        assert_eq!(s.row_conflicts, 1);
        assert_eq!(s.per_app_served, vec![2, 1]);
        assert_eq!(s.per_bank_served, vec![0, 2, 0, 1]);
        assert!((s.avg_latency(0) - 200.0).abs() < 1e-12);
        assert!((s.row_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_over_elapsed() {
        let mut s = DramStats::new(1, 1);
        s.record(0, 0, false, AccessKind::RowMiss, 100, 100);
        s.record(0, 0, false, AccessKind::RowMiss, 100, 100);
        assert!((s.bus_utilization(1000) - 0.2).abs() < 1e-12);
        assert_eq!(s.bus_utilization(0), 0.0);
    }

    #[test]
    fn out_of_range_app_does_not_panic() {
        let mut s = DramStats::new(1, 1);
        s.record(7, 9, false, AccessKind::RowMiss, 100, 100);
        assert_eq!(s.served, 1);
        assert_eq!(s.per_app_served, vec![0]);
        assert_eq!(s.avg_latency(7), 0.0);
    }
}
