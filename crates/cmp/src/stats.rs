//! Per-application statistics derived from a measurement window.

use serde::{Deserialize, Serialize};

/// Rates and counts for one application over one measurement phase.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppStats {
    /// Workload name.
    pub name: String,
    /// Instructions retired in the window.
    pub instructions: u64,
    /// Memory accesses served by the controller (reads + writebacks).
    pub mem_accesses: u64,
    /// Window length in CPU cycles.
    pub cycles: u64,
    /// L1 data misses.
    pub l1_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Interference cycles charged (Section IV-C) inside the window: the
    /// difference of its two snapshots' lifetime tallies, so charges
    /// before its start and epoch boundaries inside it change nothing. A
    /// warm-up (`CmpSystem::warm_up`) and a one-application system charge
    /// none.
    pub interference_cycles: u64,
}

impl AppStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Memory accesses per cycle (the model's bandwidth unit).
    pub fn apc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.mem_accesses as f64 / self.cycles as f64
        }
    }

    /// Memory accesses per instruction.
    pub fn api(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mem_accesses as f64 / self.instructions as f64
        }
    }

    /// Accesses per kilo-instruction (Table III's `APKI` unit).
    pub fn apki(&self) -> f64 {
        self.api() * 1000.0
    }

    /// Accesses per kilo-cycle (Table III's `APKC` unit).
    pub fn apkc(&self) -> f64 {
        self.apc() * 1000.0
    }
}

#[cfg(test)]
// exact float equality is intentional: these check pass-through/zero paths
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn stats() -> AppStats {
        AppStats {
            name: "lbm".into(),
            instructions: 200_000,
            mem_accesses: 10_000,
            cycles: 1_000_000,
            l1_misses: 12_000,
            l2_misses: 9_000,
            interference_cycles: 0,
        }
    }

    #[test]
    fn derived_rates() {
        let s = stats();
        assert!((s.ipc() - 0.2).abs() < 1e-12);
        assert!((s.apc() - 0.01).abs() < 1e-12);
        assert!((s.api() - 0.05).abs() < 1e-12);
        assert!((s.apki() - 50.0).abs() < 1e-9);
        assert!((s.apkc() - 10.0).abs() < 1e-9);
        // Eq. 1 consistency: IPC == APC / API.
        assert!((s.ipc() - s.apc() / s.api()).abs() < 1e-12);
    }

    #[test]
    fn zero_windows_do_not_divide_by_zero() {
        let mut s = stats();
        s.cycles = 0;
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.apc(), 0.0);
        s.instructions = 0;
        assert_eq!(s.api(), 0.0);
    }
}
