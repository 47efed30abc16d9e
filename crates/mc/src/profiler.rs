//! Online `APC_alone` estimation (Section IV-C, Eq. 12–13).
//!
//! Three counters per application suffice:
//!
//! * `N_accesses,i` — memory accesses served (reads and writes),
//! * `T_cyc,shared,i` — cycles elapsed in the shared context (the epoch
//!   length for continuously-running applications), and
//! * `T_cyc,interference,i` — cycles the application was blocked by other
//!   applications' traffic.
//!
//! Then `T_cyc,alone,i = T_cyc,shared,i − T_cyc,interference,i` (Eq. 13) and
//! `APC_alone,i = N_accesses,i / T_cyc,alone,i` (Eq. 12).
//!
//! The estimate is an approximation; as the paper notes, consistency is
//! what matters — the same estimated values feed both the partitioning
//! computation and the metric denominators.

use serde::{Deserialize, Serialize};

/// Floor on `T_cyc,alone` as a fraction of the folded window, guarding
/// the Eq. 12 estimate against interference counts that approach the
/// whole window.
pub const MIN_ALONE_FRACTION: f64 = 0.02;

/// One increment of the three Section IV-C counters, as reported by a
/// telemetry source (a simulated controller, a hardware PMU read, or a
/// `bwpartd` client) since its previous report.
///
/// Deltas are what an online service can actually collect: counter reads
/// arrive asynchronously and per-application, with no synchronized epoch
/// boundary. Folding them into a [`DeltaAccumulator`] recovers the
/// Eq. 12–13 estimate over whatever window they cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TelemetryDelta {
    /// Memory accesses served (`ΔN_accesses`).
    pub accesses: u64,
    /// Cycles elapsed in the shared context (`ΔT_cyc,shared`).
    pub shared_cycles: u64,
    /// Cycles blocked by other applications' traffic
    /// (`ΔT_cyc,interference`).
    pub interference_cycles: u64,
}

/// Fold-from-deltas profiler: sums [`TelemetryDelta`]s and produces the
/// Eq. 12–13 `APC_alone` estimate on demand.
///
/// It never divides by zero: an accumulator that has seen no cycles yet
/// (or only idle reports) yields `None` from
/// [`DeltaAccumulator::apc_alone`], and interference counts that would
/// drive `T_cyc,alone` to zero are floored at [`MIN_ALONE_FRACTION`] of
/// the window.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DeltaAccumulator {
    /// Total accesses folded so far.
    pub accesses: u64,
    /// Total shared-context cycles folded so far.
    pub shared_cycles: u64,
    /// Total interference cycles folded so far.
    pub interference_cycles: u64,
}

impl DeltaAccumulator {
    /// Fold one delta in (saturating, so malicious or wrapped counter
    /// reports cannot overflow the totals).
    pub fn fold(&mut self, d: TelemetryDelta) {
        self.accesses = self.accesses.saturating_add(d.accesses);
        self.shared_cycles = self.shared_cycles.saturating_add(d.shared_cycles);
        self.interference_cycles = self
            .interference_cycles
            .saturating_add(d.interference_cycles);
    }

    /// Eq. 12–13 estimate over everything folded so far:
    /// `APC_alone = N / max(T_shared − T_interference, floor)`, the floor
    /// being [`MIN_ALONE_FRACTION`] of `T_shared`. Returns `None` while no
    /// shared cycles have been observed — the caller decides how to treat
    /// an all-idle window (an epoch keeps its previous estimate rather
    /// than fabricating a zero rate).
    pub fn apc_alone(&self) -> Option<f64> {
        if self.shared_cycles == 0 {
            return None;
        }
        let floor = (self.shared_cycles as f64 * MIN_ALONE_FRACTION) as u64;
        let t_alone = self
            .shared_cycles
            .saturating_sub(self.interference_cycles)
            .max(floor)
            .max(1);
        Some(self.accesses as f64 / t_alone as f64)
    }
}

#[cfg(test)]
// exact float equality is intentional: these check pass-through/zero paths
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn delta(accesses: u64, shared_cycles: u64, interference_cycles: u64) -> TelemetryDelta {
        TelemetryDelta {
            accesses,
            shared_cycles,
            interference_cycles,
        }
    }

    #[test]
    fn eq12_eq13_arithmetic() {
        // Over 10_000 cycles: 50 accesses with 5_000 cycles of
        // interference → APC_alone = 50 / 5_000 = 0.01.
        let mut acc = DeltaAccumulator::default();
        acc.fold(delta(50, 10_000, 5_000));
        assert!((acc.apc_alone().unwrap() - 0.01).abs() < 1e-12);
        // No interference → the alone rate equals the shared rate.
        let mut quiet = DeltaAccumulator::default();
        quiet.fold(delta(20, 10_000, 0));
        assert!((quiet.apc_alone().unwrap() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn estimate_is_independent_of_how_deltas_are_split() {
        let mut whole = DeltaAccumulator::default();
        whole.fold(delta(50, 10_000, 5_000));
        let mut split = DeltaAccumulator::default();
        for _ in 0..5 {
            split.fold(delta(10, 2_000, 1_000));
        }
        assert_eq!(split.apc_alone(), whole.apc_alone());
    }

    #[test]
    fn all_idle_accumulator_yields_none_not_nan() {
        // Regression: an all-idle epoch (no cycles reported) must not
        // divide by zero — the estimate is absent, never NaN/inf.
        let acc = DeltaAccumulator::default();
        assert_eq!(acc.apc_alone(), None);

        // Zero accesses over a live window is a legitimate zero rate.
        let mut quiet = DeltaAccumulator::default();
        quiet.fold(delta(0, 10_000, 0));
        let est = quiet.apc_alone().unwrap();
        assert!(est.is_finite());
        assert_eq!(est, 0.0);
    }

    #[test]
    fn interference_floor_prevents_blowup() {
        // Interference ≈ the whole window: without the floor the
        // estimate would explode.
        let mut acc = DeltaAccumulator::default();
        acc.fold(delta(10, 10_000, 10_000));
        let floor_alone = (10_000.0 * MIN_ALONE_FRACTION) as u64;
        let est = acc.apc_alone().unwrap();
        assert!((est - 10.0 / floor_alone as f64).abs() < 1e-12);
    }

    #[test]
    fn fold_saturates_instead_of_overflowing() {
        let mut acc = DeltaAccumulator::default();
        acc.fold(delta(u64::MAX, u64::MAX, 0));
        acc.fold(delta(u64::MAX, 1, 1));
        assert_eq!(acc.accesses, u64::MAX);
        assert_eq!(acc.shared_cycles, u64::MAX);
        assert!(acc.apc_alone().unwrap().is_finite());
    }
}
