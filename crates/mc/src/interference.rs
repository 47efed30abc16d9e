//! Memory interference detection (Section IV-C).
//!
//! "Memory interference occurs when an application's memory request is
//! blocked by the requests from another application. [...] At each cycle,
//! if interference for application i is detected, we increment
//! `T_cyc,interference,i` by one."
//!
//! Two forms are detected each DRAM command clock, for every application
//! with a pending head request that was *not* served this clock:
//!
//! * **resource blocking** — the head request cannot issue and the blocking
//!   DRAM resource (bank or data bus) is owned by another application;
//! * **scheduling blocking** — the head request could issue, but the
//!   scheduler served a different application's request instead.
//!
//! Self-inflicted stalls (own bank busy with one's own earlier request) and
//! refresh blackouts are *not* interference — they would also occur running
//! alone.

use serde::{Deserialize, Serialize};

/// Per-application interference cycle counters: the current epoch's and
/// the lifetime total.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InterferenceTracker {
    /// Cycles charged in the current epoch.
    cycles: Vec<u64>,
    /// Cycles charged in the epochs already closed by [`reset`](Self::reset).
    closed: Vec<u64>,
}

impl InterferenceTracker {
    /// Create counters for `apps` applications.
    pub fn new(apps: usize) -> Self {
        InterferenceTracker {
            cycles: vec![0; apps],
            closed: vec![0; apps],
        }
    }

    /// Charge `amount` interference cycles to `app`.
    pub fn charge(&mut self, app: usize, amount: u64) {
        self.cycles[app] += amount;
    }

    /// Interference cycles charged to `app` this epoch
    /// (`T_cyc,interference,i`).
    pub fn cycles(&self, app: usize) -> u64 {
        self.cycles[app]
    }

    /// Interference cycles charged to `app` since construction, across
    /// every epoch.
    pub fn lifetime(&self, app: usize) -> u64 {
        self.closed[app] + self.cycles[app]
    }

    /// This epoch's counters (index = application).
    pub fn all(&self) -> &[u64] {
        &self.cycles
    }

    /// Close the epoch: zero its counters, keeping the lifetime totals.
    pub fn reset(&mut self) {
        for (closed, c) in self.closed.iter_mut().zip(&mut self.cycles) {
            *closed += std::mem::take(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_app() {
        let mut t = InterferenceTracker::new(3);
        t.charge(0, 25);
        t.charge(0, 25);
        t.charge(2, 10);
        assert_eq!(t.cycles(0), 50);
        assert_eq!(t.cycles(1), 0);
        assert_eq!(t.cycles(2), 10);
        assert_eq!(t.all(), &[50, 0, 10]);
    }

    #[test]
    fn reset_zeroes_the_epoch_and_keeps_the_lifetime() {
        let mut t = InterferenceTracker::new(2);
        t.charge(1, 100);
        t.reset();
        assert_eq!(t.all(), &[0, 0]);
        t.charge(1, 20);
        assert_eq!((t.cycles(1), t.lifetime(1)), (20, 120));
        assert_eq!(t.lifetime(0), 0);
    }
}
