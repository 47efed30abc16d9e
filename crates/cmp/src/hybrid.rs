//! Analytic hybrid stepping: detect steady state and jump over it.
//!
//! The paper's closed-form model (Eq. 1–8) says that once a workload mix
//! reaches a bandwidth steady state, every per-cycle rate the evaluation
//! cares about — APC, IPC via `IPC = APC/API`, interference charge — is
//! constant. Cycle-accurate simulation of such a window rederives the same
//! rates over and over. The hybrid stepper exploits that: it observes a
//! short history of fixed-length windows, and when every application's
//! access and retirement rates (and the global row-hit rate) have settled
//! within a configured band, it *jumps* — crediting `jump_windows` times
//! the last window's counter deltas in one step and advancing the clock by
//! the corresponding cycles — then resumes cycle-exact simulation.
//!
//! The jump scales only architectural counters (instructions, cache
//! misses, served accesses, latency and interference sums, busy/stalled
//! ticks). Micro-state — queues, bank timing wheels, in-flight completions,
//! cache contents, workload positions — is deliberately left untouched, so
//! the simulation resumes from a *real* state and phase changes in the
//! workload are picked up by the detector going unsteady. The result is
//! therefore not bit-identical to pure cycle-stepping; it is
//! tolerance-certified instead: [`within_tolerance`] checks end-state
//! bandwidth shares and per-application IPCs against a cycle-exact
//! reference and `invariant!`s them inside the configured epsilon.
//!
//! Every jump multiplier is exact integer arithmetic (the jump length is
//! `jump_windows × window` cycles by construction), so hybrid runs are
//! deterministic: same inputs, same jumps, same counters.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::runner::SimOutcome;

/// Configuration of the analytic hybrid stepper
/// ([`CmpConfig::hybrid`](crate::system::CmpConfig::hybrid); `None`
/// disables it).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HybridConfig {
    /// Observation window length in CPU cycles.
    pub window: u64,
    /// Consecutive windows whose rates must agree before a jump.
    pub history: usize,
    /// Relative band the windowed rates must stay within to count as
    /// steady (also the absolute band for the global row-hit rate, which
    /// is already a fraction).
    pub stability: f64,
    /// Windows credited analytically per jump.
    pub jump_windows: u64,
    /// Certified tolerance for [`within_tolerance`]: maximum absolute
    /// bandwidth-share deviation and relative per-app IPC error versus a
    /// cycle-exact run.
    pub epsilon: f64,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            window: 10_000,
            history: 5,
            stability: 0.05,
            jump_windows: 16,
            epsilon: 0.05,
        }
    }
}

/// Counter snapshot bracketing one observation window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct HybridSnap {
    /// Per-app requests served by the controller (lifetime).
    pub served: Vec<u64>,
    /// Per-app controller latency sums.
    pub latency: Vec<u64>,
    /// Per-app epoch interference cycles.
    pub interference: Vec<u64>,
    /// Per-core instructions retired (current phase).
    pub retired: Vec<u64>,
    /// Per-core L1 misses.
    pub l1: Vec<u64>,
    /// Per-core L2 misses.
    pub l2: Vec<u64>,
    /// Controller busy ticks.
    pub busy: u64,
    /// Controller stalled ticks.
    pub stalled: u64,
    /// DRAM row-buffer hits.
    pub row_hits: u64,
    /// DRAM transactions served.
    pub dram_served: u64,
}

/// Per-window counter deltas — the unit the detector reasons over and the
/// jump scales up.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct WindowDelta {
    pub served: Vec<u64>,
    pub latency: Vec<u64>,
    pub interference: Vec<u64>,
    pub retired: Vec<u64>,
    pub l1: Vec<u64>,
    pub l2: Vec<u64>,
    pub busy: u64,
    pub stalled: u64,
    pub row_hits: u64,
    pub dram_served: u64,
}

fn sub(end: &[u64], start: &[u64]) -> Vec<u64> {
    end.iter()
        .zip(start)
        .map(|(&e, &s)| e.saturating_sub(s))
        .collect()
}

/// Absolute slack added to the stability band. Per-window counts are small
/// (a saturated DDR2-400 channel serves ~400 transactions per 10k cycles
/// across all apps), so purely relative bands would flag ±1 jitter on a
/// light app as a phase change. Kept tight: a slack of 2 already lets a
/// ±4-count swing on a ~45/window app (a real post-policy-switch
/// transient's internal jitter) pass as steady.
const COUNT_SLACK: f64 = 1.0;

/// Mean served-per-window at or below which an application counts as a
/// *trickle* and is exempt from the steadiness spread test (see
/// [`HybridState::steady`]).
const TRICKLE_PER_WINDOW: u64 = 2;

/// Whether every sample sits within `tol·mean + COUNT_SLACK` of the
/// series mean — the windowed-rate stability test.
fn spread_stable(series: impl Iterator<Item = u64> + Clone, tol: f64) -> bool {
    let mut n = 0u64;
    let mut sum = 0u64;
    for v in series.clone() {
        n += 1;
        sum += v;
    }
    if n == 0 {
        return false;
    }
    let mean = sum as f64 / n as f64;
    let band = tol * mean + COUNT_SLACK;
    series.into_iter().all(|v| (v as f64 - mean).abs() <= band)
}

/// Live detector + jump bookkeeping, owned by
/// [`CmpSystem`](crate::system::CmpSystem) when hybrid stepping is on.
#[derive(Debug, Clone)]
pub(crate) struct HybridState {
    cfg: HybridConfig,
    /// Most recent full-window deltas, oldest first (≤ `cfg.history`).
    history: VecDeque<WindowDelta>,
    /// Snapshot opened by [`begin_window`](Self::begin_window).
    open: Option<HybridSnap>,
    /// Windows still to discard before collecting evidence again — the
    /// first window after a phase boundary (fresh policy, cold epoch
    /// counters) or after a jump (completion backlog draining) is a
    /// transient that would pollute the extrapolated mean.
    skip: u32,
    jumps: u64,
    jumped_cycles: u64,
}

impl HybridState {
    pub fn new(cfg: HybridConfig) -> Self {
        assert!(cfg.window >= 1, "hybrid window must be at least one cycle");
        assert!(cfg.history >= 1, "hybrid history must hold a window");
        assert!(cfg.jump_windows >= 1, "hybrid jump must move time");
        assert!(
            cfg.stability >= 0.0 && cfg.epsilon > 0.0,
            "hybrid bands must be non-negative"
        );
        HybridState {
            cfg,
            history: VecDeque::with_capacity(cfg.history),
            open: None,
            skip: 0,
            jumps: 0,
            jumped_cycles: 0,
        }
    }

    pub fn cfg(&self) -> &HybridConfig {
        &self.cfg
    }

    /// Cycles one full (unclipped) jump advances the clock by.
    #[cfg(test)]
    fn jump_cycles(&self) -> u64 {
        self.cfg.window.saturating_mul(self.cfg.jump_windows)
    }

    /// A new `run()` call is a phase boundary: steady-state evidence from
    /// before it no longer describes the upcoming workload.
    pub fn reset_phase(&mut self) {
        self.history.clear();
        self.open = None;
        self.skip = 1;
    }

    pub fn begin_window(&mut self, snap: HybridSnap) {
        self.open = Some(snap);
    }

    /// Close the open window against `snap` and append its delta.
    pub fn end_window(&mut self, snap: &HybridSnap) {
        // lint: allow(R1): the run loop brackets every end with a begin
        let start = self.open.take().expect("window was opened");
        if self.skip > 0 {
            self.skip -= 1;
            return;
        }
        let delta = WindowDelta {
            served: sub(&snap.served, &start.served),
            latency: sub(&snap.latency, &start.latency),
            interference: sub(&snap.interference, &start.interference),
            retired: sub(&snap.retired, &start.retired),
            l1: sub(&snap.l1, &start.l1),
            l2: sub(&snap.l2, &start.l2),
            busy: snap.busy.saturating_sub(start.busy),
            stalled: snap.stalled.saturating_sub(start.stalled),
            row_hits: snap.row_hits.saturating_sub(start.row_hits),
            dram_served: snap.dram_served.saturating_sub(start.dram_served),
        };
        if self.history.len() == self.cfg.history {
            self.history.pop_front();
        }
        self.history.push_back(delta);
    }

    /// Drop an open partial window (run boundary landed inside it).
    pub fn discard_window(&mut self) {
        self.open = None;
    }

    /// Steady-state test: a full history whose per-app *bandwidth* (APC,
    /// as served per window) and global row-hit rate sit inside the
    /// stability band. Retirement rates are deliberately not tested —
    /// window-phase aliasing makes a compute-bound app's per-window
    /// retirement alternate even in perfect steady state, and Eq. 1 ties
    /// IPC to APC anyway; extrapolating the history *mean*
    /// ([`jump_delta`](Self::jump_delta)) averages that aliasing out.
    pub fn steady(&self) -> bool {
        if self.history.len() < self.cfg.history {
            return false;
        }
        let apps = self.history[0].served.len();
        for i in 0..apps {
            // A trickle app (≤ TRICKLE_PER_WINDOW served per window on
            // average) is exempt from the spread test: an app starved down
            // to sporadic single services — priority schemes' victims
            // whenever the winners briefly drain their queues — shows
            // {0,1,2}-count windows whose "spread" is pure quantization
            // noise, not a phase change. Extrapolating its mean moves the
            // certified metrics by at most ~trickle/total per jump, orders
            // of magnitude under any practical epsilon.
            let sum: u64 = self.history.iter().map(|d| d.served[i]).sum();
            if sum <= TRICKLE_PER_WINDOW * self.history.len() as u64 {
                continue;
            }
            if !spread_stable(self.history.iter().map(|d| d.served[i]), self.cfg.stability) {
                return false;
            }
        }
        let rate = |d: &WindowDelta| {
            if d.dram_served == 0 {
                0.0
            } else {
                d.row_hits as f64 / d.dram_served as f64
            }
        };
        let mut mn = f64::INFINITY;
        let mut mx = f64::NEG_INFINITY;
        for d in &self.history {
            let r = rate(d);
            mn = mn.min(r);
            mx = mx.max(r);
        }
        mx - mn <= self.cfg.stability
    }

    /// The newest full window (diagnostics/tests).
    #[cfg(test)]
    pub fn last_delta(&self) -> Option<&WindowDelta> {
        self.history.back()
    }

    /// The counter credit of a `windows`-window jump: `windows` times the
    /// *history mean* of each windowed delta, in exact u128 integer
    /// arithmetic (`⌊sum · windows / len⌋`). Averaging over the whole
    /// history (rather than extrapolating the last window) cancels
    /// window-phase aliasing; flooring loses at most one count per counter
    /// per jump. `windows` is normally `cfg.jump_windows`, but the run
    /// loop clips the final jump of a phase to the remaining budget.
    pub fn jump_delta(&self, windows: u64) -> WindowDelta {
        let k = windows as u128;
        let len = self.history.len().max(1) as u128;
        let scalar = |get: fn(&WindowDelta) -> u64| -> u64 {
            let sum: u128 = self.history.iter().map(|d| get(d) as u128).sum();
            (sum * k / len) as u64
        };
        let vector = |get: fn(&WindowDelta, usize) -> u64| -> Vec<u64> {
            let n = self.history.front().map_or(0, |d| d.served.len());
            (0..n)
                .map(|i| {
                    let sum: u128 = self.history.iter().map(|d| get(d, i) as u128).sum();
                    (sum * k / len) as u64
                })
                .collect()
        };
        WindowDelta {
            served: vector(|d, i| d.served[i]),
            latency: vector(|d, i| d.latency[i]),
            interference: vector(|d, i| d.interference[i]),
            retired: vector(|d, i| d.retired[i]),
            l1: vector(|d, i| d.l1[i]),
            l2: vector(|d, i| d.l2[i]),
            busy: scalar(|d| d.busy),
            stalled: scalar(|d| d.stalled),
            row_hits: scalar(|d| d.row_hits),
            dram_served: scalar(|d| d.dram_served),
        }
    }

    /// Record a performed jump and restart evidence collection: the next
    /// jump requires a fresh steady history on post-jump state.
    pub fn note_jump(&mut self, cycles: u64) {
        self.jumps += 1;
        self.jumped_cycles += cycles;
        self.history.clear();
        self.skip = 1;
    }

    pub fn jumps(&self) -> u64 {
        self.jumps
    }

    pub fn jumped_cycles(&self) -> u64 {
        self.jumped_cycles
    }
}

/// Floor for the relative-IPC-error denominator in [`within_tolerance`].
/// A starved application's IPC (≪ 0.01) is dominated by single fluke
/// services — an exact run retiring 10 instructions in 400k cycles versus
/// a hybrid run retiring 0 is a 100% "relative" error on pure noise — so
/// below the floor the comparison degrades to absolute error.
const IPC_FLOOR: f64 = 0.01;

/// Certify a hybrid outcome against its cycle-exact reference: every
/// application's bandwidth share must match within `epsilon` (absolute,
/// shares are fractions) and its IPC within `epsilon` relative (with the
/// denominator floored at `IPC_FLOOR` so starved apps compare by
/// absolute error). The check
/// is `invariant!`-backed — under `debug_assertions` (or the release-CI
/// `RUSTFLAGS` re-enable) a violation aborts, and the boolean result lets
/// callers assert in tests.
pub fn within_tolerance(exact: &SimOutcome, hybrid: &SimOutcome, epsilon: f64) -> bool {
    let shares = |o: &SimOutcome| -> Vec<f64> {
        let total: u64 = o.stats.iter().map(|s| s.mem_accesses).sum();
        o.stats
            .iter()
            .map(|s| s.mem_accesses as f64 / total.max(1) as f64)
            .collect()
    };
    let (se, sh) = (shares(exact), shares(hybrid));
    let mut ok = se.len() == sh.len();
    if ok {
        for i in 0..se.len() {
            let share_err = (se[i] - sh[i]).abs();
            let ipc_e = exact.stats[i].ipc();
            let ipc_h = hybrid.stats[i].ipc();
            let ipc_err = (ipc_e - ipc_h).abs() / ipc_e.abs().max(IPC_FLOOR);
            if share_err > epsilon || ipc_err > epsilon {
                ok = false;
            }
        }
    }
    let ie: Vec<f64> = exact.stats.iter().map(|s| s.ipc()).collect();
    let ih: Vec<f64> = hybrid.stats.iter().map(|s| s.ipc()).collect();
    bwpart_core::invariant!(
        ok,
        "hybrid outcome outside certified tolerance {epsilon}: \
         shares {sh:?} vs {se:?}, ipcs {ih:?} vs {ie:?}"
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(served: u64, retired: u64, row_hits: u64, dram_served: u64) -> HybridSnap {
        HybridSnap {
            served: vec![served],
            latency: vec![served * 100],
            interference: vec![0],
            retired: vec![retired],
            l1: vec![0],
            l2: vec![0],
            busy: 0,
            stalled: 0,
            row_hits,
            dram_served,
        }
    }

    fn feed(h: &mut HybridState, windows: &[(u64, u64)]) {
        let mut acc = snap(0, 0, 0, 0);
        for &(served, retired) in windows {
            h.begin_window(acc.clone());
            acc = HybridSnap {
                served: vec![acc.served[0] + served],
                latency: vec![acc.latency[0] + served * 100],
                retired: vec![acc.retired[0] + retired],
                dram_served: acc.dram_served + served,
                row_hits: acc.row_hits,
                ..acc.clone()
            };
            h.end_window(&acc);
        }
    }

    #[test]
    fn steady_needs_a_full_stable_history() {
        let cfg = HybridConfig {
            history: 3,
            stability: 0.02,
            ..HybridConfig::default()
        };
        let mut h = HybridState::new(cfg);
        feed(&mut h, &[(1000, 5000), (1001, 5002)]);
        assert!(!h.steady(), "two windows are not enough evidence");
        feed(&mut h, &[(1005, 5010)]);
        assert!(h.steady(), "three stable windows should certify");
        // A rate excursion beyond the band breaks steadiness.
        feed(&mut h, &[(1500, 5000)]);
        assert!(!h.steady());
    }

    #[test]
    fn history_is_a_sliding_window_and_jump_resets_it() {
        let cfg = HybridConfig {
            history: 2,
            ..HybridConfig::default()
        };
        let mut h = HybridState::new(cfg);
        feed(&mut h, &[(9000, 100), (1000, 100), (1000, 100)]);
        assert!(h.steady(), "the unstable window slid out of history");
        h.note_jump(h.jump_cycles());
        assert!(!h.steady(), "a jump restarts evidence collection");
        assert_eq!(h.jumps(), 1);
        assert_eq!(h.jumped_cycles(), h.jump_cycles());
    }

    #[test]
    fn jump_delta_extrapolates_the_history_mean() {
        let cfg = HybridConfig {
            history: 2,
            jump_windows: 4,
            ..HybridConfig::default()
        };
        let mut h = HybridState::new(cfg);
        // Window-phase aliasing: retirement alternates 1000/1200 around a
        // true rate of 1100 per window.
        feed(&mut h, &[(50, 1000), (50, 1200)]);
        let d = h.jump_delta(4);
        assert_eq!(d.served, vec![50 * 4]);
        assert_eq!(d.retired, vec![(1000 + 1200) * 4 / 2]);
        assert_eq!(d.latency, vec![50 * 100 * 4]);
    }

    #[test]
    fn transient_window_after_reset_or_jump_is_skipped() {
        let mut h = HybridState::new(HybridConfig {
            history: 1,
            ..HybridConfig::default()
        });
        h.reset_phase();
        feed(&mut h, &[(1000, 5000)]);
        assert!(h.last_delta().is_none(), "post-reset window is a transient");
        feed(&mut h, &[(1000, 5000)]);
        assert!(h.steady(), "second window is real evidence");
        h.note_jump(h.jump_cycles());
        feed(&mut h, &[(1000, 5000)]);
        assert!(h.last_delta().is_none(), "post-jump window is a transient");
    }

    #[test]
    fn trickle_apps_do_not_block_steadiness() {
        let cfg = HybridConfig {
            history: 3,
            stability: 0.02,
            ..HybridConfig::default()
        };
        // Two apps: a steady heavy and a starved trickle whose windows
        // alternate 0/2/0 services — relative spread is huge, but the
        // volume is bandwidth-invisible.
        let mut h = HybridState::new(cfg);
        let mut acc = HybridSnap {
            served: vec![0, 0],
            latency: vec![0, 0],
            interference: vec![0, 0],
            retired: vec![0, 0],
            l1: vec![0, 0],
            l2: vec![0, 0],
            ..HybridSnap::default()
        };
        for trickle in [0u64, 2, 0] {
            h.begin_window(acc.clone());
            acc.served[0] += 1000;
            acc.served[1] += trickle;
            acc.dram_served += 1000 + trickle;
            h.end_window(&acc);
        }
        assert!(h.steady(), "a 0/2/0 trickle is noise, not a phase change");
        // The same spread at real volume is a phase change.
        let mut h = HybridState::new(cfg);
        let mut acc = HybridSnap {
            served: vec![0, 0],
            latency: vec![0, 0],
            interference: vec![0, 0],
            retired: vec![0, 0],
            l1: vec![0, 0],
            l2: vec![0, 0],
            ..HybridSnap::default()
        };
        for burst in [0u64, 200, 0] {
            h.begin_window(acc.clone());
            acc.served[0] += 1000;
            acc.served[1] += burst;
            acc.dram_served += 1000 + burst;
            h.end_window(&acc);
        }
        assert!(!h.steady(), "a 0/200/0 burst must block the jump");
    }

    #[test]
    fn partial_windows_are_discarded() {
        let mut h = HybridState::new(HybridConfig {
            history: 1,
            ..HybridConfig::default()
        });
        h.begin_window(snap(0, 0, 0, 0));
        h.discard_window();
        assert!(h.last_delta().is_none());
        assert!(!h.steady());
    }

    #[test]
    fn all_idle_apps_are_trivially_stable() {
        let mut h = HybridState::new(HybridConfig {
            history: 2,
            ..HybridConfig::default()
        });
        feed(&mut h, &[(0, 0), (0, 0)]);
        assert!(h.steady(), "an idle system is in steady state");
    }

    #[test]
    fn row_hit_rate_excursion_breaks_steadiness() {
        let mut h = HybridState::new(HybridConfig {
            history: 2,
            stability: 0.02,
            ..HybridConfig::default()
        });
        // Same volumes, very different row-hit fractions.
        let a0 = snap(0, 0, 0, 0);
        let a1 = snap(1000, 5000, 900, 1000);
        let a2 = snap(2000, 10_000, 950, 2000); // window 2 hit rate: 50/1000
        h.begin_window(a0);
        h.end_window(&a1);
        h.begin_window(a1.clone());
        h.end_window(&a2);
        assert!(!h.steady(), "row-hit rate moved 0.9 -> 0.05");
    }
}
