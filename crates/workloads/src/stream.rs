//! The synthetic address-stream generator.
//!
//! Each access is drawn from one of two regions:
//!
//! * the **streaming region** (`footprint` bytes, far larger than L2): runs
//!   of `row_run` consecutive lines starting at pseudo-random positions —
//!   these become L2 misses and generate the off-chip traffic;
//! * the **hot set** (`hot_bytes`): uniformly revisited lines that stay
//!   cache-resident — these model the register/L1/L2-served majority of a
//!   real program's accesses.
//!
//! Streaming accesses arrive in **clusters** of `miss_burst` back-to-back
//! misses (real applications' misses cluster spatially and temporally),
//! which is what lets a low-`API` application like `hmmer` express
//! memory-level parallelism inside a finite reorder buffer. The cluster
//! start probability is derated so the *overall* stream fraction still
//! equals `stream_ratio`.
//!
//! Non-memory instruction gaps are drawn uniformly from
//! `[gap/2, 3·gap/2]` so the mean `API` is exact while the stream retains
//! burstiness. Everything is driven by a splitmix-seeded `SmallRng`, so a
//! `(profile, seed)` pair defines the stream bit-for-bit.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use bwpart_cmp::{Access, Workload};

use crate::profile::BenchProfile;

/// A deterministic synthetic workload built from a [`BenchProfile`].
pub struct SyntheticWorkload {
    name: String,
    rng: SmallRng,
    gap: u32,
    /// Span of the gap draw `[gap/2, 3·gap/2]`: `gap + 1` values.
    gap_span: u64,
    stream_permille: u32,
    write_permille: u32,
    /// Lines in the streaming region (the span of a run's start line).
    footprint_lines: u64,
    /// Lines in the hot set (the span of a hot access's line).
    hot_lines: u64,
    row_run: u32,
    /// Remaining lines in the current streaming run.
    run_left: u32,
    /// Next line of the current streaming run.
    run_next: u64,
    /// Cluster size for streaming accesses.
    miss_burst: u32,
    /// Remaining forced-stream accesses in the current cluster.
    burst_left: u32,
}

impl SyntheticWorkload {
    /// Instantiate the generator for `profile` with an explicit `seed`.
    pub fn new(profile: &BenchProfile, seed: u64) -> Self {
        let footprint_lines = (profile.footprint / 64).max(1);
        let hot_lines = (profile.hot_bytes / 64).max(1);
        // Solve the cluster-start probability q from the target overall
        // stream fraction s with cluster size b:
        // s = q·b / (q·b + (1 − q))  ⇒  q = s / (b·(1 − s) + s).
        let b = profile.miss_burst.max(1) as f64;
        let s_frac = profile.stream_ratio.clamp(0.0, 1.0);
        let q = if s_frac >= 1.0 {
            1.0
        } else {
            s_frac / (b * (1.0 - s_frac) + s_frac)
        };
        SyntheticWorkload {
            name: profile.name.to_string(),
            rng: SmallRng::seed_from_u64(seed ^ profile.seed_salt),
            gap: profile.gap,
            gap_span: u64::from(profile.gap) + 1,
            stream_permille: (q * 1000.0).round() as u32,
            write_permille: (profile.write_ratio * 1000.0).round() as u32,
            footprint_lines,
            hot_lines,
            row_run: profile.row_run.max(1),
            run_left: 0,
            run_next: 0,
            miss_burst: profile.miss_burst.max(1),
            burst_left: 0,
        }
    }

    /// `gen_range(gap/2..=gap + gap/2)`.
    fn sample_gap(&mut self) -> u32 {
        if self.gap == 0 {
            return 0;
        }
        self.gap / 2 + (self.rng.next_u64() % self.gap_span) as u32
    }

    fn stream_line(&mut self) -> u64 {
        if self.run_left == 0 {
            self.run_left = self.row_run;
            // gen_range(0..footprint_lines)
            self.run_next = self.rng.next_u64() % self.footprint_lines;
        }
        let line = self.run_next;
        // `run_next` stays below the footprint, so `(line + 1) % lines` is
        // a compare and wrap.
        self.run_next = line + 1;
        if self.run_next == self.footprint_lines {
            self.run_next = 0;
        }
        self.run_left -= 1;
        line
    }
}

/// Offset separating the hot set from the streaming region inside the
/// application's private physical region (the hot set occupies the bottom).
const STREAM_BASE: u64 = 1 << 27; // 128 MB into the 512 MB region

impl Workload for SyntheticWorkload {
    fn next_access(&mut self) -> Access {
        let is_write = self.rng.gen_range(0..1000) < self.write_permille;
        let (is_stream, gap) = if self.burst_left > 0 {
            // Inside a cluster: back-to-back misses with tiny gaps.
            self.burst_left -= 1;
            (true, self.rng.gen_range(0..4))
        } else if self.rng.gen_range(0..1000) < self.stream_permille {
            self.burst_left = self.miss_burst - 1;
            (true, self.sample_gap())
        } else {
            (false, self.sample_gap())
        };
        let addr = if is_stream {
            STREAM_BASE + self.stream_line() * 64
        } else {
            // gen_range(0..hot_lines)
            self.rng.next_u64() % self.hot_lines * 64
        };
        Access {
            gap,
            addr,
            is_write,
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::BenchProfile;

    fn profile() -> BenchProfile {
        BenchProfile {
            name: "test",
            gap: 20,
            stream_ratio: 0.5,
            write_ratio: 0.25,
            footprint: 64 << 20,
            hot_bytes: 16 * 1024,
            row_run: 8,
            miss_burst: 1,
            mlp: 4,
            width: 4,
            seed_salt: 0,
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let p = profile();
        let mut a = SyntheticWorkload::new(&p, 7);
        let mut b = SyntheticWorkload::new(&p, 7);
        for _ in 0..1000 {
            assert_eq!(a.next_access(), b.next_access());
        }
        let mut c = SyntheticWorkload::new(&p, 8);
        let same = (0..1000).all(|_| a.next_access() == c.next_access());
        assert!(!same, "different seeds must differ");
    }

    #[test]
    fn mean_gap_matches_profile() {
        let p = profile();
        let mut w = SyntheticWorkload::new(&p, 1);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| w.next_access().gap as u64).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 20.0).abs() < 0.5, "mean gap {mean}");
    }

    #[test]
    fn stream_and_write_fractions_match() {
        let p = profile();
        let mut w = SyntheticWorkload::new(&p, 2);
        let n = 20_000;
        let mut streams = 0;
        let mut writes = 0;
        for _ in 0..n {
            let a = w.next_access();
            if a.addr >= STREAM_BASE {
                streams += 1;
            }
            if a.is_write {
                writes += 1;
            }
        }
        assert!((streams as f64 / n as f64 - 0.5).abs() < 0.02);
        assert!((writes as f64 / n as f64 - 0.25).abs() < 0.02);
    }

    #[test]
    fn hot_accesses_stay_in_hot_set() {
        let p = profile();
        let mut w = SyntheticWorkload::new(&p, 3);
        for _ in 0..10_000 {
            let a = w.next_access();
            if a.addr < STREAM_BASE {
                assert!(a.addr < 16 * 1024);
            } else {
                assert!(a.addr < STREAM_BASE + (64 << 20));
            }
        }
    }

    #[test]
    fn streaming_runs_are_sequential() {
        let mut p = profile();
        p.stream_ratio = 1.0;
        p.row_run = 16;
        let mut w = SyntheticWorkload::new(&p, 4);
        let mut sequential = 0;
        let mut prev = w.next_access().addr;
        let n = 10_000;
        for _ in 0..n {
            let a = w.next_access().addr;
            if a == prev + 64 {
                sequential += 1;
            }
            prev = a;
        }
        // With runs of 16, 15/16 of transitions are sequential.
        let frac = sequential as f64 / n as f64;
        assert!(frac > 0.9, "sequential fraction {frac}");
    }

    #[test]
    fn zero_gap_profile_yields_zero_gaps() {
        let mut p = profile();
        p.gap = 0;
        let mut w = SyntheticWorkload::new(&p, 5);
        for _ in 0..100 {
            assert_eq!(w.next_access().gap, 0);
        }
    }
}
