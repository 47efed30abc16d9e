//! `SyntheticWorkload` draws its gap, streaming-run start and hot-set line
//! as a raw 64-bit draw reduced by `%` over a span fixed at construction,
//! and wraps a run's next line with a compare. `gen_range(lo..hi)` is
//! `lo + draw % span`, so the two forms must agree. This test keeps the
//! `gen_range` form of the generator as a reference and checks that both
//! emit the same stream, access for access, for every Table III and
//! cache-study profile.

use bwpart_cmp::{Access, Workload};
use bwpart_workloads::profile::{cache_profiles, table3_profiles, BenchProfile};
use bwpart_workloads::stream::SyntheticWorkload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Accesses compared per profile.
const ACCESSES: usize = 100_000;

/// Start of the streaming region inside the application's region.
const STREAM_BASE: u64 = 1 << 27;

/// The generator as it drew every bounded value through `gen_range`.
struct Reference {
    rng: SmallRng,
    gap: u32,
    stream_permille: u32,
    write_permille: u32,
    footprint_lines: u64,
    hot_lines: u64,
    row_run: u32,
    run_left: u32,
    run_next: u64,
    miss_burst: u32,
    burst_left: u32,
}

impl Reference {
    fn new(profile: &BenchProfile, seed: u64) -> Self {
        let b = profile.miss_burst.max(1) as f64;
        let s_frac = profile.stream_ratio.clamp(0.0, 1.0);
        let q = if s_frac >= 1.0 {
            1.0
        } else {
            s_frac / (b * (1.0 - s_frac) + s_frac)
        };
        Reference {
            rng: SmallRng::seed_from_u64(seed ^ profile.seed_salt),
            gap: profile.gap,
            stream_permille: (q * 1000.0).round() as u32,
            write_permille: (profile.write_ratio * 1000.0).round() as u32,
            footprint_lines: (profile.footprint / 64).max(1),
            hot_lines: (profile.hot_bytes / 64).max(1),
            row_run: profile.row_run.max(1),
            run_left: 0,
            run_next: 0,
            miss_burst: profile.miss_burst.max(1),
            burst_left: 0,
        }
    }

    fn sample_gap(&mut self) -> u32 {
        if self.gap == 0 {
            return 0;
        }
        let lo = self.gap / 2;
        let hi = self.gap + self.gap / 2;
        self.rng.gen_range(lo..=hi)
    }

    fn stream_line(&mut self) -> u64 {
        if self.run_left == 0 {
            self.run_left = self.row_run;
            self.run_next = self.rng.gen_range(0..self.footprint_lines);
        }
        let line = self.run_next;
        self.run_next = (self.run_next + 1) % self.footprint_lines;
        self.run_left -= 1;
        line
    }

    fn next_access(&mut self) -> Access {
        let is_write = self.rng.gen_range(0..1000) < self.write_permille;
        let (is_stream, gap) = if self.burst_left > 0 {
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
            self.rng.gen_range(0..self.hot_lines) * 64
        };
        Access {
            gap,
            addr,
            is_write,
        }
    }
}

#[test]
fn synthetic_stream_matches_the_gen_range_reference() {
    let profiles: Vec<BenchProfile> = table3_profiles()
        .into_iter()
        .chain(cache_profiles())
        .collect();
    assert!(profiles.len() > 16, "Table III and the cache study");
    for (i, profile) in profiles.iter().enumerate() {
        let seed = 0xB417_2013 + i as u64;
        let mut got = SyntheticWorkload::new(profile, seed);
        let mut want = Reference::new(profile, seed);
        // Through `fill`, as a core reads it, in uneven slices.
        let mut buf = [Access {
            gap: 0,
            addr: 0,
            is_write: false,
        }; 37];
        let mut n = 0;
        while n < ACCESSES {
            let len = buf.len().min(ACCESSES - n).min(1 + n % buf.len());
            got.fill(&mut buf[..len]);
            for (k, a) in buf[..len].iter().enumerate() {
                assert_eq!(*a, want.next_access(), "{} access {}", profile.name, n + k);
            }
            n += len;
        }
    }
}
