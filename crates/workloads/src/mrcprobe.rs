//! Miss-ratio-curve sampling: short standalone profiling runs at a grid of
//! LLC way counts.
//!
//! The coordinated analytical model (`bwpart_core::mrc`) needs, per
//! application, how its DDR-facing demand depends on the LLC ways it holds:
//! a fitted [`MissRatioCurve`] plus the `(api_llc, cpi_base, mem_penalty)`
//! triple of [`CacheAwareProfile`]. This module *measures* all four from
//! the simulator, the software analogue of hardware CAT/CMT probing:
//!
//! 1. For each way count `w` in the grid, run the application **standalone**
//!    against an LLC restricted to `w` ways (same set count as the target
//!    LLC, so a `w`-way probe equals a `w`-way partition share), and record
//!    the LLC miss ratio `m(w)`, the LLC-incoming accesses per instruction,
//!    and the cycles per instruction.
//! 2. Fit the miss-ratio samples with the monotone (PAV-isotonized)
//!    [`MissRatioCurve::fit`].
//! 3. Recover `cpi_base` and `mem_penalty` by least-squares on the model
//!    `CPI(w) = cpi_base + api_llc · m(w) · mem_penalty` over the grid —
//!    the slope against the measured DDR accesses per instruction is the
//!    effective (MLP-discounted) per-access stall, the intercept the CPI
//!    with a fully hitting LLC.

use bwpart_cmp::{CacheConfig, CmpConfig, CmpSystem, LlcConfig};
use bwpart_core::{CacheAwareProfile, MissRatioCurve, ModelError};
use bwpart_mc::Policy;

use crate::mixes::Mix;
use crate::profile::BenchProfile;

/// One grid point's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbePoint {
    /// LLC ways the application ran with.
    pub ways: usize,
    /// Measured LLC miss ratio.
    pub miss_ratio: f64,
    /// Measured LLC-incoming accesses per instruction.
    pub api_llc: f64,
    /// Measured cycles per instruction.
    pub cpi: f64,
}

/// The sampler: target LLC geometry, ways grid, and phase budgets.
#[derive(Debug, Clone, PartialEq)]
pub struct MrcSampler {
    /// The shared LLC whose way partitions are being modelled. Probes use
    /// its set count and line size, scaling capacity with the way count.
    pub llc: LlcConfig,
    /// Way counts to sample (deduplicated, clamped to `1..=llc ways`).
    pub ways_grid: Vec<usize>,
    /// Warm-up cycles per probe (no statistics).
    pub warmup: u64,
    /// Measurement cycles per probe.
    pub measure: u64,
    /// Workload seed (probes are deterministic per `(bench, seed)`).
    pub seed: u64,
}

impl MrcSampler {
    /// A sampler for `llc` with a geometric grid `1, 2, 4, …` up to the
    /// full associativity (always including the endpoints).
    pub fn new(llc: LlcConfig) -> Self {
        let total = llc.cache.ways;
        let mut grid = vec![];
        let mut w = 1usize;
        while w < total {
            grid.push(w);
            w *= 2;
        }
        grid.push(total);
        // Warm-up must cover filling a megabyte-class LLC through a
        // DDR2-class memory system: thousands of cold fills at ~10^-2
        // accesses per cycle need cycles in the millions.
        MrcSampler {
            llc,
            ways_grid: grid,
            warmup: 3_000_000,
            measure: 400_000,
            seed: 0xC0DE,
        }
    }

    /// The probe LLC: `ways` ways at the target's set count and line size.
    fn probe_llc(&self, ways: usize) -> LlcConfig {
        let sets = self.llc.cache.sets();
        LlcConfig {
            cache: CacheConfig {
                capacity: sets * ways * self.llc.cache.line_bytes,
                ways,
                line_bytes: self.llc.cache.line_bytes,
            },
            hit_penalty: self.llc.hit_penalty,
        }
    }

    /// Run one standalone probe of `bench` at `ways` ways.
    pub fn probe_ways(&self, bench: &BenchProfile, ways: usize) -> ProbePoint {
        let cfg = CmpConfig {
            llc: Some(self.probe_llc(ways)),
            ..CmpConfig::default()
        };
        let mut sys = CmpSystem::new(
            &cfg,
            vec![bench.spawn(self.seed)],
            vec![bench.core_config()],
            Policy::fcfs(1),
        );
        sys.warm_up(self.warmup);
        sys.reset_phase_counters();
        sys.run(self.measure);
        let instr = sys.core(0).counters.retired.max(1);
        // lint: allow(R1): the system was just built with llc = Some
        let c = sys.llc().expect("probe system has an LLC").counters(0);
        ProbePoint {
            ways,
            miss_ratio: c.miss_ratio(),
            api_llc: c.accesses() as f64 / instr as f64,
            cpi: self.measure as f64 / instr as f64,
        }
    }

    /// Sample and fit the cache-aware profile of one benchmark.
    pub fn sample_bench(&self, bench: &BenchProfile) -> Result<CacheAwareProfile, ModelError> {
        let total = self.llc.cache.ways;
        let mut grid: Vec<usize> = self.ways_grid.iter().map(|&w| w.clamp(1, total)).collect();
        grid.sort_unstable();
        grid.dedup();
        if grid.is_empty() {
            return Err(ModelError::NoApplications);
        }
        let points: Vec<ProbePoint> = grid.iter().map(|&w| self.probe_ways(bench, w)).collect();
        fit_profile(bench.name, &points)
    }

    /// Sample every benchmark of a mix.
    pub fn sample_mix(&self, mix: &Mix) -> Result<Vec<CacheAwareProfile>, ModelError> {
        mix.profiles()
            .iter()
            .map(|b| self.sample_bench(b))
            .collect()
    }
}

/// Fit a [`CacheAwareProfile`] from raw probe points: PAV-isotonized MRC,
/// way-averaged `api_llc`, and least-squares `(cpi_base, mem_penalty)` on
/// `CPI = cpi_base + x · mem_penalty` with `x = api_llc · m(w)` (the
/// measured DDR accesses per instruction at each grid point).
pub fn fit_profile(
    name: impl Into<String>,
    points: &[ProbePoint],
) -> Result<CacheAwareProfile, ModelError> {
    if points.is_empty() {
        return Err(ModelError::NoApplications);
    }
    let mrc_samples: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.ways as f64, p.miss_ratio.clamp(0.0, 1.0)))
        .collect();
    let mrc = MissRatioCurve::fit(&mrc_samples)?;
    // `api_llc` (L2 misses per instruction) is invariant under LLC way
    // partitioning — the partition only filters *below* L2 — so the grid
    // samples are repeated noisy measurements of one number.
    let api_llc = (points.iter().map(|p| p.api_llc).sum::<f64>() / points.len() as f64).max(1e-9);
    // Least squares CPI against measured DDR accesses per instruction.
    let xs: Vec<f64> = points.iter().map(|p| p.api_llc * p.miss_ratio).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.cpi).collect();
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx = xs.iter().map(|x| (x - mx) * (x - mx)).sum::<f64>();
    let sxy = xs
        .iter()
        .zip(&ys)
        .map(|(x, y)| (x - mx) * (y - my))
        .sum::<f64>();
    // A flat MRC (streaming app) leaves no slope to identify: fall back to
    // a zero-penalty profile whose CPI is the observed mean.
    let mem_penalty = if sxx > 1e-18 {
        (sxy / sxx).max(0.0)
    } else {
        0.0
    };
    let cpi_base = (my - mem_penalty * mx).max(1e-6);
    CacheAwareProfile::new(name, api_llc, cpi_base, mem_penalty, mrc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::cache_profiles;

    fn test_llc() -> LlcConfig {
        LlcConfig {
            cache: CacheConfig {
                capacity: 1024 * 1024,
                ways: 16,
                line_bytes: 64,
            },
            hit_penalty: 12,
        }
    }

    #[test]
    fn default_grid_spans_the_associativity() {
        let s = MrcSampler::new(test_llc());
        assert_eq!(s.ways_grid, vec![1, 2, 4, 8, 16]);
        assert_eq!(s.probe_llc(4).cache.sets(), s.llc.cache.sets());
        assert_eq!(s.probe_llc(4).cache.ways, 4);
    }

    #[test]
    fn fit_profile_recovers_a_planted_model() {
        // Synthesize points from a known model and check the fit inverts it.
        let (api, base, pen) = (0.02, 1.4, 250.0);
        let m = |w: f64| (1.0 - w / 20.0).clamp(0.05, 1.0);
        let points: Vec<ProbePoint> = [1usize, 2, 4, 8, 16]
            .iter()
            .map(|&w| ProbePoint {
                ways: w,
                miss_ratio: m(w as f64),
                api_llc: api,
                cpi: base + api * m(w as f64) * pen,
            })
            .collect();
        let p = fit_profile("planted", &points).unwrap();
        assert!((p.api_llc - api).abs() < 1e-12);
        assert!((p.cpi_base - base).abs() < 1e-6, "base {}", p.cpi_base);
        assert!((p.mem_penalty - pen).abs() < 1e-3, "pen {}", p.mem_penalty);
        assert!((p.miss_ratio(4.0) - m(4.0)).abs() < 1e-12);
    }

    #[test]
    fn fit_profile_handles_flat_curves() {
        let points: Vec<ProbePoint> = [1usize, 16]
            .iter()
            .map(|&w| ProbePoint {
                ways: w,
                miss_ratio: 0.98,
                api_llc: 0.05,
                cpi: 6.0,
            })
            .collect();
        let p = fit_profile("flat", &points).unwrap();
        assert!(p.mem_penalty.abs() < 1e-12);
        assert!((p.cpi_base - 6.0).abs() < 1e-12);
        assert!(fit_profile("empty", &[]).is_err());
    }

    #[test]
    fn sampled_llcfit_mrc_is_steep_and_monotone() {
        // The LLC-fitting benchmark's hot set overflows 1-2 ways of the
        // 1 MB probe LLC but fits comfortably at the full associativity.
        let llcfit = cache_profiles()
            .into_iter()
            .find(|p| p.name == "llcfit")
            .unwrap();
        let mut s = MrcSampler::new(test_llc());
        s.ways_grid = vec![1, 8, 16];
        let p = s.sample_bench(&llcfit).unwrap();
        let few = p.miss_ratio(1.0);
        let many = p.miss_ratio(16.0);
        assert!(few > 0.5, "1 way must thrash the hot set: {few}");
        assert!(many < 0.25, "16 ways must absorb the hot set: {many}");
        assert!(
            p.apc_alone_at(1.0) > p.apc_alone_at(16.0),
            "fewer ways must mean more DDR traffic"
        );
        assert!(p.mem_penalty > 0.0, "llcfit is latency-sensitive");
        // Standalone IPC must *rise* with ways (CPI falls).
        assert!(p.cpi_alone_at(16.0) < p.cpi_alone_at(1.0) * 0.8);
    }

    #[test]
    fn sampled_streamer_mrc_is_flat() {
        // lbm streams far beyond any LLC: its miss ratio barely moves.
        let lbm = BenchProfile::by_name("lbm").unwrap();
        let mut s = MrcSampler::new(test_llc());
        s.ways_grid = vec![1, 16];
        s.warmup = 200_000;
        s.measure = 200_000;
        let p = s.sample_bench(&lbm).unwrap();
        assert!(
            p.miss_ratio(1.0) - p.miss_ratio(16.0) < 0.2,
            "streamer MRC must be nearly flat: {} vs {}",
            p.miss_ratio(1.0),
            p.miss_ratio(16.0)
        );
        assert!(p.miss_ratio(16.0) > 0.5, "streams keep missing");
    }

    #[test]
    fn probes_are_deterministic() {
        let llcfit = cache_profiles()
            .into_iter()
            .find(|p| p.name == "llcfit")
            .unwrap();
        let mut s = MrcSampler::new(test_llc());
        s.ways_grid = vec![2];
        s.warmup = 100_000;
        s.measure = 100_000;
        assert_eq!(s.probe_ways(&llcfit, 2), s.probe_ways(&llcfit, 2));
    }
}
