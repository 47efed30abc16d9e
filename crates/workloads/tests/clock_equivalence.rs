//! Differential test of `CmpSystem::run`, whose cores run on their own
//! clocks, against the per-cycle reference `CmpSystem::run_per_cycle`, on
//! traffic the simulator's unit tests miss:
//!
//! * twins of the Table III and cache-study profiles with stores, MLP
//!   1–16, issue width 1–4, gaps beyond the 192-entry ROB, and hot sets
//!   from L1-resident to LLC-sized, on the Table II hierarchy or on scaled
//!   down ones that warm up (and write back) within the run;
//! * every scheduling policy, swapped between chunks;
//! * a shared LLC on or off, with random way splits;
//! * three DRAM channels: Table II's close-page DDR2-400, the open-page
//!   DDR2-400 of the `ablation` experiment (row hits and conflicts, and
//!   the open-page floor bound), and the DDR2-1600 of `fig4` (a 6-cycle
//!   command clock instead of 25);
//! * runs cut into chunks of random length (zero included), with
//!   `reset_phase_counters` between them.
//!
//! After every chunk the two systems must agree on the cycle, the
//! snapshot, every core counter, the controller and DRAM statistics, the
//! interference counts and the LLC counters.

use bwpart_cmp::{CacheConfig, CmpConfig, CmpSystem, LlcConfig, Workload};
use bwpart_dram::{DramConfig, PagePolicy};
use bwpart_mc::Policy;
use bwpart_workloads::{cache_profiles, table3_profiles, BenchProfile};
use proptest::prelude::*;

const KB: u64 = 1024;
const CYCLES: u64 = 60_000;

/// One application: (profile index, log2 of the hot set in KB, store ‰,
/// MLP, width, mean gap).
fn arb_app() -> impl Strategy<Value = (usize, u32, u32, usize, u32, u32)> {
    (
        0usize..64,
        0u32..=6,
        0u32..=500,
        1usize..=16,
        1u32..=4,
        0u32..=320,
    )
}

fn twin(pick: (usize, u32, u32, usize, u32, u32), salt: u64) -> BenchProfile {
    let (idx, hot_log2, store_permille, mlp, width, gap) = pick;
    let mut pool = table3_profiles();
    pool.extend(cache_profiles());
    let base = pool[idx % pool.len()];
    BenchProfile {
        hot_bytes: KB << hot_log2,
        write_ratio: f64::from(store_permille) / 1000.0,
        mlp,
        width,
        gap,
        seed_salt: base.seed_salt ^ (salt << 8),
        ..base
    }
}

/// Policy `kind` (one per `PolicyKind`) for `n` applications, its shares,
/// keys and knobs derived from `salt`.
fn policy(kind: usize, n: usize, salt: u64) -> Policy {
    let weights: Vec<f64> = (0..n)
        .map(|i| 1.0 + ((salt >> (i * 8)) & 0xff) as f64)
        .collect();
    let total: f64 = weights.iter().sum();
    match kind {
        0 => Policy::fcfs(n),
        1 => Policy::fr_fcfs(n),
        2 => Policy::stf(weights.iter().map(|w| w / total).collect()),
        3 => Policy::priority(weights),
        4 => Policy::parbs(n, 1 + (salt % 8) as usize),
        5 => Policy::atlas(n, 0.99 + (salt % 100) as f64 * 1e-4),
        _ => Policy::tcm(n, 1 + salt % 500),
    }
}

/// `total` ways split by `weights`, at least one way each.
fn way_split(weights: &[usize], total: usize) -> Vec<usize> {
    let n = weights.len();
    let sum: usize = weights.iter().sum();
    let mut ways: Vec<usize> = weights.iter().map(|w| 1 + (total - n) * w / sum).collect();
    ways[0] += total - ways.iter().sum::<usize>();
    ways
}

/// Hierarchy 0 is Table II's under a 1 MB LLC; 1 and 2 scale it down so
/// that the same 1–64 KB hot sets become L2 and LLC hits, and dirty
/// lines reach DRAM, within a short run. DRAM 0 is Table II's close-page
/// DDR2-400, 1 the same channel with open pages, 2 the DDR2-1600.
fn config(geometry: usize, llc: bool, dram: usize) -> CmpConfig {
    let cache = |capacity: u64, ways: usize| CacheConfig {
        capacity: capacity as usize,
        ways,
        line_bytes: 64,
    };
    let (l1, l2, llc_bytes) = match geometry {
        0 => (CacheConfig::l1d(), CacheConfig::l2(), 1024 * KB),
        1 => (cache(4 * KB, 2), cache(16 * KB, 8), 64 * KB),
        _ => (cache(2 * KB, 2), cache(8 * KB, 4), 32 * KB),
    };
    let dram = match dram {
        0 => DramConfig::ddr2_400(),
        1 => DramConfig {
            page_policy: PagePolicy::OpenPage,
            ..DramConfig::ddr2_400()
        },
        _ => DramConfig::ddr2_1600(),
    };
    CmpConfig {
        l1,
        l2,
        dram,
        llc: llc.then_some(LlcConfig {
            cache: cache(llc_bytes, 16),
            hit_penalty: 12,
        }),
        ..CmpConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(36))]

    #[test]
    fn per_core_clocks_match_per_cycle_stepping(
        apps in prop::collection::vec(arb_app(), 1..=4),
        cuts in prop::collection::vec(0u64..CYCLES, 0..=3),
        kinds in prop::collection::vec((0usize..7, any::<bool>()), 4),
        llc in (any::<bool>(), prop::collection::vec(1usize..=8, 4)),
        hardware in (0usize..3, 0usize..3),
        seed in any::<u64>(),
    ) {
        let (geometry, dram) = hardware;
        let n = apps.len();
        let profiles: Vec<BenchProfile> = apps
            .iter()
            .enumerate()
            .map(|(i, &a)| twin(a, i as u64))
            .collect();
        let (with_llc, way_weights) = llc;
        let cfg = config(geometry, with_llc, dram);
        let build = || {
            let workloads: Vec<Box<dyn Workload>> =
                profiles.iter().map(|p| p.spawn(seed)).collect();
            let cores = profiles.iter().map(BenchProfile::core_config).collect();
            CmpSystem::new(&cfg, workloads, cores, policy(kinds[0].0, n, seed))
        };
        let mut clocked = build();
        let mut stepped = build();
        let mut ways = way_split(&way_weights[..n], 16);
        if with_llc {
            clocked.set_llc_ways(&ways);
            stepped.set_llc_ways(&ways);
        }
        let digest = |sys: &CmpSystem| {
            let mc = sys.mc();
            (
                sys.cycle(),
                sys.snapshot(),
                (0..n).map(|i| sys.core(i).counters.clone()).collect::<Vec<_>>(),
                mc.stats().clone(),
                (0..n).map(|i| mc.interference_cycles(i)).collect::<Vec<_>>(),
                mc.epoch_accesses().to_vec(),
                mc.dram().stats().clone(),
                sys.llc()
                    .map(|l| (0..n).map(|i| l.counters(i).clone()).collect::<Vec<_>>()),
            )
        };

        let mut edges = cuts;
        edges.sort_unstable();
        edges.push(CYCLES);
        let mut at = 0;
        for (chunk, &edge) in edges.iter().enumerate() {
            if chunk > 0 {
                // A phase boundary: swap the policy, maybe reset the
                // per-phase counters, and move the LLC ways around.
                let (kind, reset) = kinds[chunk];
                let salt = seed.rotate_left(chunk as u32 * 16);
                clocked.mc_mut().set_policy(policy(kind, n, salt));
                stepped.mc_mut().set_policy(policy(kind, n, salt));
                if reset {
                    clocked.reset_phase_counters();
                    stepped.reset_phase_counters();
                }
                if with_llc {
                    ways.rotate_left(1);
                    clocked.set_llc_ways(&ways);
                    stepped.set_llc_ways(&ways);
                }
            }
            clocked.run(edge - at);
            stepped.run_per_cycle(edge - at);
            at = edge;
            prop_assert_eq!(
                digest(&clocked),
                digest(&stepped),
                "diverged after chunk {} ending at cycle {} (profiles {:?}, llc {}, geometry {}, \
                 dram {})",
                chunk,
                edge,
                profiles.iter().map(|p| p.name).collect::<Vec<_>>(),
                with_llc,
                geometry,
                dram
            );
        }
    }
}
