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
//!
//! One more dimension holds `CmpSystem::warm_up`, which keeps no
//! interference tally, to `run` followed by a discarded
//! `take_epoch_counters`: over every policy, 4, 8 and 16 cores, the LLC
//! on and off and the three DRAM channels, with a policy swap right after
//! the warm-up or later.

use bwpart_cmp::{CacheConfig, CmpConfig, CmpSystem, LlcConfig, Snapshot, Workload};
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
        .map(|i| 1.0 + (salt.rotate_right(i as u32 * 8) & 0xff) as f64)
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

/// Everything a system has counted, with the snapshot's lifetime
/// interference taken relative to `base`.
type Digest = (
    u64,
    Snapshot,
    Vec<bwpart_cmp::core::CoreCounters>,
    bwpart_mc::McStats,
    Vec<u64>,
    Vec<u64>,
    bwpart_dram::DramStats,
    Option<Vec<bwpart_cmp::LlcAppCounters>>,
);

fn rebased_digest(sys: &CmpSystem, base: &Snapshot) -> Digest {
    let n = sys.cores();
    let mc = sys.mc();
    let mut snap = sys.snapshot();
    for (lifetime, at_base) in snap.interference.iter_mut().zip(&base.interference) {
        *lifetime -= at_base;
    }
    (
        sys.cycle(),
        snap,
        (0..n).map(|i| sys.core(i).counters.clone()).collect(),
        mc.stats().clone(),
        (0..n).map(|i| mc.interference_cycles(i)).collect(),
        mc.epoch_accesses().to_vec(),
        mc.dram().stats().clone(),
        sys.llc()
            .map(|l| (0..n).map(|i| l.counters(i).clone()).collect()),
    )
}

/// `warm_up(w)` then `run(m)` against `run(w)`, a discarded
/// `take_epoch_counters()` and `run(m)`, after a common tallied lead-in
/// (zero cycles included). A policy swap comes right after the warm-up
/// when `swap_at_once`, else halfway through `m`, so the first settles
/// after the warm-up meet a plan only the warm-up's end invalidated.
/// The systems must agree after each window in every counter; the
/// snapshots' lifetime interference is compared from the end of the
/// warm-up, which the untallied system never charged. Returns the
/// interference the tallied system charged in its warm-up.
fn check_warm_up(
    swap_at_once: bool,
    n: usize,
    kind: usize,
    with_llc: bool,
    dram: usize,
    draw: &mut impl FnMut(u64) -> u64,
) -> u64 {
    let profiles: Vec<BenchProfile> = (0..n)
        .map(|i| {
            let app = (
                draw(64) as usize,
                draw(7) as u32,
                draw(501) as u32,
                1 + draw(16) as usize,
                1 + draw(4) as u32,
                draw(321) as u32,
            );
            twin(app, i as u64)
        })
        .collect();
    let seed = draw(u64::MAX);
    let cfg = config(1 + draw(2) as usize, with_llc, dram);
    let build = || {
        let workloads: Vec<Box<dyn Workload>> = profiles.iter().map(|p| p.spawn(seed)).collect();
        let cores = profiles.iter().map(BenchProfile::core_config).collect();
        let mut sys = CmpSystem::new(&cfg, workloads, cores, policy(kind, n, seed));
        if with_llc {
            let weights: Vec<usize> = (0..n).map(|i| 1 + (i + kind) % 8).collect();
            sys.set_llc_ways(&way_split(&weights, 16));
        }
        sys
    };
    let lead = draw(3) * draw(10_000);
    let warm = 10_000 + draw(20_000);
    let half = 10_000 + draw(10_000);
    let swap = policy((kind + 1 + draw(6) as usize) % 7, n, seed.rotate_left(16));
    let case = format!(
        "{n} cores, policy {kind}, llc {with_llc}, dram {dram}, lead-in {lead}, warm-up {warm}, \
         swap at once {swap_at_once}"
    );

    let mut untallied = build();
    let mut tallied = build();
    untallied.run(lead);
    tallied.run(lead);
    let lead_in = untallied.snapshot().interference;
    untallied.warm_up(warm);
    tallied.run(warm);
    let (from, base) = (untallied.snapshot(), tallied.snapshot());
    assert_eq!(from.interference, lead_in, "{case}: the warm-up charged");
    let _ = tallied.mc_mut().take_epoch_counters();
    assert_eq!(
        rebased_digest(&untallied, &from),
        rebased_digest(&tallied, &base),
        "{case}: after the warm-up"
    );

    for second in [false, true] {
        if second != swap_at_once {
            untallied.mc_mut().set_policy(swap.clone());
            tallied.mc_mut().set_policy(swap.clone());
        }
        untallied.run(half);
        tallied.run(half);
    }
    let digest = rebased_digest(&untallied, &from);
    assert_eq!(
        digest,
        rebased_digest(&tallied, &base),
        "{case}: after the measure"
    );
    assert!(
        digest.4.iter().any(|&c| c > 0),
        "{case}: nothing charged after the warm-up"
    );
    base.interference.iter().sum::<u64>() - lead_in.iter().sum::<u64>()
}

/// [`check_warm_up`] over every policy, 4, 8 and 16 cores, the LLC on and
/// off, and the three DRAM channels, with the swap at once in every other
/// case.
#[test]
fn warm_up_matches_run_with_a_discarded_tally() {
    let mut state = 0x3A7E_u64;
    let mut draw = move |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    let mut charged_in_warm_ups = 0;
    for n in [4, 8, 16] {
        for kind in 0..7 {
            for (with_llc, dram) in [false, true]
                .into_iter()
                .flat_map(|l| (0..3).map(move |d| (l, d)))
            {
                let swap_at_once = (n + kind + dram + usize::from(with_llc)) % 2 == 0;
                charged_in_warm_ups +=
                    check_warm_up(swap_at_once, n, kind, with_llc, dram, &mut draw);
            }
        }
    }
    assert!(
        charged_in_warm_ups > 0,
        "no warm-up charged any interference"
    );
}
