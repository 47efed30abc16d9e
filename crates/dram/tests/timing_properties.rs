//! Property tests: for arbitrary transaction streams the DRAM engine never
//! violates its timing contracts — data bursts never overlap, same-bank row
//! cycles respect tRC, rank ACT rates respect tFAW, and the engine is
//! deterministic.

use bwpart_dram::{
    AddressMapper, Completion, DramConfig, DramSystem, Location, MemTransaction, PagePolicy,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Txn {
    app: usize,
    line: u64,
    is_write: bool,
    gap: u64,
}

fn arb_txns() -> impl Strategy<Value = Vec<Txn>> {
    prop::collection::vec((0usize..4, 0u64..4096, any::<bool>(), 0u64..200), 1..200).prop_map(|v| {
        v.into_iter()
            .map(|(app, line, is_write, gap)| Txn {
                app,
                line,
                is_write,
                gap,
            })
            .collect()
    })
}

/// A dense stream: gaps of at most a few DRAM clocks into four rows of
/// every bank of two ranks, so rows conflict under open page and ACTs
/// crowd each rank's four-activate window.
fn arb_dense_txns() -> impl Strategy<Value = Vec<Txn>> {
    let mapper = AddressMapper::new(&DramConfig::ddr2_400());
    prop::collection::vec(
        (
            (0usize..4, 0usize..2, 0usize..8),
            (0usize..4, 0usize..4, any::<bool>(), 0u64..16),
        ),
        1..300,
    )
    .prop_map(move |v| {
        v.into_iter()
            .map(|((app, rank, bank), (row, col, is_write, gap))| Txn {
                app,
                line: mapper.encode(&Location {
                    channel: 0,
                    rank,
                    bank,
                    row,
                    col,
                }) / 64,
                is_write,
                gap,
            })
            .collect()
    })
}

/// The four channels the row-cycle and ACT-window properties run on:
/// DDR2-400 and DDR2-1600, each under close and open page.
fn act_configs() -> Vec<DramConfig> {
    [DramConfig::ddr2_400(), DramConfig::ddr2_1600()]
        .into_iter()
        .flat_map(|cfg| {
            [PagePolicy::ClosePage, PagePolicy::OpenPage].map(|page_policy| DramConfig {
                page_policy,
                ..cfg.clone()
            })
        })
        .collect()
}

/// Issue `txns` on `cfg`, each at its probed start, and return the
/// completions in issue order.
fn completions(cfg: &DramConfig, txns: &[Txn]) -> Vec<Completion> {
    let mut sys = DramSystem::new(cfg.clone());
    sys.set_app_count(4);
    let mut now = 0u64;
    txns.iter()
        .map(|t| {
            now += t.gap;
            let txn = MemTransaction {
                app: t.app,
                addr: t.line * 64,
                is_write: t.is_write,
            };
            let start = sys.probe(&txn, now).start.max(now);
            let c = sys.issue(&txn, start);
            now = c.start_cycle;
            c
        })
        .collect()
}

/// Every ACT the completions imply, as `(rank, bank, cycle)`, rebuilt from
/// each one's start and latency with timings converted from `cfg`'s
/// nanoseconds: a row hit issues no ACT, a miss its ACT at the start, and
/// a conflict its ACT one tRP after the start (the PRE). Fails on a
/// latency that fits none of the three.
fn rebuilt_acts(cfg: &DramConfig, done: &[Completion]) -> Result<Vec<(usize, usize, u64)>, String> {
    let cycles = |ns: f64| cfg.ns_to_cycles(ns);
    let (trp, trcd) = (cycles(cfg.timing.trp), cycles(cfg.timing.trcd));
    let mapper = AddressMapper::new(cfg);
    let mut acts = Vec::new();
    for c in done {
        let data = if c.is_write {
            cycles(cfg.cwl_ns())
        } else {
            cycles(cfg.timing.cl)
        } + cfg.burst_cycles();
        let act = match c.done_cycle - c.start_cycle {
            l if l == data => None,
            l if l == trcd + data => Some(c.start_cycle),
            l if l == trp + trcd + data => Some(c.start_cycle + trp),
            l => return Err(format!("{c:?}: latency {l} is no hit, miss or conflict")),
        };
        if let Some(at) = act {
            let loc = mapper.decode(c.addr);
            acts.push((loc.rank, loc.bank, at));
        }
    }
    Ok(acts)
}

/// The ACT cycles of each group `key` picks out, each sorted.
fn act_groups(acts: &[(usize, usize, u64)], key: impl Fn(usize, usize) -> usize) -> Vec<Vec<u64>> {
    let mut groups: Vec<Vec<u64>> = Vec::new();
    for &(rank, bank, at) in acts {
        let k = key(rank, bank);
        if groups.len() <= k {
            groups.resize(k + 1, Vec::new());
        }
        groups[k].push(at);
    }
    for g in &mut groups {
        g.sort_unstable();
    }
    groups
}

fn run(policy: PagePolicy, txns: &[Txn]) -> Vec<(u64, u64, usize)> {
    let cfg = DramConfig {
        page_policy: policy,
        ..DramConfig::ddr2_400()
    };
    completions(&cfg, txns)
        .iter()
        .map(|c| (c.start_cycle, c.done_cycle, c.app))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Close-page: completions are strictly ordered and bursts never overlap
    /// (done[i+1] - done[i] >= tburst once both are on the bus).
    #[test]
    fn bursts_never_overlap_close_page(txns in arb_txns()) {
        let cfg = DramConfig::ddr2_400();
        let tburst = cfg.burst_cycles();
        let completions = run(PagePolicy::ClosePage, &txns);
        for w in completions.windows(2) {
            prop_assert!(w[1].1 >= w[0].1 + tburst,
                "bursts overlap: {} then {}", w[0].1, w[1].1);
        }
    }

    /// Open-page: the same non-overlap invariant holds with row hits in the
    /// mix.
    #[test]
    fn bursts_never_overlap_open_page(txns in arb_txns()) {
        let cfg = DramConfig::ddr2_400();
        let tburst = cfg.burst_cycles();
        let completions = run(PagePolicy::OpenPage, &txns);
        for w in completions.windows(2) {
            prop_assert!(w[1].1 >= w[0].1 + tburst);
        }
    }

    /// Determinism: identical input streams produce identical completions.
    #[test]
    fn engine_is_deterministic(txns in arb_txns()) {
        prop_assert_eq!(
            run(PagePolicy::ClosePage, &txns),
            run(PagePolicy::ClosePage, &txns)
        );
        prop_assert_eq!(
            run(PagePolicy::OpenPage, &txns),
            run(PagePolicy::OpenPage, &txns)
        );
    }

    /// Stats bookkeeping under both page policies: served count equals
    /// issued count, the read/write split matches the stream, every served
    /// transaction is exactly one of hit/miss/conflict, and a completion
    /// reports a row hit exactly when it was timed as one (CAS at the
    /// start, so data ends CL or CWL plus one burst later).
    #[test]
    fn stats_match_stream(txns in arb_txns()) {
        for policy in [PagePolicy::ClosePage, PagePolicy::OpenPage] {
            let mut cfg = DramConfig::ddr2_400();
            cfg.page_policy = policy;
            let mut sys = DramSystem::new(cfg);
            sys.set_app_count(4);
            let t = *sys.timings();
            let mut now = 0u64;
            let mut writes = 0u64;
            let mut per_app = [0u64; 4];
            for tx in &txns {
                now += tx.gap;
                let txn = MemTransaction { app: tx.app, addr: tx.line * 64, is_write: tx.is_write };
                let p = sys.probe(&txn, now);
                let c = sys.issue(&txn, p.start.max(now));
                let hit_latency = if tx.is_write { t.cwl } else { t.cl } + t.tburst;
                prop_assert_eq!(c.row_hit, c.done_cycle - c.start_cycle == hit_latency,
                    "{:?}: row_hit {} but {} cycles from start at {}", policy, c.row_hit,
                    c.done_cycle - c.start_cycle, c.start_cycle);
                now = c.start_cycle;
                if tx.is_write { writes += 1; }
                per_app[tx.app] += 1;
            }
            let st = sys.stats();
            prop_assert_eq!(st.served, txns.len() as u64);
            prop_assert_eq!(st.writes, writes);
            for (a, &expected) in per_app.iter().enumerate() {
                prop_assert_eq!(st.per_app_served[a], expected);
            }
            prop_assert_eq!(st.row_hits + st.row_misses + st.row_conflicts, st.served);
            if policy == PagePolicy::ClosePage {
                // Close page: no row hits possible.
                prop_assert_eq!(st.row_hits, 0);
            }
        }
    }

    /// Same-bank row cycles respect tRC: consecutive ACTs to one bank lie at
    /// least tRAS + tRP apart.
    #[test]
    fn same_bank_acts_respect_trc(txns in arb_txns(), dense in arb_dense_txns()) {
        for cfg in act_configs() {
            let trc = cfg.ns_to_cycles(cfg.timing.tras + cfg.timing.trp);
            for stream in [&txns, &dense] {
                let acts = rebuilt_acts(&cfg, &completions(&cfg, stream))
                    .map_err(prop::test_runner::TestCaseError::Fail)?;
                for bank in act_groups(&acts, |rank, bank| rank * cfg.banks_per_rank + bank) {
                    for w in bank.windows(2) {
                        prop_assert!(w[1] >= w[0] + trc,
                            "{:?} tCK {}: ACTs at {} and {} to one bank, tRC {}",
                            cfg.page_policy, cfg.tck_cycles(), w[0], w[1], trc);
                    }
                }
            }
        }
    }

    /// Rank ACT rates respect tFAW: any five consecutive ACTs to one rank
    /// span at least tFAW.
    #[test]
    fn rank_acts_respect_tfaw(txns in arb_txns(), dense in arb_dense_txns()) {
        for cfg in act_configs() {
            let tfaw = cfg.ns_to_cycles(cfg.timing.tfaw);
            for stream in [&txns, &dense] {
                let acts = rebuilt_acts(&cfg, &completions(&cfg, stream))
                    .map_err(prop::test_runner::TestCaseError::Fail)?;
                for rank in act_groups(&acts, |rank, _| rank) {
                    for w in rank.windows(5) {
                        prop_assert!(w[4] >= w[0] + tfaw,
                            "{:?} tCK {}: five ACTs to one rank in [{}, {}], tFAW {}",
                            cfg.page_policy, cfg.tck_cycles(), w[0], w[4], tfaw);
                    }
                }
            }
        }
    }

    /// The probe is a fixed point: issuing at the probed start yields that
    /// exact start cycle.
    #[test]
    fn probe_start_is_achievable(txns in arb_txns()) {
        let mut sys = DramSystem::new(DramConfig::ddr2_400());
        sys.set_app_count(4);
        let mut now = 0u64;
        for t in &txns {
            now += t.gap;
            let txn = MemTransaction { app: t.app, addr: t.line * 64, is_write: t.is_write };
            let p = sys.probe(&txn, now);
            prop_assert!(p.start >= now || p.start.is_multiple_of(sys.timings().tck));
            let c = sys.issue(&txn, p.start.max(now));
            prop_assert_eq!(c.start_cycle, p.start.max(now),
                "probe promised {} but issue started at {}", p.start, c.start_cycle);
            now = c.start_cycle;
        }
    }
}
