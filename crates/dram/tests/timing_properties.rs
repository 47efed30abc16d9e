//! Property tests: for arbitrary transaction streams the DRAM engine never
//! violates its timing contracts — data bursts never overlap, same-bank row
//! cycles respect tRC, rank ACT rates respect tFAW, and the engine is
//! deterministic.

use bwpart_dram::{DramConfig, DramSystem, MemTransaction, PagePolicy};
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

fn run(policy: PagePolicy, txns: &[Txn]) -> Vec<(u64, u64, usize)> {
    let mut cfg = DramConfig::ddr2_400();
    cfg.page_policy = policy;
    let mut sys = DramSystem::new(cfg);
    sys.set_app_count(4);
    let mut now = 0u64;
    let mut out = Vec::new();
    for t in txns {
        now += t.gap;
        let txn = MemTransaction {
            app: t.app,
            addr: t.line * 64,
            is_write: t.is_write,
        };
        let p = sys.probe(&txn, now);
        let c = sys.issue(&txn, p.start.max(now));
        out.push((c.start_cycle, c.done_cycle, t.app));
        now = c.start_cycle;
    }
    out
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
