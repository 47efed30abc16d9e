//! Differential tests: the struct-of-arrays [`ChannelCore`] must be
//! observation-equivalent to the object-per-bank model it replaced.
//!
//! The oracle lives in this file: [`Bank`], the per-bank timing state
//! machine, and [`RefChannel`], the pre-SoA channel rebuilt verbatim on
//! top of it (the way `run_per_cycle` anchors the per-core clocks).
//! Random transaction streams are pushed through both paths and every
//! observable — probe starts, block reasons, blocking owners, commit data
//! windows and committed access kinds, quiesce and bus-free cycles, and the
//! channel floor — must match cycle-for-cycle under both page policies.

use std::collections::VecDeque;

use bwpart_dram::{
    AccessKind, BlockReason, ChannelCore, ChannelProbe, DramConfig, PagePolicy, Timings,
};
use proptest::prelude::*;

/// Result of probing a bank for an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Probe {
    /// Earliest cycle the access's first command may be driven, considering
    /// only this bank's constraints.
    earliest_start: u64,
    /// Command structure of the access.
    kind: AccessKind,
}

/// One DRAM bank: its row buffer and the earliest cycle each command class
/// may be driven, derived from the JEDEC-style constraints (tRC = tRAS +
/// tRP between activates, tRCD from ACT to CAS, CL/CWL from CAS to data,
/// tRTP and tWR from the last column access to precharge). All times are
/// CPU cycles.
#[derive(Debug, Clone, Default)]
struct Bank {
    /// Currently open row, if any (always `None` under close-page).
    open_row: Option<usize>,
    /// Cycle of the last ACT.
    act_time: u64,
    /// Earliest cycle a precharge could be driven.
    pre_ready: u64,
    /// Earliest cycle a new ACT may be driven (bank idle and tRC honoured).
    act_ready: u64,
    /// Earliest cycle a CAS to the open row may be driven.
    cas_ready: u64,
    /// Application that most recently used this bank (interference owner).
    last_owner: Option<usize>,
    /// Cycle the bank finishes all committed work (incl. auto-precharge).
    busy_until: u64,
}

impl Bank {
    /// Earliest start and command structure for an access to `row` under
    /// `policy`, considering only this bank's own timing state.
    fn probe(&self, row: usize, policy: PagePolicy) -> Probe {
        match (policy, self.open_row) {
            (PagePolicy::ClosePage, _) | (PagePolicy::OpenPage, None) => Probe {
                earliest_start: self.act_ready,
                kind: AccessKind::RowMiss,
            },
            (PagePolicy::OpenPage, Some(open)) if open == row => Probe {
                earliest_start: self.cas_ready,
                kind: AccessKind::RowHit,
            },
            (PagePolicy::OpenPage, Some(_)) => Probe {
                earliest_start: self.pre_ready,
                kind: AccessKind::RowConflict,
            },
        }
    }

    /// Commit an access whose first command is driven at `start` (the
    /// channel guarantees `start ≥ probe.earliest_start` plus rank/bus
    /// constraints). Returns the cycle the burst leaves/enters the data bus:
    /// `(data_start, data_end)`.
    // the argument list mirrors the DDR command fields; a struct would obscure them
    #[allow(clippy::too_many_arguments)]
    fn commit(
        &mut self,
        start: u64,
        kind: AccessKind,
        row: usize,
        is_write: bool,
        app: usize,
        policy: PagePolicy,
        t: &Timings,
    ) -> (u64, u64) {
        let cas = start + kind.cas_offset(t);
        let act = match kind {
            AccessKind::RowHit => self.act_time,
            AccessKind::RowMiss => start,
            AccessKind::RowConflict => start + t.trp,
        };
        let data_start = cas + if is_write { t.cwl } else { t.cl };
        let data_end = data_start + t.tburst;

        // When could this bank precharge after this access?
        let pre_after = if is_write {
            (data_end + t.twr).max(act + t.tras)
        } else {
            (cas + t.trtp).max(act + t.tras)
        };

        self.act_time = act;
        self.last_owner = Some(app);
        match policy {
            PagePolicy::ClosePage => {
                // Auto-precharge: bank is idle (and ACT-ready) tRP after the
                // precharge point.
                self.open_row = None;
                self.pre_ready = pre_after;
                self.act_ready = pre_after + t.trp;
                self.cas_ready = u64::MAX;
                self.busy_until = self.act_ready;
            }
            PagePolicy::OpenPage => {
                self.open_row = Some(row);
                self.pre_ready = pre_after;
                // A future conflict pays PRE+ACT from pre_ready; a future
                // hit only needs CAS-to-CAS spacing on the data bus (the
                // channel enforces bus occupancy), so CAS is ready once the
                // current CAS is consumed.
                self.cas_ready = cas + t.tburst.max(t.tck);
                self.act_ready = pre_after + t.trp;
                self.busy_until = data_end;
            }
        }
        (data_start, data_end)
    }

    /// Apply a refresh that occupies the bank until `done` (row buffer is
    /// closed by refresh).
    fn refresh_until(&mut self, done: u64) {
        self.open_row = None;
        self.act_ready = self.act_ready.max(done);
        self.pre_ready = self.pre_ready.max(done);
        self.cas_ready = u64::MAX;
        self.busy_until = self.busy_until.max(done);
    }
}

/// The object-model reference channel: a line-for-line port of the
/// pre-SoA implementation over per-`Bank` objects.
struct RefChannel {
    t: Timings,
    policy: PagePolicy,
    banks_per_rank: usize,
    banks: Vec<Bank>,
    rank_acts: Vec<VecDeque<u64>>,
    rank_act_owner: Vec<Option<usize>>,
    bus_free: u64,
    bus_owner: Option<usize>,
    bus_last_write: bool,
    last_write_data_end: u64,
    last_start: Option<u64>,
    refresh_applied: Vec<u64>,
    refresh_phase: Vec<u64>,
}

impl RefChannel {
    fn new(cfg: &DramConfig) -> Self {
        let t = Timings::from_config(cfg);
        RefChannel {
            t,
            policy: cfg.page_policy,
            banks_per_rank: cfg.banks_per_rank,
            banks: vec![Bank::default(); cfg.ranks * cfg.banks_per_rank],
            rank_acts: vec![VecDeque::with_capacity(4); cfg.ranks],
            rank_act_owner: vec![None; cfg.ranks],
            bus_free: 0,
            bus_owner: None,
            bus_last_write: false,
            last_write_data_end: 0,
            last_start: None,
            refresh_applied: vec![0; cfg.ranks],
            refresh_phase: (0..cfg.ranks as u64)
                .map(|r| (2 * r + 1) * t.trefi / (2 * cfg.ranks as u64))
                .collect(),
        }
    }

    fn bank_index(&self, rank: usize, bank: usize) -> usize {
        rank * self.banks_per_rank + bank
    }

    fn align_up(&self, cycle: u64) -> u64 {
        let t = self.t.tck;
        cycle.div_ceil(t) * t
    }

    fn blackout_before(&self, rank: usize, cycle: u64) -> (u64, u64) {
        let phase = self.refresh_phase[rank];
        if cycle < phase {
            return (0, 0);
        }
        let k = (cycle - phase) / self.t.trefi;
        let start = phase + k * self.t.trefi;
        (start, start + self.t.trfc)
    }

    fn avoid_blackout(&self, rank: usize, cycle: u64) -> u64 {
        let (start, end) = self.blackout_before(rank, cycle);
        if cycle >= start && cycle < end {
            end
        } else {
            cycle
        }
    }

    fn apply_refreshes(&mut self, rank: usize, upto: u64) {
        let (start, end) = self.blackout_before(rank, upto);
        if end > 0 && start >= self.refresh_applied[rank] {
            for b in 0..self.banks_per_rank {
                let idx = self.bank_index(rank, b);
                self.banks[idx].refresh_until(end);
            }
            self.refresh_applied[rank] = end;
        }
    }

    fn raw_probe(
        &self,
        rank: usize,
        bank: usize,
        row: usize,
        is_write: bool,
        now: u64,
    ) -> (u64, BlockReason, Option<usize>, AccessKind) {
        let t = &self.t;
        let b = &self.banks[self.bank_index(rank, bank)];
        let bank_probe = b.probe(row, self.policy);
        let kind = bank_probe.kind;
        let cas_off = kind.cas_offset(t);
        let act_off = match kind {
            AccessKind::RowHit => None,
            AccessKind::RowMiss => Some(0),
            AccessKind::RowConflict => Some(t.trp),
        };
        let data_off = cas_off + if is_write { t.cwl } else { t.cl };

        let (mut start, mut reason, mut blocker) = (now, BlockReason::Bank, None);
        let mut fold = |lb: u64, r: BlockReason, owner: Option<usize>| {
            if lb > start {
                start = lb;
                reason = r;
                blocker = owner;
            }
        };
        fold(bank_probe.earliest_start, BlockReason::Bank, b.last_owner);

        if let Some(aoff) = act_off {
            if let Some(&last) = self.rank_acts[rank].back() {
                let lb = (last + t.trrd).saturating_sub(aoff);
                fold(lb, BlockReason::RankAct, self.rank_act_owner[rank]);
            }
            if self.rank_acts[rank].len() >= 4 {
                let oldest = self.rank_acts[rank][self.rank_acts[rank].len() - 4];
                let lb = (oldest + t.tfaw).saturating_sub(aoff);
                fold(lb, BlockReason::RankAct, self.rank_act_owner[rank]);
            }
        }

        let mut bus_ready = self.bus_free;
        if self.bus_owner.is_some() {
            if self.bus_last_write && !is_write {
                let cas_lb = self.last_write_data_end + t.twtr;
                bus_ready = bus_ready.max(cas_lb + if is_write { t.cwl } else { t.cl });
            } else if !self.bus_last_write && is_write {
                bus_ready = bus_ready.max(self.bus_free + t.tck);
            }
        }
        fold(
            bus_ready.saturating_sub(data_off),
            BlockReason::DataBus,
            self.bus_owner,
        );

        if let Some(last) = self.last_start {
            fold(last + t.tck, BlockReason::CommandSlot, self.bus_owner);
        }

        (start, reason, blocker, kind)
    }

    fn align_and_avoid_refresh(&self, rank: usize, mut start: u64) -> (u64, bool) {
        let mut refreshed = false;
        for _ in 0..4 {
            let aligned = self.align_up(start);
            let moved = self.avoid_blackout(rank, aligned);
            if moved != aligned {
                start = moved;
                refreshed = true;
            } else {
                return (aligned, refreshed);
            }
        }
        (start, refreshed)
    }

    fn probe(
        &self,
        rank: usize,
        bank: usize,
        row: usize,
        is_write: bool,
        now: u64,
    ) -> ChannelProbe {
        let (raw, mut reason, mut blocker, kind) = self.raw_probe(rank, bank, row, is_write, now);
        let (start, refreshed) = self.align_and_avoid_refresh(rank, raw);
        if refreshed {
            reason = BlockReason::Refresh;
            blocker = None;
        }
        ChannelProbe {
            start,
            kind,
            block: if start > now { Some(reason) } else { None },
            blocker: blocker.filter(|_| start > now),
        }
    }

    fn commit(
        &mut self,
        rank: usize,
        bank: usize,
        row: usize,
        is_write: bool,
        app: usize,
        start: u64,
    ) -> (u64, u64, AccessKind) {
        self.apply_refreshes(rank, start);
        let t = self.t;
        let idx = self.bank_index(rank, bank);
        let kind = self.banks[idx].probe(row, self.policy).kind;
        let (data_start, data_end) =
            self.banks[idx].commit(start, kind, row, is_write, app, self.policy, &t);

        if kind != AccessKind::RowHit {
            let act_time = match kind {
                AccessKind::RowConflict => start + t.trp,
                _ => start,
            };
            let acts = &mut self.rank_acts[rank];
            if acts.len() == 4 {
                acts.pop_front();
            }
            acts.push_back(act_time);
            self.rank_act_owner[rank] = Some(app);
        }

        self.bus_free = data_end;
        self.bus_owner = Some(app);
        self.bus_last_write = is_write;
        if is_write {
            self.last_write_data_end = data_end;
        }
        self.last_start = Some(start);
        (data_start, data_end, kind)
    }

    fn quiesce_at(&self) -> u64 {
        self.banks
            .iter()
            .map(|b| b.busy_until)
            .fold(self.bus_free, u64::max)
    }

    /// The channel floor recomputed from the banks: the lowest of every
    /// bank's three wheels, raised by the data-bus bound at the largest
    /// data offset the page policy allows and by the command slot.
    fn channel_floor(&self) -> u64 {
        let t = &self.t;
        let bank_min = self
            .banks
            .iter()
            .map(|b| b.pre_ready.min(b.act_ready).min(b.cas_ready))
            .fold(u64::MAX, u64::min);
        let slowest = match self.policy {
            PagePolicy::ClosePage => AccessKind::RowMiss,
            PagePolicy::OpenPage => AccessKind::RowConflict,
        };
        let bus_lb = self
            .bus_free
            .saturating_sub(slowest.cas_offset(t) + t.cl.max(t.cwl));
        let cmd = self.last_start.map_or(0, |s| s + t.tck);
        bank_min.max(bus_lb).max(cmd)
    }
}

#[derive(Debug, Clone)]
struct Op {
    rank: usize,
    bank: usize,
    row: usize,
    is_write: bool,
    app: usize,
    gap: u64,
    /// Probe-only (don't commit) with probability ~1/4: exercises the
    /// read paths at cycles where nothing mutates.
    commit: bool,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (
            (0usize..4, 0usize..8, 0usize..1024),
            (any::<bool>(), 0usize..4, 0u64..300, 0u8..4),
        ),
        1..250,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|((rank, bank, row), (is_write, app, gap, c))| Op {
                rank,
                bank,
                row,
                is_write,
                app,
                gap,
                commit: c != 0,
            })
            .collect()
    })
}

fn config(open_page: bool) -> DramConfig {
    let mut cfg = DramConfig::ddr2_400();
    if open_page {
        cfg.page_policy = PagePolicy::OpenPage;
    }
    cfg
}

/// Drive both paths through one op stream, asserting every observable.
fn check_equivalence(open_page: bool, ops: &[Op]) {
    let cfg = config(open_page);
    let mut soa = ChannelCore::new(&cfg);
    let mut reference = RefChannel::new(&cfg);
    let mut now = 0u64;
    for op in ops {
        now += op.gap;
        let ps = soa.probe(op.rank, op.bank, op.row, op.is_write, now);
        let pr = reference.probe(op.rank, op.bank, op.row, op.is_write, now);
        assert_eq!(ps, pr, "probe divergence at {now} for {op:?}");
        if op.commit {
            // The committed kind feeds the stats (`DramStats::record`); it
            // is re-derived after pending refreshes, so it may differ from
            // the probe's.
            let got = soa.commit(op.rank, op.bank, op.row, op.is_write, op.app, ps.start);
            let want = reference.commit(op.rank, op.bank, op.row, op.is_write, op.app, pr.start);
            assert_eq!(got, want, "commit divergence at {now}");
            now = ps.start;
        }
        assert_eq!(soa.quiesce_at(), reference.quiesce_at(), "quiesce at {now}");
        assert_eq!(soa.bus_free_at(), reference.bus_free, "bus_free at {now}");
        // The whole-channel floor, read from the SoA core's `bank_floor`
        // lane, must equal the three-wheel minimum recomputed from the
        // oracle's banks, and lower-bound the reference's raw probe for
        // every possible next request.
        let floor = soa.channel_floor();
        assert_eq!(floor, reference.channel_floor(), "floor at {now}");
        let (raw, _, _, _) = reference.raw_probe(op.rank, op.bank, op.row ^ 1, !op.is_write, 0);
        assert!(raw >= floor, "floor {floor} above reference raw {raw}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn soa_matches_object_model_close_page(ops in arb_ops()) {
        check_equivalence(false, &ops);
    }

    #[test]
    fn soa_matches_object_model_open_page(ops in arb_ops()) {
        check_equivalence(true, &ops);
    }
}

/// Long deterministic stream (beyond several tREFI periods) so refresh
/// application and the tFAW ring wrap many times under both policies.
#[test]
fn long_stream_equivalence_across_refresh_windows() {
    for open_page in [false, true] {
        let cfg = config(open_page);
        let mut soa = ChannelCore::new(&cfg);
        let mut reference = RefChannel::new(&cfg);
        let mut state = 0xFEED_5EEDu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = 0u64;
        for _ in 0..3000 {
            let rank = (rng() % 4) as usize;
            let bank = (rng() % 8) as usize;
            let row = (rng() % 64) as usize;
            let is_write = rng() % 3 == 0;
            let app = (rng() % 4) as usize;
            now += rng() % 120;
            let ps = soa.probe(rank, bank, row, is_write, now);
            let pr = reference.probe(rank, bank, row, is_write, now);
            assert_eq!(ps, pr);
            let s = soa.commit(rank, bank, row, is_write, app, ps.start);
            let r = reference.commit(rank, bank, row, is_write, app, pr.start);
            assert_eq!(s, r);
            assert_eq!(soa.channel_floor(), reference.channel_floor());
            now = ps.start;
        }
        assert_eq!(soa.quiesce_at(), reference.quiesce_at());
    }
}
