//! One DRAM channel: the struct-of-arrays timing core.
//!
//! [`ChannelCore`] coordinates everything a channel's transactions share:
//! each bank's timing state, the rank ACT windows (tRRD/tFAW), refresh
//! blackouts, data-bus occupancy and turnaround, and the one-transaction-
//! start-per-DRAM-clock command-bus approximation. It answers two
//! questions for the memory controller:
//!
//! 1. *when* could a transaction to a given location start (and with what
//!    command structure), and
//! 2. if it cannot start now, *whose* traffic is blocking it — the paper's
//!    interference-attribution signal (Section IV-C).
//!
//! The first question is the simulator's hottest loop: the memory
//! controller asks it for every request in its scheduling window. A
//! per-bank object layout would scatter the four timing wheels a probe
//! reads (`pre_ready`, `act_ready`, `cas_ready`, `open_row`) across one
//! heap object per bank, so every probe would chase a pointer and pull a
//! whole bank's cache line for one or two fields. The core keeps that
//! state as contiguous flat arrays indexed by `rank * banks_per_rank +
//! bank`:
//!
//! ```text
//! open_row   : [u32; banks]   row id, NO_ROW when closed
//! act_time   : [u64; banks]   cycle of the last ACT
//! pre_ready  : [u64; banks]   earliest PRE          ┐ the "wheels" a
//! act_ready  : [u64; banks]   earliest ACT          │ probe reads; one
//! cas_ready  : [u64; banks]   earliest CAS          ┘ per command class
//! bank_floor : [u64; banks]   min of the three wheels
//! bank_min   : u64            min of bank_floor
//! busy_until : [u64; banks]   committed-work horizon (quiesce)
//! last_owner : [u32; banks]   interference owner, NO_OWNER when idle
//! act_ring   : [u64; ranks*4] tFAW ring of the 4 most recent ACTs
//! ```
//!
//! Per-bank probes touch exactly the lanes they need, and the rank/bus
//! scalars live in the same cache-friendly block. The channel-wide bound
//! ([`ChannelCore::channel_floor`]) reads the scalar `bank_min` instead of
//! scanning: each commit lowers it to the committed bank's new floor, and
//! only a commit that raises the bank holding the minimum, or a refresh
//! application, rescans the `bank_floor` lane. The
//! object-per-bank model this layout replaced is the oracle of
//! `tests/soa_equivalence.rs` and lives in that file, as `run_per_cycle`
//! anchors the per-core clocks.
//!
//! A probe folds the lower bounds on a start in two parts: the
//! bank-and-rank part (`bank_rank_fold`: the bank's wheel for the access
//! kind its row state implies, then the rank's tRRD/tFAW windows) and the
//! bus part over it (`bus_fold`: data-bus occupancy and turnaround, then
//! the command slot). It then pushes the start onto the command-clock grid
//! and out of refresh blackouts. The memory controller's gather asks two
//! narrower questions of the same folds on its DRAM clock `now`:
//!
//! * `issuable`, the issue check: the fold taken from `now` must stay at
//!   `now`, and `now` must be on the grid and outside the rank's blackouts
//!   (`grid_clear`). That is exactly `probe(.., now).start == now`, with no
//!   alignment.
//! * `bus_clear`, the bus gate: does the bus part alone, over a bank part
//!   that holds nothing back, stay at `now`? It reads only channel scalars,
//!   and depends on a request only through its access kind and direction,
//!   so the controller asks it once per channel, kind and direction on each
//!   clock. Folds only raise the start, so a request that fails the gate
//!   fails the issue check too, and is rejected without folding its bank
//!   and rank.
//!
//! Every division by the command-clock period or the refresh interval goes
//! through a precomputed [`Divider`] (one multiply instead of a hardware
//! divide; exact for every `u64` numerator).
//!
//! Hot functions in this module make no heap allocation and no
//! `Vec::push` — state is sized once at construction and only ever indexed
//! thereafter. The workspace test `tests/warm_loop_alloc.rs` checks it by
//! counting allocations once a simulated run is warm.

use bwpart_core::Divider;
use serde::{Deserialize, Serialize};

use crate::config::{DramConfig, PagePolicy};

/// Bank/channel timing parameters pre-converted to CPU cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Timings {
    /// DRAM clock period.
    pub tck: u64,
    /// Row precharge.
    pub trp: u64,
    /// ACT-to-CAS.
    pub trcd: u64,
    /// CAS-to-read-data.
    pub cl: u64,
    /// CAS-to-write-data.
    pub cwl: u64,
    /// Minimum row-active time.
    pub tras: u64,
    /// Write recovery (after last write data beat, before precharge).
    pub twr: u64,
    /// Write-to-read turnaround (after last write data beat).
    pub twtr: u64,
    /// Read-to-precharge.
    pub trtp: u64,
    /// ACT-to-ACT same rank.
    pub trrd: u64,
    /// Four-activate window.
    pub tfaw: u64,
    /// Refresh cycle time.
    pub trfc: u64,
    /// Refresh interval.
    pub trefi: u64,
    /// Data-bus occupancy of one line burst.
    pub tburst: u64,
}

impl Timings {
    /// Convert a configuration's nanosecond parameters to CPU cycles.
    pub fn from_config(cfg: &DramConfig) -> Self {
        Timings {
            tck: cfg.tck_cycles(),
            trp: cfg.ns_to_cycles(cfg.timing.trp),
            trcd: cfg.ns_to_cycles(cfg.timing.trcd),
            cl: cfg.ns_to_cycles(cfg.timing.cl),
            cwl: cfg.ns_to_cycles(cfg.cwl_ns()),
            tras: cfg.ns_to_cycles(cfg.timing.tras),
            twr: cfg.ns_to_cycles(cfg.timing.twr),
            twtr: cfg.ns_to_cycles(cfg.timing.twtr),
            trtp: cfg.ns_to_cycles(cfg.timing.trtp),
            trrd: cfg.ns_to_cycles(cfg.timing.trrd),
            tfaw: cfg.ns_to_cycles(cfg.timing.tfaw),
            trfc: cfg.ns_to_cycles(cfg.timing.trfc),
            trefi: cfg.ns_to_cycles(cfg.timing.trefi),
            tburst: cfg.burst_cycles(),
        }
    }
}

/// How an access will be serviced, and therefore its command structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessKind {
    /// Open-page hit: CAS only.
    RowHit,
    /// Bank closed (or close-page policy): ACT + CAS.
    RowMiss,
    /// Open-page conflict: PRE + ACT + CAS.
    RowConflict,
}

impl AccessKind {
    /// Offset from the access start cycle to the CAS command.
    pub fn cas_offset(self, t: &Timings) -> u64 {
        match self {
            AccessKind::RowHit => 0,
            AccessKind::RowMiss => t.trcd,
            AccessKind::RowConflict => t.trp + t.trcd,
        }
    }
}

/// Why a transaction cannot start at the probed cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockReason {
    /// The target bank's timing state forbids the first command.
    Bank,
    /// The shared data bus (occupancy or turnaround) forbids it.
    DataBus,
    /// Rank-level ACT constraints (tRRD/tFAW) forbid it.
    RankAct,
    /// The rank is inside a refresh blackout.
    Refresh,
    /// Command-bus slot taken this DRAM clock.
    CommandSlot,
}

/// Outcome of probing a channel for a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelProbe {
    /// Earliest cycle the transaction's first command may be driven.
    pub start: u64,
    /// Command structure (hit/miss/conflict).
    pub kind: AccessKind,
    /// If `start` is later than the probed `now`: the dominating constraint.
    pub block: Option<BlockReason>,
    /// Application owning the blocking resource, if the constraint stems
    /// from another application's traffic.
    pub blocker: Option<usize>,
}

/// Sentinel in the flat `open_row` array: the bank has no open row.
pub const NO_ROW: u32 = u32::MAX;

/// Sentinel in the flat owner arrays: no application owns the resource.
pub const NO_OWNER: u32 = u32::MAX;

/// A running fold of lower bounds on a transaction's start: the dominating
/// bound, the reason and sentinel-encoded owner of the first bound that
/// reached it, and the command structure the bank decided. Bounds are
/// raised in the documented precedence order (bank, rank ACT windows, data
/// bus, command slot); a later bound wins only when strictly larger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fold {
    start: u64,
    reason: BlockReason,
    blocker: u32,
    kind: AccessKind,
}

impl Fold {
    #[inline]
    fn raise(&mut self, lb: u64, reason: BlockReason, owner: u32) {
        if lb > self.start {
            self.start = lb;
            self.reason = reason;
            self.blocker = owner;
        }
    }
}

/// Decode a sentinel-encoded owner lane into the public `Option` form.
#[inline]
fn owner(o: u32) -> Option<usize> {
    if o == NO_OWNER {
        None
    } else {
        Some(o as usize)
    }
}

/// One DRAM channel: banks, rank state and the shared data bus, held as
/// flat struct-of-arrays lanes (see the module docs for the layout).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChannelCore {
    t: Timings,
    policy: PagePolicy,
    ranks: usize,
    banks_per_rank: usize,
    // ---- per-bank lanes (len = ranks * banks_per_rank) ----
    open_row: Vec<u32>,
    act_time: Vec<u64>,
    pre_ready: Vec<u64>,
    act_ready: Vec<u64>,
    cas_ready: Vec<u64>,
    /// `min(pre_ready, act_ready, cas_ready)`, written wherever those are.
    bank_floor: Vec<u64>,
    /// `min(bank_floor)`, kept by [`commit`](Self::commit) and the refresh
    /// application (see [`channel_floor`](Self::channel_floor)).
    bank_min: u64,
    busy_until: Vec<u64>,
    last_owner: Vec<u32>,
    // ---- per-rank tFAW activation rings (4 fixed slots per rank) ----
    act_ring: Vec<u64>,
    ring_len: Vec<u8>,
    /// Next write slot per ring; the oldest retained ACT sits here once
    /// the ring is full, the most recent at `(pos + 3) & 3`.
    ring_pos: Vec<u8>,
    rank_act_owner: Vec<u32>,
    // ---- channel-level scalars ----
    /// Cycle at which the data bus becomes free.
    bus_free: u64,
    /// Owner of the burst currently/last on the bus.
    bus_owner: u32,
    /// Whether the last burst was a write (turnaround bookkeeping).
    bus_last_write: bool,
    /// End of the last *write* burst (tWTR reference point).
    last_write_data_end: u64,
    /// `last_start + tCK` — the earliest next transaction start under the
    /// one-start-per-DRAM-clock rule. Zero before the first commit (a zero
    /// lower bound never dominates a fold that starts at `now`).
    cmd_ready: u64,
    /// Per-rank marker: refresh blackouts applied to bank state up to here.
    refresh_applied: Vec<u64>,
    /// Per-rank refresh stagger offset, precomputed at construction
    /// (`(2·rank + 1)·tREFI / (2·ranks)`).
    refresh_phase: Vec<u64>,
    /// Divides by `t.tck`: command-clock grid alignment.
    tck_div: Divider,
    /// Divides by `t.trefi`: refresh-slot lookup.
    trefi_div: Divider,
}

impl ChannelCore {
    /// Build an idle channel core from the configuration.
    pub fn new(cfg: &DramConfig) -> Self {
        let t = Timings::from_config(cfg);
        let banks = cfg.ranks * cfg.banks_per_rank;
        ChannelCore {
            t,
            policy: cfg.page_policy,
            ranks: cfg.ranks,
            banks_per_rank: cfg.banks_per_rank,
            open_row: vec![NO_ROW; banks],
            act_time: vec![0; banks],
            pre_ready: vec![0; banks],
            act_ready: vec![0; banks],
            cas_ready: vec![u64::MAX; banks],
            bank_floor: vec![0; banks],
            bank_min: 0,
            busy_until: vec![0; banks],
            last_owner: vec![NO_OWNER; banks],
            act_ring: vec![0; cfg.ranks * 4],
            ring_len: vec![0; cfg.ranks],
            ring_pos: vec![0; cfg.ranks],
            rank_act_owner: vec![NO_OWNER; cfg.ranks],
            bus_free: 0,
            bus_owner: NO_OWNER,
            bus_last_write: false,
            last_write_data_end: 0,
            cmd_ready: 0,
            refresh_applied: vec![0; cfg.ranks],
            refresh_phase: (0..cfg.ranks as u64)
                .map(|r| (2 * r + 1) * t.trefi / (2 * cfg.ranks as u64))
                .collect(),
            tck_div: Divider::new(t.tck),
            trefi_div: Divider::new(t.trefi),
        }
    }

    /// The channel's timing table.
    pub fn timings(&self) -> &Timings {
        &self.t
    }

    #[inline]
    fn bank_index(&self, rank: usize, bank: usize) -> usize {
        debug_assert!(rank < self.ranks && bank < self.banks_per_rank);
        rank * self.banks_per_rank + bank
    }

    /// Earliest start and command structure for an access to `row` in the
    /// bank at flat index `idx`, considering only that bank's own state.
    #[inline]
    fn bank_earliest(&self, idx: usize, row: usize) -> (u64, AccessKind) {
        if self.policy == PagePolicy::ClosePage {
            return (self.act_ready[idx], AccessKind::RowMiss);
        }
        let open = self.open_row[idx];
        if open == NO_ROW {
            (self.act_ready[idx], AccessKind::RowMiss)
        } else if open == row as u32 {
            (self.cas_ready[idx], AccessKind::RowHit)
        } else {
            (self.pre_ready[idx], AccessKind::RowConflict)
        }
    }

    /// Align `cycle` up to the DRAM command-clock grid.
    #[inline]
    fn align_up(&self, cycle: u64) -> u64 {
        self.tck_div.div_ceil(cycle) * self.t.tck
    }

    /// The refresh blackout window `[start, end)` that covers or precedes
    /// `cycle` for `rank`, staggered across ranks (half-slot offset so no
    /// rank refreshes at cycle 0).
    fn blackout_before(&self, rank: usize, cycle: u64) -> (u64, u64) {
        let phase = self.refresh_phase[rank];
        if cycle < phase {
            return (0, 0); // before the first refresh of this rank
        }
        let k = (cycle - phase) / self.trefi_div;
        let start = phase + k * self.t.trefi;
        (start, start + self.t.trfc)
    }

    /// Push `cycle` out of any refresh blackout for `rank`.
    fn avoid_blackout(&self, rank: usize, cycle: u64) -> u64 {
        let (start, end) = self.blackout_before(rank, cycle);
        if cycle >= start && cycle < end {
            end
        } else {
            cycle
        }
    }

    /// Whether `now` is on the command-clock grid and outside `rank`'s
    /// refresh blackouts — the only conditions that can still reject a
    /// request whose raw timing bounds have all passed (alignment and
    /// refresh are the two post-fold adjustments, and both depend only on
    /// `now`, not on bank state).
    #[inline]
    fn grid_clear(&self, rank: usize, now: u64) -> bool {
        now % self.tck_div == 0 && self.avoid_blackout(rank, now) == now
    }

    /// Lazily apply refresh effects (row closure, bank busy) for blackouts
    /// that began before `upto`.
    fn apply_refreshes(&mut self, rank: usize, upto: u64) {
        let (start, end) = self.blackout_before(rank, upto);
        if end > 0 && start >= self.refresh_applied[rank] {
            let base = rank * self.banks_per_rank;
            for b in 0..self.banks_per_rank {
                self.refresh_bank(base + b, end);
            }
            self.refresh_applied[rank] = end;
            // A refresh only raises the rank's floors, and the bank holding
            // the minimum may be among them.
            self.bank_min = self.scan_bank_floor();
        }
    }

    /// Apply a refresh that occupies bank `idx` until `done` (the row
    /// buffer is closed by refresh).
    #[inline]
    fn refresh_bank(&mut self, idx: usize, done: u64) {
        self.open_row[idx] = NO_ROW;
        self.act_ready[idx] = self.act_ready[idx].max(done);
        self.pre_ready[idx] = self.pre_ready[idx].max(done);
        self.cas_ready[idx] = u64::MAX;
        self.bank_floor[idx] = self.act_ready[idx].min(self.pre_ready[idx]);
        self.busy_until[idx] = self.busy_until[idx].max(done);
    }

    /// The bank-and-rank part of the raw fold, starting from `now`: the
    /// bank's own wheel for the access kind its row state implies, then,
    /// for an access that activates a row, the rank's tRRD and tFAW
    /// windows. Reads only bank `(rank, bank)`'s lanes and `rank`'s ACT
    /// ring.
    #[inline]
    fn bank_rank_fold(&self, rank: usize, bank: usize, row: usize, now: u64) -> Fold {
        let t = &self.t;
        let idx = self.bank_index(rank, bank);
        let (bank_start, kind) = self.bank_earliest(idx, row);
        let mut fold = Fold {
            start: now,
            reason: BlockReason::Bank,
            blocker: NO_OWNER,
            kind,
        };
        fold.raise(bank_start, BlockReason::Bank, self.last_owner[idx]);

        let act_off = match kind {
            AccessKind::RowHit => None,
            AccessKind::RowMiss => Some(0),
            AccessKind::RowConflict => Some(t.trp),
        };
        if let Some(aoff) = act_off {
            let len = self.ring_len[rank];
            if len > 0 {
                let base = rank * 4;
                let pos = self.ring_pos[rank] as usize;
                // tRRD from the last ACT in this rank.
                let last = self.act_ring[base + ((pos + 3) & 3)];
                fold.raise(
                    (last + t.trrd).saturating_sub(aoff),
                    BlockReason::RankAct,
                    self.rank_act_owner[rank],
                );
                // tFAW: the 4th-most-recent ACT gates a 5th.
                if len >= 4 {
                    let oldest = self.act_ring[base + pos];
                    fold.raise(
                        (oldest + t.tfaw).saturating_sub(aoff),
                        BlockReason::RankAct,
                        self.rank_act_owner[rank],
                    );
                }
            }
        }
        fold
    }

    /// The bus part of the raw fold: raise `fold` by the data-bus bound
    /// (occupancy and turnaround, for `fold.kind`'s data offset) and the
    /// command-slot bound. Reads only channel scalars.
    #[inline]
    fn bus_fold(&self, mut fold: Fold, is_write: bool) -> Fold {
        let t = &self.t;
        let data_off = fold.kind.cas_offset(t) + if is_write { t.cwl } else { t.cl };
        let mut bus_ready = self.bus_free;
        if self.bus_owner != NO_OWNER {
            if self.bus_last_write && !is_write {
                // Write-to-read: the read CAS must wait tWTR after the last
                // write data beat; express as a data-start bound.
                let cas_lb = self.last_write_data_end + t.twtr;
                bus_ready = bus_ready.max(cas_lb + if is_write { t.cwl } else { t.cl });
            } else if !self.bus_last_write && is_write {
                // Read-to-write: one clock of bus turnaround.
                bus_ready = bus_ready.max(self.bus_free + t.tck);
            }
            // Rank-to-rank switch gaps (tRTRS) are not modeled: with the
            // paper's rank-interleaved mapping every consecutive line
            // changes rank, and charging a bubble per line would cap the
            // bus at ~80% of its nominal bandwidth — the paper's Table III
            // data (lbm alone reaches 94% of peak) shows their testbed did
            // not pay such a cost.
        }
        fold.raise(
            bus_ready.saturating_sub(data_off),
            BlockReason::DataBus,
            self.bus_owner,
        );
        // Command-slot: one transaction start per DRAM clock.
        fold.raise(self.cmd_ready, BlockReason::CommandSlot, self.bus_owner);
        fold
    }

    /// Fold every raw (unaligned, refresh-unaware) lower bound on a
    /// transaction's start into the dominating `(start, reason, blocker)`
    /// triple, starting from `now`: the bus part (`bus_fold`) over the
    /// bank-and-rank part (`bank_rank_fold`), the same fold the issue check
    /// (`issuable`) takes, so the two can never diverge.
    ///
    /// Whenever the result exceeds `now`, the triple is independent of
    /// `now` itself (every bound is a pure function of committed state and
    /// the request), so a blocked request's attribution holds on every
    /// clock below its raw start.
    pub fn raw_probe(
        &self,
        rank: usize,
        bank: usize,
        row: usize,
        is_write: bool,
        now: u64,
    ) -> (u64, BlockReason, Option<usize>, AccessKind) {
        let fold = self.bus_fold(self.bank_rank_fold(rank, bank, row, now), is_write);
        (fold.start, fold.reason, owner(fold.blocker), fold.kind)
    }

    /// Push `start` onto the command-clock grid and out of refresh
    /// blackouts (iterate: pushing past a blackout breaks alignment because
    /// blackout ends are arbitrary, so re-align). Returns the final start
    /// and whether a refresh moved it.
    pub fn align_and_avoid_refresh(&self, rank: usize, mut start: u64) -> (u64, bool) {
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

    /// Compute the earliest start for a transaction and, when it is blocked
    /// relative to `now`, the dominating constraint and its owner.
    pub fn probe(
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

    /// The command structure an access to `row` in bank `(rank, bank)`
    /// would use, from the bank's row state (the kind [`probe`](Self::probe)
    /// reports).
    #[inline]
    pub(crate) fn access_kind(&self, rank: usize, bank: usize, row: usize) -> AccessKind {
        self.bank_earliest(self.bank_index(rank, bank), row).1
    }

    /// The issue check: whether a transaction to `row` in bank
    /// `(rank, bank)` can start exactly at `now`. The fold taken from `now`
    /// must stay at `now`, and `now` must be on the grid and outside the
    /// rank's blackouts; alignment and refresh avoidance only move a start
    /// later, so this equals `probe(.., now).start == now` without aligning.
    #[inline]
    pub(crate) fn issuable(
        &self,
        rank: usize,
        bank: usize,
        row: usize,
        is_write: bool,
        now: u64,
    ) -> bool {
        self.bus_fold(self.bank_rank_fold(rank, bank, row, now), is_write)
            .start
            == now
            && self.grid_clear(rank, now)
    }

    /// The bus gate: whether the data-bus and command-slot bounds of a
    /// `kind` access in direction `is_write` stay at `now`, folded over a
    /// bank part that holds nothing back. Every fold only raises the start,
    /// so it is never false for a request [`issuable`](Self::issuable)
    /// accepts. It reads only channel scalars, so one answer holds for
    /// every request of the same kind and direction until the next commit.
    #[inline]
    pub(crate) fn bus_clear(&self, kind: AccessKind, is_write: bool, now: u64) -> bool {
        let unheld = Fold {
            start: now,
            reason: BlockReason::Bank,
            blocker: NO_OWNER,
            kind,
        };
        self.bus_fold(unheld, is_write).start == now
    }

    /// A channel-wide lower bound on the start cycle of *any* transaction,
    /// in constant time. Every request's raw probe folds (a) its bank's
    /// wheel — at least the per-bank minimum of the three wheels
    /// (`bank_floor`), hence at least their channel minimum, which the
    /// core keeps as the scalar `bank_min` — (b) a data-bus bound of at
    /// least `bus_free` minus the largest possible data offset, and (c) the
    /// command-slot bound; the floor is the max of those three universal
    /// bounds. Under close page every access is a row miss, whose data
    /// offset is `tRCD + CL` (or `CWL`); open page also allows a
    /// conflict's extra `tRP`. While `channel_floor() > now`, no request
    /// on this channel can issue and the controller settles the command
    /// clock in closed form. A pure function of committed state, so it
    /// holds until the next commit. Debug builds check `bank_min` against
    /// a scan of the lane on every call.
    pub fn channel_floor(&self) -> u64 {
        bwpart_core::invariant!(
            self.bank_min == self.scan_bank_floor(),
            "kept bank-floor minimum {} differs from the lane's {}",
            self.bank_min,
            self.scan_bank_floor()
        );
        let t = &self.t;
        let slowest = match self.policy {
            PagePolicy::ClosePage => AccessKind::RowMiss,
            PagePolicy::OpenPage => AccessKind::RowConflict,
        };
        let max_data_off = slowest.cas_offset(t) + t.cl.max(t.cwl);
        let bus_lb = self.bus_free.saturating_sub(max_data_off);
        self.bank_min.max(bus_lb).max(self.cmd_ready)
    }

    /// The minimum of the `bank_floor` lane, by a full scan.
    fn scan_bank_floor(&self) -> u64 {
        self.bank_floor.iter().fold(u64::MAX, |m, &f| m.min(f))
    }

    /// Keep `bank_min` after bank `idx`'s floor moved from `old` to its
    /// lane value: a floor at or below the minimum is the new minimum, and
    /// only a raised floor of the bank that held the minimum needs a
    /// rescan.
    #[inline]
    fn track_bank_min(&mut self, idx: usize, old: u64) {
        let new = self.bank_floor[idx];
        if new <= self.bank_min {
            self.bank_min = new;
        } else if old == self.bank_min {
            self.bank_min = self.scan_bank_floor();
        }
    }

    /// Commit a transaction whose first command is driven at `start`.
    /// Returns `(data_start, data_end, kind)`: `data_end` is the completion
    /// cycle handed back to the requester, and the kind is re-derived after
    /// refresh application (a refresh may have closed the row a probe saw).
    pub fn commit(
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
        let (_, kind) = self.bank_earliest(idx, row);
        let old_floor = self.bank_floor[idx];

        // ---- bank state update (mirrors `Bank::commit`) ----
        let cas = start + kind.cas_offset(&t);
        let act = match kind {
            AccessKind::RowHit => self.act_time[idx],
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
        self.act_time[idx] = act;
        self.last_owner[idx] = app as u32;
        match self.policy {
            PagePolicy::ClosePage => {
                // Auto-precharge: bank is idle (and ACT-ready) tRP after the
                // precharge point.
                self.open_row[idx] = NO_ROW;
                self.pre_ready[idx] = pre_after;
                self.act_ready[idx] = pre_after + t.trp;
                self.cas_ready[idx] = u64::MAX;
                self.bank_floor[idx] = pre_after;
                self.busy_until[idx] = self.act_ready[idx];
            }
            PagePolicy::OpenPage => {
                debug_assert!(
                    (row as u64) < u64::from(NO_ROW),
                    "row id overflows u32 lane"
                );
                self.open_row[idx] = row as u32;
                self.pre_ready[idx] = pre_after;
                // A future conflict pays PRE+ACT from pre_ready; a future
                // hit only needs CAS-to-CAS spacing on the data bus (the
                // channel enforces bus occupancy), so CAS is ready once the
                // current CAS is consumed.
                self.cas_ready[idx] = cas + t.tburst.max(t.tck);
                self.act_ready[idx] = pre_after + t.trp;
                self.bank_floor[idx] = pre_after.min(self.cas_ready[idx]);
                self.busy_until[idx] = data_end;
            }
        }
        self.track_bank_min(idx, old_floor);

        // ---- rank ACT ring (tRRD/tFAW) ----
        if kind != AccessKind::RowHit {
            let act_time = match kind {
                AccessKind::RowConflict => start + t.trp,
                _ => start,
            };
            let pos = self.ring_pos[rank] as usize;
            self.act_ring[rank * 4 + pos] = act_time;
            self.ring_pos[rank] = ((pos + 1) & 3) as u8;
            self.ring_len[rank] = (self.ring_len[rank] + 1).min(4);
            self.rank_act_owner[rank] = app as u32;
        }

        // ---- channel scalars ----
        self.bus_free = data_end;
        self.bus_owner = app as u32;
        self.bus_last_write = is_write;
        if is_write {
            self.last_write_data_end = data_end;
        }
        self.cmd_ready = start + t.tck;
        (data_start, data_end, kind)
    }

    /// Cycle at which the data bus becomes free (stats/utilization).
    #[inline]
    pub fn bus_free_at(&self) -> u64 {
        self.bus_free
    }

    /// Cycle by which every *committed* transaction on this channel has
    /// fully drained: the data bus is free and each bank has finished its
    /// committed work (including auto-precharge). Bursts are serialized on
    /// the data bus, so no committed transaction's data end — and therefore
    /// no pending completion — can lie beyond this cycle. Fast-forward
    /// contracts use it as the memory system's event horizon.
    pub fn quiesce_at(&self) -> u64 {
        let mut q = self.bus_free;
        for &b in &self.busy_until {
            q = q.max(b);
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> ChannelCore {
        ChannelCore::new(&DramConfig::ddr2_400())
    }

    fn open_core() -> ChannelCore {
        ChannelCore::new(&DramConfig {
            page_policy: PagePolicy::OpenPage,
            ..DramConfig::ddr2_400()
        })
    }

    #[test]
    fn timings_convert_to_cpu_cycles() {
        let t = Timings::from_config(&DramConfig::ddr2_400());
        assert_eq!(t.tck, 25);
        assert_eq!(t.trp, 63);
        assert_eq!(t.trcd, 63);
        assert_eq!(t.cl, 63);
        assert_eq!(t.cwl, 38); // 7.5 ns
        assert_eq!(t.tras, 225);
        assert_eq!(t.tburst, 100);
    }

    #[test]
    fn cas_offsets_by_kind() {
        let t = *core().timings();
        assert_eq!(AccessKind::RowHit.cas_offset(&t), 0);
        assert_eq!(AccessKind::RowMiss.cas_offset(&t), t.trcd);
        assert_eq!(AccessKind::RowConflict.cas_offset(&t), t.trp + t.trcd);
    }

    #[test]
    fn channel_floor_is_a_sound_lower_bound() {
        for policy in [PagePolicy::ClosePage, PagePolicy::OpenPage] {
            let mut c = ChannelCore::new(&DramConfig {
                page_policy: policy,
                ..DramConfig::ddr2_400()
            });
            assert_eq!(c.channel_floor(), 0, "idle channel floors at zero");
            // Saturate a few banks, then check every possible request's
            // raw probe respects the floor: a row hit or a conflict on an
            // open bank, a miss on an idle one.
            let mut now = 0;
            for b in 0..8 {
                let p = c.probe(0, b, 1, b % 2 == 0, now);
                c.commit(0, b, 1, b % 2 == 0, 0, p.start);
                now = p.start;
            }
            let floor = c.channel_floor();
            for rank in 0..4 {
                for bank in 0..8 {
                    for row in [1, 99] {
                        for w in [false, true] {
                            let (raw, _, _, _) = c.raw_probe(rank, bank, row, w, 0);
                            assert!(
                                raw >= floor,
                                "{policy:?}: raw {raw} below floor {floor} for r{rank} b{bank} \
                                 row{row} w{w}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn grid_clear_matches_alignment_and_blackout() {
        let c = core();
        let t = *c.timings();
        assert!(c.grid_clear(0, 0));
        assert!(!c.grid_clear(0, 1), "off-grid cycle");
        assert!(c.grid_clear(0, t.tck * 7));
        // Inside rank 0's first blackout (phase = tREFI/8), on-grid cycles
        // are still rejected.
        let phase = t.trefi / 8;
        let in_blackout = (phase / t.tck + 1) * t.tck;
        assert!(in_blackout < phase + t.trfc);
        assert!(!c.grid_clear(0, in_blackout));
        // Rank 1 is staggered elsewhere and stays clear.
        assert!(c.grid_clear(1, in_blackout));
    }

    /// Five and six ACTs to distinct banks of rank 0: the 5th must be
    /// ≥ tFAW after the 1st, and the ring keeps sliding for the 6th.
    #[test]
    fn tfaw_ring_tracks_last_four_acts() {
        let mut c = core();
        let t = *c.timings();
        let mut starts = Vec::new();
        let mut now = 0;
        for b in 0..6 {
            let p = c.probe(0, b, 1, false, now);
            c.commit(0, b, 1, false, 0, p.start);
            starts.push(p.start);
            now = p.start + t.tck;
        }
        // 5th and 6th ACT each ≥ tFAW after the one four before it.
        assert!(
            starts[4] >= starts[0] + t.tfaw,
            "acts: {starts:?}, tFAW {}",
            t.tfaw
        );
        assert!(starts[5] >= starts[1] + t.tfaw);
    }

    #[test]
    fn close_page_read_timing() {
        let mut c = core();
        let t = *c.timings();
        let p = c.probe(0, 0, 7, false, 0);
        assert_eq!(p.start, 0);
        assert_eq!(p.kind, AccessKind::RowMiss);
        let (ds, de, kind) = c.commit(0, 0, 7, false, 0, p.start);
        assert_eq!(kind, AccessKind::RowMiss);
        // ACT at 0, RD at tRCD, data at tRCD + CL.
        assert_eq!(ds, t.trcd + t.cl);
        assert_eq!(de, ds + t.tburst);
        // Close page: no row remains open; next ACT after pre point + tRP.
        assert_eq!(c.open_row[0], NO_ROW);
        let pre_point = (t.trcd + t.trtp).max(t.tras);
        assert_eq!(c.act_ready[0], pre_point + t.trp);
    }

    #[test]
    fn close_page_write_has_write_recovery() {
        let mut c = core();
        let t = *c.timings();
        let (ds, de, _) = c.commit(0, 0, 3, true, 1, 0);
        assert_eq!(ds, t.trcd + t.cwl);
        let pre_point = (de + t.twr).max(t.tras);
        assert_eq!(c.act_ready[0], pre_point + t.trp);
        assert_eq!(owner(c.last_owner[0]), Some(1));
    }

    #[test]
    fn consecutive_close_page_accesses_respect_trc_like_spacing() {
        let mut c = core();
        let t = *c.timings();
        c.commit(0, 0, 1, false, 0, 0);
        let next = c.probe(0, 0, 2, false, 0).start;
        // tRAS + tRP at minimum (read-to-precharge path may extend it).
        assert!(next >= t.tras + t.trp, "next {next}");
        c.commit(0, 0, 2, false, 0, next);
        assert!(c.act_ready[0] >= next + t.tras + t.trp);
    }

    #[test]
    fn open_page_hit_skips_act() {
        let mut c = open_core();
        let t = *c.timings();
        c.commit(0, 0, 9, false, 0, 0);
        assert_eq!(c.open_row[0], 9);
        let p = c.probe(0, 0, 9, false, 0);
        assert_eq!(p.kind, AccessKind::RowHit);
        let (ds, _, kind) = c.commit(0, 0, 9, false, 0, p.start);
        assert_eq!(kind, AccessKind::RowHit);
        // Hit: data after just CL from the CAS.
        assert_eq!(ds, p.start + t.cl);
    }

    #[test]
    fn open_page_conflict_pays_pre_act_cas() {
        let mut c = open_core();
        let t = *c.timings();
        c.commit(0, 0, 9, false, 0, 0);
        let p = c.probe(0, 0, 10, false, 0);
        assert_eq!(p.kind, AccessKind::RowConflict);
        // Precharge can't precede tRAS / read-to-pre constraints.
        assert!(p.start >= (t.trcd + t.trtp).max(t.tras));
        let (ds, _, kind) = c.commit(0, 0, 10, false, 0, p.start);
        assert_eq!(kind, AccessKind::RowConflict);
        assert_eq!(ds, p.start + t.trp + t.trcd + t.cl);
        assert_eq!(c.open_row[0], 10);
    }

    #[test]
    fn refresh_closes_row_and_delays_act() {
        let mut c = open_core();
        let t = *c.timings();
        c.commit(0, 0, 9, false, 0, 0);
        // Rank 0's first blackout is [tREFI/8, tREFI/8 + tRFC); the next
        // commit on the rank applies it to every bank before anything else.
        let done = t.trefi / 8 + t.trfc;
        c.apply_refreshes(0, done);
        assert_eq!(c.open_row[0], NO_ROW);
        assert!(c.act_ready[0] >= done);
        assert_eq!(c.bank_earliest(0, 9).1, AccessKind::RowMiss);
    }

    #[test]
    fn idle_channel_starts_immediately() {
        let c = core();
        let p = c.probe(0, 0, 5, false, 0);
        assert_eq!(p.start, 0);
        assert_eq!(p.block, None);
        assert_eq!(p.kind, AccessKind::RowMiss);
    }

    #[test]
    fn back_to_back_same_bank_waits_for_bank() {
        let mut c = core();
        let p = c.probe(0, 0, 5, false, 0);
        c.commit(0, 0, 5, false, 0, p.start);
        let p2 = c.probe(0, 0, 6, false, p.start + 25);
        assert!(p2.start >= 225 + 63, "tRAS+tRP at least, got {}", p2.start);
        assert_eq!(p2.block, Some(BlockReason::Bank));
        assert_eq!(p2.blocker, Some(0));
    }

    #[test]
    fn different_banks_overlap_but_share_data_bus() {
        let mut c = core();
        let p0 = c.probe(0, 0, 5, false, 0);
        let (_, de0, _) = c.commit(0, 0, 5, false, 0, p0.start);
        // A second transaction on another bank can start before the first
        // finishes, but its data must follow the first burst.
        let p1 = c.probe(0, 1, 5, false, 25);
        assert!(p1.start < de0);
        let (ds1, _, _) = c.commit(0, 1, 5, false, 1, p1.start);
        assert!(ds1 >= de0, "bursts must not overlap: {ds1} < {de0}");
    }

    #[test]
    fn data_bus_blocking_attributes_owner() {
        let mut c = core();
        // Saturate the bus with app 0 on several banks.
        let mut now = 0;
        for b in 0..4 {
            let p = c.probe(0, b, 1, false, now);
            c.commit(0, b, 1, false, 0, p.start);
            now = p.start + 25;
        }
        // App 1's probe on a fresh bank is bus-blocked by app 0.
        let p = c.probe(1, 0, 1, false, now);
        assert!(p.start > now);
        assert_eq!(p.blocker, Some(0));
    }

    #[test]
    fn write_to_read_turnaround_enforced() {
        let mut c = core();
        let pw = c.probe(0, 0, 1, true, 0);
        let (_, wde, _) = c.commit(0, 0, 1, true, 0, pw.start);
        let t = *c.timings();
        let pr = c.probe(0, 1, 1, false, 25);
        let (rds, _, _) = c.commit(0, 1, 1, false, 0, pr.start);
        // Read CAS (data - CL) must be at least tWTR after write data end.
        let read_cas = rds - t.cl;
        assert!(
            read_cas >= wde + t.twtr,
            "read CAS {read_cas} < write end {wde} + tWTR {}",
            t.twtr
        );
    }

    #[test]
    fn starts_are_aligned_and_unique_per_clock() {
        let mut c = core();
        let t = *c.timings();
        let mut last = None;
        let mut now = 0;
        for b in 0..6 {
            let p = c.probe(0, b % 8, 1, false, now);
            assert_eq!(p.start % t.tck, 0, "unaligned start {}", p.start);
            if let Some(prev) = last {
                assert!(p.start > prev);
            }
            c.commit(0, b % 8, 1, false, 0, p.start);
            last = Some(p.start);
            now = p.start;
        }
    }

    #[test]
    fn refresh_blackout_delays_start() {
        let c = core();
        let t = *c.timings();
        // Rank 0's first blackout begins at tREFI/8 (half-slot stagger over
        // 4 ranks); a probe inside it is pushed to the blackout end.
        let phase = t.trefi / 8;
        let probe_at = phase + t.tck;
        let p = c.probe(0, 0, 1, false, probe_at);
        assert!(
            p.start >= phase + t.trfc,
            "start {} vs {}",
            p.start,
            phase + t.trfc
        );
        assert_eq!(p.block, Some(BlockReason::Refresh));
        assert_eq!(p.blocker, None);
        // Rank 1 is staggered to 3·tREFI/8, so the same instant is clear.
        let p1 = c.probe(1, 0, 1, false, probe_at);
        assert_eq!(p1.block, None);
    }

    #[test]
    fn open_page_policy_produces_row_hits() {
        let mut c = open_core();
        let t = *c.timings();
        let p = c.probe(0, 0, 7, false, t.trfc); // skip rank-0 blackout
        assert_eq!(p.kind, AccessKind::RowMiss);
        let (_, _, kind) = c.commit(0, 0, 7, false, 0, p.start);
        assert_eq!(kind, p.kind);
        let p2 = c.probe(0, 0, 7, false, p.start + t.tck);
        assert_eq!(p2.kind, AccessKind::RowHit);
        let p3 = c.probe(0, 0, 8, false, p.start + t.tck);
        assert_eq!(p3.kind, AccessKind::RowConflict);
    }

    #[test]
    fn bank_lanes_match_committed_state() {
        let mut c = core();
        let p = c.probe(0, 3, 5, false, 0);
        c.commit(0, 3, 5, false, 2, p.start);
        let b = c.bank_index(0, 3);
        assert_eq!(c.open_row[b], NO_ROW, "close-page auto-precharges");
        assert_eq!(owner(c.last_owner[b]), Some(2));
        assert!(c.busy_until[b] > 0);
        assert_eq!(c.busy_until[b], c.act_ready[b]);
        // Untouched bank is idle.
        let idle = c.bank_index(1, 0);
        assert_eq!(owner(c.last_owner[idle]), None);
        assert_eq!(c.busy_until[idle], 0);
    }

    #[test]
    fn quiesce_bounds_every_committed_data_end() {
        let mut c = core();
        assert_eq!(c.quiesce_at(), 0, "idle channel has nothing pending");
        let mut now = 0;
        for b in 0..6 {
            let p = c.probe(0, b % 8, 1, b % 3 == 0, now);
            let (_, de, _) = c.commit(0, b % 8, 1, b % 3 == 0, 0, p.start);
            assert!(
                de <= c.quiesce_at(),
                "data end {de} beyond quiesce {}",
                c.quiesce_at()
            );
            now = p.start + 25;
        }
        // The bank's auto-precharge tail extends past the last burst.
        assert!(c.quiesce_at() >= c.bus_free_at());
    }

    /// The `bank_floor` lane is the minimum of the three wheels after every
    /// commit, and the kept `bank_min` is the minimum of the lane, under
    /// both page policies, at DDR2-400 and DDR2-1600, across refresh
    /// applications (every so often the next commit lands past one or more
    /// tREFI intervals). The oracle comparison in
    /// `tests/soa_equivalence.rs` sees both only through `channel_floor`,
    /// whose bus and command-slot bounds usually dominate them.
    #[test]
    fn bank_floor_lane_and_minimum_track_the_wheels() {
        for (d, dram) in [DramConfig::ddr2_400(), DramConfig::ddr2_1600()]
            .into_iter()
            .enumerate()
        {
            for (policy, seed) in [
                (PagePolicy::ClosePage, 0x5EEDu64),
                (PagePolicy::OpenPage, 7),
            ] {
                let mut c = ChannelCore::new(&DramConfig {
                    page_policy: policy,
                    ..dram.clone()
                });
                let trefi = c.timings().trefi;
                let mut state = seed + d as u64;
                let mut rng = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                let (mut refreshes, mut rescans) = (0, 0);
                let mut now = 0u64;
                for _ in 0..2_000 {
                    let (rank, bank) = ((rng() % 4) as usize, (rng() % 8) as usize);
                    // A few rows, so open page sees hits and conflicts too.
                    let row = (rng() % 4) as usize;
                    now += if rng() % 50 == 0 {
                        trefi + rng() % (2 * trefi)
                    } else {
                        rng() % 400
                    };
                    let p = c.probe(rank, bank, row, rng().is_multiple_of(4), now);
                    let applied = c.refresh_applied[rank];
                    let held_min = c.bank_floor[c.bank_index(rank, bank)] == c.bank_min;
                    c.commit(rank, bank, row, p.start.is_multiple_of(2), 0, p.start);
                    refreshes += u64::from(c.refresh_applied[rank] != applied);
                    rescans += u64::from(held_min);
                    now = p.start;
                    for i in 0..c.bank_floor.len() {
                        let wheels = c.pre_ready[i].min(c.act_ready[i]).min(c.cas_ready[i]);
                        assert_eq!(c.bank_floor[i], wheels, "{policy:?}: bank {i} at {now}");
                    }
                    assert_eq!(c.bank_min, c.scan_bank_floor(), "{d} {policy:?} at {now}");
                }
                assert!(
                    refreshes > 20 && rescans > 20,
                    "{d} {policy:?}: {refreshes} refresh applications, {rescans} commits \
                     to the minimum bank"
                );
            }
        }
    }

    /// Exhaustive legality check: for random traffic, committed bursts never
    /// overlap on the data bus and same-bank ACT spacing ≥ tRAS + tRP.
    #[test]
    fn random_traffic_is_timing_legal() {
        let mut c = core();
        let t = *c.timings();
        let mut state = 0x12345u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut last_burst_end = 0u64;
        let mut last_act_per_bank = vec![None::<u64>; 32];
        let mut now = 0u64;
        for _ in 0..500 {
            let rank = (rng() % 4) as usize;
            let bank = (rng() % 8) as usize;
            let row = (rng() % 1024) as usize;
            let is_write = rng() % 4 == 0;
            let app = (rng() % 4) as usize;
            let p = c.probe(rank, bank, row, is_write, now);
            let (ds, de, _) = c.commit(rank, bank, row, is_write, app, p.start);
            assert!(
                ds >= last_burst_end,
                "burst overlap: {ds} < {last_burst_end}"
            );
            last_burst_end = de;
            let fb = rank * 8 + bank;
            if let Some(prev) = last_act_per_bank[fb] {
                assert!(
                    p.start >= prev + t.tras + t.trp,
                    "bank {fb} ACT spacing violated: {} < {prev} + tRC",
                    p.start
                );
            }
            last_act_per_bank[fb] = Some(p.start);
            now = p.start;
        }
    }
}
