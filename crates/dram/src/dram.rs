//! The top-level DRAM system: address decoding, channel dispatch, and the
//! transaction interface consumed by the memory controller.

use bwpart_obs::obs_count;
use serde::{Deserialize, Serialize};

use crate::address::{AddressMapper, Location};
use crate::config::DramConfig;
use crate::obs::DramObsHooks;
use crate::soa::{AccessKind, BlockReason, ChannelCore, ChannelProbe, Fold, Timings, NO_OWNER};
use crate::stats::DramStats;

/// One line-granular memory transaction presented by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemTransaction {
    /// Issuing application (core) index.
    pub app: usize,
    /// Physical byte address (line-aligned or not; offset bits ignored).
    pub addr: u64,
    /// Write (true) or read (false).
    pub is_write: bool,
}

/// Completion record for an issued transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Completion {
    /// Issuing application.
    pub app: usize,
    /// The transaction's address.
    pub addr: u64,
    /// Write flag.
    pub is_write: bool,
    /// Cycle the first command was driven.
    pub start_cycle: u64,
    /// Cycle the data burst finishes — when a read's data is available.
    pub done_cycle: u64,
    /// Whether the access hit an open row (open-page only).
    pub row_hit: bool,
}

/// Version-tagged cached scheduling probe for one queued request.
///
/// A probe's raw lower bound, final (aligned, refresh-avoided) start,
/// access kind, and blocking owner are pure functions of the request and
/// the target channel's *committed* state — so they stay valid until the
/// channel's [`ChannelCore::version`] moves (it only moves on commit).
/// The memory controller keeps one of these per queued request and asks
/// [`DramSystem::sched_probe`] instead of re-folding every timing bound
/// each DRAM clock; while a channel is stalled, the per-slot test
/// collapses to three integer compares.
///
/// The cache also keeps the request's decoded location and the
/// bank-and-rank part of its raw fold. When the version has moved but the
/// commits since touched neither the request's bank nor its rank's ACT
/// window or refreshes (the channel's per-bank and per-rank stamps say
/// so), only the data-bus and command-slot bounds are refolded, and the
/// start is realigned only if the raw bound moved.
///
/// `version == 0` marks an empty cache (live channel versions start at 1),
/// so `Default` — also what a deserialized queue slot gets — is always a
/// miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeCache {
    version: u64,
    channel: u32,
    rank: u32,
    bank: u32,
    /// The decoded row, as the `u32` the channel's open-row lane compares.
    row: u32,
    /// Bank-and-rank part of the raw fold from cycle 0 (it carries the
    /// access kind).
    bank_rank: Fold,
    /// Raw (unaligned, refresh-unaware) fold of the timing lower bounds.
    raw: u64,
    /// Final start: `raw` pushed onto the clock grid and out of blackouts.
    start: u64,
    /// Sentinel-encoded owner of the dominating constraint at `raw`.
    blocker: u32,
    /// Whether a refresh blackout moved `start` past the aligned `raw`.
    refreshed: bool,
}

impl Default for ProbeCache {
    fn default() -> Self {
        ProbeCache {
            version: 0,
            channel: 0,
            rank: 0,
            bank: 0,
            row: 0,
            bank_rank: Fold {
                start: 0,
                reason: BlockReason::Bank,
                blocker: NO_OWNER,
                kind: AccessKind::RowMiss,
            },
            raw: 0,
            start: 0,
            blocker: NO_OWNER,
            refreshed: false,
        }
    }
}

/// Answer of a cached scheduling probe (see [`DramSystem::sched_probe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedProbe {
    /// Whether the first command can be driven exactly at the probed `now`.
    pub issuable: bool,
    /// Command structure (hit/miss/conflict) the access would use.
    pub kind: AccessKind,
    /// When blocked: the *other* application whose traffic owns the
    /// blocking bank, rank ACT window, data bus or command slot — the
    /// paper's `T_cyc,interference` signal (Section IV-C). `None` for
    /// self-blocking, refresh, alignment, or an issuable probe.
    pub head_blocker: Option<usize>,
}

/// The DRAM system: `channels` × (`ranks` × `banks`) with a shared stats
/// block. See the crate docs for the timing model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DramSystem {
    cfg: DramConfig,
    mapper: AddressMapper,
    channels: Vec<ChannelCore>,
    stats: DramStats,
    /// Optional observability hooks (pre-resolved metric handles). Not
    /// part of the simulated state: they serialize as `Null` (identical
    /// to the detached form), are shared by clones, and are only ever
    /// *written* through the zero-cost `obs_*!` macros, so attaching them
    /// cannot change simulation outcomes.
    obs: Option<Box<DramObsHooks>>,
}

impl DramSystem {
    /// Build an idle DRAM system. Panics on an invalid configuration (use
    /// [`DramConfig::validate`] to check first if the config is untrusted).
    pub fn new(cfg: DramConfig) -> Self {
        if let Err(e) = cfg.validate() {
            // lint: allow(R1): documented panic; untrusted configs go via validate()
            panic!("invalid DRAM configuration: {e}");
        }
        let mapper = AddressMapper::new(&cfg);
        let channels = (0..cfg.channels).map(|_| ChannelCore::new(&cfg)).collect();
        let stats = DramStats::new(0, cfg.total_banks());
        DramSystem {
            cfg,
            mapper,
            channels,
            stats,
            obs: None,
        }
    }

    /// Attach observability hooks resolved against `registry`. Live
    /// counting only happens in builds with the `bwpart-obs/trace`
    /// feature; without it the hooks sit inert (the macros compile to
    /// nothing).
    pub fn attach_obs(&mut self, registry: &bwpart_obs::Registry) {
        self.obs = Some(Box::new(DramObsHooks::resolve(registry)));
    }

    /// Publish derived DRAM gauges (bus/channel utilization, row-hit
    /// rate, per-bank service) into `registry` over `elapsed` cycles.
    /// Cold path: phase/epoch boundaries only.
    pub fn publish_metrics(&self, registry: &bwpart_obs::Registry, elapsed: u64) {
        crate::obs::publish(registry, &self.cfg, &self.stats, elapsed);
    }

    /// Size the per-application stats vectors (call once before simulating).
    pub fn set_app_count(&mut self, apps: usize) {
        self.stats = DramStats::new(apps, self.cfg.total_banks());
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// The timing table (CPU cycles) of channel 0.
    pub fn timings(&self) -> &Timings {
        self.channels[0].timings()
    }

    /// Decode an address to DRAM coordinates.
    pub fn decode(&self, addr: u64) -> Location {
        self.mapper.decode(addr)
    }

    /// Probe: earliest start cycle and blocking information for `txn` at
    /// cycle `now`.
    pub fn probe(&self, txn: &MemTransaction, now: u64) -> ChannelProbe {
        let loc = self.decode(txn.addr);
        self.channels[loc.channel].probe(loc.rank, loc.bank, loc.row, txn.is_write, now)
    }

    /// Number of channels in this system.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Channel-wide lower bound on any transaction's start cycle, read in
    /// constant time from the channel's kept bank-floor minimum and its bus
    /// and command-slot scalars (see [`ChannelCore::channel_floor`]). While
    /// this exceeds `now`, nothing on the channel can issue, so the memory
    /// controller settles its command clocks below the lowest floor in
    /// closed form.
    #[inline]
    pub fn channel_floor(&self, channel: usize) -> u64 {
        self.channels[channel].channel_floor()
    }

    /// Resolve a cached probe against the current cycle. The cache regime
    /// logic reproduces `probe`'s answer exactly:
    ///
    /// * `now < raw` — some raw timing bound still holds; the fold triple
    ///   is `now`-independent in this regime, so the cached blocker
    ///   attribution applies verbatim.
    /// * `raw ≤ now < start` — every raw bound has passed but grid
    ///   alignment / refresh avoidance still push the start to the cached
    ///   `start`; a fresh fold from `now` would find no dominating bound,
    ///   so the attribution is `None` (self/alignment/refresh).
    /// * `now ≥ start` — only the two `now`-dependent post-fold checks
    ///   remain: the command-clock grid and the rank's refresh blackouts
    ///   ([`ChannelCore::grid_clear`]).
    fn cached_answer(
        core: &ChannelCore,
        txn: &MemTransaction,
        now: u64,
        cache: &ProbeCache,
    ) -> SchedProbe {
        let kind = cache.bank_rank.kind;
        if now < cache.raw {
            let head_blocker = if cache.refreshed || cache.blocker == NO_OWNER {
                None
            } else {
                Some(cache.blocker as usize).filter(|&b| b != txn.app)
            };
            SchedProbe {
                issuable: false,
                kind,
                head_blocker,
            }
        } else {
            SchedProbe {
                issuable: now >= cache.start && core.grid_clear(cache.rank as usize, now),
                kind,
                head_blocker: None,
            }
        }
    }

    /// Bring `cache` up to `core`'s version: recompute the bank-and-rank
    /// fold (from cycle 0, so it holds for any probed `now`; see
    /// `cached_answer` for the regime split) unless the stamps show it is
    /// still exact, refold the bus part over it, and realign the start only
    /// when the raw bound moved (alignment and refresh avoidance are pure
    /// functions of the rank and the raw bound). `fresh` forces the
    /// recompute for a cache that holds no fold yet.
    fn refold_cache(core: &ChannelCore, is_write: bool, fresh: bool, cache: &mut ProbeCache) {
        let (rank, bank) = (cache.rank as usize, cache.bank as usize);
        if fresh || !core.bank_rank_unchanged_since(rank, bank, cache.version) {
            cache.bank_rank = core.bank_rank_fold(rank, bank, cache.row as usize, 0);
        }
        let fold = core.bus_fold(cache.bank_rank, is_write);
        if fresh || fold.start != cache.raw {
            let (start, refreshed) = core.align_and_avoid_refresh(rank, fold.start);
            cache.start = start;
            cache.refreshed = refreshed;
        }
        cache.raw = fold.start;
        cache.blocker = fold.blocker;
        cache.version = core.version();
    }

    /// Cached scheduling probe: semantically identical to
    /// [`probe`](Self::probe) (`issuable` is `probe(txn, now).start <= now`,
    /// and the kind is the probe's) but answered from `cache` in a handful
    /// of integer compares while `txn`'s channel has not committed
    /// anything since the cache was filled. A bound past `now` in the
    /// cached raw fold rejects without aligning or scanning refreshes. On
    /// a version miss the bus part of the fold is redone over the cached
    /// bank-and-rank part, which is itself recomputed only when a commit
    /// or refresh touched the request's bank or rank; the cache is
    /// transparent — answers never depend on whether or how it was hit.
    /// An `issuable` answer leaves in `cache` everything
    /// [`issue_probed`](Self::issue_probed) needs to commit the request at
    /// `now`, so the controller neither decodes nor probes it again.
    pub fn sched_probe(
        &self,
        txn: &MemTransaction,
        now: u64,
        cache: &mut ProbeCache,
    ) -> SchedProbe {
        let fresh = cache.version == 0;
        if fresh {
            let loc = self.decode(txn.addr);
            cache.channel = loc.channel as u32;
            cache.rank = loc.rank as u32;
            cache.bank = loc.bank as u32;
            cache.row = loc.row as u32;
        }
        let core = &self.channels[cache.channel as usize];
        if core.version() != cache.version {
            Self::refold_cache(core, txn.is_write, fresh, cache);
        }
        Self::cached_answer(core, txn, now, cache)
    }

    /// Issue `txn` at cycle `now`: decode its address and probe its channel,
    /// then commit it at the probe's start, which equals `now` for a
    /// controller whose [`sched_probe`](Self::sched_probe) answered
    /// `issuable`; issuing "late" is allowed and simply starts at the
    /// earliest legal cycle ≥ `now`. The memory controller issues through
    /// [`issue_probed`](Self::issue_probed) instead, which skips the decode
    /// and the probe; both end in the same commit step.
    pub fn issue(&mut self, txn: &MemTransaction, now: u64) -> Completion {
        let loc = self.decode(txn.addr);
        let start = self.channels[loc.channel]
            .probe(loc.rank, loc.bank, loc.row, txn.is_write, now)
            .start
            .max(now);
        self.commit(txn, &loc, start, now)
    }

    /// Issue `txn` at `now` from its probe cache, on which
    /// [`sched_probe`](Self::sched_probe) has just answered `issuable` at
    /// `now` with nothing committed since: the cache holds the decoded
    /// location, and the start is `now` itself. Exactly
    /// [`issue`](Self::issue)`(txn, now)` without its decode and uncached
    /// probe; debug builds check both against the cache.
    pub fn issue_probed(
        &mut self,
        txn: &MemTransaction,
        now: u64,
        cache: &ProbeCache,
    ) -> Completion {
        // The column selects no timing; the cache does not keep it.
        let loc = Location {
            channel: cache.channel as usize,
            rank: cache.rank as usize,
            bank: cache.bank as usize,
            row: cache.row as usize,
            col: 0,
        };
        bwpart_core::invariant!(
            {
                let fresh = self.decode(txn.addr);
                (fresh.channel, fresh.rank, fresh.bank, fresh.row)
                    == (loc.channel, loc.rank, loc.bank, loc.row)
                    && cache.version == self.channels[loc.channel].version()
                    && self.probe(txn, now).start == now
            },
            "cached issue of {txn:?} at {now} disagrees with the uncached probe"
        );
        self.commit(txn, &loc, now, now)
    }

    /// Commit `txn` at `loc` with its first command at `start` (≥ `now`),
    /// record it, and return its completion: the one commit step of
    /// [`issue`](Self::issue) and [`issue_probed`](Self::issue_probed).
    fn commit(&mut self, txn: &MemTransaction, loc: &Location, start: u64, now: u64) -> Completion {
        // The committed kind, not the probe's: commit applies pending
        // refreshes first, and a refresh may have closed the row the probe
        // saw open.
        let (_, data_end, kind) = self.channels[loc.channel].commit(
            loc.rank,
            loc.bank,
            loc.row,
            txn.is_write,
            txn.app,
            start,
        );
        let row_hit = kind == AccessKind::RowHit;
        match kind {
            AccessKind::RowHit => obs_count!(self.obs, row_hits),
            AccessKind::RowMiss => obs_count!(self.obs, row_misses),
            AccessKind::RowConflict => obs_count!(self.obs, row_conflicts),
        }
        self.stats.record(
            txn.app,
            loc.flat_bank(&self.cfg),
            txn.is_write,
            kind,
            self.timings().tburst,
            data_end.saturating_sub(now),
        );
        Completion {
            app: txn.app,
            addr: txn.addr,
            is_write: txn.is_write,
            start_cycle: start,
            done_cycle: data_end,
            row_hit,
        }
    }

    /// Cycle by which all committed traffic across every channel has fully
    /// drained (data buses free, banks idle again). Upper-bounds the
    /// `done_cycle` of every completion issued so far — the contract the
    /// memory controller's fast-forward event query checks against.
    pub fn quiesce_at(&self) -> u64 {
        self.channels
            .iter()
            .map(ChannelCore::quiesce_at)
            .fold(0, u64::max)
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PagePolicy;

    fn sys() -> DramSystem {
        let mut s = DramSystem::new(DramConfig::ddr2_400());
        s.set_app_count(4);
        s
    }

    /// Skip past every rank's initial refresh blackout.
    fn warm_start(s: &DramSystem) -> u64 {
        s.timings().trfc + s.timings().trefi / 2
    }

    /// Whether `txn`'s first command can be driven exactly at `now`.
    fn issuable(s: &DramSystem, txn: &MemTransaction, now: u64) -> bool {
        s.probe(txn, now).start <= now
    }

    /// If `txn` cannot issue at `now`, the application whose traffic owns
    /// the blocking resource (bank, bus, or rank window) — `None` when the
    /// block is self-inflicted, refresh-caused, or absent: the uncached
    /// oracle of [`SchedProbe::head_blocker`].
    fn blocking_app(s: &DramSystem, txn: &MemTransaction, now: u64) -> Option<usize> {
        let p = s.probe(txn, now);
        match p.block {
            Some(BlockReason::Refresh) | None => None,
            _ => p.blocker.filter(|&b| b != txn.app),
        }
    }

    #[test]
    fn single_read_latency_is_act_rcd_cl_burst() {
        let mut s = sys();
        let t = *s.timings();
        let now = warm_start(&s);
        let txn = MemTransaction {
            app: 0,
            addr: 1 << 20,
            is_write: false,
        };
        let c = s.issue(&txn, now);
        // Idle-bank read: start aligned at/after now, done = start + tRCD +
        // CL + burst.
        assert!(c.start_cycle >= now);
        assert_eq!(c.done_cycle, c.start_cycle + t.trcd + t.cl + t.tburst);
        assert!(!c.row_hit);
        assert_eq!(s.stats().served, 1);
        assert_eq!(s.stats().per_app_served[0], 1);
    }

    #[test]
    fn streaming_different_banks_is_bus_limited() {
        let mut s = sys();
        let t = *s.timings();
        let now = warm_start(&s);
        // 64 consecutive lines interleave ranks/banks; issue as fast as
        // possible and measure the steady-state rate.
        let mut done = Vec::new();
        let mut cycle = now;
        for i in 0..64u64 {
            let txn = MemTransaction {
                app: 0,
                addr: (1 << 22) + i * 64,
                is_write: false,
            };
            let p = s.probe(&txn, cycle);
            let c = s.issue(&txn, p.start.max(cycle));
            done.push(c.done_cycle);
            cycle = p.start;
        }
        // Steady-state spacing between completions approaches tburst
        // (refresh may add occasional gaps; use the median).
        let mut gaps: Vec<u64> = done.windows(2).map(|w| w[1] - w[0]).collect();
        gaps.sort_unstable();
        let median = gaps[gaps.len() / 2];
        assert!(
            median <= t.tburst + t.tck,
            "median completion gap {median} should be ≈ tburst {}",
            t.tburst
        );
    }

    #[test]
    fn same_bank_stream_is_trc_limited() {
        let mut s = sys();
        let t = *s.timings();
        let now = warm_start(&s);
        // Same bank, different rows: every access pays the full row cycle.
        let lines_per_sweep = 4 * 8 * (8192 / 64) as u64; // rank*bank*col lines per row
        let mut completions = Vec::new();
        let mut cycle = now;
        for i in 0..8u64 {
            let txn = MemTransaction {
                app: 0,
                addr: i * lines_per_sweep * 64, // same rank 0 / bank 0, new row
                is_write: false,
            };
            let p = s.probe(&txn, cycle);
            let c = s.issue(&txn, p.start.max(cycle));
            completions.push(c.done_cycle);
            cycle = p.start;
        }
        let min_gap = completions.windows(2).map(|w| w[1] - w[0]).min().unwrap();
        assert!(
            min_gap >= t.tras + t.trp,
            "same-bank gap {min_gap} < tRC {}",
            t.tras + t.trp
        );
    }

    #[test]
    fn blocking_app_attributes_cross_app_interference() {
        let mut s = sys();
        let now = warm_start(&s);
        // App 0 occupies bank (rank 0, bank 0).
        let txn0 = MemTransaction {
            app: 0,
            addr: 1 << 22,
            is_write: false,
        };
        let c = s.issue(&txn0, now);
        // App 1 wants the same bank, different row → blocked by app 0.
        let lines_per_sweep = (4 * 8 * (8192 / 64)) as u64;
        let txn1 = MemTransaction {
            app: 1,
            addr: (1 << 22) + lines_per_sweep * 64,
            is_write: false,
        };
        let during = c.start_cycle + 50;
        assert!(!issuable(&s, &txn1, during));
        assert_eq!(blocking_app(&s, &txn1, during), Some(0));
        // App 0 probing its own blocked bank sees no *interference*.
        let txn0b = MemTransaction {
            app: 0,
            addr: (1 << 22) + 2 * lines_per_sweep * 64,
            is_write: false,
        };
        assert_eq!(blocking_app(&s, &txn0b, during), None);
    }

    #[test]
    fn peak_bandwidth_approached_under_saturation() {
        let mut s = sys();
        let t = *s.timings();
        let start = warm_start(&s);
        let horizon = 500_000u64;
        let mut served = 0u64;
        let mut cycle = start;
        let mut line = 0u64;
        while cycle < start + horizon {
            let txn = MemTransaction {
                app: 0,
                addr: (1 << 24) + line * 64,
                is_write: false,
            };
            let p = s.probe(&txn, cycle);
            if p.start >= start + horizon {
                break;
            }
            s.issue(&txn, p.start);
            served += 1;
            line += 1;
            cycle = p.start;
        }
        let apc = served as f64 / horizon as f64;
        let peak = 1.0 / t.tburst as f64;
        // Within 15% of peak (refresh and turnaround overheads).
        assert!(
            apc > peak * 0.85,
            "achieved APC {apc} far below peak {peak}"
        );
        // Bus utilization consistent with served count.
        let util = s.stats().bus_utilization(horizon);
        assert!(util > 0.8 && util <= 1.01, "util {util}");
    }

    /// Open page, one row: a miss, a hit, then an access long after rank
    /// 0's refreshes closed the row. The probe still sees the row open
    /// (refreshes are applied lazily, at commit), so the last access must
    /// be recorded as the miss it was timed as, not as a hit.
    #[test]
    fn issue_records_the_kind_committed_after_a_refresh() {
        let mut s = DramSystem::new(DramConfig {
            page_policy: PagePolicy::OpenPage,
            ..DramConfig::ddr2_400()
        });
        s.set_app_count(1);
        let t = *s.timings();
        let txn = MemTransaction {
            app: 0,
            addr: 0,
            is_write: false,
        };
        let first = s.issue(&txn, 0);
        assert!(!first.row_hit);
        assert_eq!(
            first.done_cycle - first.start_cycle,
            t.trcd + t.cl + t.tburst
        );
        let hit = s.issue(&txn, 226);
        assert!(hit.row_hit);
        assert_eq!(hit.done_cycle - hit.start_cycle, t.cl + t.tburst);
        let late = s.issue(&txn, 10 * t.trefi);
        assert_eq!(late.done_cycle - late.start_cycle, t.trcd + t.cl + t.tburst);
        assert!(!late.row_hit, "a refresh closed the row");
        let st = s.stats();
        assert_eq!((st.row_hits, st.row_misses, st.row_conflicts), (1, 2, 0));
    }

    #[test]
    fn issue_late_never_starts_before_now() {
        let mut s = sys();
        let now = warm_start(&s) + 12_345; // deliberately unaligned
        let txn = MemTransaction {
            app: 2,
            addr: 0x8000,
            is_write: true,
        };
        let c = s.issue(&txn, now);
        assert!(c.start_cycle >= now);
        assert_eq!(s.stats().writes, 1);
    }

    #[test]
    fn determinism_same_sequence_same_completions() {
        let run = || {
            let mut s = sys();
            let mut out = Vec::new();
            let mut cycle = warm_start(&s);
            for i in 0..100u64 {
                let txn = MemTransaction {
                    app: (i % 4) as usize,
                    addr: i.wrapping_mul(0x9E3779B97F4A7C15) & 0xFFF_FFC0,
                    is_write: i % 5 == 0,
                };
                let p = s.probe(&txn, cycle);
                let c = s.issue(&txn, p.start.max(cycle));
                out.push(c);
                cycle = p.start;
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn quiesce_bounds_every_completion() {
        let mut s = sys();
        assert_eq!(s.quiesce_at(), 0);
        let mut cycle = warm_start(&s);
        for i in 0..50u64 {
            let txn = MemTransaction {
                app: (i % 4) as usize,
                addr: i.wrapping_mul(0x9E3779B97F4A7C15) & 0xFFF_FFC0,
                is_write: i % 5 == 0,
            };
            let p = s.probe(&txn, cycle);
            let c = s.issue(&txn, p.start.max(cycle));
            assert!(
                c.done_cycle <= s.quiesce_at(),
                "completion {} beyond quiesce {}",
                c.done_cycle,
                s.quiesce_at()
            );
            cycle = p.start;
        }
    }

    /// The nearest other line to `addr` (in 64-byte steps, the later one
    /// first) whose location satisfies `want`.
    fn neighbor(s: &DramSystem, addr: u64, want: impl Fn(&Location) -> bool) -> u64 {
        (1..=1u64 << 16)
            .flat_map(|k| [addr.checked_add(k * 64), addr.checked_sub(k * 64)])
            .flatten()
            .find(|&a| want(&s.decode(a)))
            .expect("a matching line within 4 MB")
    }

    /// Drive `cfg` with random traffic and check every cached answer
    /// against the uncached `probe` (and `blocking_app` over it) at every
    /// probed cycle. Returns how many version misses were answered by a
    /// stamp-matched refold and how many by a full refill.
    fn check_sched_probe(cfg: DramConfig, seed: u64) -> (u64, u64) {
        let mut s = DramSystem::new(cfg);
        s.set_app_count(4);
        let trefi = s.timings().trefi;
        let mut state = seed;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let random_txn = |rng: &mut dyn FnMut() -> u64| MemTransaction {
            app: (rng() % 4) as usize,
            addr: (rng() % (1 << 24)) & !63,
            is_write: rng().is_multiple_of(4),
        };
        let mut pending: Vec<(MemTransaction, ProbeCache)> = (0..12)
            .map(|_| (random_txn(&mut rng), ProbeCache::default()))
            .collect();
        let (mut refolds, mut refills) = (0, 0);
        let mut now = 0u64;
        for step in 0..4000u64 {
            // Deliberately hit off-grid cycles too, and now and then jump
            // a third of a refresh interval or more, so the next issue
            // lands after blackouts the rank has not applied yet.
            now += if rng() % 40 == 0 {
                trefi / 3 + rng() % trefi
            } else {
                1 + rng() % 40
            };
            for (txn, cache) in &mut pending {
                let core = &s.channels[cache.channel as usize];
                if cache.version != 0 && core.version() != cache.version {
                    let (rank, bank) = (cache.rank as usize, cache.bank as usize);
                    if core.bank_rank_unchanged_since(rank, bank, cache.version) {
                        refolds += 1;
                    } else {
                        refills += 1;
                    }
                }
                let want = s.probe(txn, now);
                let want_issuable = want.start <= now;
                let want_blocker = blocking_app(&s, txn, now);
                let got = s.sched_probe(txn, now, cache);
                assert_eq!(got.issuable, want_issuable, "issuable at {now}");
                if want_issuable {
                    assert_eq!(got.kind, want.kind);
                } else {
                    assert_eq!(got.head_blocker, want_blocker, "blocker at {now}");
                }
            }
            // Every third step, issue a pending request at its earliest
            // start to mutate channel state (and invalidate caches). Its
            // slot then takes a request to the same rank but another bank,
            // and another slot one to the same row (a row hit under open
            // page), so cached bank-and-rank folds of the committed rank
            // stay queued.
            if step % 3 == 0 {
                let i = (rng() % pending.len() as u64) as usize;
                let txn = pending[i].0;
                now = s.probe(&txn, now).start;
                s.issue(&txn, now);
                let at = s.decode(txn.addr);
                let other_bank = neighbor(&s, txn.addr, |l| {
                    (l.channel, l.rank) == (at.channel, at.rank) && l.bank != at.bank
                });
                let same_row = neighbor(&s, txn.addr, |l| {
                    (l.channel, l.rank, l.bank, l.row) == (at.channel, at.rank, at.bank, at.row)
                });
                let j = (i + 1 + (rng() % 11) as usize) % pending.len();
                pending[i] = (
                    MemTransaction {
                        addr: other_bank,
                        ..txn
                    },
                    ProbeCache::default(),
                );
                pending[j] = (
                    MemTransaction {
                        addr: same_row,
                        ..txn
                    },
                    ProbeCache::default(),
                );
            }
            if step % 7 == 0 {
                let i = (rng() % pending.len() as u64) as usize;
                pending[i] = (random_txn(&mut rng), ProbeCache::default());
            }
        }
        (refolds, refills)
    }

    /// The cached scheduling probe must answer exactly like the uncached
    /// `probe` (and `blocking_app` over it) at every cycle — including
    /// off-grid cycles, refresh blackouts, and across cache invalidations —
    /// whether the cache is hot, cold, refolded over its cached
    /// bank-and-rank part, or refilled: under both page policies, at
    /// DDR2-400 and DDR2-1600.
    #[test]
    fn sched_probe_matches_uncached_probe() {
        for (d, dram) in [DramConfig::ddr2_400(), DramConfig::ddr2_1600()]
            .into_iter()
            .enumerate()
        {
            for page_policy in [PagePolicy::ClosePage, PagePolicy::OpenPage] {
                let cfg = DramConfig {
                    page_policy,
                    ..dram.clone()
                };
                let seed = 0xC0FFEE + d as u64 * 2 + u64::from(page_policy == PagePolicy::OpenPage);
                let (refolds, refills) = check_sched_probe(cfg, seed);
                assert!(
                    refolds > 1000 && refills > 1000,
                    "{d} {page_policy:?}: {refolds} refolds, {refills} refills"
                );
            }
        }
    }

    /// The channel floor must never exceed any request's probed start, and
    /// while it exceeds `now` nothing may issue — under close page, and
    /// under open page, where half the stream is sequential (row hits) and
    /// the rest scattered (conflicts).
    #[test]
    fn channel_floor_bounds_all_starts() {
        for policy in [PagePolicy::ClosePage, PagePolicy::OpenPage] {
            let mut s = DramSystem::new(DramConfig {
                page_policy: policy,
                ..DramConfig::ddr2_400()
            });
            s.set_app_count(4);
            let mut now = warm_start(&s);
            let mut hits = 0;
            for i in 0..200u64 {
                let txn = MemTransaction {
                    app: (i % 4) as usize,
                    addr: if i % 2 == 0 {
                        i * 32
                    } else {
                        i.wrapping_mul(0x9E3779B97F4A7C15) & 0xFFF_FFC0
                    },
                    is_write: i % 5 == 0,
                };
                let floor = s.channel_floor(s.decode(txn.addr).channel);
                let p = s.probe(&txn, now);
                assert!(
                    p.start >= floor,
                    "{policy:?}: floor {floor} unsound: start {}",
                    p.start
                );
                if floor > now {
                    assert!(!issuable(&s, &txn, now), "issuable below floor at {now}");
                }
                let c = s.issue(&txn, p.start.max(now));
                hits += u64::from(c.row_hit);
                now = c.start_cycle;
            }
            assert_eq!(
                hits > 0,
                policy == PagePolicy::OpenPage,
                "{policy:?}: {hits} hits"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid DRAM configuration")]
    fn invalid_config_panics() {
        let mut cfg = DramConfig::ddr2_400();
        cfg.ranks = 5;
        let _ = DramSystem::new(cfg);
    }
}
