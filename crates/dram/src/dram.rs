//! The top-level DRAM system: address decoding, channel dispatch, and the
//! transaction interface consumed by the memory controller.

use bwpart_obs::obs_count;
use serde::{Deserialize, Serialize};

use crate::address::{AddressMapper, Location};
use crate::bank::{AccessKind, Timings};
use crate::channel::{BlockReason, Channel, ChannelProbe};
use crate::config::DramConfig;
use crate::obs::DramObsHooks;
use crate::soa::{ChannelCore, NO_OWNER};
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
/// `version == 0` marks an empty cache (live channel versions start at 1),
/// so `Default` — also what a deserialized queue slot gets — is always a
/// miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeCache {
    version: u64,
    channel: u32,
    rank: u32,
    /// Raw (unaligned, refresh-unaware) fold of the timing lower bounds.
    raw: u64,
    /// Final start: `raw` pushed onto the clock grid and out of blackouts.
    start: u64,
    kind: AccessKind,
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
            raw: 0,
            start: 0,
            kind: AccessKind::RowMiss,
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
    /// When blocked: the *other* application owning the blocking resource
    /// — exactly [`DramSystem::blocking_app`]'s answer (`None` for
    /// self-blocking, refresh, alignment, or an issuable probe).
    pub head_blocker: Option<usize>,
}

/// The DRAM system: `channels` × (`ranks` × `banks`) with a shared stats
/// block. See the crate docs for the timing model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DramSystem {
    cfg: DramConfig,
    mapper: AddressMapper,
    channels: Vec<Channel>,
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
        let channels = (0..cfg.channels).map(|_| Channel::new(&cfg)).collect();
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

    /// Whether `txn`'s first command can be driven exactly at `now`
    /// (the controller ticks on the DRAM clock grid).
    pub fn can_issue(&self, txn: &MemTransaction, now: u64) -> bool {
        self.issuable_at(txn, now).is_some()
    }

    /// Scheduling fast path: `Some(kind)` when `txn` could start at or
    /// before `now` — exactly `probe(txn, now).start <= now` — computed
    /// with an early rejection on the raw timing bounds (see
    /// [`Channel::issuable_at`]). The memory controller runs this up to
    /// `sched_window` times per pending application per DRAM clock.
    pub fn issuable_at(&self, txn: &MemTransaction, now: u64) -> Option<crate::bank::AccessKind> {
        let loc = self.decode(txn.addr);
        self.channels[loc.channel].issuable_at(loc.rank, loc.bank, loc.row, txn.is_write, now)
    }

    /// If `txn` cannot issue at `now`, the application whose traffic owns
    /// the blocking resource (bank, bus, or rank window) — `None` when the
    /// block is self-inflicted, refresh-caused, or absent. This feeds the
    /// paper's `T_cyc,interference` counters (Section IV-C).
    pub fn blocking_app(&self, txn: &MemTransaction, now: u64) -> Option<usize> {
        let p = self.probe(txn, now);
        match p.block {
            Some(BlockReason::Refresh) | None => None,
            _ => p.blocker.filter(|&b| b != txn.app),
        }
    }

    /// Number of channels in this system.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Channel-wide lower bound on any transaction's start cycle — one
    /// linear pass over the channel's flat bank lanes (see
    /// [`ChannelCore::channel_floor`]). While this exceeds `now`, nothing
    /// on the channel can issue, so the memory controller settles its
    /// command clocks below the lowest floor in closed form.
    #[inline]
    pub fn channel_floor(&self, channel: usize) -> u64 {
        self.channels[channel].core().channel_floor()
    }

    /// The channel a transaction decodes to.
    #[inline]
    pub fn channel_of(&self, txn: &MemTransaction) -> usize {
        self.decode(txn.addr).channel
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
        if now < cache.raw {
            let head_blocker = if cache.refreshed || cache.blocker == NO_OWNER {
                None
            } else {
                Some(cache.blocker as usize).filter(|&b| b != txn.app)
            };
            SchedProbe {
                issuable: false,
                kind: cache.kind,
                head_blocker,
            }
        } else {
            SchedProbe {
                issuable: now >= cache.start && core.grid_clear(cache.rank as usize, now),
                kind: cache.kind,
                head_blocker: None,
            }
        }
    }

    /// Fill `cache` from a fresh `now`-independent probe of `txn`'s channel.
    fn fill_cache(&self, txn: &MemTransaction, cache: &mut ProbeCache) -> &ChannelCore {
        let loc = self.decode(txn.addr);
        let core = self.channels[loc.channel].core();
        // Fold from cycle 0: every lower bound is a pure function of
        // committed state, so the raw fold, the aligned start, and the
        // dominating owner are valid for *any* probed `now` (see
        // `cached_answer` for the regime split).
        let (raw, _, blocker, kind) = core.raw_probe(loc.rank, loc.bank, loc.row, txn.is_write, 0);
        let (start, refreshed) = core.align_and_avoid_refresh(loc.rank, raw);
        *cache = ProbeCache {
            version: core.version(),
            channel: loc.channel as u32,
            rank: loc.rank as u32,
            raw,
            start,
            kind,
            blocker: blocker.map_or(NO_OWNER, |b| b as u32),
            refreshed,
        };
        core
    }

    /// Cached scheduling probe: semantically identical to
    /// `(issuable_at(txn, now), blocking_app(txn, now))` but answered from
    /// `cache` in a handful of integer compares while `txn`'s channel has
    /// not committed anything since the cache was filled. On a version
    /// miss the probe is recomputed once and the cache refilled; the cache
    /// is transparent — answers never depend on whether it was hit.
    pub fn sched_probe(
        &self,
        txn: &MemTransaction,
        now: u64,
        cache: &mut ProbeCache,
    ) -> SchedProbe {
        if cache.version != 0 {
            let core = self.channels[cache.channel as usize].core();
            if core.version() == cache.version {
                return Self::cached_answer(core, txn, now, cache);
            }
        }
        let core = self.fill_cache(txn, cache);
        Self::cached_answer(core, txn, now, cache)
    }

    /// Issue `txn` at cycle `now` (its first command is driven at the probe
    /// start, which must equal the aligned `now` for a controller that
    /// checked [`can_issue`](Self::can_issue) first; issuing "late" is
    /// allowed and simply starts at the earliest legal cycle ≥ `now`).
    pub fn issue(&mut self, txn: &MemTransaction, now: u64) -> Completion {
        let loc = self.decode(txn.addr);
        let mut probe =
            self.channels[loc.channel].probe(loc.rank, loc.bank, loc.row, txn.is_write, now);
        if probe.start < now {
            probe.start = now;
        }
        let (_, data_end) = self.channels[loc.channel].commit(
            loc.rank,
            loc.bank,
            loc.row,
            txn.is_write,
            txn.app,
            &probe,
        );
        let row_hit = probe.kind == crate::bank::AccessKind::RowHit;
        match probe.kind {
            crate::bank::AccessKind::RowHit => obs_count!(self.obs, row_hits),
            crate::bank::AccessKind::RowMiss => obs_count!(self.obs, row_misses),
            crate::bank::AccessKind::RowConflict => obs_count!(self.obs, row_conflicts),
        }
        self.stats.record(
            txn.app,
            loc.flat_bank(&self.cfg),
            txn.is_write,
            probe.kind,
            self.timings().tburst,
            data_end.saturating_sub(now),
        );
        Completion {
            app: txn.app,
            addr: txn.addr,
            is_write: txn.is_write,
            start_cycle: probe.start,
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
            .map(Channel::quiesce_at)
            .fold(0, u64::max)
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Reset statistics at a phase boundary (timing state is preserved).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
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
        assert!(!s.can_issue(&txn1, during));
        assert_eq!(s.blocking_app(&txn1, during), Some(0));
        // App 0 probing its own blocked bank sees no *interference*.
        let txn0b = MemTransaction {
            app: 0,
            addr: (1 << 22) + 2 * lines_per_sweep * 64,
            is_write: false,
        };
        assert_eq!(s.blocking_app(&txn0b, during), None);
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

    /// The cached scheduling probe must answer exactly like the uncached
    /// `(issuable_at, blocking_app)` pair at every cycle — including
    /// off-grid cycles, refresh blackouts, and across cache invalidations —
    /// whether the cache is hot, cold, or stale.
    #[test]
    fn sched_probe_matches_uncached_probe() {
        let mut s = sys();
        let mut state = 0xC0FFEEu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut pending: Vec<(MemTransaction, ProbeCache)> = (0..12)
            .map(|i| {
                (
                    MemTransaction {
                        app: (i % 4) as usize,
                        addr: (rng() % (1 << 24)) & !63,
                        is_write: rng() % 4 == 0,
                    },
                    ProbeCache::default(),
                )
            })
            .collect();
        let mut now = 0u64;
        for step in 0..4000u64 {
            // Deliberately hit off-grid cycles too.
            now += 1 + rng() % 40;
            for (txn, cache) in &mut pending {
                let want_issuable = s.can_issue(txn, now);
                let want_blocker = s.blocking_app(txn, now);
                let got = s.sched_probe(txn, now, cache);
                assert_eq!(got.issuable, want_issuable, "issuable at {now}");
                if want_issuable {
                    assert_eq!(Some(got.kind), s.issuable_at(txn, now));
                } else {
                    assert_eq!(got.head_blocker, want_blocker, "blocker at {now}");
                }
            }
            // Occasionally issue something to mutate channel state (and
            // invalidate caches), occasionally swap a request.
            if step % 3 == 0 {
                if let Some((txn, _)) = pending.iter().find(|(t, _)| s.can_issue(t, now)) {
                    let txn = *txn;
                    s.issue(&txn, now);
                }
            }
            if step % 7 == 0 {
                let i = (rng() % pending.len() as u64) as usize;
                pending[i] = (
                    MemTransaction {
                        app: (rng() % 4) as usize,
                        addr: (rng() % (1 << 24)) & !63,
                        is_write: rng() % 4 == 0,
                    },
                    ProbeCache::default(),
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
                let floor = s.channel_floor(s.channel_of(&txn));
                let p = s.probe(&txn, now);
                assert!(
                    p.start >= floor,
                    "{policy:?}: floor {floor} unsound: start {}",
                    p.start
                );
                if floor > now {
                    assert!(!s.can_issue(&txn, now), "issuable below floor at {now}");
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
