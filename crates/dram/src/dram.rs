//! The top-level DRAM system: address decoding, channel dispatch, and the
//! transaction interface consumed by the memory controller.

use bwpart_obs::obs_count;
use serde::{Deserialize, Serialize};

use crate::address::{AddressMapper, Location, RowLocation};
use crate::config::DramConfig;
use crate::obs::DramObsHooks;
use crate::soa::{AccessKind, ChannelCore, ChannelProbe, Timings};
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

    /// Decode `addr` down to its row: the [`RowLocation`] the memory
    /// controller keeps beside each queued request, so that it decodes the
    /// request once.
    #[inline]
    pub fn locate(&self, addr: u64) -> RowLocation {
        self.decode(addr).into()
    }

    /// Probe: earliest start cycle and blocking information for `txn` at
    /// cycle `now`.
    pub fn probe(&self, txn: &MemTransaction, now: u64) -> ChannelProbe {
        self.probe_at(&self.locate(txn.addr), txn.is_write, now)
    }

    /// [`probe`](Self::probe) of a transaction in direction `is_write` to
    /// the decoded `loc`. When the start lies past `now`, its `blocker` is
    /// the application whose traffic owns the blocking bank, rank ACT
    /// window, data bus or command slot (the paper's `T_cyc,interference`
    /// signal, Section IV-C); it is `None` when refresh, grid alignment or
    /// nothing holds the start back.
    #[inline]
    pub fn probe_at(&self, loc: &RowLocation, is_write: bool, now: u64) -> ChannelProbe {
        self.channels[loc.channel()].probe(
            loc.rank as usize,
            loc.bank as usize,
            loc.row as usize,
            is_write,
            now,
        )
    }

    /// The command structure (hit, miss or conflict) an access to `loc`
    /// would use, from its bank's row state.
    #[inline]
    pub fn access_kind(&self, loc: &RowLocation) -> AccessKind {
        self.channels[loc.channel()].access_kind(
            loc.rank as usize,
            loc.bank as usize,
            loc.row as usize,
        )
    }

    /// The issue check: whether a transaction in direction `is_write` to
    /// `loc` can start exactly at `now`. Equals
    /// `probe_at(loc, is_write, now).start == now`, answered from the same
    /// fold without aligning the start.
    #[inline]
    pub fn issuable(&self, loc: &RowLocation, is_write: bool, now: u64) -> bool {
        self.channels[loc.channel()].issuable(
            loc.rank as usize,
            loc.bank as usize,
            loc.row as usize,
            is_write,
            now,
        )
    }

    /// The bus gate of `channel`: whether its data-bus and command-slot
    /// bounds let a `kind` access in direction `is_write` start at `now`,
    /// folded over a bank part that holds nothing back. It is never false
    /// for a request that [`issuable`](Self::issuable) accepts, and one
    /// answer holds for every request of the same channel, kind and
    /// direction until the channel next commits.
    #[inline]
    pub fn bus_clear(&self, channel: usize, kind: AccessKind, is_write: bool, now: u64) -> bool {
        self.channels[channel].bus_clear(kind, is_write, now)
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

    /// Issue `txn` at cycle `now`: decode its address and probe its channel,
    /// then commit it at the probe's start, which equals `now` for a
    /// request the issue check ([`issuable`](Self::issuable)) accepted at
    /// `now`; issuing "late" is allowed and simply starts at the earliest
    /// legal cycle ≥ `now`. The memory controller issues through
    /// [`issue_at`](Self::issue_at) instead, which skips the decode and the
    /// probe; both end in the same commit step.
    pub fn issue(&mut self, txn: &MemTransaction, now: u64) -> Completion {
        let loc = self.locate(txn.addr);
        let start = self.probe_at(&loc, txn.is_write, now).start.max(now);
        self.commit(txn, &loc, start, now)
    }

    /// Issue `txn` at `now` to `loc`, its decoded location, which the issue
    /// check has just accepted at `now` with nothing committed since: the
    /// start is `now` itself. Exactly [`issue`](Self::issue)`(txn, now)`
    /// without its decode and probe; debug builds check both.
    pub fn issue_at(&mut self, txn: &MemTransaction, loc: &RowLocation, now: u64) -> Completion {
        bwpart_core::invariant!(
            self.locate(txn.addr) == *loc && self.probe(txn, now).start == now,
            "issue of {txn:?} at {now} from {loc:?} disagrees with the uncached probe"
        );
        self.commit(txn, loc, now, now)
    }

    /// Commit `txn` at `loc` with its first command at `start` (≥ `now`),
    /// record it, and return its completion: the one commit step of
    /// [`issue`](Self::issue) and [`issue_at`](Self::issue_at).
    fn commit(
        &mut self,
        txn: &MemTransaction,
        loc: &RowLocation,
        start: u64,
        now: u64,
    ) -> Completion {
        // The committed kind, not the probe's: commit applies pending
        // refreshes first, and a refresh may have closed the row the probe
        // saw open.
        let (_, data_end, kind) = self.channels[loc.channel()].commit(
            loc.rank as usize,
            loc.bank as usize,
            loc.row as usize,
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
    use crate::soa::BlockReason;

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
    /// block is self-inflicted, refresh-caused, or absent: the oracle of
    /// the memory controller's interference attribution.
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

    /// What [`check_gather_queries`] saw: requests the issue check
    /// accepted, requests the bus gate rejected, requests that passed the
    /// gate and failed the check, and blocked requests attributed to
    /// another application.
    #[derive(Debug, Default)]
    struct GatherCoverage {
        issuable: u64,
        gated: u64,
        folded: u64,
        attributed: u64,
    }

    /// Drive `cfg` with seeded traffic and, at every probed clock, check
    /// the memory controller's three questions about each queued request
    /// against the uncached `probe` of a fresh decode: the issue check, the
    /// bus gate, and the interference attribution.
    fn check_gather_queries(cfg: DramConfig, seed: u64) -> GatherCoverage {
        let mut s = DramSystem::new(cfg);
        s.set_app_count(4);
        let trefi = s.timings().trefi;
        let tck = s.timings().tck;
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
        let queued = |s: &DramSystem, txn: MemTransaction| (txn, s.locate(txn.addr));
        let mut pending: Vec<(MemTransaction, RowLocation)> =
            (0..12).map(|_| queued(&s, random_txn(&mut rng))).collect();
        let mut cover = GatherCoverage::default();
        let mut now = 0u64;
        for step in 0..4000u64 {
            // Mostly command clocks, where requests can start, but off-grid
            // cycles too; now and then jump a third of a refresh interval
            // or more, so the next issue lands after blackouts the rank has
            // not applied yet.
            now += match rng() % 40 {
                0 => trefi / 3 + rng() % trefi,
                1..=9 => 1 + rng() % 40,
                _ => tck * (1 + rng() % 4),
            };
            for (txn, loc) in &pending {
                let want = s.probe(txn, now);
                let issuable = s.issuable(loc, txn.is_write, now);
                assert_eq!(issuable, want.start == now, "issue check at {now}");
                let kind = s.access_kind(loc);
                assert_eq!(kind, want.kind, "access kind at {now}");
                let clear = s.bus_clear(loc.channel(), kind, txn.is_write, now);
                assert!(
                    clear || !issuable,
                    "bus gate rejected an issuable request at {now}"
                );
                let blocker = s
                    .probe_at(loc, txn.is_write, now)
                    .blocker
                    .filter(|&b| b != txn.app);
                assert_eq!(blocker, blocking_app(&s, txn, now), "attribution at {now}");
                cover.issuable += u64::from(issuable);
                cover.gated += u64::from(!clear);
                cover.folded += u64::from(clear && !issuable);
                cover.attributed += u64::from(blocker.is_some());
            }
            // Every third step, issue a pending request at its earliest
            // start to change channel state. Its slot then takes a request
            // to the same rank but another bank, and another slot one to
            // the same row (a row hit under open page), so requests on the
            // committed rank and row stay queued.
            if step % 3 == 0 {
                let i = (rng() % pending.len() as u64) as usize;
                let (txn, loc) = pending[i];
                now = s.probe(&txn, now).start;
                assert!(s.issuable(&loc, txn.is_write, now));
                s.issue_at(&txn, &loc, now);
                let at = s.decode(txn.addr);
                let other_bank = neighbor(&s, txn.addr, |l| {
                    (l.channel, l.rank) == (at.channel, at.rank) && l.bank != at.bank
                });
                let same_row = neighbor(&s, txn.addr, |l| {
                    (l.channel, l.rank, l.bank, l.row) == (at.channel, at.rank, at.bank, at.row)
                });
                let j = (i + 1 + (rng() % 11) as usize) % pending.len();
                pending[i] = queued(
                    &s,
                    MemTransaction {
                        addr: other_bank,
                        ..txn
                    },
                );
                pending[j] = queued(
                    &s,
                    MemTransaction {
                        addr: same_row,
                        ..txn
                    },
                );
            }
            if step % 7 == 0 {
                let i = (rng() % pending.len() as u64) as usize;
                pending[i] = queued(&s, random_txn(&mut rng));
            }
        }
        cover
    }

    /// The gather's issue check must equal `probe(txn, now).start == now`,
    /// the bus gate must never reject a request the check accepts, and the
    /// attribution from the stored location must equal the uncached
    /// probe's blocker minus the request's own application, at every
    /// probed clock: off-grid cycles and refresh blackouts included, under
    /// both page policies, at DDR2-400 and DDR2-1600.
    #[test]
    fn gather_queries_match_uncached_probe() {
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
                let cover = check_gather_queries(cfg, seed);
                assert!(
                    cover.issuable > 5000
                        && cover.gated > 10_000
                        && cover.folded > 5000
                        && cover.attributed > 10_000,
                    "{d} {page_policy:?}: {cover:?}"
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
