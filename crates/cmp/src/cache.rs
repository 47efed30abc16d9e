//! Set-associative caches with true LRU, write-back/write-allocate.
//!
//! Table II hierarchy: private L1 I/D 32 KB 2-way and a private unified L2
//! of 256 KB 8-way, 64 B lines. The simulator models the D-side hierarchy
//! (the synthetic workloads' instruction footprints are assumed resident,
//! as SPEC CPU2006 instruction working sets largely are).

use serde::{Deserialize, Serialize};

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Table II L1 D-cache: 32 KB, 2-way, 64 B lines.
    pub fn l1d() -> Self {
        CacheConfig {
            capacity: 32 * 1024,
            ways: 2,
            line_bytes: 64,
        }
    }

    /// Table II private unified L2: 256 KB, 8-way, 64 B lines.
    pub fn l2() -> Self {
        CacheConfig {
            capacity: 256 * 1024,
            ways: 8,
            line_bytes: 64,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.capacity / (self.ways * self.line_bytes)
    }

    /// Check geometry consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.capacity == 0 || self.ways == 0 || self.line_bytes == 0 {
            return Err("cache fields must be non-zero".into());
        }
        if !self.line_bytes.is_power_of_two() {
            return Err("line size must be a power of two".into());
        }
        if !self.capacity.is_multiple_of(self.ways * self.line_bytes) {
            return Err("capacity must divide evenly into sets".into());
        }
        if !self.sets().is_power_of_two() {
            return Err("set count must be a power of two".into());
        }
        Ok(())
    }
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was absent; if filling evicted a dirty line, its address.
    Miss {
        /// Writeback address of the evicted dirty victim, if any.
        writeback: Option<u64>,
    },
}

/// One cache level.
///
/// The state is three set-major lanes indexed by `set * ways + way`: tags,
/// LRU stamps and dirty flags (17 bytes per way). A way holds a line
/// exactly when its stamp is non-zero: the clock ticks before every stamp,
/// an empty way keeps stamp 0, and no line is ever invalidated. Hence the
/// hit probe matches a tag only on a non-zero stamp (no tag value can mark
/// an empty way, since 1-byte lines in a single set make every `u64` a
/// tag), and "the first enabled way with the lowest stamp" is the first
/// empty enabled way, else the least recently used one (filled ways'
/// stamps are all distinct).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cache {
    cfg: CacheConfig,
    /// Tag of each way (meaningless while its stamp is 0).
    tags: Vec<u64>,
    /// Clock value of each way's last fill or hit (higher = more recent);
    /// 0 until its first fill.
    stamps: Vec<u64>,
    /// Whether each way holds a line written since its fill.
    dirty: Vec<bool>,
    clock: u64,
    set_mask: u64,
    line_shift: u32,
    /// `line_shift` plus the set-index width: `addr >> tag_shift` is the tag.
    tag_shift: u32,
    /// Hits observed.
    pub hits: u64,
    /// Misses observed.
    pub misses: u64,
    /// Dirty evictions produced.
    pub writebacks: u64,
}

impl Cache {
    /// Build an empty cache.
    ///
    /// # Panics
    /// Panics if the configuration is inconsistent.
    pub fn new(cfg: CacheConfig) -> Self {
        if let Err(e) = cfg.validate() {
            // lint: allow(R1): documented panic on invalid config (see # Panics)
            panic!("invalid cache configuration: {e}");
        }
        let sets = cfg.sets();
        let lanes = sets * cfg.ways;
        let line_shift = cfg.line_bytes.trailing_zeros();
        Cache {
            cfg,
            tags: vec![0; lanes],
            stamps: vec![0; lanes],
            dirty: vec![false; lanes],
            clock: 0,
            set_mask: (sets - 1) as u64,
            line_shift,
            tag_shift: line_shift + sets.trailing_zeros(),
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Lane index of way 0 of `addr`'s set, and `addr`'s tag.
    fn locate(&self, addr: u64) -> (usize, u64) {
        let set = ((addr >> self.line_shift) & self.set_mask) as usize;
        (set * self.cfg.ways, addr >> self.tag_shift)
    }

    /// The way of the set at `base` holding `tag`, if any. Only a filled
    /// way matches, and a tag fills at most once per set, so at most one
    /// way matches: the scan selects it over every way with no exit from
    /// the loop (a conditional move, where an early exit would be a branch
    /// on which way hit).
    fn way_of(&self, base: usize, tag: u64) -> Option<usize> {
        let ways = base..base + self.cfg.ways;
        let mut hit = self.cfg.ways;
        for (w, (&t, &stamp)) in self.tags[ways.clone()]
            .iter()
            .zip(&self.stamps[ways])
            .enumerate()
        {
            hit = if t == tag && stamp != 0 { w } else { hit };
        }
        (hit < self.cfg.ways).then_some(hit)
    }

    /// Access `addr`. On a miss the line is filled (write-allocate) and the
    /// LRU victim evicted; a dirty victim's address is returned for the
    /// writeback. `is_write` marks the (new or present) line dirty.
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
        self.access_masked(addr, is_write, u64::MAX)
    }

    /// Access `addr` with fill-time way partitioning: the hit probe covers
    /// *all* ways (lines an application filled before a repartition keep
    /// hitting and drain by natural eviction — no teleporting), but on a
    /// miss the victim is chosen only among the ways set in `way_mask`
    /// (bit `i` enables way `i`). An empty or out-of-range mask behaves as
    /// a full mask. [`Cache::access`] is the unmasked special case.
    pub fn access_masked(&mut self, addr: u64, is_write: bool, way_mask: u64) -> CacheOutcome {
        let (base, tag) = self.locate(addr);
        if self.touch(base, tag, is_write) {
            return CacheOutcome::Hit;
        }
        self.clock += 1;
        self.misses += 1;
        // Victim: the first masked way with the lowest stamp (see the type
        // docs). A mask with no in-range bits would leave no victim; treat
        // it as full. Ways past bit 63 are always enabled.
        let in_range = way_mask & (u64::MAX >> (64 - self.cfg.ways.min(64) as u32));
        let mask = if in_range == 0 { u64::MAX } else { way_mask };
        let mut victim = 0;
        let mut lowest = u64::MAX;
        for (w, &stamp) in self.stamps[base..base + self.cfg.ways].iter().enumerate() {
            let enabled = w >= 64 || (mask >> w) & 1 != 0;
            // Every stamp is at most the clock, which never reaches
            // `u64::MAX`: an enabled way always beats the start value and a
            // disabled one never does.
            let key = if enabled { stamp } else { u64::MAX };
            if key < lowest {
                lowest = key;
                victim = w;
            }
        }
        let v = base + victim;
        // Only a filled way can be dirty.
        let writeback = if self.dirty[v] {
            self.writebacks += 1;
            // The victim shares `addr`'s set bits.
            let set_bits = addr & (self.set_mask << self.line_shift);
            Some((self.tags[v] << self.tag_shift) | set_bits)
        } else {
            None
        };
        self.tags[v] = tag;
        self.stamps[v] = self.clock;
        self.dirty[v] = is_write;
        CacheOutcome::Miss { writeback }
    }

    /// Hit-only access: on a hit, exactly [`access`](Self::access)'s effect
    /// (LRU touch, dirty marking, hit count) and `true`; on a miss, no
    /// state changes at all and `false`, so the caller can still take the
    /// full [`access`](Self::access) later as if this probe never ran.
    pub fn access_if_hit(&mut self, addr: u64, is_write: bool) -> bool {
        let (base, tag) = self.locate(addr);
        self.touch(base, tag, is_write)
    }

    /// The hit half of an access: re-stamp and dirty the way holding `tag`
    /// in the set at `base` and count the hit, or change nothing.
    fn touch(&mut self, base: usize, tag: u64, is_write: bool) -> bool {
        let Some(w) = self.way_of(base, tag) else {
            return false;
        };
        self.clock += 1;
        self.stamps[base + w] = self.clock;
        self.dirty[base + w] |= is_write;
        self.hits += 1;
        true
    }

    /// Probe without modifying state (diagnostics).
    pub fn contains(&self, addr: u64) -> bool {
        let (base, tag) = self.locate(addr);
        self.way_of(base, tag).is_some()
    }

    /// Number of valid lines (diagnostics / capacity invariants).
    pub fn valid_lines(&self) -> usize {
        self.stamps.iter().filter(|&&stamp| stamp != 0).count()
    }

    /// Miss rate so far.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Reset counters only (state persists across phase boundaries).
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.writebacks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        Cache::new(CacheConfig {
            capacity: 512,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(matches!(c.access(0x100, false), CacheOutcome::Miss { .. }));
        assert_eq!(c.access(0x100, false), CacheOutcome::Hit);
        assert!(c.contains(0x100));
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut c = small();
        c.access(0x100, false);
        assert_eq!(c.access(0x13F, false), CacheOutcome::Hit);
        assert!(matches!(c.access(0x140, false), CacheOutcome::Miss { .. }));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set stride is 4 sets × 64 B = 256 B; these three map to set 0.
        c.access(0x000, false);
        c.access(0x400, false);
        c.access(0x000, false); // touch: 0x000 is MRU
        c.access(0x800, false); // evicts 0x400
        assert!(c.contains(0x000));
        assert!(!c.contains(0x400));
        assert!(c.contains(0x800));
    }

    #[test]
    fn dirty_eviction_produces_writeback_address() {
        let mut c = small();
        c.access(0x000, true); // dirty
        c.access(0x400, false);
        let out = c.access(0x800, false); // evicts dirty 0x000
        match out {
            CacheOutcome::Miss {
                writeback: Some(wb),
            } => assert_eq!(wb, 0x000),
            other => panic!("expected dirty writeback, got {other:?}"),
        }
        assert_eq!(c.writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small();
        c.access(0x000, false);
        c.access(0x400, false);
        let out = c.access(0x800, false);
        assert!(matches!(out, CacheOutcome::Miss { writeback: None }));
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.access(0x000, false); // clean fill
        c.access(0x000, true); // dirty via write hit
        c.access(0x400, false);
        let out = c.access(0x800, false);
        assert!(matches!(out, CacheOutcome::Miss { writeback: Some(0) }));
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = small();
        for i in 0..100u64 {
            c.access(i * 64, i % 3 == 0);
        }
        assert!(c.valid_lines() <= 8);
        assert_eq!(c.valid_lines(), 8); // fully warm
    }

    #[test]
    fn working_set_within_capacity_stops_missing() {
        let mut c = Cache::new(CacheConfig::l1d());
        // 16 KB working set in a 32 KB cache: after one pass, all hits.
        let lines = 16 * 1024 / 64;
        for i in 0..lines as u64 {
            c.access(i * 64, false);
        }
        c.reset_counters();
        for i in 0..lines as u64 {
            c.access(i * 64, false);
        }
        assert_eq!(c.misses, 0);
        assert_eq!(c.hits, lines as u64);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes_with_lru() {
        let mut c = small(); // 512 B
                             // Cyclic sweep over 1 KB: LRU yields 0% hits on a cyclic pattern
                             // larger than capacity.
        for _round in 0..4 {
            for i in 0..16u64 {
                c.access(i * 64, false);
            }
        }
        assert_eq!(c.hits, 0);
    }

    #[test]
    fn table2_geometries_validate() {
        assert!(CacheConfig::l1d().validate().is_ok());
        assert!(CacheConfig::l2().validate().is_ok());
        assert_eq!(CacheConfig::l1d().sets(), 256);
        assert_eq!(CacheConfig::l2().sets(), 512);
    }

    #[test]
    #[should_panic(expected = "invalid cache configuration")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            capacity: 500,
            ways: 2,
            line_bytes: 64,
        });
    }

    #[test]
    fn masked_fill_restricts_victim_to_single_way() {
        let mut c = small();
        // Fill both ways of set 0, then restrict fills to way 1 only: the
        // line in way 0 becomes unevictable and survives any fill storm.
        c.access_masked(0x000, false, 0b01); // way 0
        c.access_masked(0x400, false, 0b10); // way 1
        for i in 2..10u64 {
            c.access_masked(i * 0x400, false, 0b10);
        }
        assert!(c.contains(0x000), "way 0's line must be pinned by the mask");
        assert!(c.contains(9 * 0x400));
    }

    #[test]
    fn hit_probe_ignores_the_mask() {
        let mut c = small();
        c.access_masked(0x000, false, 0b01); // resident in way 0
                                             // A later access under a disjoint mask still hits — lines filled
                                             // before a repartition drain naturally instead of teleporting.
        assert_eq!(c.access_masked(0x000, false, 0b10), CacheOutcome::Hit);
    }

    #[test]
    fn empty_or_out_of_range_mask_acts_as_full() {
        let mut c = small(); // 2 ways: only bits 0-1 are in range
        assert!(matches!(
            c.access_masked(0x000, false, 0),
            CacheOutcome::Miss { .. }
        ));
        // Bits beyond the associativity alone = effectively empty.
        assert!(matches!(
            c.access_masked(0x400, false, 0b100),
            CacheOutcome::Miss { .. }
        ));
        // Both fills landed (full-mask fallback), so both lines are live.
        assert!(c.contains(0x000));
        assert!(c.contains(0x400));
    }

    #[test]
    fn unmasked_access_equals_full_mask() {
        let mut a = small();
        let mut b = small();
        for i in 0..50u64 {
            let addr = (i * 7919) % 4096 * 64;
            assert_eq!(
                a.access(addr, i % 3 == 0),
                b.access_masked(addr, i % 3 == 0, u64::MAX)
            );
        }
        assert_eq!(a.hits, b.hits);
        assert_eq!(a.misses, b.misses);
        assert_eq!(a.writebacks, b.writebacks);
    }

    #[test]
    fn access_if_hit_equals_access_on_hits_and_is_inert_on_misses() {
        // One cache takes every access directly; the other probes hit-only
        // first and falls back to a full access on a miss. Outcomes,
        // counters, victims and dirty writebacks must all agree.
        let mut direct = small();
        let mut probed = small();
        for i in 0..400u64 {
            let addr = (i * 7919) % 24 * 64;
            let is_write = i % 5 == 0;
            let want = direct.access(addr, is_write);
            let before = format!("{probed:?}");
            let got = if probed.access_if_hit(addr, is_write) {
                CacheOutcome::Hit
            } else {
                assert_eq!(
                    format!("{probed:?}"),
                    before,
                    "a missed probe changed state"
                );
                probed.access(addr, is_write)
            };
            assert_eq!(got, want, "access {i} at {addr:#x}");
        }
        assert_eq!(
            (direct.hits, direct.misses, direct.writebacks, direct.clock),
            (probed.hits, probed.misses, probed.writebacks, probed.clock)
        );
    }

    #[test]
    fn miss_rate_math() {
        let mut c = small();
        c.access(0x000, false);
        c.access(0x000, false);
        c.access(0x040, false);
        c.access(0x080, false);
        assert!((c.miss_rate() - 0.75).abs() < 1e-12);
    }
}
