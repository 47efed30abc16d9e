//! Differential test of the flat-lane [`Cache`] against the array-of-lines
//! cache it replaced.
//!
//! The oracle below is that earlier implementation with its state and
//! logic unchanged (its serde derives, most doc comments and the methods
//! this test never calls are left out): one `Line { tag, valid, dirty,
//! lru }` per way, a `find` over `valid && tag` for hits and a
//! `min_by_key` over `(valid, lru)` among the masked ways for the victim.
//! Both caches take the same randomized calls — `access`, `access_masked`
//! with full, partial, empty, out-of-range and arbitrary masks, and
//! `access_if_hit`, reads and writes — on 1- to 32-way geometries plus
//! Table II's L1 and L2 and a 1 MB 16-way LLC. Every outcome and
//! writeback address must match; at the end so must the counters,
//! `contains` for every line the stream touched, and `valid_lines`.
//!
//! The masks matter: with a full mask, which of several empty ways a fill
//! takes never shows in an outcome, but a later masked fill that may only
//! evict some ways exposes it.

use bwpart_cmp::cache::{Cache, CacheConfig};
use proptest::prelude::*;

mod oracle {
    use bwpart_cmp::cache::{CacheConfig, CacheOutcome};

    #[derive(Debug, Clone, Copy)]
    struct Line {
        tag: u64,
        valid: bool,
        dirty: bool,
        /// LRU timestamp (higher = more recent).
        lru: u64,
    }

    /// The array-of-lines cache, as it stood before the flat lanes.
    #[derive(Debug, Clone)]
    pub struct Cache {
        cfg: CacheConfig,
        lines: Vec<Line>,
        clock: u64,
        set_mask: u64,
        line_shift: u32,
        /// Hits observed.
        pub hits: u64,
        /// Misses observed.
        pub misses: u64,
        /// Dirty evictions produced.
        pub writebacks: u64,
    }

    impl Cache {
        pub fn new(cfg: CacheConfig) -> Self {
            if let Err(e) = cfg.validate() {
                panic!("invalid cache configuration: {e}");
            }
            let sets = cfg.sets();
            Cache {
                cfg,
                lines: vec![
                    Line {
                        tag: 0,
                        valid: false,
                        dirty: false,
                        lru: 0,
                    };
                    sets * cfg.ways
                ],
                clock: 0,
                set_mask: (sets - 1) as u64,
                line_shift: cfg.line_bytes.trailing_zeros(),
                hits: 0,
                misses: 0,
                writebacks: 0,
            }
        }

        fn set_of(&self, addr: u64) -> (usize, u64) {
            let line_addr = addr >> self.line_shift;
            let set = (line_addr & self.set_mask) as usize;
            let tag = line_addr >> self.set_mask.count_ones();
            (set, tag)
        }

        pub fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
            self.access_masked(addr, is_write, u64::MAX)
        }

        pub fn access_masked(&mut self, addr: u64, is_write: bool, way_mask: u64) -> CacheOutcome {
            if self.access_if_hit(addr, is_write) {
                return CacheOutcome::Hit;
            }
            self.clock += 1;
            let (set, tag) = self.set_of(addr);
            let base = set * self.cfg.ways;
            let ways = &mut self.lines[base..base + self.cfg.ways];

            self.misses += 1;
            // Victim: an invalid masked way, else the LRU masked way. A mask
            // with no in-range bits would leave no victim; treat it as full.
            let in_range = way_mask & (u64::MAX >> (64 - self.cfg.ways.min(64) as u32));
            let mask = if in_range == 0 { u64::MAX } else { way_mask };
            let victim = ways
                .iter()
                .enumerate()
                .filter(|&(i, _)| i >= 64 || mask & (1u64 << i) != 0)
                .min_by_key(|&(_, l)| (l.valid, l.lru))
                .map(|(i, _)| i)
                .expect("mask selects at least one way");
            let v = &mut ways[victim];
            let writeback = if v.valid && v.dirty {
                self.writebacks += 1;
                // Reconstruct the victim's address.
                let line_addr = (v.tag << self.set_mask.count_ones()) | set as u64;
                Some(line_addr << self.line_shift)
            } else {
                None
            };
            *v = Line {
                tag,
                valid: true,
                dirty: is_write,
                lru: self.clock,
            };
            CacheOutcome::Miss { writeback }
        }

        pub fn access_if_hit(&mut self, addr: u64, is_write: bool) -> bool {
            let (set, tag) = self.set_of(addr);
            let base = set * self.cfg.ways;
            let ways = &mut self.lines[base..base + self.cfg.ways];
            let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) else {
                return false;
            };
            self.clock += 1;
            line.lru = self.clock;
            line.dirty |= is_write;
            self.hits += 1;
            true
        }

        pub fn contains(&self, addr: u64) -> bool {
            let (set, tag) = self.set_of(addr);
            let base = set * self.cfg.ways;
            self.lines[base..base + self.cfg.ways]
                .iter()
                .any(|l| l.valid && l.tag == tag)
        }

        pub fn valid_lines(&self) -> usize {
            self.lines.iter().filter(|l| l.valid).count()
        }
    }
}

/// One call on both caches.
#[derive(Debug, Clone, Copy)]
enum Call {
    Access,
    Masked(u64),
    IfHit,
}

/// Geometry `pick` of 0–2 is Table II's L1 or L2 or a 1 MB 16-way LLC;
/// otherwise a `ways`-way cache of `2^set_bits` sets with 1-, 2- or
/// 64-byte lines (1-byte lines in one set make every `u64` a tag).
fn geometry((pick, ways, set_bits, line): (usize, usize, u32, usize)) -> CacheConfig {
    match pick {
        0 => CacheConfig::l1d(),
        1 => CacheConfig::l2(),
        2 => CacheConfig {
            capacity: 1024 * 1024,
            ways: 16,
            line_bytes: 64,
        },
        _ => {
            let line_bytes = [1, 2, 64][line];
            CacheConfig {
                capacity: (ways << set_bits) * line_bytes,
                ways,
                line_bytes,
            }
        }
    }
}

/// Decode one generated call. Most addresses crowd up to four sets with
/// more distinct lines than they have ways (at any byte offset); the rest
/// are arbitrary, 0 or `u64::MAX`. Masks are full, partial (in-range bits
/// only), empty, out-of-range bits only, or arbitrary.
fn decode(cfg: CacheConfig, (call, mask_kind, addr_kind, a, m, w): RawCall) -> (Call, u64, bool) {
    let sets = cfg.sets() as u64;
    let line = cfg.line_bytes as u64;
    let addr = match addr_kind {
        0..=7 => {
            let set = a % sets.min(4);
            let tag = (a >> 8) % (2 * cfg.ways as u64 + 2);
            (tag * sets + set) * line + (a >> 16) % line
        }
        8 => a,
        _ => [0, u64::MAX][(a & 1) as usize],
    };
    let in_range = u64::MAX >> (64 - cfg.ways.min(64) as u32);
    let mask = [u64::MAX, m & in_range, 0, m & !in_range, m][mask_kind as usize];
    let call = match call {
        0 => Call::Access,
        1..=3 => Call::Masked(mask),
        _ => Call::IfHit,
    };
    (call, addr, w)
}

/// (call kind, mask kind, address kind, address word, mask word, write).
type RawCall = (u8, u8, u8, u64, u64, bool);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_cache_matches_the_line_array_oracle(
        geo in (0usize..6, 1usize..=32, 0u32..5, 0usize..3),
        raw in prop::collection::vec(
            (0u8..5, 0u8..5, 0u8..10, any::<u64>(), any::<u64>(), any::<bool>()),
            1..400,
        ),
    ) {
        let cfg = geometry(geo);
        let calls: Vec<(Call, u64, bool)> = raw.into_iter().map(|r| decode(cfg, r)).collect();
        let mut flat = Cache::new(cfg);
        let mut oracle = oracle::Cache::new(cfg);
        for (i, &(call, addr, is_write)) in calls.iter().enumerate() {
            let (got, want) = match call {
                Call::Access => (flat.access(addr, is_write), oracle.access(addr, is_write)),
                Call::Masked(m) => (
                    flat.access_masked(addr, is_write, m),
                    oracle.access_masked(addr, is_write, m),
                ),
                Call::IfHit => {
                    let hit = flat.access_if_hit(addr, is_write);
                    let want = oracle.access_if_hit(addr, is_write);
                    prop_assert_eq!(hit, want, "{:?}: call {} {:?} at {:#x}", cfg, i, call, addr);
                    continue;
                }
            };
            prop_assert_eq!(got, want, "{:?}: call {} {:?} at {:#x}", cfg, i, call, addr);
        }
        prop_assert_eq!(
            (flat.hits, flat.misses, flat.writebacks),
            (oracle.hits, oracle.misses, oracle.writebacks)
        );
        for &(_, addr, _) in &calls {
            prop_assert_eq!(flat.contains(addr), oracle.contains(addr), "contains({:#x})", addr);
        }
        prop_assert_eq!(flat.valid_lines(), oracle.valid_lines());
    }
}
