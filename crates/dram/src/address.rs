//! Physical-address ↔ DRAM-coordinate mapping.
//!
//! Table II specifies the mapping `channel:row:col:bank:rank` — reading
//! MSB→LSB. After the line offset (low `log2(line_bytes)` bits), the least
//! significant field is the **rank**, then **bank**, then **column**, then
//! **row**, then **channel**. Consecutive cache lines therefore interleave
//! across ranks and banks first, maximizing bank-level parallelism —
//! exactly what a close-page system wants.

use serde::{Deserialize, Serialize};

use crate::config::DramConfig;

/// Bit-field order of the physical-address decomposition (MSB → LSB
/// notation, as in DRAMSim2). In multi-channel configurations the channel
/// field always occupies the bits directly above the line offset
/// (cache-line channel interleaving) regardless of scheme — the paper's
/// Table II system has one channel, so its `channel:…` prefix is
/// degenerate, and MSB channel bits would leave additional channels
/// unreachable for workloads confined to low physical regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum MappingScheme {
    /// `channel:row:col:bank:rank` — the paper's Table II mapping. The
    /// rank/bank fields sit in the lowest bits, so consecutive lines
    /// interleave across ranks and banks (maximal bank parallelism, no
    /// sequential row locality).
    #[default]
    ChRowColBankRank,
    /// `channel:row:bank:rank:col` — the column field sits lowest, so
    /// consecutive lines stay in the same DRAM row (maximal row-buffer
    /// locality for sequential streams, at the cost of bank parallelism).
    ChRowBankRankCol,
}

/// Decoded DRAM coordinates of one cache-line address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Location {
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank index within the rank.
    pub bank: usize,
    /// Row index within the bank.
    pub row: usize,
    /// Line-granular column index within the row.
    pub col: usize,
}

/// A [`Location`] without its column, which selects no timing: channel,
/// rank, bank and row as four `u32`s (16 bytes, where a `Location` takes
/// 40). The memory controller decodes each request once, at enqueue
/// ([`crate::DramSystem::locate`]), and keeps this beside it in the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowLocation {
    pub(crate) channel: u32,
    pub(crate) rank: u32,
    pub(crate) bank: u32,
    /// The row, as the `u32` the channel's open-row lane compares.
    pub(crate) row: u32,
}

impl RowLocation {
    /// Channel index.
    #[inline]
    pub fn channel(&self) -> usize {
        self.channel as usize
    }

    /// Flat bank identifier within the whole system (for stats arrays).
    pub(crate) fn flat_bank(&self, cfg: &DramConfig) -> usize {
        (self.channel() * cfg.ranks + self.rank as usize) * cfg.banks_per_rank + self.bank as usize
    }
}

impl From<Location> for RowLocation {
    fn from(loc: Location) -> Self {
        RowLocation {
            channel: loc.channel as u32,
            rank: loc.rank as u32,
            bank: loc.bank as u32,
            row: loc.row as u32,
        }
    }
}

/// Field widths, shifts and scheme for the configured mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddressMapper {
    scheme: MappingScheme,
    line_shift: u32,
    rank_bits: u32,
    bank_bits: u32,
    col_bits: u32,
    row_bits: u32,
    channel_bits: u32,
}

fn log2(v: usize) -> u32 {
    debug_assert!(v.is_power_of_two());
    v.trailing_zeros()
}

impl AddressMapper {
    /// Build the mapper from a validated configuration. Columns per row are
    /// derived from an 8 KB row size (line-granular).
    pub fn new(cfg: &DramConfig) -> Self {
        let row_bytes = 8192usize;
        let cols = row_bytes / cfg.line_bytes;
        AddressMapper {
            scheme: cfg.mapping,
            line_shift: log2(cfg.line_bytes),
            rank_bits: log2(cfg.ranks),
            bank_bits: log2(cfg.banks_per_rank),
            col_bits: log2(cols),
            row_bits: log2(cfg.rows),
            channel_bits: log2(cfg.channels),
        }
    }

    /// Total addressable bytes under this mapping.
    pub fn capacity_bytes(&self) -> u64 {
        1u64 << (self.line_shift
            + self.rank_bits
            + self.bank_bits
            + self.col_bits
            + self.row_bits
            + self.channel_bits)
    }

    /// Decode a physical byte address into DRAM coordinates. Addresses
    /// beyond the capacity wrap (high bits are ignored), which lets
    /// synthetic workloads use unbounded address spaces.
    pub fn decode(&self, addr: u64) -> Location {
        let mut a = addr >> self.line_shift;
        let mut take = |bits: u32| -> usize {
            let v = (a & ((1u64 << bits) - 1)) as usize;
            a >>= bits;
            v
        };
        let channel = take(self.channel_bits);
        match self.scheme {
            MappingScheme::ChRowColBankRank => {
                let rank = take(self.rank_bits);
                let bank = take(self.bank_bits);
                let col = take(self.col_bits);
                let row = take(self.row_bits);
                Location {
                    channel,
                    rank,
                    bank,
                    row,
                    col,
                }
            }
            MappingScheme::ChRowBankRankCol => {
                let col = take(self.col_bits);
                let rank = take(self.rank_bits);
                let bank = take(self.bank_bits);
                let row = take(self.row_bits);
                Location {
                    channel,
                    rank,
                    bank,
                    row,
                    col,
                }
            }
        }
    }

    /// Encode DRAM coordinates back to the canonical byte address of the
    /// line (inverse of [`decode`](Self::decode) for in-range coordinates).
    pub fn encode(&self, loc: &Location) -> u64 {
        let mut a = 0u64;
        let mut shift = self.line_shift;
        let mut put = |v: usize, bits: u32| {
            debug_assert!(bits == 64 || (v as u64) < (1u64 << bits));
            a |= (v as u64) << shift;
            shift += bits;
        };
        put(loc.channel, self.channel_bits);
        match self.scheme {
            MappingScheme::ChRowColBankRank => {
                put(loc.rank, self.rank_bits);
                put(loc.bank, self.bank_bits);
                put(loc.col, self.col_bits);
                put(loc.row, self.row_bits);
            }
            MappingScheme::ChRowBankRankCol => {
                put(loc.col, self.col_bits);
                put(loc.rank, self.rank_bits);
                put(loc.bank, self.bank_bits);
                put(loc.row, self.row_bits);
            }
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapper() -> (DramConfig, AddressMapper) {
        let cfg = DramConfig::ddr2_400();
        let m = AddressMapper::new(&cfg);
        (cfg, m)
    }

    #[test]
    fn consecutive_lines_interleave_ranks_then_banks() {
        let (cfg, m) = mapper();
        // Lines 0..4 hit ranks 0..3 of bank 0 (rank bits are lowest).
        for i in 0..cfg.ranks as u64 {
            let loc = m.decode(i * cfg.line_bytes as u64);
            assert_eq!(loc.rank, i as usize);
            assert_eq!(loc.bank, 0);
            assert_eq!(loc.row, 0);
        }
        // Line 4 wraps to rank 0, bank 1.
        let loc = m.decode(cfg.ranks as u64 * cfg.line_bytes as u64);
        assert_eq!(loc.rank, 0);
        assert_eq!(loc.bank, 1);
    }

    #[test]
    fn row_changes_only_after_all_banks_and_cols() {
        let (cfg, m) = mapper();
        let lines_per_row_sweep = (cfg.ranks * cfg.banks_per_rank * (8192 / cfg.line_bytes)) as u64;
        let loc = m.decode((lines_per_row_sweep - 1) * cfg.line_bytes as u64);
        assert_eq!(loc.row, 0);
        let loc = m.decode(lines_per_row_sweep * cfg.line_bytes as u64);
        assert_eq!(loc.row, 1);
    }

    #[test]
    fn encode_decode_round_trip() {
        let (_, m) = mapper();
        for addr in (0..1u64 << 24).step_by(64 * 997) {
            let loc = m.decode(addr);
            let back = m.encode(&loc);
            assert_eq!(back, addr & !(63u64), "addr {addr:#x}");
        }
    }

    #[test]
    fn offset_bits_are_ignored() {
        let (_, m) = mapper();
        assert_eq!(m.decode(0x1000), m.decode(0x1001));
        assert_eq!(m.decode(0x1000), m.decode(0x103F));
        assert_ne!(m.decode(0x1000), m.decode(0x1040));
    }

    #[test]
    fn addresses_beyond_capacity_wrap() {
        let (_, m) = mapper();
        let cap = m.capacity_bytes();
        assert_eq!(m.decode(0x40), m.decode(cap + 0x40));
    }

    #[test]
    fn capacity_is_8gb_for_table2_geometry() {
        let (_, m) = mapper();
        // 64 B lines × 4 ranks × 8 banks × 128 cols × 32768 rows = 8 GB.
        assert_eq!(m.capacity_bytes(), 8 << 30);
    }

    #[test]
    fn row_major_scheme_keeps_sequential_lines_in_one_row() {
        let mut cfg = DramConfig::ddr2_400();
        cfg.mapping = MappingScheme::ChRowBankRankCol;
        let m = AddressMapper::new(&cfg);
        let lines_per_row = (8192 / cfg.line_bytes) as u64;
        let first = m.decode(0);
        for i in 0..lines_per_row {
            let loc = m.decode(i * cfg.line_bytes as u64);
            assert_eq!(loc.rank, first.rank);
            assert_eq!(loc.bank, first.bank);
            assert_eq!(loc.row, first.row);
            assert_eq!(loc.col, i as usize);
        }
        // The next line moves to a different rank, same row index.
        let loc = m.decode(lines_per_row * cfg.line_bytes as u64);
        assert_ne!(
            (loc.rank, loc.bank),
            (first.rank, first.bank),
            "row boundary must change rank/bank"
        );
    }

    #[test]
    fn row_major_round_trip() {
        let mut cfg = DramConfig::ddr2_400();
        cfg.mapping = MappingScheme::ChRowBankRankCol;
        let m = AddressMapper::new(&cfg);
        for addr in (0..1u64 << 24).step_by(64 * 1013) {
            let loc = m.decode(addr);
            assert_eq!(m.encode(&loc), addr & !63u64);
        }
    }

    #[test]
    fn multi_channel_interleaves_consecutive_lines() {
        let mut cfg = DramConfig::ddr2_400();
        cfg.channels = 2;
        let m = AddressMapper::new(&cfg);
        for i in 0..8u64 {
            let loc = m.decode(i * 64);
            assert_eq!(loc.channel, (i % 2) as usize, "line {i}");
        }
        // Round trip still holds.
        for addr in (0..1u64 << 22).step_by(64 * 321) {
            let loc = m.decode(addr);
            assert_eq!(m.encode(&loc), addr & !63u64);
        }
    }

    #[test]
    fn flat_bank_covers_all_banks_uniquely() {
        let (cfg, m) = mapper();
        let mut seen = std::collections::HashSet::new();
        for i in 0..cfg.total_banks() as u64 {
            let loc = RowLocation::from(m.decode(i * cfg.line_bytes as u64));
            assert!(seen.insert(loc.flat_bank(&cfg)));
        }
        assert_eq!(seen.len(), 32);
        assert!(seen.iter().all(|&b| b < 32));
    }
}
