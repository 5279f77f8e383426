//! Physical-address → (rank, bank, row) mapping.
//!
//! Table I specifies an "XOR-based mapping function like Skylake", referring
//! to the DRAMA reverse-engineering work: bank bits are derived by XORing
//! pairs of address bits so that consecutive rows spread across banks and
//! row-conflict adversarial patterns are broken up.

use crate::config::{BANKS_PER_RANK, RANKS, ROW_BYTES};

// The XOR fold selects ranks and banks with bit masks and finds rows by
// shifting, so the Table I geometry must be powers of two.
const _: () = assert!(RANKS.is_power_of_two(), "rank count must be a power of two");
const _: () = assert!(
    BANKS_PER_RANK.is_power_of_two(),
    "bank count must be a power of two"
);
const _: () = assert!(
    ROW_BYTES.is_power_of_two(),
    "row size must be a power of two"
);

const RANK_BITS: u32 = RANKS.trailing_zeros();
const BANK_BITS: u32 = BANKS_PER_RANK.trailing_zeros();
const ROW_SHIFT: u32 = ROW_BYTES.trailing_zeros();

/// A decoded DRAM coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramCoord {
    /// Rank index on the channel.
    pub rank: usize,
    /// Bank index within the rank.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
}

/// XOR-based address mapping.
///
/// # Examples
///
/// ```
/// use rmcc_dram::mapping::AddressMapping;
///
/// let map = AddressMapping::new();
/// let a = map.decode(0);
/// let b = map.decode(64);
/// // Adjacent lines stay in the same row of the same bank.
/// assert_eq!((a.rank, a.bank, a.row), (b.rank, b.bank, b.row));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct AddressMapping;

impl AddressMapping {
    /// The mapping for the Table I channel's geometry.
    pub const fn new() -> Self {
        AddressMapping
    }

    /// Decodes a byte address.
    pub fn decode(&self, byte_addr: u64) -> DramCoord {
        let row_all = byte_addr >> ROW_SHIFT;
        // Plain (non-XOR) bank/rank fields from the low bits above the row
        // offset.
        let bank_plain = (row_all & ((1 << BANK_BITS) - 1)) as usize;
        let rank_plain = ((row_all >> BANK_BITS) & ((1 << RANK_BITS) - 1)) as usize;
        let row = row_all >> (BANK_BITS + RANK_BITS);
        // Skylake-style XOR: fold row bits into the bank/rank selects so
        // same-bank rows interleave (DRAMA functions XOR pairs of bits).
        let bank = bank_plain ^ (row as usize & ((1 << BANK_BITS) - 1));
        let rank = rank_plain ^ ((row >> BANK_BITS) as usize & ((1 << RANK_BITS) - 1));
        DramCoord { rank, bank, row }
    }

    /// Flat bank index across all ranks, for indexing bank-state arrays.
    pub fn flat_bank(&self, coord: DramCoord) -> usize {
        coord.rank * (1usize << BANK_BITS) + coord.bank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> AddressMapping {
        AddressMapping::new()
    }

    #[test]
    fn same_row_same_coord() {
        let m = map();
        let a = m.decode(0x12340);
        let b = m.decode(0x12340 + 63);
        assert_eq!(a, b);
    }

    #[test]
    fn decode_is_injective_over_coords() {
        // Different addresses within a scan must never collide on
        // (rank, bank, row) + row offset; equivalently, the number of
        // distinct coords seen when striding by row_bytes must equal the
        // stride count up to the geometry size.
        let m = map();
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096u64 {
            let coord = m.decode(i * ROW_BYTES);
            assert!(seen.insert(coord), "coord collision at stride {i}");
        }
    }

    #[test]
    fn row_strides_spread_across_banks() {
        // Sequential rows should hit different banks thanks to the XOR fold.
        let m = map();
        let banks: std::collections::HashSet<usize> = (0..16u64)
            .map(|i| {
                let c = m.decode(i * ROW_BYTES);
                m.flat_bank(c)
            })
            .collect();
        assert!(banks.len() > 8, "only {} distinct banks", banks.len());
    }

    #[test]
    fn flat_bank_bounds() {
        let m = map();
        for i in 0..100_000u64 {
            let c = m.decode(i * 64);
            assert!(c.rank < RANKS);
            assert!(c.bank < BANKS_PER_RANK);
            assert!(m.flat_bank(c) < crate::config::TOTAL_BANKS);
        }
    }
}
