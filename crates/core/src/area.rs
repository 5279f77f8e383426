//! Hardware area model (§IV-E).
//!
//! The paper accounts for RMCC's area as: a 4 KB SRAM memoization table
//! (128 entries × 32 B — a 16 B AES result for decryption plus a 16 B AES
//! result for verification each), 1 KB of tracking counters (64 × 16 B for
//! current groups, evicted groups, and candidates), and a truncated
//! 128×128→128 carry-less multiplier built from ~12 K XOR gates and ~16 K
//! inverters, equivalent to another ~4 KB of SRAM.

use crate::table::TableConfig;

/// Area accounting for one memoization table instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaModel {
    /// Bytes of SRAM for memoized AES results.
    pub table_bytes: u64,
    /// Bytes of SRAM for use-frequency / candidate tracking counters.
    pub tracking_bytes: u64,
    /// SRAM-equivalent bytes of the carry-less multiplier.
    pub clmul_equiv_bytes: u64,
    /// XOR gates in the multiplier tree.
    pub clmul_xor_gates: u64,
    /// Fan-out inverters in the multiplier tree.
    pub clmul_inverters: u64,
    /// Maximum XOR depth of the multiplier (log2 of the operand width).
    pub clmul_xor_depth: u32,
    /// Maximum inverter depth (log4 of the operand width).
    pub clmul_inv_depth: u32,
}

impl AreaModel {
    /// The paper's numbers for a given table geometry.
    pub fn for_table(cfg: TableConfig) -> Self {
        // Each memoized value stores two 16 B AES results (§IV-E:
        // "decryption and verification use different AES keys").
        let entries = cfg.total_entries();
        let table_bytes = entries * 32;
        // 64 16 B counters track group/evicted/candidate access rates.
        let trackers = (cfg.n_groups() + cfg.n_evicted() + 32) as u64;
        let tracking_bytes = trackers * 16;
        // 12 K XORs at 2 SRAM cells each + 16 K inverters at 0.5 each,
        // 1 cell ≈ 1 bit.
        let xor_gates = 12 * 1024;
        let inverters = 16 * 1024;
        let cells = xor_gates * 2 + inverters / 2;
        AreaModel {
            table_bytes,
            tracking_bytes,
            clmul_equiv_bytes: cells / 8,
            clmul_xor_gates: xor_gates,
            clmul_inverters: inverters,
            clmul_xor_depth: 128u32.ilog2(),
            clmul_inv_depth: 128u32.ilog2() / 2, // paper: log4(128) = 3
        }
    }

    /// Total SRAM-equivalent bytes for one table instance (the multiplier
    /// is shared across tables, so add it once).
    pub fn total_bytes(&self, include_multiplier: bool) -> u64 {
        self.table_bytes
            + self.tracking_bytes
            + if include_multiplier {
                self.clmul_equiv_bytes
            } else {
                0
            }
    }
}

impl std::fmt::Display for AreaModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "memoization table SRAM: {} B", self.table_bytes)?;
        writeln!(f, "tracking counters:      {} B", self.tracking_bytes)?;
        writeln!(
            f,
            "clmul ({} XOR, {} INV):  {} B SRAM-equivalent",
            self.clmul_xor_gates, self.clmul_inverters, self.clmul_equiv_bytes
        )?;
        write!(
            f,
            "gate depth: {} XOR + {} INV",
            self.clmul_xor_depth, self.clmul_inv_depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers() {
        let a = AreaModel::for_table(TableConfig::paper());
        assert_eq!(a.table_bytes, 4096, "4KB table (§IV-E)");
        assert_eq!(a.tracking_bytes, 1024, "1KB of 16B tracking counters");
        assert_eq!(a.clmul_equiv_bytes, 4096, "clmul ≈ 4KB SRAM");
        assert_eq!(a.clmul_xor_depth, 7, "log2(128) = 7 XOR deep");
        assert_eq!(a.clmul_inv_depth, 3, "log4(128) = 3 inverters deep (§IV-E)");
    }

    #[test]
    fn totals() {
        let a = AreaModel::for_table(TableConfig::paper());
        assert_eq!(a.total_bytes(true), 4096 + 1024 + 4096);
        assert_eq!(a.total_bytes(false), 4096 + 1024);
    }

    #[test]
    fn display_is_informative() {
        let s = AreaModel::for_table(TableConfig::paper()).to_string();
        assert!(s.contains("4096"));
        assert!(s.contains("XOR"));
    }
}
