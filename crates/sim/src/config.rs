//! Full-system configuration — the programmatic form of the paper's
//! Table I, printable for the `table1_config` harness.

use rmcc_cache::hierarchy::HierarchyConfig;
use rmcc_cache::tlb::PageSize;
use rmcc_cache::LINE_BYTES;
use rmcc_core::rmcc::{RmccConfig, DEFAULT_LEVELS};
use rmcc_dram::config::{ns, Ps};
use rmcc_secmem::counters::CounterOrg;
use rmcc_secmem::engine::{COUNTER_CACHE_LINES, COUNTER_CACHE_WAYS};
use rmcc_secmem::tree::InitPolicy;

/// The secure-memory schemes the evaluation compares (Figure 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No confidentiality or integrity — the normalization baseline.
    NonSecure,
    /// Split counters SC-64 (Yan et al., ISCA'06).
    Sc64,
    /// Morphable Counters (Saileshwar et al., MICRO'18) — the paper's
    /// primary baseline.
    Morphable,
    /// RMCC applied on top of Morphable Counters.
    Rmcc,
}

impl Scheme {
    /// All schemes in Figure 13's legend order.
    pub const ALL: [Scheme; 4] = [
        Scheme::Sc64,
        Scheme::Morphable,
        Scheme::Rmcc,
        Scheme::NonSecure,
    ];

    /// The counter organization the scheme uses (`None` for non-secure).
    pub fn counter_org(self) -> Option<CounterOrg> {
        match self {
            Scheme::NonSecure => None,
            Scheme::Sc64 => Some(CounterOrg::Sc64),
            Scheme::Morphable | Scheme::Rmcc => Some(CounterOrg::Morphable128),
        }
    }

    /// Whether the RMCC machinery is active.
    pub fn uses_rmcc(self) -> bool {
        matches!(self, Scheme::Rmcc)
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scheme::NonSecure => write!(f, "Non-secure"),
            Scheme::Sc64 => write!(f, "SC-64"),
            Scheme::Morphable => write!(f, "Morphable"),
            Scheme::Rmcc => write!(f, "RMCC"),
        }
    }
}

/// Carry-less multiplication latency (Table I: 1 ns).
pub const CLMUL_LATENCY: Ps = ns(1.0);

/// Memoization-table lookup latency.
pub const TABLE_LOOKUP_LATENCY: Ps = ns(1.0);

/// Core clock in GHz (Table I: 3.2).
pub const CORE_GHZ: f64 = 3.2;

/// One core cycle in picoseconds.
pub const CYCLE_PS: Ps = (1_000.0 / CORE_GHZ).round() as Ps;

/// Retire width (Table I: 4-wide OoO).
pub const RETIRE_WIDTH: u32 = 4;

/// Reorder-buffer capacity (Table I: 192).
pub const ROB_ENTRIES: usize = 192;

/// Maximum outstanding LLC misses (MSHRs).
pub const MAX_OUTSTANDING_MISSES: usize = 16;

/// Latency of an L1 / L2 / L3 hit in picoseconds (Table I additive:
/// 2 / 6 / 23 ns end-to-end).
pub const L1_LATENCY: Ps = ns(2.0);

/// End-to-end L2 hit latency.
pub const L2_LATENCY: Ps = ns(6.0);

/// End-to-end L3 hit latency.
pub const L3_LATENCY: Ps = ns(23.0);

/// Maximum concurrent counter-overflow relevels (§V: "at most two
/// outstanding overflows at a time").
pub const MAX_OUTSTANDING_OVERFLOWS: usize = 2;

/// Instruction-expansion factor applied to each trace event's `work`
/// field. Kernels trace only their big-array accesses; the surrounding
/// L1-resident accesses and arithmetic (address math, cost evaluation,
/// branches) are summarized by `work × WORK_SCALE` instructions, which
/// calibrates LLC misses-per-kilo-instruction into the range the paper's
/// native workloads exhibit.
pub const WORK_SCALE: u32 = 16;

/// Everything the simulators need to know about the machine under test
/// that some experiment varies. Table I values that no experiment varies
/// are the module's constants, and the DDR4 channel's are
/// [`rmcc_dram::config`]'s.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Which secure-memory scheme to model.
    pub scheme: Scheme,
    /// AES latency (Table I: 15 ns for AES-128; §VI sensitivity: 22 ns for
    /// AES-256).
    pub aes_latency: Ps,
    /// Counter cache capacity in bytes (Table I: 128 KB; Figure 18: 256 KB
    /// and 512 KB; lifetime runs: 32 KB per thread).
    pub counter_cache_bytes: usize,
    /// Counter cache associativity (Table I: 32).
    pub counter_cache_ways: usize,
    /// Data cache hierarchy.
    pub hierarchy: HierarchyConfig,
    /// RMCC engine parameters (tables, budget).
    pub rmcc: RmccConfig,
    /// Counter initialization (experiments use the randomized policy, §V).
    pub counter_init: InitPolicy,
    /// Protected data capacity (Table I: 128 GB).
    pub data_bytes: u64,
    /// Page size for virtual→physical placement (§V: 2 MB huge pages).
    pub page_size: PageSize,
    /// Model PoisonIvy-style speculative verification (§VII related work):
    /// the core consumes decrypted data before the integrity-tree MAC
    /// checks complete, so chain-verification latency is hidden — but the
    /// counter-dependent AES for *decryption* is not ("CPU cannot execute
    /// on ciphertext"). For comparison against RMCC.
    pub speculative_verify: bool,
    /// Record epoch-resolved telemetry (metrics registry + JSONL series) in
    /// the metadata engine. Off by default: when off, hot paths pay one
    /// branch and the engine allocates no registry or series. The snapshot
    /// cadence is `rmcc.epoch_accesses` memory requests, for every scheme
    /// (secure or not).
    pub telemetry: bool,
}

impl SystemConfig {
    /// Table I configuration for the given scheme (detailed / gem5 mode).
    /// The counter cache is the functional engine's
    /// ([`COUNTER_CACHE_LINES`] lines, [`COUNTER_CACHE_WAYS`]-way).
    pub fn table1(scheme: Scheme) -> Self {
        SystemConfig {
            scheme,
            aes_latency: ns(15.0),
            counter_cache_bytes: COUNTER_CACHE_LINES * LINE_BYTES,
            counter_cache_ways: COUNTER_CACHE_WAYS,
            hierarchy: HierarchyConfig::gem5_table1(),
            rmcc: RmccConfig::paper(),
            counter_init: InitPolicy::Randomized {
                seed: 0x52_4d_43_43,
            },
            data_bytes: 128 << 30,
            page_size: PageSize::Huge2M,
            speculative_verify: false,
            telemetry: false,
        }
    }

    /// The detailed-mode configuration used by this reproduction's
    /// experiments: Table I, with the LLC and counter cache scaled down 4×
    /// (8 MB → 2 MB, 128 KB → 32 KB) to match the scaled workload
    /// footprints (tens of MB instead of the paper's hundreds of GB). The
    /// cache-to-footprint ratios stay in the paper's regime, which is what
    /// the counter-miss behaviour depends on; see DESIGN.md.
    pub fn detailed_scaled(scheme: Scheme) -> Self {
        let mut c = Self::table1(scheme);
        c.counter_cache_bytes = 32 << 10;
        c.counter_cache_ways = 8;
        c.hierarchy.l3 = rmcc_cache::hierarchy::LevelConfig {
            bytes: 2 << 20,
            ways: 16,
        };
        c
    }

    /// §V lifetime (Pin) configuration: 32 KB counter cache and the smaller
    /// cache hierarchy, everything else as Table I.
    pub fn lifetime(scheme: Scheme) -> Self {
        SystemConfig {
            counter_cache_bytes: 32 << 10,
            counter_cache_ways: 8,
            hierarchy: HierarchyConfig::pintool_lifetime(),
            ..Self::table1(scheme)
        }
    }

    /// Counter cache capacity in 64 B lines.
    pub fn counter_cache_lines(&self) -> usize {
        self.counter_cache_bytes / LINE_BYTES
    }
}

impl std::fmt::Display for SystemConfig {
    /// Renders the configuration in the style of the paper's Table I.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "System Configuration ({})", self.scheme)?;
        writeln!(
            f,
            "  CPU: x86, {CORE_GHZ:.1} GHz, {RETIRE_WIDTH}-wide OoO, {ROB_ENTRIES}-entry ROB"
        )?;
        writeln!(
            f,
            "  L1/L2/L3 hit: {:.0}/{:.0}/{:.0} ns (end-to-end)",
            L1_LATENCY as f64 / 1e3,
            L2_LATENCY as f64 / 1e3,
            L3_LATENCY as f64 / 1e3
        )?;
        writeln!(
            f,
            "  Counter cache in MC: {} KB {}-way",
            self.counter_cache_bytes >> 10,
            self.counter_cache_ways
        )?;
        if let Some(org) = self.scheme.counter_org() {
            writeln!(
                f,
                "  Counter org: {org} (decode {:.0} ns)",
                org.decode_latency_ps() as f64 / 1e3
            )?;
        }
        writeln!(f, "  AES latency: {:.0} ns", self.aes_latency as f64 / 1e3)?;
        if self.scheme.uses_rmcc() {
            writeln!(
                f,
                "  Memoization: {} groups x {} values per level, {DEFAULT_LEVELS} levels, {:.0}% budget/epoch",
                self.rmcc.table.n_groups(),
                self.rmcc.table.group_size,
                self.rmcc.budget_fraction * 100.0
            )?;
            writeln!(
                f,
                "  Carry-less multiply: {:.0} ns",
                CLMUL_LATENCY as f64 / 1e3
            )?;
        }
        writeln!(
            f,
            "  Memory: {} GB DDR4, page size {}",
            self.data_bytes >> 30,
            self.page_size
        )?;
        rmcc_dram::config::write_table1(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_properties() {
        assert_eq!(Scheme::NonSecure.counter_org(), None);
        assert_eq!(Scheme::Sc64.counter_org(), Some(CounterOrg::Sc64));
        assert_eq!(Scheme::Rmcc.counter_org(), Some(CounterOrg::Morphable128));
        assert!(Scheme::Rmcc.uses_rmcc());
        assert!(!Scheme::Morphable.uses_rmcc());
    }

    #[test]
    fn table1_matches_paper() {
        let c = SystemConfig::table1(Scheme::Rmcc);
        assert_eq!(c.aes_latency, 15_000);
        assert_eq!(c.counter_cache_bytes, 128 << 10);
        assert_eq!(c.counter_cache_lines(), 2048);
        assert_eq!(c.counter_cache_ways, 32);
        assert_eq!(ROB_ENTRIES, 192);
        assert_eq!(CYCLE_PS, 313); // 3.2 GHz
        assert_eq!(c.data_bytes, 128 << 30);
    }

    #[test]
    fn lifetime_uses_small_counter_cache() {
        let c = SystemConfig::lifetime(Scheme::Morphable);
        assert_eq!(c.counter_cache_bytes, 32 << 10);
        assert_eq!(c.hierarchy, HierarchyConfig::pintool_lifetime());
    }

    #[test]
    fn display_prints_table1_facts() {
        let s = SystemConfig::table1(Scheme::Rmcc).to_string();
        assert!(s.contains("3.2 GHz"));
        assert!(s.contains("192-entry ROB"));
        assert!(s.contains("128 KB 32-way"));
        assert!(s.contains("AES latency: 15 ns"));
        assert!(s.contains("16 groups x 8 values"));
        assert!(s.contains("13.75"));
    }
}
