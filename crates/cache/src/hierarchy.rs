//! A three-level data-cache hierarchy that filters a core's access stream
//! down to the memory-side traffic (LLC misses and dirty writebacks) that the
//! secure-memory machinery actually sees.
//!
//! The paper's two methodologies both start from this filter: the Pin-based
//! lifetime studies model "1MB L2 cache, 2MB LLC and 32KB counter cache per
//! core" (§V) and the gem5 runs use 32/64 KB L1, 1 MB L2, 8 MB L3 (Table I).

use crate::set_assoc::{CacheStats, SetAssocCache, LINE_BYTES};

/// `log2(LINE_BYTES)`: byte address → line address.
const LINE_SHIFT: u32 = LINE_BYTES.trailing_zeros();

/// Cache levels in the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Level {
    /// First-level data cache.
    L1,
    /// Second-level cache.
    L2,
    /// Last-level cache.
    L3,
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Level::L1 => write!(f, "L1"),
            Level::L2 => write!(f, "L2"),
            Level::L3 => write!(f, "L3"),
        }
    }
}

/// Geometry for one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelConfig {
    /// Capacity in bytes.
    pub bytes: usize,
    /// Associativity.
    pub ways: usize,
}

/// Geometry for the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache geometry.
    pub l1: LevelConfig,
    /// L2 geometry.
    pub l2: LevelConfig,
    /// LLC geometry.
    pub l3: LevelConfig,
}

impl HierarchyConfig {
    /// Table I configuration (per-core slice): 64 KB 8-way L1D, 1 MB 8-way
    /// L2, 8 MB 16-way L3, 64 B lines.
    pub fn gem5_table1() -> Self {
        HierarchyConfig {
            l1: LevelConfig {
                bytes: 64 << 10,
                ways: 8,
            },
            l2: LevelConfig {
                bytes: 1 << 20,
                ways: 8,
            },
            l3: LevelConfig {
                bytes: 8 << 20,
                ways: 16,
            },
        }
    }

    /// §V lifetime (Pin) configuration per thread: 32 KB L1, 1 MB L2, 2 MB
    /// LLC.
    pub fn pintool_lifetime() -> Self {
        HierarchyConfig {
            l1: LevelConfig {
                bytes: 32 << 10,
                ways: 8,
            },
            l2: LevelConfig {
                bytes: 1 << 20,
                ways: 8,
            },
            l3: LevelConfig {
                bytes: 2 << 20,
                ways: 16,
            },
        }
    }
}

/// What one access did at the memory boundary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HierarchyOutcome {
    /// The highest level that hit, or `None` if the access went to memory.
    pub hit_level: Option<Level>,
    /// Dirty LLC victims that must be written back to memory. Usually empty
    /// or a single line; cascaded victims can briefly produce more.
    pub writebacks: Vec<u64>,
}

impl HierarchyOutcome {
    /// `true` when the access missed every level and needs a DRAM read.
    pub fn is_llc_miss(&self) -> bool {
        self.hit_level.is_none()
    }
}

/// One core's private L1 and L2 caches: the filter in front of a
/// last-level cache that the caller owns.
///
/// [`PrivateCaches::access`] is the hierarchy's only filter. [`Hierarchy`]
/// runs it against its own LLC; the simulator's timing cores run it against
/// an LLC that several cores may share.
#[derive(Debug, Clone)]
pub struct PrivateCaches {
    l1: SetAssocCache,
    l2: SetAssocCache,
}

impl PrivateCaches {
    /// Builds the L1 and L2 of `config` (its `l3` is the caller's).
    ///
    /// # Panics
    ///
    /// Panics if either level's set count is not a power of two.
    pub fn new(config: &HierarchyConfig) -> Self {
        PrivateCaches {
            l1: SetAssocCache::with_capacity(config.l1.bytes, config.l1.ways),
            l2: SetAssocCache::with_capacity(config.l2.bytes, config.l2.ways),
        }
    }

    /// Filters one *line* access through L1, L2 and `llc`: lookups top-down,
    /// fills bottom-up, dirty victims cascading one level at a time, and
    /// only dirty LLC evictions surfacing as memory writebacks.
    pub fn access(
        &mut self,
        line_addr: u64,
        is_write: bool,
        llc: &mut SetAssocCache,
    ) -> HierarchyOutcome {
        let mut out = HierarchyOutcome::default();

        if self.l1.lookup(line_addr, is_write) {
            out.hit_level = Some(Level::L1);
            return out;
        }
        if self.l2.lookup(line_addr, false) {
            out.hit_level = Some(Level::L2);
        } else if llc.lookup(line_addr, false) {
            out.hit_level = Some(Level::L3);
        } else {
            // Full miss: fetch from memory and install in the LLC.
            if let Some(v) = llc.fill(line_addr, false).filter(|v| v.dirty) {
                out.writebacks.push(v.addr);
            }
        }

        // Fill into L2 unless it already hit there.
        if out.hit_level != Some(Level::L2) {
            self.fill_l2(line_addr, false, llc, &mut out.writebacks);
        }
        // Fill into L1, carrying the write's dirty bit; a dirty L1 victim
        // goes into L2.
        if let Some(v) = self.l1.fill(line_addr, is_write).filter(|v| v.dirty) {
            self.fill_l2(v.addr, true, llc, &mut out.writebacks);
        }
        out
    }

    /// Installs `addr` in L2. A dirty L2 victim goes into `llc`, and a dirty
    /// LLC victim of that becomes a memory writeback.
    fn fill_l2(&mut self, addr: u64, dirty: bool, llc: &mut SetAssocCache, wbs: &mut Vec<u64>) {
        let l2_victim = self.l2.fill(addr, dirty).filter(|v| v.dirty);
        if let Some(v) = l2_victim
            .and_then(|v| llc.fill(v.addr, true))
            .filter(|v| v.dirty)
        {
            wbs.push(v.addr);
        }
    }
}

/// The three-level hierarchy filter: [`PrivateCaches`] in front of an LLC
/// of its own.
///
/// Lines are filled into every level on the way up (mostly-inclusive), and
/// dirty victims trickle down level by level; only dirty LLC evictions reach
/// memory — the standard trace-filter approximation used by Pin-style cache
/// models.
///
/// # Examples
///
/// ```
/// use rmcc_cache::hierarchy::{Hierarchy, HierarchyConfig};
///
/// let mut h = Hierarchy::new(HierarchyConfig::pintool_lifetime());
/// let out = h.access_bytes(0x4000, false);
/// assert!(out.is_llc_miss()); // cold
/// assert!(!h.access_bytes(0x4000, false).is_llc_miss());
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    private: PrivateCaches,
    l3: SetAssocCache,
}

impl Hierarchy {
    /// Builds the hierarchy from `config`.
    ///
    /// # Panics
    ///
    /// Panics if any level's set count is not a power of two.
    pub fn new(config: HierarchyConfig) -> Self {
        Hierarchy {
            private: PrivateCaches::new(&config),
            l3: SetAssocCache::with_capacity(config.l3.bytes, config.l3.ways),
        }
    }

    /// Accesses a *byte* address, extracting the line address internally.
    pub fn access_bytes(&mut self, byte_addr: u64, is_write: bool) -> HierarchyOutcome {
        self.access(byte_addr >> LINE_SHIFT, is_write)
    }

    /// Accesses a *line* address.
    pub fn access(&mut self, line_addr: u64, is_write: bool) -> HierarchyOutcome {
        self.private.access(line_addr, is_write, &mut self.l3)
    }

    /// Per-level statistics `(l1, l2, l3)`.
    pub fn stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        (
            self.private.l1.stats(),
            self.private.l2.stats(),
            self.l3.stats(),
        )
    }

    /// LLC statistics alone — the denominator of most figures in the paper.
    pub fn llc_stats(&self) -> CacheStats {
        self.l3.stats()
    }

    /// Resets statistics at every level, preserving contents (end of
    /// warm-up).
    pub fn reset_stats(&mut self) {
        self.private.l1.reset_stats();
        self.private.l2.reset_stats();
        self.l3.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Hierarchy {
        // 4-line L1, 16-line L2, 64-line L3 for fast eviction testing.
        Hierarchy::new(HierarchyConfig {
            l1: LevelConfig {
                bytes: 4 * 64,
                ways: 2,
            },
            l2: LevelConfig {
                bytes: 16 * 64,
                ways: 4,
            },
            l3: LevelConfig {
                bytes: 64 * 64,
                ways: 8,
            },
        })
    }

    #[test]
    fn cold_miss_then_l1_hit() {
        let mut h = tiny();
        assert!(h.access(100, false).is_llc_miss());
        assert_eq!(h.access(100, false).hit_level, Some(Level::L1));
    }

    #[test]
    fn l1_capacity_spill_hits_l2() {
        let mut h = tiny();
        // Fill far more than L1 can hold, all clean.
        for a in 0..8u64 {
            h.access(a, false);
        }
        // The earliest lines left L1 but should still be in L2.
        let out = h.access(0, false);
        assert!(matches!(out.hit_level, Some(Level::L2) | Some(Level::L3)));
    }

    #[test]
    fn dirty_line_eventually_writes_back_to_memory() {
        let mut h = tiny();
        h.access(0, true); // dirty
                           // Push enough conflicting lines through to evict line 0 from every
                           // level (same-set strides guarantee conflicts).
        let mut wrote_back = false;
        for a in 1..4096u64 {
            let out = h.access(a, false);
            if out.writebacks.contains(&0) {
                wrote_back = true;
                break;
            }
        }
        assert!(wrote_back, "dirty line 0 never reached memory");
    }

    #[test]
    fn clean_evictions_produce_no_writebacks() {
        let mut h = tiny();
        let mut total_wb = 0;
        for a in 0..4096u64 {
            total_wb += h.access(a, false).writebacks.len();
        }
        assert_eq!(total_wb, 0);
    }

    #[test]
    fn byte_addressing_shares_lines() {
        let mut h = Hierarchy::new(HierarchyConfig::pintool_lifetime());
        h.access_bytes(0x1000, false);
        assert_eq!(h.access_bytes(0x1030, false).hit_level, Some(Level::L1));
        assert!(h.access_bytes(0x1040, false).is_llc_miss());
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut h = tiny();
        for a in 0..32u64 {
            h.access(a, false);
        }
        let (l1, _l2, l3) = h.stats();
        assert_eq!(l1.accesses, 32);
        assert_eq!(l3.misses, 32);
        h.reset_stats();
        assert_eq!(h.llc_stats().accesses, 0);
    }

    #[test]
    fn repeated_writes_stay_in_l1() {
        let mut h = tiny();
        h.access(7, true);
        for _ in 0..100 {
            let out = h.access(7, true);
            assert_eq!(out.hit_level, Some(Level::L1));
            assert!(out.writebacks.is_empty());
        }
    }

    #[test]
    fn table1_and_lifetime_configs_construct() {
        let _ = Hierarchy::new(HierarchyConfig::gem5_table1());
        let _ = Hierarchy::new(HierarchyConfig::pintool_lifetime());
    }
}
