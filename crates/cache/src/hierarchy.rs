//! A three-level data-cache hierarchy that filters a core's access stream
//! down to the memory-side traffic (LLC misses and dirty writebacks) that the
//! secure-memory machinery actually sees.
//!
//! The paper's two methodologies both start from this filter: the Pin-based
//! lifetime studies model "1MB L2 cache, 2MB LLC and 32KB counter cache per
//! core" (§V) and the gem5 runs use 32/64 KB L1, 1 MB L2, 8 MB L3 (Table I).

use crate::set_assoc::{AccessOutcome, CacheStats, Eviction, SetAssocCache, LINE_BYTES};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HierarchyOutcome {
    /// The highest level that hit, or `None` if the access went to memory.
    pub hit_level: Option<Level>,
    /// The dirty LLC victims are `writebacks[..n_writebacks]`: at most
    /// three (the line's LLC fill, its L2 victim's, a dirty L1 victim's).
    writebacks: [u64; 3],
    n_writebacks: usize,
}

impl HierarchyOutcome {
    /// `true` when the access missed every level and needs a DRAM read.
    pub fn is_llc_miss(&self) -> bool {
        self.hit_level.is_none()
    }

    /// Dirty LLC victims that must be written back to memory, in eviction
    /// order. Usually empty or a single line.
    pub fn writebacks(&self) -> &[u64] {
        &self.writebacks[..self.n_writebacks]
    }

    /// Records the LLC victim `v` as a writeback if it is dirty.
    fn write_back(&mut self, v: Option<Eviction>) {
        if let Some(v) = v.filter(|v| v.dirty) {
            self.writebacks[self.n_writebacks] = v.addr;
            self.n_writebacks += 1;
        }
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

    /// Filters one *line* access through L1, L2 and `llc`: one scan per
    /// level looks the line up top-down and fills it where it missed, dirty
    /// victims cascade one level at a time, and only dirty LLC evictions
    /// surface as memory writebacks.
    pub fn access(
        &mut self,
        line_addr: u64,
        is_write: bool,
        llc: &mut SetAssocCache,
    ) -> HierarchyOutcome {
        let mut out = HierarchyOutcome::default();
        // L1 takes the line carrying the write's dirty bit.
        let AccessOutcome::Miss { evicted: l1_victim } = self.l1.lookup_fill(line_addr, is_write)
        else {
            out.hit_level = Some(Level::L1);
            return out;
        };
        if let AccessOutcome::Miss { evicted } = self.l2.lookup_fill(line_addr, false) {
            match llc.lookup_fill(line_addr, false) {
                AccessOutcome::Hit => out.hit_level = Some(Level::L3),
                // Full miss: fetched from memory and installed in the LLC.
                AccessOutcome::Miss { evicted } => out.write_back(evicted),
            }
            spill(evicted, llc, &mut out);
        } else {
            out.hit_level = Some(Level::L2);
        }
        // A dirty L1 victim goes into L2.
        if let Some(v) = l1_victim.filter(|v| v.dirty) {
            spill(self.l2.fill(v.addr, true), llc, &mut out);
        }
        out
    }
}

/// Puts the L2 victim `v` into `llc` if it is dirty; a dirty LLC victim of
/// that becomes a memory writeback.
fn spill(v: Option<Eviction>, llc: &mut SetAssocCache, out: &mut HierarchyOutcome) {
    out.write_back(v.filter(|v| v.dirty).and_then(|v| llc.fill(v.addr, true)));
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
            if out.writebacks().contains(&0) {
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
            total_wb += h.access(a, false).writebacks().len();
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
            assert!(out.writebacks().is_empty());
        }
    }

    /// `PrivateCaches::access` as it was before `lookup_fill`: lookups
    /// top-down, then fills bottom-up, so every missed set was scanned once
    /// by the lookup and again by the fill.
    fn lookup_then_fill(
        p: &mut PrivateCaches,
        line_addr: u64,
        is_write: bool,
        llc: &mut SetAssocCache,
    ) -> (Option<Level>, Vec<u64>) {
        fn fill_l2(
            p: &mut PrivateCaches,
            addr: u64,
            dirty: bool,
            llc: &mut SetAssocCache,
            wbs: &mut Vec<u64>,
        ) {
            let l2_victim = p.l2.fill(addr, dirty).filter(|v| v.dirty);
            if let Some(v) = l2_victim
                .and_then(|v| llc.fill(v.addr, true))
                .filter(|v| v.dirty)
            {
                wbs.push(v.addr);
            }
        }
        let (mut hit_level, mut wbs) = (None, Vec::new());
        if p.l1.lookup(line_addr, is_write) {
            return (Some(Level::L1), wbs);
        }
        if p.l2.lookup(line_addr, false) {
            hit_level = Some(Level::L2);
        } else if llc.lookup(line_addr, false) {
            hit_level = Some(Level::L3);
        } else if let Some(v) = llc.fill(line_addr, false).filter(|v| v.dirty) {
            wbs.push(v.addr);
        }
        if hit_level != Some(Level::L2) {
            fill_l2(p, line_addr, false, llc, &mut wbs);
        }
        if let Some(v) = p.l1.fill(line_addr, is_write).filter(|v| v.dirty) {
            fill_l2(p, v.addr, true, llc, &mut wbs);
        }
        (hit_level, wbs)
    }

    /// One scan per level filters exactly as the lookup-then-fill sequence
    /// did: two cores sharing an LLC, random lines with a third of them
    /// writes, at a geometry small enough (an L2 twice the L1) that dirty
    /// L1 victims miss L2 and one access can write back three lines. Each
    /// access must give the same hit level and writebacks in order, and
    /// every level the same statistics and resident lines.
    #[test]
    fn one_scan_per_level_matches_lookup_then_fill() {
        let level = |lines: usize, ways| LevelConfig {
            bytes: lines * 64,
            ways,
        };
        let cfg = HierarchyConfig {
            l1: level(4, 2),
            l2: level(8, 2),
            l3: level(8, 2),
        };
        let mut cores = [PrivateCaches::new(&cfg), PrivateCaches::new(&cfg)];
        let mut oracles = cores.clone();
        let mut llc = SetAssocCache::with_capacity(cfg.l3.bytes, cfg.l3.ways);
        let mut oracle_llc = llc.clone();
        let mut z = 0x2545_f491_u64;
        let mut next = move || {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            z
        };
        let (mut levels, mut most_writebacks) = (std::collections::BTreeSet::new(), 0);
        for step in 0..50_000 {
            // A few hot lines keep hitting L1 while they age out of L2.
            let span = if next() % 4 == 0 { 96 } else { 6 };
            let (core, line, is_write) = (next() as usize % 2, next() % span, next() % 3 == 0);
            let out = cores[core].access(line, is_write, &mut llc);
            let (hit_level, wbs) =
                lookup_then_fill(&mut oracles[core], line, is_write, &mut oracle_llc);
            assert_eq!(out.hit_level, hit_level, "step {step}");
            assert_eq!(out.writebacks(), &wbs[..], "step {step}");
            levels.insert(hit_level);
            most_writebacks = most_writebacks.max(wbs.len());
        }
        for (c, o) in cores.iter().zip(&oracles) {
            for (a, b) in [(&c.l1, &o.l1), (&c.l2, &o.l2)] {
                assert_eq!(a.stats(), b.stats());
                assert_eq!(
                    a.resident_lines().collect::<Vec<_>>(),
                    b.resident_lines().collect::<Vec<_>>()
                );
            }
        }
        assert_eq!(llc.stats(), oracle_llc.stats());
        assert_eq!(
            llc.resident_lines().collect::<Vec<_>>(),
            oracle_llc.resident_lines().collect::<Vec<_>>()
        );
        // The run reached every hit level and the deepest cascade.
        assert_eq!(levels.len(), 4);
        assert_eq!(most_writebacks, 3, "deepest cascade");
    }

    #[test]
    fn table1_and_lifetime_configs_construct() {
        let _ = Hierarchy::new(HierarchyConfig::gem5_table1());
        let _ = Hierarchy::new(HierarchyConfig::pintool_lifetime());
    }
}
