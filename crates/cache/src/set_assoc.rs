//! A tag-only set-associative cache model.
//!
//! Every cache in the reproduction — L1/L2/LLC, the memory controller's
//! counter cache, and the TLB — is an instance of [`SetAssocCache`]. The
//! model tracks tags, dirty bits, and LRU state but not data contents;
//! functional data lives in the simulator's backing store, which mirrors how
//! trace-driven cache models (the paper's Pin-based "lifetime" methodology)
//! work.

/// Why an access missed or what it displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The line (block) address that was evicted.
    pub addr: u64,
    /// Whether the victim was dirty and must be written back.
    pub dirty: bool,
}

/// The outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent; it has been filled, possibly evicting a victim.
    Miss {
        /// The victim displaced by the fill, if the set was full.
        evicted: Option<Eviction>,
    },
}

impl AccessOutcome {
    /// `true` for [`AccessOutcome::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// Running counters for a cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Dirty victims produced by fills.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; zero when no accesses were made.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Hit ratio in `[0, 1]`; zero when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotonic timestamp of the last touch, for LRU.
    last_use: u64,
}

const INVALID: Line = Line {
    tag: 0,
    valid: false,
    dirty: false,
    last_use: 0,
};

/// A set-associative, write-back, write-allocate cache with LRU replacement.
///
/// Addresses given to [`SetAssocCache::access`] are *line* addresses (the
/// byte address divided by the line size); the cache itself is agnostic to
/// what a line holds, so the same type models data caches, counter caches,
/// and TLBs (where a "line" is a page number).
///
/// # Examples
///
/// ```
/// use rmcc_cache::set_assoc::SetAssocCache;
///
/// // 32 KiB counter cache, 64 B lines, 8-way (the paper's Pin config).
/// let mut cc = SetAssocCache::new(32 * 1024 / 64, 8);
/// assert!(!cc.access(0x10, false).is_hit()); // cold miss
/// assert!(cc.access(0x10, false).is_hit()); // now resident
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: Vec<Vec<Line>>,
    ways: usize,
    set_mask: u64,
    set_shift: u32,
    clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates a cache holding `total_lines` lines at associativity `ways`.
    ///
    /// The number of sets (`total_lines / ways`) must be a power of two, as
    /// in real indexed caches.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero, `total_lines` is not a multiple of `ways`,
    /// or the set count is not a power of two.
    pub fn new(total_lines: usize, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be non-zero");
        assert!(
            total_lines.is_multiple_of(ways),
            "total lines {total_lines} not divisible by ways {ways}"
        );
        let n_sets = total_lines / ways;
        assert!(
            n_sets.is_power_of_two(),
            "set count {n_sets} must be a power of two"
        );
        SetAssocCache {
            sets: vec![vec![INVALID; ways]; n_sets],
            ways,
            set_mask: (n_sets - 1) as u64,
            set_shift: 0,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Builds a cache from a capacity in bytes and a line size in bytes.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SetAssocCache::new`].
    pub fn with_capacity(bytes: usize, line_bytes: usize, ways: usize) -> Self {
        Self::new(bytes / line_bytes, ways)
    }

    /// Number of ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    pub fn n_sets(&self) -> usize {
        self.sets.len()
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> usize {
        self.sets.len() * self.ways
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the statistics without disturbing cache contents (used at the
    /// end of warm-up windows).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.set_shift) & self.set_mask) as usize
    }

    /// Looks up `addr` without changing any state (no LRU update, no fill,
    /// no stats).
    pub fn probe(&self, addr: u64) -> bool {
        let set = &self.sets[self.set_index(addr)];
        set.iter().any(|l| l.valid && l.tag == addr)
    }

    /// Accesses `addr`; on a miss the line is filled (write-allocate) and the
    /// LRU victim, if any, is reported. `is_write` marks the line dirty.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        self.clock += 1;
        self.stats.accesses += 1;
        let clock = self.clock;
        let idx = self.set_index(addr);
        let set = &mut self.sets[idx];

        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == addr) {
            line.last_use = clock;
            line.dirty |= is_write;
            self.stats.hits += 1;
            return AccessOutcome::Hit;
        }

        self.stats.misses += 1;
        // Prefer an invalid way; otherwise evict the LRU line.
        let victim_idx = set.iter().position(|l| !l.valid).unwrap_or_else(|| {
            set.iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_use)
                .map(|(i, _)| i)
                .expect("set has at least one way")
        });
        let victim = set[victim_idx];
        let evicted = if victim.valid {
            if victim.dirty {
                self.stats.writebacks += 1;
            }
            Some(Eviction {
                addr: victim.tag,
                dirty: victim.dirty,
            })
        } else {
            None
        };
        set[victim_idx] = Line {
            tag: addr,
            valid: true,
            dirty: is_write,
            last_use: clock,
        };
        AccessOutcome::Miss { evicted }
    }

    /// Looks up `addr`, updating LRU/dirty state and statistics, but does
    /// **not** fill on a miss. Returns `true` on a hit.
    ///
    /// Multi-level hierarchies use `lookup` + [`SetAssocCache::fill`] so that
    /// victims can be propagated between levels explicitly.
    pub fn lookup(&mut self, addr: u64, is_write: bool) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let clock = self.clock;
        let idx = self.set_index(addr);
        let set = &mut self.sets[idx];
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == addr) {
            line.last_use = clock;
            line.dirty |= is_write;
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// Invalidates `addr` if present, returning whether it was dirty.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let idx = self.set_index(addr);
        let set = &mut self.sets[idx];
        for line in set.iter_mut() {
            if line.valid && line.tag == addr {
                line.valid = false;
                return Some(line.dirty);
            }
        }
        None
    }

    /// Inserts `addr` without counting a normal access (used to model fills
    /// from lower levels or prefetches). Returns the victim, if any.
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<Eviction> {
        self.fill_slot(addr, dirty).1
    }

    /// The slot (`set * ways + way`) holding `addr`, if resident. Like
    /// [`SetAssocCache::probe`], changes no state. A line keeps its slot
    /// from its fill until it is evicted or invalidated, so callers can key
    /// per-line data by slot in a `capacity_lines()`-entry array.
    pub fn slot_of(&self, addr: u64) -> Option<usize> {
        let idx = self.set_index(addr);
        let way = self.sets[idx]
            .iter()
            .position(|l| l.valid && l.tag == addr)?;
        Some(idx * self.ways + way)
    }

    /// [`SetAssocCache::fill`], also reporting the slot (`set * ways +
    /// way`) the line occupies afterwards: its own slot if it was already
    /// resident, else the invalid or LRU way the fill took over.
    pub fn fill_slot(&mut self, addr: u64, dirty: bool) -> (usize, Option<Eviction>) {
        self.clock += 1;
        let clock = self.clock;
        let idx = self.set_index(addr);
        let base = idx * self.ways;
        let set = &mut self.sets[idx];
        if let Some((way, line)) = set
            .iter_mut()
            .enumerate()
            .find(|(_, l)| l.valid && l.tag == addr)
        {
            line.last_use = clock;
            line.dirty |= dirty;
            return (base + way, None);
        }
        let victim_idx = set.iter().position(|l| !l.valid).unwrap_or_else(|| {
            set.iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_use)
                .map(|(i, _)| i)
                .expect("set has at least one way")
        });
        let victim = set[victim_idx];
        let evicted = if victim.valid {
            Some(Eviction {
                addr: victim.tag,
                dirty: victim.dirty,
            })
        } else {
            None
        };
        set[victim_idx] = Line {
            tag: addr,
            valid: true,
            dirty,
            last_use: clock,
        };
        (base + victim_idx, evicted)
    }

    /// Iterates over all resident line addresses (diagnostics only).
    pub fn resident_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.sets
            .iter()
            .flatten()
            .filter(|l| l.valid)
            .map(|l| l.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = SetAssocCache::new(64, 4);
        assert!(!c.access(1, false).is_hit());
        assert!(c.access(1, false).is_hit());
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 1 set, 2 ways: addresses map to the same set when n_sets == 1.
        let mut c = SetAssocCache::new(2, 2);
        c.access(10, false);
        c.access(20, false);
        c.access(10, false); // refresh 10; 20 is now LRU
        let out = c.access(30, false);
        match out {
            AccessOutcome::Miss { evicted: Some(e) } => assert_eq!(e.addr, 20),
            other => panic!("expected eviction of 20, got {other:?}"),
        }
        assert!(c.probe(10));
        assert!(!c.probe(20));
        assert!(c.probe(30));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = SetAssocCache::new(1, 1);
        c.access(1, true); // dirty
        let out = c.access(2, false);
        match out {
            AccessOutcome::Miss { evicted: Some(e) } => {
                assert!(e.dirty);
                assert_eq!(e.addr, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = SetAssocCache::new(1, 1);
        c.access(1, false);
        c.access(1, true); // hit + dirty
        let out = c.access(2, false);
        assert!(matches!(out, AccessOutcome::Miss { evicted: Some(e) } if e.dirty));
    }

    #[test]
    fn addresses_map_to_distinct_sets() {
        let mut c = SetAssocCache::new(8, 1); // 8 sets, direct-mapped
        for a in 0..8u64 {
            c.access(a, false);
        }
        for a in 0..8u64 {
            assert!(c.probe(a), "address {a} should be resident");
        }
    }

    #[test]
    fn conflict_misses_in_direct_mapped() {
        let mut c = SetAssocCache::new(8, 1);
        c.access(0, false);
        c.access(8, false); // same set (8 sets, stride 8)
        assert!(!c.probe(0));
        assert!(c.probe(8));
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = SetAssocCache::new(4, 4);
        c.access(5, true);
        assert_eq!(c.invalidate(5), Some(true));
        assert_eq!(c.invalidate(5), None);
        assert!(!c.probe(5));
    }

    #[test]
    fn fill_does_not_count_access() {
        let mut c = SetAssocCache::new(4, 4);
        c.fill(9, false);
        assert_eq!(c.stats().accesses, 0);
        assert!(c.probe(9));
    }

    #[test]
    fn probe_has_no_side_effects() {
        let mut c = SetAssocCache::new(2, 2);
        c.access(1, false);
        c.access(2, false);
        // Probing 1 must not refresh its LRU position.
        assert!(c.probe(1));
        c.access(3, false); // evicts LRU = 1
        assert!(!c.probe(1));
    }

    #[test]
    fn stats_rates() {
        let mut c = SetAssocCache::new(4, 4);
        c.access(1, false);
        c.access(1, false);
        c.access(2, false);
        let s = c.stats();
        assert!((s.miss_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = SetAssocCache::new(4, 4);
        c.access(1, false);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.probe(1));
    }

    #[test]
    fn capacity_constructor() {
        let c = SetAssocCache::with_capacity(128 * 1024, 64, 32);
        assert_eq!(c.capacity_lines(), 2048);
        assert_eq!(c.ways(), 32);
        assert_eq!(c.n_sets(), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        let _ = SetAssocCache::new(12, 2); // 6 sets
    }

    #[test]
    fn resident_tag_keeps_its_slot_and_fills_report_the_slot_reused() {
        // 2 sets × 2 ways; even addresses share set 0 (slots 0 and 1).
        let mut c = SetAssocCache::new(4, 2);
        assert_eq!(c.slot_of(10), None);
        assert_eq!(c.fill_slot(10, false), (0, None));
        assert_eq!(c.fill_slot(20, false), (1, None));
        assert_eq!(c.fill_slot(11, false), (2, None));
        // LRU updates (hits, refills) leave a resident tag where it is.
        assert!(c.lookup(10, false));
        assert_eq!(c.access(10, true), AccessOutcome::Hit);
        assert_eq!(c.fill_slot(20, false), (1, None));
        assert_eq!(c.slot_of(10), Some(0));
        assert_eq!(c.slot_of(20), Some(1));
        // 10 is now LRU in set 0: a new tag takes over its slot.
        let (slot, evicted) = c.fill_slot(30, false);
        assert_eq!(slot, 0);
        assert_eq!(
            evicted,
            Some(Eviction {
                addr: 10,
                dirty: true
            })
        );
        assert_eq!(c.slot_of(30), Some(0));
        assert_eq!(c.slot_of(10), None);
        // An invalidated way is the next fill's slot.
        c.invalidate(20);
        assert_eq!(c.fill_slot(40, false), (1, None));
        assert_eq!(c.slot_of(11), Some(2));
    }

    #[test]
    fn resident_lines_enumerates() {
        let mut c = SetAssocCache::new(4, 2);
        c.access(1, false);
        c.access(2, false);
        let mut lines: Vec<u64> = c.resident_lines().collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![1, 2]);
    }
}
