//! A tag-only set-associative cache model.
//!
//! Every cache in the reproduction — L1/L2/LLC, the memory controller's
//! counter cache, and the TLB — is an instance of [`SetAssocCache`]. The
//! model tracks tags, dirty bits, and LRU state but not data contents;
//! functional data lives in the simulator's backing store, which mirrors how
//! trace-driven cache models (the paper's Pin-based "lifetime" methodology)
//! work.

/// Line size in bytes (64 throughout the paper).
pub const LINE_BYTES: usize = 64;

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

/// Stamp of an invalid way. A valid way's stamp is `last_use << 1 | dirty`,
/// where `last_use` is the cache clock at its last touch; the clock ticks
/// before every stamp, so a valid stamp is at least 2.
const INVALID: u64 = 0;

/// A set-associative, write-back, write-allocate cache with LRU replacement.
///
/// Addresses given to [`SetAssocCache::access`] are *line* addresses (the
/// byte address divided by the line size); the cache itself is agnostic to
/// what a line holds, so the same type models data caches, counter caches,
/// and TLBs (where a "line" is a page number).
///
/// The state is two flat arrays indexed by slot (`set * ways + way`): the
/// tags and the stamps. Since an invalid way's stamp is 0 and valid stamps
/// order by last use, the first smallest stamp of a set is its replacement
/// victim (the first invalid way, else the LRU way), so one scan of a set
/// finds both a tag match and the victim a fill would take.
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
    /// Line address per slot; meaningful only where the stamp is valid.
    tags: Vec<u64>,
    /// `last_use << 1 | dirty` per slot, or [`INVALID`].
    stamps: Vec<u64>,
    ways: usize,
    set_mask: u64,
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
            tags: vec![0; total_lines],
            stamps: vec![INVALID; total_lines],
            ways,
            set_mask: (n_sets - 1) as u64,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Builds a cache of [`LINE_BYTES`] lines from a capacity in bytes.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SetAssocCache::new`].
    pub fn with_capacity(bytes: usize, ways: usize) -> Self {
        Self::new(bytes / LINE_BYTES, ways)
    }

    /// Number of ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    pub fn n_sets(&self) -> usize {
        self.tags.len() / self.ways
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> usize {
        self.tags.len()
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

    /// The first slot of `addr`'s set.
    fn set_base(&self, addr: u64) -> usize {
        (addr & self.set_mask) as usize * self.ways
    }

    /// One scan of `addr`'s set: `Ok` with the slot holding `addr` if it
    /// is resident, else `Err` with the replacement victim's slot, the
    /// set's first smallest stamp (its first invalid way, else its LRU way).
    fn scan(&self, addr: u64) -> Result<usize, usize> {
        let base = self.set_base(addr);
        let tags = &self.tags[base..base + self.ways];
        let stamps = &self.stamps[base..base + self.ways];
        let (mut victim, mut oldest) = (0, u64::MAX);
        for (way, (&tag, &stamp)) in tags.iter().zip(stamps).enumerate() {
            if tag == addr && stamp != INVALID {
                return Ok(base + way);
            }
            if stamp < oldest {
                (victim, oldest) = (way, stamp);
            }
        }
        Err(base + victim)
    }

    /// Advances the clock and returns the stamp of a line touched now.
    fn tick(&mut self, dirty: bool) -> u64 {
        self.clock += 1;
        self.clock << 1 | u64::from(dirty)
    }

    /// Refreshes the resident line in `slot`, ORing in `dirty`.
    fn refresh(&mut self, slot: usize, dirty: bool) {
        let stamp = self.tick(dirty);
        self.stamps[slot] = stamp | self.stamps[slot] & 1;
    }

    /// Puts `addr` into `slot`, reporting the valid line it displaces.
    fn replace(&mut self, slot: usize, addr: u64, dirty: bool) -> Option<Eviction> {
        let stamp = self.tick(dirty);
        let old = std::mem::replace(&mut self.stamps[slot], stamp);
        let old_tag = std::mem::replace(&mut self.tags[slot], addr);
        (old != INVALID).then_some(Eviction {
            addr: old_tag,
            dirty: old & 1 == 1,
        })
    }

    /// Looks up `addr` without changing any state (no LRU update, no fill,
    /// no stats).
    pub fn probe(&self, addr: u64) -> bool {
        self.scan(addr).is_ok()
    }

    /// Accesses `addr`: [`SetAssocCache::lookup_fill`] (write-allocate;
    /// `is_write` marks the line dirty), also counting a dirty victim in
    /// [`CacheStats::writebacks`].
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        let outcome = self.lookup_fill(addr, is_write);
        if let AccessOutcome::Miss { evicted: Some(e) } = outcome {
            self.stats.writebacks += u64::from(e.dirty);
        }
        outcome
    }

    /// Looks up `addr`, updating LRU/dirty state and statistics, but does
    /// **not** fill on a miss. Returns `true` on a hit.
    pub fn lookup(&mut self, addr: u64, is_write: bool) -> bool {
        self.counted_scan(addr, is_write).is_ok()
    }

    /// [`SetAssocCache::lookup`] and, on a miss, [`SetAssocCache::fill`]
    /// from one scan of the set, with the fill's victim in the
    /// [`AccessOutcome::Miss`]; `dirty` marks the line dirty either way.
    /// Multi-level hierarchies use it to pass victims between levels.
    pub fn lookup_fill(&mut self, addr: u64, dirty: bool) -> AccessOutcome {
        match self.counted_scan(addr, dirty) {
            Ok(()) => AccessOutcome::Hit,
            Err(slot) => AccessOutcome::Miss {
                evicted: self.replace(slot, addr, dirty),
            },
        }
    }

    /// [`SetAssocCache::scan`] counted as a lookup: a hit is refreshed,
    /// ORing in `dirty`; a miss returns its victim's slot untouched.
    fn counted_scan(&mut self, addr: u64, dirty: bool) -> Result<(), usize> {
        self.stats.accesses += 1;
        let slot = self.scan(addr).inspect_err(|_| self.stats.misses += 1)?;
        self.refresh(slot, dirty);
        self.stats.hits += 1;
        Ok(())
    }

    /// Invalidates `addr` if present, returning whether it was dirty.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let slot = self.scan(addr).ok()?;
        let old = std::mem::replace(&mut self.stamps[slot], INVALID);
        Some(old & 1 == 1)
    }

    /// Inserts `addr` without counting a normal access (used to model fills
    /// from lower levels or prefetches). Returns the victim, if any.
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<Eviction> {
        self.fill_slot(addr, dirty).1
    }

    /// The slot (`set * ways + way`) holding `addr` and whether the line is
    /// dirty, if it is resident, from one scan of its set. Like
    /// [`SetAssocCache::probe`], changes no state. A line keeps its slot
    /// from its fill until it is evicted or invalidated, so callers can key
    /// per-line data by slot in a `capacity_lines()`-entry array.
    pub fn find(&self, addr: u64) -> Option<(usize, bool)> {
        let slot = self.scan(addr).ok()?;
        Some((slot, self.stamps[slot] & 1 == 1))
    }

    /// Refreshes the LRU position of the line in `slot`, as a hit on it
    /// through [`SetAssocCache::lookup`] would, without another scan of its
    /// set. Counts no statistics and leaves the dirty bit alone. `slot`
    /// must come from a [`SetAssocCache::find`] made since the set last
    /// changed; a slot past the capacity, or an invalid one, is ignored.
    pub fn touch(&mut self, slot: usize) {
        let stamp = self.tick(false);
        if let Some(old) = self.stamps.get_mut(slot).filter(|s| **s != INVALID) {
            *old = stamp | *old & 1;
        }
    }

    /// [`SetAssocCache::fill`], also reporting the slot (`set * ways +
    /// way`) the line occupies afterwards: its own slot if it was already
    /// resident, else the invalid or LRU way the fill took over, found in
    /// the same scan.
    pub fn fill_slot(&mut self, addr: u64, dirty: bool) -> (usize, Option<Eviction>) {
        match self.scan(addr) {
            Ok(slot) => {
                self.refresh(slot, dirty);
                (slot, None)
            }
            Err(slot) => (slot, self.replace(slot, addr, dirty)),
        }
    }

    /// Iterates over all resident line addresses (diagnostics only).
    pub fn resident_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.tags
            .iter()
            .zip(&self.stamps)
            .filter(|&(_, &stamp)| stamp != INVALID)
            .map(|(&tag, _)| tag)
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

        // A hit refreshed through `find` + `touch` (one scan) orders
        // victims exactly as one through `lookup` does. One 4-way set;
        // twins refresh the same lines, then evict all four.
        let mut by_lookup = SetAssocCache::new(4, 4);
        let mut by_touch = SetAssocCache::new(4, 4);
        for c in [&mut by_lookup, &mut by_touch] {
            for addr in [1, 2, 3, 4] {
                c.fill(addr, addr == 3);
            }
        }
        for addr in [3, 1, 4, 3] {
            assert!(by_lookup.lookup(addr, false));
            let (slot, dirty) = by_touch.find(addr).expect("resident");
            assert_eq!(dirty, addr == 3);
            by_touch.touch(slot);
        }
        assert_eq!(by_touch.find(9), None);
        by_touch.touch(usize::MAX); // out of range: ignored
        let victims = |c: &mut SetAssocCache| -> Vec<Eviction> {
            (10..14).filter_map(|addr| c.fill(addr, false)).collect()
        };
        let order = victims(&mut by_lookup);
        assert_eq!(
            order.iter().map(|e| e.addr).collect::<Vec<_>>(),
            vec![2, 1, 4, 3]
        );
        assert!(order.iter().all(|e| e.dirty == (e.addr == 3)));
        assert_eq!(victims(&mut by_touch), order);
        // `touch` counts nothing; `lookup` counted four hits.
        assert_eq!(by_touch.stats(), CacheStats::default());
        assert_eq!(by_lookup.stats().hits, 4);
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
        assert_eq!(c.find(1), Some((0, false)));
        c.access(1, true); // hit + dirty
        assert_eq!(c.find(1), Some((0, true)));
        let out = c.access(2, false);
        assert!(matches!(out, AccessOutcome::Miss { evicted: Some(e) } if e.dirty));
        assert_eq!(c.find(1), None, "an evicted line is not resident");
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
        let c = SetAssocCache::with_capacity(128 * 1024, 32);
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
        assert_eq!(c.find(10), None);
        assert_eq!(c.fill_slot(10, false), (0, None));
        assert_eq!(c.fill_slot(20, false), (1, None));
        assert_eq!(c.fill_slot(11, false), (2, None));
        // LRU updates (hits, refills) leave a resident tag where it is.
        assert!(c.lookup(10, false));
        assert_eq!(c.access(10, true), AccessOutcome::Hit);
        assert_eq!(c.fill_slot(20, false), (1, None));
        assert_eq!(c.find(10).map(|(slot, _)| slot), Some(0));
        assert_eq!(c.find(20).map(|(slot, _)| slot), Some(1));
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
        assert_eq!(c.find(30).map(|(slot, _)| slot), Some(0));
        assert_eq!(c.find(10), None);
        // An invalidated way is the next fill's slot.
        c.invalidate(20);
        assert_eq!(c.fill_slot(40, false), (1, None));
        assert_eq!(c.find(11).map(|(slot, _)| slot), Some(2));
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

    /// The flat tag/stamp arrays behave exactly like one array of lines
    /// per set with an explicit valid bit, a dirty bit and a last-use time
    /// (the straightforward model): same hits, victims, slots, dirty bits,
    /// statistics and resident order over a long random mix of operations,
    /// `lookup_fill` among them.
    #[test]
    fn flat_arrays_match_per_set_line_model() {
        #[derive(Clone, Copy, Default)]
        struct Line {
            tag: u64,
            valid: bool,
            dirty: bool,
            last_use: u64,
        }
        struct Model {
            sets: Vec<Vec<Line>>,
            clock: u64,
            stats: CacheStats,
        }
        impl Model {
            fn set(&self, addr: u64) -> usize {
                (addr % self.sets.len() as u64) as usize
            }
            fn way(&self, addr: u64) -> Option<usize> {
                let set = &self.sets[self.set(addr)];
                set.iter().position(|l| l.valid && l.tag == addr)
            }
            fn slot(&self, addr: u64, way: usize) -> usize {
                self.set(addr) * self.sets[0].len() + way
            }
            /// Hit or fill; `count` makes it an `access`, else a `fill`.
            fn insert(
                &mut self,
                addr: u64,
                dirty: bool,
                count: bool,
            ) -> (usize, bool, Option<Eviction>) {
                self.clock += 1;
                let (s, clock) = (self.set(addr), self.clock);
                if count {
                    self.stats.accesses += 1;
                }
                if let Some(w) = self.way(addr) {
                    let line = &mut self.sets[s][w];
                    line.last_use = clock;
                    line.dirty |= dirty;
                    self.stats.hits += u64::from(count);
                    return (self.slot(addr, w), true, None);
                }
                self.stats.misses += u64::from(count);
                let set = &self.sets[s];
                let w = set.iter().position(|l| !l.valid).unwrap_or_else(|| {
                    let lru = set.iter().enumerate().min_by_key(|(_, l)| l.last_use);
                    lru.map(|(i, _)| i).unwrap()
                });
                let old = set[w];
                let evicted = old.valid.then_some(Eviction {
                    addr: old.tag,
                    dirty: old.dirty,
                });
                if count && old.valid && old.dirty {
                    self.stats.writebacks += 1;
                }
                self.sets[s][w] = Line {
                    tag: addr,
                    valid: true,
                    dirty,
                    last_use: clock,
                };
                (self.slot(addr, w), false, evicted)
            }
        }

        let (lines, ways) = (64, 4);
        let mut c = SetAssocCache::new(lines, ways);
        let mut m = Model {
            sets: vec![vec![Line::default(); ways]; lines / ways],
            clock: 0,
            stats: CacheStats::default(),
        };
        let mut z = 0x9e37_79b9_u64;
        let mut next = move || {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            z
        };
        for step in 0..20_000 {
            let (op, addr, dirty) = (next() % 9, next() % 160, next() % 3 == 0);
            let ctx = format!("step {step}: op {op} addr {addr}");
            let set = m.set(addr);
            match op {
                0 | 1 => {
                    let (_, hit, evicted) = m.insert(addr, dirty, true);
                    let want = if hit {
                        AccessOutcome::Hit
                    } else {
                        AccessOutcome::Miss { evicted }
                    };
                    assert_eq!(c.access(addr, dirty), want, "{ctx}");
                }
                2 => {
                    m.clock += 1;
                    m.stats.accesses += 1;
                    let hit = match m.way(addr) {
                        Some(w) => {
                            let line = &mut m.sets[set][w];
                            line.last_use = m.clock;
                            line.dirty |= dirty;
                            m.stats.hits += 1;
                            true
                        }
                        None => {
                            m.stats.misses += 1;
                            false
                        }
                    };
                    assert_eq!(c.lookup(addr, dirty), hit, "{ctx}");
                }
                3 | 4 => {
                    let (slot, _, evicted) = m.insert(addr, dirty, false);
                    assert_eq!(c.fill_slot(addr, dirty), (slot, evicted), "{ctx}");
                }
                8 => {
                    // `lookup` then, on a miss, `fill`: an `access` that
                    // counts no write-back.
                    let (_, hit, evicted) = m.insert(addr, dirty, true);
                    m.stats.writebacks -= u64::from(evicted.is_some_and(|e| e.dirty));
                    let want = if hit {
                        AccessOutcome::Hit
                    } else {
                        AccessOutcome::Miss { evicted }
                    };
                    assert_eq!(c.lookup_fill(addr, dirty), want, "{ctx}");
                }
                5 => {
                    let was = m.way(addr).map(|w| {
                        let line = &mut m.sets[set][w];
                        line.valid = false;
                        line.dirty
                    });
                    assert_eq!(c.invalidate(addr), was, "{ctx}");
                }
                _ => {
                    let found = m.way(addr).map(|w| (m.slot(addr, w), m.sets[set][w].dirty));
                    assert_eq!(c.find(addr), found, "{ctx}");
                    assert_eq!(c.probe(addr), found.is_some(), "{ctx}");
                    if let Some((slot, _)) = found {
                        m.clock += 1;
                        m.sets[slot / ways][slot % ways].last_use = m.clock;
                        c.touch(slot);
                    }
                }
            }
            assert_eq!(c.stats(), m.stats, "{ctx}");
        }
        let resident: Vec<u64> = m
            .sets
            .iter()
            .flatten()
            .filter(|l| l.valid)
            .map(|l| l.tag)
            .collect();
        assert_eq!(c.resident_lines().collect::<Vec<_>>(), resident);
    }
}
