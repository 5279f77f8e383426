//! The memoization table (Figure 9): Memoized Counter Value Groups, the
//! shadow ring of recently evicted groups, and the MRU single-value entries
//! harvested from evicted groups.
//!
//! The table memoizes *counter-only AES results* keyed by counter **value**
//! (not counter block), which is what lets 128 entries cover millions of
//! data blocks. Entries are organized as groups of consecutive values
//! (default 16 groups × 8 values) so that memoization-aware updates usually
//! increment counters by exactly one (§IV-C2).

use std::collections::{BTreeSet, VecDeque};

/// Memoized values per table: 16 groups × 8 values in the paper (Table I);
/// §VI's group-size sweep keeps this total fixed.
pub const TABLE_ENTRIES: u64 = 128;

/// Most-recently-used individual values from evicted groups whose AES
/// results stay memoized (§IV-C4; paper: 16).
pub const N_MRU_VALUES: usize = 16;

/// Table geometry: [`TABLE_ENTRIES`] values split into groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableConfig {
    /// Consecutive counter values per group (paper: 8; §VI also evaluates 4
    /// and 16 at constant total entries).
    pub group_size: u64,
}

impl TableConfig {
    /// The paper's configuration: 128 entries as 16 groups of 8.
    pub fn paper() -> Self {
        TableConfig { group_size: 8 }
    }

    /// Same total entry count with a different group size (Figures 21/22).
    ///
    /// # Panics
    ///
    /// Panics unless `group_size` divides 128.
    pub fn with_group_size(group_size: u64) -> Self {
        assert!(
            group_size > 0 && TABLE_ENTRIES.is_multiple_of(group_size),
            "group size must divide 128"
        );
        TableConfig { group_size }
    }

    /// Live Memoized Counter Value Groups (paper: 16).
    #[allow(clippy::cast_possible_truncation)] // quotient of 128 fits any usize
    pub fn n_groups(&self) -> usize {
        (TABLE_ENTRIES / self.group_size) as usize
    }

    /// Recently evicted groups whose use counters are still tracked
    /// (shadow tags): as many as there are live groups (paper: 16).
    pub fn n_evicted(&self) -> usize {
        self.n_groups()
    }

    /// Total memoized values across live groups.
    pub fn total_entries(&self) -> u64 {
        self.n_groups() as u64 * self.group_size
    }
}

/// One Memoized Counter Value Group: `start .. start + group_size`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Group {
    /// First counter value in the group.
    pub start: u64,
    /// Times a value in this group was used to decrypt/verify a request.
    pub use_count: u64,
}

/// How a lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LookupResult {
    /// The value lies in a live Memoized Counter Value Group.
    GroupHit,
    /// The value is one of the MRU single values from evicted groups.
    MruHit,
    /// Not memoized; the AES must be computed. If the value fell inside a
    /// recently evicted group, it has now been promoted into the MRU list
    /// so immediate reuse will hit.
    Miss,
}

impl LookupResult {
    /// `true` unless the lookup missed.
    pub fn is_hit(self) -> bool {
        !matches!(self, LookupResult::Miss)
    }
}

/// Hit/miss counters for one table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Lookups that hit a live group.
    pub group_hits: u64,
    /// Lookups that hit an MRU single value.
    pub mru_hits: u64,
    /// Lookups that missed entirely.
    pub misses: u64,
    /// Groups inserted over the table's lifetime.
    pub insertions: u64,
    /// Groups evicted from the live set into the shadow ring (LFU victims
    /// and end-of-epoch demotions).
    pub evictions: u64,
    /// Shadow-ring groups rehabilitated into the live set at an epoch
    /// boundary because their shadow use counters stayed hot (§IV-C3).
    pub shadow_promotions: u64,
    /// Values from evicted groups harvested into the MRU single-value store
    /// after a miss recomputed their AES result (§IV-C4).
    pub mru_harvests: u64,
    /// Lookups that *would* have hit but found a corrupted entry and fell
    /// back to the full AES path instead (fail-safe memoization). Counted
    /// inside `misses` as well, since the request pays the miss cost.
    pub fallbacks: u64,
}

impl TableStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.group_hits + self.mru_hits + self.misses
    }

    /// Field-wise sum of two tallies — how per-shard tables fold into a
    /// service-wide aggregate. Commutative and associative, so any fold
    /// order gives the same totals; the shard aggregator still folds in
    /// shard-index order by convention.
    #[must_use]
    pub fn merged(self, other: TableStats) -> TableStats {
        TableStats {
            group_hits: self.group_hits.saturating_add(other.group_hits),
            mru_hits: self.mru_hits.saturating_add(other.mru_hits),
            misses: self.misses.saturating_add(other.misses),
            insertions: self.insertions.saturating_add(other.insertions),
            evictions: self.evictions.saturating_add(other.evictions),
            shadow_promotions: self
                .shadow_promotions
                .saturating_add(other.shadow_promotions),
            mru_harvests: self.mru_harvests.saturating_add(other.mru_harvests),
            fallbacks: self.fallbacks.saturating_add(other.fallbacks),
        }
    }

    /// Overall hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let n = self.lookups();
        if n == 0 {
            0.0
        } else {
            (self.group_hits + self.mru_hits) as f64 / n as f64
        }
    }
}

/// The memoization table for one counter level.
///
/// # Examples
///
/// ```
/// use rmcc_core::table::{LookupResult, MemoizationTable, TableConfig};
///
/// let mut t = MemoizationTable::new(TableConfig::paper());
/// t.insert_group(1000);
/// assert_eq!(t.lookup(1003), LookupResult::GroupHit);
/// assert_eq!(t.lookup(1008), LookupResult::Miss); // past the group's end
/// assert_eq!(t.nearest_memoized_above(1001), Some(1002));
/// ```
#[derive(Debug, Clone)]
pub struct MemoizationTable {
    cfg: TableConfig,
    /// Live groups, unordered.
    groups: Vec<Group>,
    /// Max-Counter-in-Table, a register (§IV-C3): the largest value across
    /// `groups`, refreshed wherever the live set changes.
    max_in_table: Option<u64>,
    /// Shadow ring: most recently evicted groups, newest at the back.
    evicted: VecDeque<Group>,
    /// MRU single values (front = most recent).
    mru_values: VecDeque<u64>,
    /// Values whose memoized AES results are known to be corrupted (fault
    /// injection / detected SRAM upsets). A poisoned value must never be
    /// served as a hit: the next lookup falls back to the full AES path,
    /// recomputes, and thereby heals the entry.
    poisoned: BTreeSet<u64>,
    stats: TableStats,
}

impl MemoizationTable {
    /// An empty table; groups arrive via [`MemoizationTable::insert_group`]
    /// or [`MemoizationTable::seed_groups`].
    pub fn new(cfg: TableConfig) -> Self {
        MemoizationTable {
            cfg,
            groups: Vec::with_capacity(cfg.n_groups()),
            max_in_table: None,
            evicted: VecDeque::with_capacity(cfg.n_evicted()),
            mru_values: VecDeque::with_capacity(N_MRU_VALUES),
            poisoned: BTreeSet::new(),
            stats: TableStats::default(),
        }
    }

    /// The geometry.
    pub fn config(&self) -> TableConfig {
        self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// Live groups (diagnostics).
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// Max-Counter-in-Table: the largest memoized value across live groups,
    /// or `None` while the table is empty.
    #[inline]
    pub fn max_counter_in_table(&self) -> Option<u64> {
        self.max_in_table
    }

    /// Recomputes Max-Counter-in-Table after the live set changed.
    fn refresh_max_in_table(&mut self) {
        self.max_in_table = self
            .groups
            .iter()
            .map(|g| g.start + self.cfg.group_size - 1)
            .max();
    }

    /// Whether `value` lies inside a live group.
    pub fn in_live_group(&self, value: u64) -> bool {
        self.groups
            .iter()
            .any(|g| value >= g.start && value < g.start + self.cfg.group_size)
    }

    /// Marks `value`'s memoized AES result as corrupted (a fault-injection
    /// hook modeling an SRAM upset in the table). Returns `true` if the
    /// value was actually memoized — i.e. the corruption hit live state and
    /// the fail-safe path will be exercised — and `false` if there was
    /// nothing to corrupt.
    pub fn corrupt_entry(&mut self, value: u64) -> bool {
        if self.probe(value) {
            self.poisoned.insert(value);
            true
        } else {
            false
        }
    }

    /// Marks *every* currently memoized value — live groups and MRU singles
    /// alike — as corrupted: the massive-SRAM-upset injection a chaos
    /// campaign uses to force a quarantine instead of entry-at-a-time
    /// healing. Returns how many values were poisoned.
    pub fn corrupt_all_entries(&mut self) -> u64 {
        let size = self.cfg.group_size;
        let mut values: Vec<u64> = self
            .groups
            .iter()
            .flat_map(|g| g.start..g.start.saturating_add(size))
            .collect();
        values.extend(self.mru_values.iter().copied());
        let mut poisoned = 0u64;
        for v in values {
            if self.poisoned.insert(v) {
                poisoned = poisoned.saturating_add(1);
            }
        }
        poisoned
    }

    /// The number of values currently marked corrupted and not yet healed —
    /// a health monitor's scrub probe.
    pub fn poisoned_entries(&self) -> u64 {
        self.poisoned.len() as u64
    }

    /// Discards every entry — live groups, shadow ring, MRU singles, and
    /// poison marks — returning the table to its just-constructed (empty)
    /// state. Cumulative statistics are deliberately preserved: a rebuild
    /// resets *state*, not *telemetry history*.
    pub fn reset_entries(&mut self) {
        self.groups.clear();
        self.max_in_table = None;
        self.evicted.clear();
        self.mru_values.clear();
        self.poisoned.clear();
    }

    /// Looks up the counter-only result for `value`, updating use counters,
    /// MRU recency, and statistics.
    ///
    /// A corrupted entry is never served: the lookup reports a miss (so the
    /// caller runs the full AES path), drops the bad single-value copy, and
    /// clears the poison — the recomputed result re-memoizes the value,
    /// healing the table.
    pub fn lookup(&mut self, value: u64) -> LookupResult {
        let size = self.cfg.group_size;
        if self.poisoned.remove(&value) {
            if let Some(pos) = self.mru_values.iter().position(|&v| v == value) {
                self.mru_values.remove(pos);
            }
            self.stats.fallbacks += 1;
            self.stats.misses += 1;
            return LookupResult::Miss;
        }
        // One pass over every live group without an early exit, keeping
        // the first that holds `value`: `value - start` wraps past `size`
        // when `value < start`, and no group ends past `COUNTER_MAX`.
        let mut first = self.groups.len();
        for (i, g) in self.groups.iter().enumerate().rev() {
            if value.wrapping_sub(g.start) < size {
                first = i;
            }
        }
        if let Some(g) = self.groups.get_mut(first) {
            g.use_count += 1;
            self.stats.group_hits += 1;
            return LookupResult::GroupHit;
        }
        if let Some(pos) = self.mru_values.iter().position(|&v| v == value) {
            // Refresh recency.
            self.mru_values.remove(pos);
            self.mru_values.push_front(value);
            self.stats.mru_hits += 1;
            return LookupResult::MruHit;
        }
        // A miss; if the value falls in an evicted group, track its shadow
        // use count and promote the (now freshly computed) AES result into
        // the MRU single-value store for next time (§IV-C4).
        if let Some(g) = self
            .evicted
            .iter_mut()
            .find(|g| value >= g.start && value < g.start + size)
        {
            g.use_count += 1;
            self.mru_values.push_front(value);
            self.mru_values.truncate(N_MRU_VALUES);
            self.stats.mru_harvests += 1;
        }
        self.stats.misses += 1;
        LookupResult::Miss
    }

    /// Peeks whether `value` is memoized without touching any state
    /// (for policy decisions that shouldn't perturb use counters). A
    /// poisoned value reports `false`: its cached result is untrusted.
    pub fn probe(&self, value: u64) -> bool {
        !self.poisoned.contains(&value)
            && (self.in_live_group(value) || self.mru_values.contains(&value))
    }

    /// The smallest *live-group* value strictly greater than `current` —
    /// the memoization-aware update target. MRU values are deliberately
    /// excluded: their composition churns with every access (§IV-C4).
    /// Poisoned values are *not* excluded: this picks a counter target, not
    /// a cached AES result — decryption under the target goes through
    /// [`MemoizationTable::lookup`], which fails safe.
    pub fn nearest_memoized_above(&self, current: u64) -> Option<u64> {
        let size = self.cfg.group_size;
        self.groups
            .iter()
            .filter_map(|g| {
                let end = g.start + size; // exclusive
                if current + 1 >= end {
                    None
                } else {
                    Some(g.start.max(current + 1))
                }
            })
            .min()
    }

    /// The smallest live-group value at or above `min_target`: where a
    /// relevel that must reach `min_target` lands when it is steered onto
    /// the table (§IV-C2). `None` when no live group reaches that high.
    pub fn relevel_target(&self, min_target: u64) -> Option<u64> {
        self.nearest_memoized_above(min_target.saturating_sub(1))
            .filter(|&t| t >= min_target)
    }

    /// Inserts a new group starting at `start`, evicting the least
    /// frequently used live group if the table is full (§IV-C3). The victim
    /// joins the shadow ring with its use counter intact. A group that
    /// would pass `COUNTER_MAX` is moved down to end there.
    pub fn insert_group(&mut self, start: u64) {
        let start = self.clamp(start);
        // Re-inserting an existing group is a no-op.
        if self.groups.iter().any(|g| g.start == start) {
            return;
        }
        self.stats.insertions += 1;
        if self.groups.len() >= self.cfg.n_groups() {
            let lfu = self
                .groups
                .iter()
                .enumerate()
                .min_by_key(|(_, g)| g.use_count)
                .map(|(i, _)| i);
            if let Some(lfu) = lfu {
                let victim = self.groups.swap_remove(lfu);
                self.stats.evictions += 1;
                self.push_evicted(victim);
            }
        }
        // A freshly inserted group starts with a modest score so it isn't
        // immediately re-evicted before proving itself.
        self.groups.push(Group {
            start,
            use_count: 1,
        });
        self.refresh_max_in_table();
    }

    /// `start`, lowered so its group ends at or below `COUNTER_MAX`.
    fn clamp(&self, start: u64) -> u64 {
        start.min(rmcc_crypto::otp::COUNTER_MAX - (self.cfg.group_size - 1))
    }

    /// Seeds the table with groups at the given starts (initialization).
    pub fn seed_groups(&mut self, starts: impl IntoIterator<Item = u64>) {
        for s in starts {
            self.insert_group(s);
        }
    }

    fn push_evicted(&mut self, g: Group) {
        // Drop stale MRU values that belonged to *live* coverage — they stay
        // valid (they are still memoized results), so nothing to do there.
        if self.evicted.len() >= self.cfg.n_evicted() {
            self.evicted.pop_front();
        }
        self.evicted.push_back(g);
    }

    /// End-of-epoch reselection (§IV-C3): keep the most frequently used
    /// groups out of live + evicted, optionally admitting `new_group` (the
    /// candidate monitor's 98th-percentile pick) as one of the live set.
    /// All use counters are halved afterwards so the table stays adaptive.
    /// `new_group` is clamped as `insert_group` clamps it.
    pub fn epoch_reselect(&mut self, new_group: Option<u64>) {
        let new_group = new_group.map(|start| self.clamp(start));
        // Track each group's origin so the stats distinguish shadow-ring
        // rehabilitations (promotions) from live-set demotions (evictions).
        let mut pool: Vec<(Group, bool)> = self.groups.drain(..).map(|g| (g, false)).collect();
        pool.extend(self.evicted.drain(..).map(|g| (g, true)));
        // Highest use count first; stable on start for determinism.
        pool.sort_by(|a, b| {
            b.0.use_count
                .cmp(&a.0.use_count)
                .then(a.0.start.cmp(&b.0.start))
        });
        pool.dedup_by_key(|g| g.0.start);

        let mut keep = self.cfg.n_groups();
        if let Some(start) = new_group {
            if !pool.iter().take(keep).any(|g| g.0.start == start) {
                keep -= 1;
            }
        }
        for (g, from_shadow) in pool.iter().take(keep) {
            if *from_shadow {
                self.stats.shadow_promotions += 1;
            }
            self.groups.push(*g);
        }
        if let Some(start) = new_group {
            if !self.groups.iter().any(|g| g.start == start) {
                self.stats.insertions += 1;
                self.groups.push(Group {
                    start,
                    use_count: 1,
                });
            }
        }
        for (g, from_shadow) in pool.into_iter().skip(keep) {
            if !from_shadow {
                self.stats.evictions += 1;
            }
            self.push_evicted(g);
        }
        self.refresh_max_in_table();
        // Age.
        for g in &mut self.groups {
            g.use_count /= 2;
        }
        for g in &mut self.evicted {
            g.use_count /= 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> MemoizationTable {
        MemoizationTable::new(TableConfig::paper())
    }

    #[test]
    fn config_geometry() {
        let c = TableConfig::paper();
        assert_eq!(c.total_entries(), 128);
        let c4 = TableConfig::with_group_size(4);
        assert_eq!(c4.n_groups(), 32);
        assert_eq!(c4.total_entries(), 128);
        let c16 = TableConfig::with_group_size(16);
        assert_eq!(c16.n_groups(), 8);
    }

    #[test]
    #[should_panic(expected = "divide 128")]
    fn bad_group_size_panics() {
        let _ = TableConfig::with_group_size(5);
    }

    #[test]
    fn lookup_hits_whole_group_range() {
        let mut t = table();
        t.insert_group(100);
        for v in 100..108 {
            assert_eq!(t.lookup(v), LookupResult::GroupHit, "value {v}");
        }
        assert_eq!(t.lookup(99), LookupResult::Miss);
        assert_eq!(t.lookup(108), LookupResult::Miss);
        assert_eq!(t.stats().group_hits, 8);
        assert_eq!(t.stats().misses, 2);
    }

    #[test]
    fn nearest_memoized_above_selects_minimum() {
        let mut t = table();
        t.insert_group(100);
        t.insert_group(50);
        assert_eq!(t.nearest_memoized_above(0), Some(50));
        assert_eq!(t.nearest_memoized_above(50), Some(51));
        assert_eq!(t.nearest_memoized_above(57), Some(100));
        assert_eq!(t.nearest_memoized_above(103), Some(104));
        assert_eq!(t.nearest_memoized_above(107), None);
        assert_eq!(t.nearest_memoized_above(9999), None);
    }

    #[test]
    fn consecutive_writes_walk_the_group() {
        // Figure 7: consecutive writebacks keep hitting because groups hold
        // consecutive values.
        let mut t = table();
        t.insert_group(35);
        let mut v = 34;
        for _ in 0..8 {
            v = t.nearest_memoized_above(v).unwrap();
            assert!(t.probe(v));
        }
        assert_eq!(v, 42);
    }

    #[test]
    fn lfu_group_is_evicted_on_insert() {
        let mut t = table();
        for i in 0..16 {
            t.insert_group(i * 100);
        }
        // Warm every group except the one at 300.
        for i in 0..16 {
            if i != 3 {
                for _ in 0..5 {
                    t.lookup(i * 100);
                }
            }
        }
        t.insert_group(10_000);
        assert!(!t.in_live_group(300), "LFU group must be evicted");
        assert!(t.in_live_group(10_000));
        assert!(t.in_live_group(0));
    }

    #[test]
    fn evicted_group_values_promote_into_mru() {
        let mut t = table();
        for i in 0..17 {
            t.insert_group(i * 100); // 17th insert evicts one group
        }
        // Find the evicted group's range: group 0 had no uses → victim.
        assert!(!t.in_live_group(0));
        // First touch misses but promotes.
        assert_eq!(t.lookup(3), LookupResult::Miss);
        assert_eq!(t.lookup(3), LookupResult::MruHit);
        // Values never memoized don't promote.
        assert_eq!(t.lookup(99_999), LookupResult::Miss);
        assert_eq!(t.lookup(99_999), LookupResult::Miss);
    }

    #[test]
    fn mru_capacity_is_bounded() {
        let mut t = table();
        t.insert_group(0);
        for i in 1..=16 {
            t.insert_group(i * 1000); // evicts group 0 eventually
        }
        assert!(!t.in_live_group(0));
        // Promote 20 distinct values from the evicted range (only 8 exist
        // per group, so reuse two evicted groups if present).
        for v in 0..8u64 {
            t.lookup(v);
        }
        for v in 0..8u64 {
            assert_eq!(t.lookup(v), LookupResult::MruHit, "value {v}");
        }
    }

    #[test]
    fn max_counter_in_table_tracks_groups() {
        let mut t = table();
        assert_eq!(t.max_counter_in_table(), None);
        t.insert_group(100);
        assert_eq!(t.max_counter_in_table(), Some(107));
        t.insert_group(5000);
        assert_eq!(t.max_counter_in_table(), Some(5007));
    }

    #[test]
    fn groups_past_counter_max_are_clamped() {
        use rmcc_crypto::otp::COUNTER_MAX;
        let mut t = table();
        // A seed at COUNTER_MAX − 3 would reach COUNTER_MAX + 4.
        t.seed_groups([COUNTER_MAX - 3]);
        assert_eq!(t.groups()[0].start, COUNTER_MAX - 7);
        assert_eq!(t.max_counter_in_table(), Some(COUNTER_MAX));
        assert_eq!(t.relevel_target(COUNTER_MAX - 1), Some(COUNTER_MAX - 1));
        assert_eq!(t.relevel_target(COUNTER_MAX + 1), None);
        // Re-inserting the same seed is the no-op it always was.
        t.insert_group(COUNTER_MAX - 3);
        assert_eq!(t.stats().insertions, 1);
        // A reselection candidate is clamped the same way.
        t.epoch_reselect(Some(COUNTER_MAX));
        assert_eq!(t.groups().len(), 1, "the clamped candidate is live");
        assert_eq!(t.max_counter_in_table(), Some(COUNTER_MAX));
    }

    /// `lookup` as it was before the one-pass group search: an early-exit
    /// `find` for the first live group holding `value`. The oracle of
    /// `lookup_matches_the_first_match_find`.
    fn first_match_lookup(t: &mut MemoizationTable, value: u64) -> LookupResult {
        let size = t.cfg.group_size;
        if t.poisoned.remove(&value) {
            if let Some(pos) = t.mru_values.iter().position(|&v| v == value) {
                t.mru_values.remove(pos);
            }
            t.stats.fallbacks += 1;
            t.stats.misses += 1;
            return LookupResult::Miss;
        }
        if let Some(g) = t
            .groups
            .iter_mut()
            .find(|g| value >= g.start && value < g.start + size)
        {
            g.use_count += 1;
            t.stats.group_hits += 1;
            return LookupResult::GroupHit;
        }
        if let Some(pos) = t.mru_values.iter().position(|&v| v == value) {
            t.mru_values.remove(pos);
            t.mru_values.push_front(value);
            t.stats.mru_hits += 1;
            return LookupResult::MruHit;
        }
        if let Some(g) = t
            .evicted
            .iter_mut()
            .find(|g| value >= g.start && value < g.start + size)
        {
            g.use_count += 1;
            t.mru_values.push_front(value);
            t.mru_values.truncate(N_MRU_VALUES);
            t.stats.mru_harvests += 1;
        }
        t.stats.misses += 1;
        LookupResult::Miss
    }

    #[test]
    fn overlapping_groups_credit_the_first_live_one() {
        let mut t = MemoizationTable::new(TableConfig::paper());
        t.insert_group(13);
        t.insert_group(10);
        assert_eq!(t.lookup(14), LookupResult::GroupHit);
        let counts: Vec<(u64, u64)> = t.groups().iter().map(|g| (g.start, g.use_count)).collect();
        assert_eq!(counts, [(13, 2), (10, 1)]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(500))]

        /// `lookup` against the first-match oracle on random tables whose
        /// groups overlap and sit clamped at `COUNTER_MAX`, with poisoned
        /// entries and epoch reselections mixed in: the same result, use
        /// counts, shadow ring, MRU values and statistics after every step.
        #[test]
        fn lookup_matches_the_first_match_find(
            group_size in 0usize..4,
            ops in proptest::collection::vec((0u64..10, 0u64..96), 1..300),
        ) {
            let size = [1, 4, 8, 16][group_size];
            let mut t = MemoizationTable::new(TableConfig::with_group_size(size));
            let mut oracle = t.clone();
            for (kind, x) in ops {
                // A third of the values sit at the top of the counter
                // space, past it included.
                let top = rmcc_crypto::otp::COUNTER_MAX + 4;
                let value = if x % 3 == 0 { top - x / 3 } else { x };
                match kind {
                    0 | 1 => {
                        t.insert_group(value);
                        oracle.insert_group(value);
                    }
                    2 => {
                        t.epoch_reselect(Some(value));
                        oracle.epoch_reselect(Some(value));
                    }
                    3 => proptest::prop_assert_eq!(
                        t.corrupt_entry(value),
                        oracle.corrupt_entry(value)
                    ),
                    _ => proptest::prop_assert_eq!(
                        t.lookup(value),
                        first_match_lookup(&mut oracle, value)
                    ),
                }
                proptest::prop_assert_eq!(&t.groups, &oracle.groups);
                proptest::prop_assert_eq!(&t.evicted, &oracle.evicted);
                proptest::prop_assert_eq!(&t.mru_values, &oracle.mru_values);
                proptest::prop_assert_eq!(&t.poisoned, &oracle.poisoned);
                proptest::prop_assert_eq!(t.stats, oracle.stats);
            }
        }

        /// The kept Max-Counter-in-Table equals a scan of the live groups
        /// after every step of a random run of inserts, lookups, epoch
        /// reselections and resets.
        #[test]
        fn kept_max_counter_matches_a_scan(
            group_size in 0usize..3,
            ops in proptest::collection::vec((0u64..8, 0u64..2_000), 1..200),
        ) {
            let size = [4, 8, 16][group_size];
            let mut t = MemoizationTable::new(TableConfig::with_group_size(size));
            for (kind, value) in ops {
                match kind {
                    0..=2 => t.insert_group(value),
                    3..=5 => {
                        t.lookup(value);
                    }
                    6 => t.epoch_reselect((value % 2 == 0).then_some(value)),
                    _ if value % 8 == 0 => t.reset_entries(),
                    _ => t.epoch_reselect(None),
                }
                let scan = t.groups().iter().map(|g| g.start + size - 1).max();
                proptest::prop_assert_eq!(t.max_counter_in_table(), scan);
            }
        }
    }

    #[test]
    fn epoch_reselect_keeps_hot_groups_and_admits_candidate() {
        let mut t = table();
        for i in 0..16 {
            t.insert_group(i * 100);
        }
        // Make groups 0..8 hot.
        for i in 0..8 {
            for _ in 0..10 {
                t.lookup(i * 100);
            }
        }
        t.epoch_reselect(Some(77_000));
        assert!(t.in_live_group(77_000), "candidate must be admitted");
        for i in 0..8 {
            assert!(t.in_live_group(i * 100), "hot group {i} must survive");
        }
        assert_eq!(t.groups().len(), 16);
    }

    #[test]
    fn epoch_reselect_rehabilitates_hot_evicted_groups() {
        let mut t = table();
        for i in 0..17 {
            t.insert_group(i * 100); // group 0 evicted (LFU)
        }
        assert!(!t.in_live_group(0));
        // Hammer the evicted range: shadow counter climbs.
        for _ in 0..50 {
            t.lookup(5);
        }
        t.epoch_reselect(None);
        assert!(t.in_live_group(5), "hot evicted group must return");
    }

    #[test]
    fn reinserting_live_group_is_noop() {
        let mut t = table();
        t.insert_group(10);
        let before = t.stats().insertions;
        t.insert_group(10);
        assert_eq!(t.stats().insertions, before);
        assert_eq!(t.groups().len(), 1);
    }

    #[test]
    fn corrupted_group_entry_falls_back_then_heals() {
        let mut t = table();
        t.insert_group(100);
        assert_eq!(t.lookup(103), LookupResult::GroupHit);
        assert!(t.corrupt_entry(103), "value is memoized");
        assert!(!t.probe(103), "corrupted result must not be trusted");
        // The fail-safe path: a miss (full AES), counted as a fallback.
        assert_eq!(t.lookup(103), LookupResult::Miss);
        assert_eq!(t.stats().fallbacks, 1);
        // The recompute healed the entry; subsequent lookups hit again.
        assert_eq!(t.lookup(103), LookupResult::GroupHit);
        assert_eq!(t.stats().fallbacks, 1);
    }

    #[test]
    fn corrupted_mru_entry_falls_back() {
        let mut t = table();
        for i in 0..17 {
            t.insert_group(i * 100); // evicts group 0
        }
        assert!(!t.in_live_group(0));
        t.lookup(3); // promote into MRU
        assert_eq!(t.lookup(3), LookupResult::MruHit);
        assert!(t.corrupt_entry(3));
        assert_eq!(t.lookup(3), LookupResult::Miss);
        assert_eq!(t.stats().fallbacks, 1);
    }

    #[test]
    fn corrupting_unmemoized_value_is_inert() {
        let mut t = table();
        t.insert_group(100);
        assert!(!t.corrupt_entry(99_999));
        assert_eq!(t.lookup(99_999), LookupResult::Miss);
        assert_eq!(t.stats().fallbacks, 0);
    }

    #[test]
    fn poison_does_not_block_update_targets() {
        let mut t = table();
        t.insert_group(100);
        assert!(t.corrupt_entry(101));
        // Counter-target selection still walks the group (it never serves
        // the cached AES result); only lookup-side use is gated.
        assert_eq!(t.nearest_memoized_above(100), Some(101));
    }

    #[test]
    fn stats_count_evictions_promotions_and_harvests() {
        let mut t = table();
        for i in 0..17 {
            t.insert_group(i * 100); // 17th insert evicts the LFU (group 0)
        }
        assert_eq!(t.stats().evictions, 1);
        assert_eq!(t.stats().mru_harvests, 0);
        // Miss in the evicted range harvests the value into the MRU store.
        assert_eq!(t.lookup(3), LookupResult::Miss);
        assert_eq!(t.stats().mru_harvests, 1);
        assert_eq!(t.lookup(3), LookupResult::MruHit);
        assert_eq!(t.stats().mru_harvests, 1, "hits do not re-harvest");
        // Keep the shadow group hot; reselection promotes it back and
        // demotes exactly one cold live group.
        for _ in 0..50 {
            t.lookup(5);
        }
        let evictions_before = t.stats().evictions;
        t.epoch_reselect(None);
        assert!(t.in_live_group(5));
        assert_eq!(t.stats().shadow_promotions, 1);
        assert_eq!(t.stats().evictions, evictions_before + 1);
    }

    #[test]
    fn corrupt_all_entries_poisons_every_memoized_value() {
        let mut t = table();
        t.insert_group(100);
        for i in 0..17 {
            t.insert_group(1000 + i * 100); // evicts the LFU along the way
        }
        t.lookup(103); // keep 100's group warm (it may have been evicted)
        let n = t.corrupt_all_entries();
        assert_eq!(t.poisoned_entries(), n);
        assert!(n >= 16 * 8, "every live-group value is poisoned");
        // No memoized value survives a probe.
        for g in t.groups().to_vec() {
            for v in g.start..g.start + t.config().group_size {
                assert!(!t.probe(v), "value {v} must read corrupted");
            }
        }
        // Healing one entry shrinks the poison set by one.
        let victim = t.groups()[0].start;
        assert_eq!(t.lookup(victim), LookupResult::Miss);
        assert_eq!(t.poisoned_entries(), n - 1);
        assert_eq!(t.stats().fallbacks, 1);
    }

    #[test]
    fn reset_entries_empties_state_but_keeps_stats() {
        let mut t = table();
        for i in 0..17 {
            t.insert_group(i * 100);
        }
        t.lookup(3); // MRU harvest from the evicted group
        t.corrupt_all_entries();
        let stats = t.stats();
        assert!(stats.insertions > 0 && stats.misses > 0);
        t.reset_entries();
        assert!(t.groups().is_empty());
        assert_eq!(t.poisoned_entries(), 0);
        assert_eq!(t.max_counter_in_table(), None);
        assert_eq!(t.stats(), stats, "history survives the reset");
        // The table works again from scratch.
        t.insert_group(500);
        assert_eq!(t.lookup(503), LookupResult::GroupHit);
        assert_eq!(t.lookup(3), LookupResult::Miss, "old MRU copies are gone");
    }

    #[test]
    fn stats_hit_rate() {
        let mut t = table();
        t.insert_group(0);
        t.lookup(0);
        t.lookup(1);
        t.lookup(500);
        assert!((t.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(TableStats::default().hit_rate(), 0.0);
    }
}
