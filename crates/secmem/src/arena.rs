//! Flat, region-paged storage arenas for metadata and data images.
//!
//! The engine and the counter tree address their state with dense integer
//! indices computed by layout arithmetic ([`crate::layout`]), so hash maps
//! add hashing and probe work to every access for no benefit. A
//! [`PagedArena`] instead resolves an index with two shifts and three
//! loads: a page directory (`Vec` of optional page boxes) holds one page
//! per run of `page_slots` indices, and a page keeps its occupied values
//! plus a byte per slot giving the value's position.
//!
//! The engine sizes a page to one L0 region (the counter organization's
//! coverage), which is also the unit the service routes to shards, so a
//! shard never materializes storage for another shard's blocks; and since
//! a page stores only its occupied slots, memory follows the touched
//! indices rather than the pages they fall in. Pages materialize on first
//! touch, and once a slot is occupied, reads, writes, and overwrites of it
//! perform **zero heap allocations**, which is what makes the engine's
//! steady-state access loop allocation-free (DESIGN.md §10).
//!
//! Every accessor is total: an arena knows its index capacity (from the
//! layout), lookups outside it return `None`, and an insertion outside it
//! allocates nothing and hands the value back. The arena therefore needs no
//! audit waivers despite living on the trusted path.

/// The widest page: 128 slots, one Morphable128 region, so a page's
/// slot positions fit one byte each.
pub const MAX_PAGE_SLOTS: usize = 128;

/// One page: its occupied slots' values, and where each slot's value sits.
#[derive(Debug, Clone)]
struct Page<T> {
    /// `pos[s]` is 1 + the position of in-page slot `s`'s value in
    /// `values`, or 0 when the slot is vacant.
    pos: [u8; MAX_PAGE_SLOTS],
    /// The occupied slots' values in insertion order, so the page holds
    /// exactly what was touched.
    values: Vec<T>,
}

impl<T> Page<T> {
    fn new() -> Self {
        Page {
            pos: [0; MAX_PAGE_SLOTS],
            values: Vec::new(),
        }
    }

    /// The position in `values` of in-page slot `slot`'s value, if occupied.
    #[inline]
    fn position(&self, slot: usize) -> Option<usize> {
        let pos = *self.pos.get(slot)?;
        usize::from(pos).checked_sub(1)
    }

    /// The value of in-page slot `slot`, if occupied.
    #[inline]
    fn get(&self, slot: usize) -> Option<&T> {
        self.values.get(self.position(slot)?)
    }

    /// Mutable access to in-page slot `slot`'s value, if occupied.
    #[inline]
    fn get_mut(&mut self, slot: usize) -> Option<&mut T> {
        let at = self.position(slot)?;
        self.values.get_mut(at)
    }

    /// Stores `value` in vacant slot `slot`, returning a reference to it.
    fn occupy(&mut self, slot: usize, value: T) -> Option<&mut T> {
        let pos = self.pos.get_mut(slot)?;
        let at = self.values.len();
        // At most MAX_PAGE_SLOTS (128) values, so 1 + position fits a byte.
        *pos = u8::try_from(at + 1).ok()?;
        self.values.push(value);
        self.values.last_mut()
    }

    /// Empties slot `slot`, moving the last value into the freed position.
    fn vacate(&mut self, slot: usize) -> Option<T> {
        let at = self.position(slot)?;
        let last = self.values.len().checked_sub(1)?;
        if let Some(pos) = self.pos.get_mut(slot) {
            *pos = 0;
        }
        if at != last {
            // The value at `last` moves to `at`: repoint its slot.
            let moved = self.pos.iter_mut().find(|p| usize::from(**p) == last + 1)?;
            *moved = u8::try_from(at + 1).ok()?;
        }
        Some(self.values.swap_remove(at))
    }

    /// The occupied `(slot, value)` pairs in slot order.
    fn entries(&self) -> impl Iterator<Item = (usize, &T)> {
        (0..MAX_PAGE_SLOTS).filter_map(move |slot| Some((slot, self.get(slot)?)))
    }
}

/// A sparse array of `T` addressed by `u64` indices below a fixed
/// capacity, organized as lazily materialized pages.
///
/// # Examples
///
/// ```
/// use rmcc_secmem::arena::PagedArena;
///
/// // 128-slot pages over indices 0..1024.
/// let mut arena: PagedArena<u32> = PagedArena::new(128, 1024);
/// assert_eq!(arena.get(7), None);
/// assert_eq!(arena.insert(7, 42), Ok(None));
/// assert_eq!(arena.get(7), Some(&42));
/// assert_eq!(arena.len(), 1);
/// // Beyond the capacity nothing is stored: the value comes back.
/// assert_eq!(arena.insert(1024, 9), Err(9));
/// ```
#[derive(Debug, Clone)]
pub struct PagedArena<T> {
    /// Page directory: `pages[p]` holds indices `p << page_bits ..`.
    pages: Vec<Option<Box<Page<T>>>>,
    /// log2 of the slots per page.
    page_bits: u32,
    /// Indices `0..capacity` are addressable.
    capacity: u64,
    /// Directory entries that cover the capacity.
    max_pages: usize,
    /// Number of occupied slots.
    occupied: usize,
}

impl<T> PagedArena<T> {
    /// An empty arena over indices `0..capacity` with pages of
    /// `page_slots` slots, rounded up to a power of two and capped at
    /// [`MAX_PAGE_SLOTS`]. Allocates nothing until the first insertion.
    pub fn new(page_slots: usize, capacity: u64) -> Self {
        let page_slots = page_slots.clamp(1, MAX_PAGE_SLOTS).next_power_of_two();
        PagedArena {
            pages: Vec::new(),
            page_bits: page_slots.trailing_zeros(),
            capacity,
            max_pages: usize::try_from(capacity.div_ceil(page_slots as u64)).unwrap_or(usize::MAX),
            occupied: 0,
        }
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Whether no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Splits an in-capacity index into (page number, in-page slot).
    #[inline]
    fn split(&self, index: u64) -> Option<(usize, usize)> {
        if index >= self.capacity {
            return None;
        }
        let page = usize::try_from(index >> self.page_bits).ok()?;
        let mask = (1u64 << self.page_bits) - 1;
        let slot = usize::try_from(index & mask).ok()?;
        Some((page, slot))
    }

    /// The value at `index`, if occupied.
    #[inline]
    pub fn get(&self, index: u64) -> Option<&T> {
        let (page, slot) = self.split(index)?;
        self.pages.get(page)?.as_deref()?.get(slot)
    }

    /// Mutable access to the value at `index`, if occupied.
    #[inline]
    pub fn get_mut(&mut self, index: u64) -> Option<&mut T> {
        let (page, slot) = self.split(index)?;
        self.pages.get_mut(page)?.as_deref_mut()?.get_mut(slot)
    }

    /// Page `page` of `pages`, materializing it (and growing the
    /// directory, never past `max_pages` entries) on first touch. `page`
    /// must come from [`Self::split`], so it lies below `max_pages`.
    fn page_mut(
        pages: &mut Vec<Option<Box<Page<T>>>>,
        page: usize,
        max_pages: usize,
    ) -> Option<&mut Page<T>> {
        if pages.len() <= page {
            // Grow geometrically for amortized cost, but never past the
            // capacity's page count: on a large layout a doubling would
            // otherwise add megabytes of directory no index can reach.
            let target = (page + 1).max(pages.len() * 2).min(max_pages);
            pages.reserve_exact(target.saturating_sub(pages.len()));
            pages.resize_with(page + 1, || None);
        }
        let page = pages
            .get_mut(page)?
            .get_or_insert_with(|| Box::new(Page::new()));
        Some(page)
    }

    /// Stores `value` at `index`: `Ok` with the previous occupant, or
    /// `Err(value)` — nothing stored, nothing allocated — when `index` is
    /// outside the arena's capacity.
    pub fn insert(&mut self, index: u64, value: T) -> Result<Option<T>, T> {
        let Some((page, slot)) = self.split(index) else {
            return Err(value);
        };
        let Some(page) = Self::page_mut(&mut self.pages, page, self.max_pages) else {
            return Err(value);
        };
        if let Some(old) = page.get_mut(slot) {
            return Ok(Some(std::mem::replace(old, value)));
        }
        if page.occupy(slot, value).is_some() {
            self.occupied += 1;
        }
        Ok(None)
    }

    /// Removes and returns the value at `index`.
    pub fn remove(&mut self, index: u64) -> Option<T> {
        let (page, slot) = self.split(index)?;
        let removed = self.pages.get_mut(page)?.as_deref_mut()?.vacate(slot)?;
        self.occupied = self.occupied.saturating_sub(1);
        Some(removed)
    }

    /// The value at `index`, inserting `default()` first when the slot is
    /// vacant; `None` — nothing stored, nothing allocated, `default` not
    /// called — when `index` is outside the arena's capacity.
    pub fn get_or_insert_with(
        &mut self,
        index: u64,
        default: impl FnOnce() -> T,
    ) -> Option<&mut T> {
        let (page, slot) = self.split(index)?;
        let page = Self::page_mut(&mut self.pages, page, self.max_pages)?;
        if page.position(slot).is_some() {
            return page.get_mut(slot);
        }
        let value = page.occupy(slot, default());
        self.occupied += usize::from(value.is_some());
        value
    }

    /// Bytes the arena owns on the heap: its page directory plus every
    /// materialized page, counted from their sizes (not from what `T`
    /// itself owns on the heap).
    pub fn footprint_bytes(&self) -> usize {
        let pages: usize = self
            .pages
            .iter()
            .flatten()
            .map(|page| {
                std::mem::size_of::<Page<T>>() + page.values.capacity() * std::mem::size_of::<T>()
            })
            .sum();
        self.pages.capacity() * std::mem::size_of::<Option<Box<Page<T>>>>() + pages
    }

    /// Iterates over the occupied values in index order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.entries().map(|(_, value)| value)
    }

    /// Iterates over `(index, value)` pairs of the occupied slots in index
    /// order — the walk a rebuild pass uses to visit every stored entry at
    /// its addressable location.
    pub fn entries(&self) -> impl Iterator<Item = (u64, &T)> {
        let page_bits = self.page_bits;
        self.pages.iter().enumerate().flat_map(move |(p, page)| {
            page.iter().flat_map(move |page| {
                let base = (p as u64) << page_bits;
                page.entries()
                    .map(move |(slot, value)| (base | slot as u64, value))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CounterOrg;
    use crate::layout::MetadataLayout;
    use std::collections::BTreeMap;

    /// 2^33 B of Morphable128 data blocks.
    const BLOCKS_2_33: u64 = 1 << 27;

    fn arena<T>() -> PagedArena<T> {
        PagedArena::new(128, BLOCKS_2_33)
    }

    #[test]
    fn empty_arena_reads_none() {
        let arena: PagedArena<u8> = arena();
        assert_eq!(arena.get(0), None);
        assert_eq!(arena.get(127), None);
        assert!(arena.is_empty());
        assert_eq!(arena.footprint_bytes(), 0);
    }

    #[test]
    fn insert_read_overwrite_remove() {
        let mut arena = arena();
        assert_eq!(arena.insert(5, "a"), Ok(None));
        assert_eq!(arena.insert(5, "b"), Ok(Some("a")));
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.get(5), Some(&"b"));
        assert_eq!(arena.remove(5), Some("b"));
        assert_eq!(arena.remove(5), None);
        assert!(arena.is_empty());
    }

    #[test]
    fn sparse_indices_use_separate_pages() {
        let mut arena = arena();
        arena.insert(0, 1u32).unwrap();
        arena.insert(1 << 20, 2).unwrap();
        arena.insert((1 << 20) + 1, 3).unwrap();
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.get(0), Some(&1));
        assert_eq!(arena.get(1 << 20), Some(&2));
        assert_eq!(arena.get((1 << 20) - 1), None);
        let all: Vec<u32> = arena.values().copied().collect();
        assert_eq!(all, vec![1, 2, 3]);
    }

    #[test]
    fn entries_yield_index_value_pairs_in_order() {
        let mut arena = arena();
        arena.insert(3, 30u32).unwrap();
        arena.insert((1 << 20) + 5, 50).unwrap();
        arena.insert(1 << 20, 40).unwrap();
        let all: Vec<(u64, u32)> = arena.entries().map(|(i, v)| (i, *v)).collect();
        assert_eq!(all, vec![(3, 30), (1 << 20, 40), ((1 << 20) + 5, 50)]);
        let empty: PagedArena<u32> = PagedArena::new(8, 64);
        assert_eq!(empty.entries().count(), 0);
    }

    #[test]
    fn get_or_insert_with_inserts_once() {
        let mut arena = arena();
        *arena.get_or_insert_with(9, || 10u64).unwrap() += 1;
        *arena.get_or_insert_with(9, || 99).unwrap() += 1;
        assert_eq!(arena.get(9), Some(&12));
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn get_mut_edits_in_place() {
        let mut arena = arena();
        arena.insert(3, vec![1u8]).unwrap();
        if let Some(v) = arena.get_mut(3) {
            v.push(2);
        }
        assert_eq!(arena.get(3), Some(&vec![1u8, 2]));
    }

    #[test]
    fn page_slots_round_up_to_a_power_of_two_at_most_128() {
        let bits = |slots| PagedArena::<u8>::new(slots, 1).page_bits;
        assert_eq!(bits(0), 0);
        assert_eq!(bits(8), 3);
        assert_eq!(bits(100), 7);
        assert_eq!(bits(1024), 7);
    }

    #[test]
    fn out_of_capacity_indices_store_and_allocate_nothing() {
        for index in [u64::MAX, BLOCKS_2_33, BLOCKS_2_33 + 1] {
            let mut arena = arena();
            assert_eq!(arena.insert(index, 7u64), Err(7));
            assert!(arena.get_or_insert_with(index, || unreachable!()).is_none());
            assert_eq!(arena.get(index), None);
            assert_eq!(arena.get_mut(index), None);
            assert_eq!(arena.remove(index), None);
            assert!(arena.is_empty());
            assert_eq!(arena.footprint_bytes(), 0, "index {index}");
        }
        // The last in-capacity index is addressable, and growing the
        // directory to reach it stops at the capacity's page count.
        let mut arena = arena();
        arena.insert(0, 1u64).unwrap();
        assert_eq!(arena.insert(BLOCKS_2_33 - 1, 2), Ok(None));
        assert_eq!(arena.get(BLOCKS_2_33 - 1), Some(&2));
        assert_eq!(arena.pages.capacity(), (BLOCKS_2_33 / 128) as usize);
    }

    #[test]
    fn pages_store_only_their_occupied_slots() {
        let mut arena = arena();
        arena.insert(130, [0u8; 72]).unwrap();
        let one = arena.footprint_bytes();
        assert!(one < 72 * 8, "one slot of a 128-slot page costs {one} B");
    }

    /// An arena of each org's 2^33 B layout, one per page size: Mono8's
    /// L1 nodes, SC-64's L0 nodes and Morphable128's data blocks.
    fn layout_arena(size: usize) -> (u64, u64) {
        let top = |org| MetadataLayout::new(org, 1 << 33);
        match size {
            0 => (8, top(CounterOrg::Mono8).level_count(1)),
            1 => (64, top(CounterOrg::Sc64).level_count(0)),
            _ => (128, top(CounterOrg::Morphable128).data_blocks()),
        }
    }

    /// Indices around the first page edges, plus the last ones below (and
    /// the first ones past) the capacity.
    fn index(page_slots: u64, capacity: u64, pick: u64) -> u64 {
        let edge = (pick >> 8) % 6 * page_slots;
        match pick % 4 {
            0 => edge + pick % 3,
            1 => edge.saturating_sub(1 + (pick >> 4) % 2),
            2 => capacity - 1 - (pick >> 4) % (page_slots + 2),
            _ => capacity + (pick >> 4) % 2,
        }
    }

    fn op() -> impl proptest::strategy::Strategy<Value = (u8, u64, u32)> {
        (0u8..5, proptest::arbitrary::any::<u64>(), 0u32..1000)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]
        #[test]
        fn arena_matches_a_btreemap(
            ops in proptest::collection::vec(op(), 1..200),
            size in 0usize..3,
        ) {
            let (page_slots, capacity) = layout_arena(size);
            let mut arena = PagedArena::new(page_slots as usize, capacity);
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            for (kind, pick, v) in ops {
                let i = index(page_slots, capacity, pick);
                let in_range = i < capacity;
                match kind {
                    0 => {
                        let expect = if in_range { Ok(model.insert(i, v)) } else { Err(v) };
                        proptest::prop_assert_eq!(arena.insert(i, v), expect);
                    }
                    1 => proptest::prop_assert_eq!(arena.remove(i), model.remove(&i)),
                    2 => proptest::prop_assert_eq!(arena.get(i), model.get(&i)),
                    3 => {
                        if let Some(slot) = arena.get_mut(i) {
                            *slot = v;
                        }
                        if let Some(slot) = model.get_mut(&i) {
                            *slot = v;
                        }
                    }
                    _ => {
                        let got = arena.get_or_insert_with(i, || v).copied();
                        let expect = in_range.then(|| *model.entry(i).or_insert(v));
                        proptest::prop_assert_eq!(got, expect);
                    }
                }
                proptest::prop_assert_eq!(arena.len(), model.len());
            }
            let entries: Vec<(u64, u32)> = arena.entries().map(|(i, v)| (i, *v)).collect();
            let expect: Vec<(u64, u32)> = model.iter().map(|(i, v)| (*i, *v)).collect();
            proptest::prop_assert_eq!(entries, expect);
            let values: Vec<u32> = arena.values().copied().collect();
            let expect: Vec<u32> = model.values().copied().collect();
            proptest::prop_assert_eq!(values, expect);
        }
    }
}
