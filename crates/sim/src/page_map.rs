//! Deterministic virtual→physical page placement.
//!
//! Workload kernels emit virtual addresses; the OS decides physical
//! placement. We model allocation with a keyed affine-and-rotate
//! permutation over the virtual page number, restricted to the machine's
//! physical frame count — bijective (no two virtual pages collide on a
//! frame), deterministic, and seed-dependent, like a hash-based physical
//! allocator. Under the paper's 2 MB huge pages an entire Morphable counter
//! block's 8 KB span stays physically contiguous; under 4 KB pages adjacent
//! virtual pages scatter, which is exactly the effect §III describes for
//! Morphable under small pages.

use rmcc_cache::tlb::PageSize;

/// The placement seed of every simulator runner (lifetime, detailed and
/// multicore), so one trace lands on the same physical frames in each mode
/// and their metadata statistics can be compared exactly.
pub const PLACEMENT_SEED: u64 = 0x9a9e;

/// A bijective virtual→physical page mapper over a bounded physical space.
///
/// # Examples
///
/// ```
/// use rmcc_cache::tlb::PageSize;
/// use rmcc_sim::page_map::PageMap;
///
/// let map = PageMap::new(PageSize::Huge2M, 1, 128 << 30);
/// // Same-page bytes stay together…
/// assert_eq!(map.translate(0x10) >> 21, map.translate(0x1fffff) >> 21);
/// // …and the mapping is deterministic.
/// assert_eq!(
///     map.translate(12345),
///     PageMap::new(PageSize::Huge2M, 1, 128 << 30).translate(12345)
/// );
/// ```
#[derive(Debug, Clone)]
pub struct PageMap {
    page: PageSize,
    /// log2 of the physical frame count.
    frame_bits: u32,
    mul1: u64,
    mul2: u64,
    add1: u64,
    add2: u64,
    rot: u32,
}

impl PageMap {
    /// Creates a mapper for `page`-sized frames within `phys_bytes` of
    /// physical memory, with placement `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `phys_bytes` holds less than two frames.
    pub fn new(page: PageSize, seed: u64, phys_bytes: u64) -> Self {
        let frames = phys_bytes >> page.shift();
        assert!(frames >= 2, "physical memory must hold at least two pages");
        let frame_bits = 63 - frames.leading_zeros(); // floor(log2)
        let mut z = seed.wrapping_add(0x243f_6a88_85a3_08d3);
        let mut next = || {
            z = z.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31);
            z
        };
        PageMap {
            page,
            frame_bits,
            mul1: next() | 1, // odd → bijective mod 2^k
            mul2: next() | 1,
            add1: next(),
            add2: next(),
            rot: (next() as u32 % frame_bits.max(1)).max(1),
        }
    }

    /// The page size being mapped.
    pub fn page_size(&self) -> PageSize {
        self.page
    }

    /// Physical frames addressable (a power of two).
    pub fn frames(&self) -> u64 {
        1u64 << self.frame_bits
    }

    /// Permutes a VPN within `[0, frames)`: affine → rotate → affine, each
    /// step bijective mod 2^frame_bits.
    fn permute(&self, vpn: u64) -> u64 {
        let k = self.frame_bits;
        let mask = (1u64 << k) - 1;
        let mut p = (vpn.wrapping_mul(self.mul1).wrapping_add(self.add1)) & mask;
        p = ((p << self.rot) | (p >> (k - self.rot))) & mask;
        (p.wrapping_mul(self.mul2).wrapping_add(self.add2)) & mask
    }

    /// Translates a virtual byte address to its physical byte address.
    /// Virtual pages beyond the physical frame count alias (wrap), like an
    /// over-committed machine would swap; workload footprints are sized to
    /// stay below physical capacity. High VPN bits (e.g. per-thread
    /// partition offsets) are folded into the permutation input so distinct
    /// regions land on distinct pseudo-random frames rather than aliasing
    /// trivially.
    pub fn translate(&self, vaddr: u64) -> u64 {
        let shift = self.page.shift();
        let vpn = vaddr >> shift;
        let folded = vpn ^ (vpn >> self.frame_bits).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let offset = vaddr & ((1u64 << shift) - 1);
        (self.permute(folded & ((1u64 << self.frame_bits) - 1)) << shift) | offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bijective_over_all_frames() {
        let map = PageMap::new(PageSize::Huge2M, 42, 1 << 30); // 512 frames
        let mut seen = std::collections::HashSet::new();
        for vpn in 0..map.frames() {
            let p = map.translate(vpn << 21) >> 21;
            assert!(p < map.frames(), "frame {p} out of bounds");
            assert!(seen.insert(p), "frame collision at vpn {vpn}");
        }
        assert_eq!(seen.len() as u64, map.frames());
    }

    #[test]
    fn physical_addresses_stay_in_bounds() {
        let phys = 128u64 << 30;
        let map = PageMap::new(PageSize::Huge2M, 7, phys);
        for v in [0u64, 1 << 21, 1 << 30, (1 << 36) + 12345] {
            assert!(map.translate(v) < phys, "vaddr {v:#x} escaped");
        }
    }

    #[test]
    fn offsets_preserved() {
        let map = PageMap::new(PageSize::Small4K, 7, 1 << 30);
        for v in [0u64, 5, 4095, 4096 + 17, 1 << 29] {
            assert_eq!(map.translate(v) & 4095, v & 4095);
        }
    }

    #[test]
    fn distant_regions_do_not_alias_trivially() {
        // Two regions 1 TB apart (per-thread partitions) must not collapse
        // onto identical frame sequences.
        let map = PageMap::new(PageSize::Huge2M, 5, 1 << 33);
        let collisions = (0..256u64)
            .filter(|&i| map.translate(i << 21) == map.translate((i << 21) + (1 << 40)))
            .count();
        assert!(
            collisions < 16,
            "{collisions}/256 pages alias across regions"
        );
    }

    #[test]
    fn seeds_change_placement() {
        let a = PageMap::new(PageSize::Huge2M, 1, 128 << 30);
        let b = PageMap::new(PageSize::Huge2M, 2, 128 << 30);
        let diff = (0..100u64)
            .filter(|&i| a.translate(i << 21) != b.translate(i << 21))
            .count();
        assert!(diff > 90);
    }

    #[test]
    fn small_pages_scatter_counter_block_spans() {
        // Two adjacent 4 KB virtual pages rarely land in adjacent frames —
        // the §III effect that hurts Morphable under 4 KB pages.
        let map = PageMap::new(PageSize::Small4K, 3, 128 << 30);
        let adjacent = (0..1000u64)
            .filter(|&i| {
                let a = map.translate(i * 8192) >> 12;
                let b = map.translate(i * 8192 + 4096) >> 12;
                b == a + 1
            })
            .count();
        assert!(adjacent < 10, "{adjacent} of 1000 stayed adjacent");
    }
}
