//! Steady-state allocation guard for the timing simulator's per-request
//! path.
//!
//! Once warm, `MemoryController::read`/`write` (the metadata engine's chain
//! walk, counter-cache write-backs, relevel side traffic and the DRAM
//! model) and `PrivateCaches::access` must run out of inline arrays and
//! buffers reused across requests. A counting allocator makes any
//! per-request heap traffic a test failure instead of a silent slowdown.
//!
//! This file deliberately holds a single `#[test]`: the counter is global,
//! so a second concurrently-running test would pollute the measurement.
//! Telemetry stays off and the RMCC epoch is longer than the run, so no
//! epoch snapshot or table reselection falls inside the measured window.

// Test harness: unwrap-on-failure is the desired failure mode here.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rmcc_cache::hierarchy::{HierarchyConfig, LevelConfig, PrivateCaches};
use rmcc_cache::set_assoc::SetAssocCache;
use rmcc_secmem::tree::InitPolicy;
use rmcc_sim::{MemoryController, MetaStats, Scheme, SystemConfig};

/// Counts every allocation and reallocation; frees are not interesting
/// here (a steady-state free implies a matching steady-state alloc).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; the counter is a relaxed statistic that
// publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn splitmix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A 1 GiB machine whose counter cache holds 16 lines, so that a working
/// set of a few hundred counter blocks misses it and evicts dirty lines.
fn config(scheme: Scheme) -> SystemConfig {
    let mut c = SystemConfig::table1(scheme);
    c.counter_init = InitPolicy::Zero;
    c.data_bytes = 1 << 30;
    c.counter_cache_bytes = 16 * 64;
    c.counter_cache_ways = 4;
    c.telemetry = false;
    c.rmcc.epoch_accesses = u64::MAX;
    c
}

/// Reads and writes over 512 counter blocks (three data blocks each),
/// with every 16th request a write to one hammered block so that its
/// counter overflows and relevels.
fn drive_mc(mc: &mut MemoryController, requests: u64, rng: &mut u64, t: &mut u64) {
    for i in 0..requests {
        let r = splitmix(rng);
        let block = (r >> 8) % 512 * 128 + (r >> 20) % 3;
        *t += 5_000;
        if i % 16 == 0 {
            mc.write(*t, 0x40);
        } else if r & 3 == 0 {
            mc.write(*t, block * 64);
        } else {
            *t = (*t).max(mc.read(*t, block * 64));
        }
    }
}

/// Random lines with a mix of writes through a tiny L1/L2 in front of a
/// tiny LLC; returns the memory writebacks the filter produced.
fn drive_caches(
    caches: &mut PrivateCaches,
    llc: &mut SetAssocCache,
    accesses: u64,
    rng: &mut u64,
) -> usize {
    let mut writebacks = 0;
    for _ in 0..accesses {
        let r = splitmix(rng);
        let out = caches.access((r >> 8) % 256, r.is_multiple_of(3), llc);
        writebacks += out.writebacks().len();
    }
    writebacks
}

#[test]
fn warm_simulator_requests_do_not_allocate() {
    let mut mcs: Vec<(MemoryController, u64)> = [Scheme::Sc64, Scheme::Morphable, Scheme::Rmcc]
        .iter()
        .map(|&scheme| {
            let mut mc = MemoryController::new(&config(scheme));
            if scheme == Scheme::Rmcc {
                mc.engine().seed_rmcc_group(0, 5);
                mc.engine().seed_rmcc_group(1, 1);
            }
            (mc, 0)
        })
        .collect();
    let geometry = |lines: usize, ways| LevelConfig {
        bytes: lines * 64,
        ways,
    };
    let mut caches = PrivateCaches::new(&HierarchyConfig {
        l1: geometry(8, 2),
        l2: geometry(32, 4),
        l3: geometry(64, 4),
    });
    let mut llc = SetAssocCache::new(64, 4);
    let mut rng = 0x5eed_u64;

    // Warm-up over the same address distribution as the measured window,
    // as long as it, so that every block is materialized and every reused
    // buffer has reached its high-water mark before counting starts.
    for (mc, t) in &mut mcs {
        drive_mc(mc, 20_000, &mut rng, t);
    }
    drive_caches(&mut caches, &mut llc, 20_000, &mut rng);
    let before_stats: Vec<MetaStats> = mcs.iter().map(|(mc, _)| *mc.meta_stats()).collect();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for (mc, t) in &mut mcs {
        drive_mc(mc, 20_000, &mut rng, t);
    }
    let writebacks = drive_caches(&mut caches, &mut llc, 20_000, &mut rng);
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    // The measured window must itself reach the paths the claim covers.
    for ((mc, _), was) in mcs.iter().zip(&before_stats) {
        let now = mc.meta_stats();
        let grew = |f: fn(&MetaStats) -> u64| f(now) > f(was);
        assert!(grew(|s| s.counter_misses), "no counter misses");
        assert!(
            grew(|s| s.counter_writebacks),
            "no dirty counter write-backs"
        );
        assert!(grew(|s| s.relevels_l0), "no relevels");
    }
    assert!(writebacks > 0, "the cache filter wrote nothing back");
    assert_eq!(
        after - before,
        0,
        "warm simulator requests touched the heap"
    );
}
