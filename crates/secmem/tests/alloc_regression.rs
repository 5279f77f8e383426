//! Steady-state allocation regression for the secure-memory hot path.
//!
//! Once a working set is materialized — arenas populated, scratch buffers
//! grown to their high-water marks — reads, writes, and the relevels they
//! trigger must run entirely out of preallocated storage. A counting
//! allocator wrapper makes any per-access heap traffic a hard test failure
//! rather than a silent throughput regression.
//!
//! This file deliberately holds a single `#[test]`: the counter is global,
//! so a second concurrently-running test would pollute the measurement.

// Test harness: unwrap-on-failure is the desired failure mode here.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation
)]
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rmcc_secmem::counters::CounterOrg;
use rmcc_secmem::engine::{PipelineKind, SecureMemory};

/// Counts every allocation and reallocation; frees are not interesting
/// here (a steady-state free implies a matching steady-state alloc).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

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

/// A hot-path access mix: random reads and writes over a
/// fixed working set, including the counter overflows and relevels that
/// mix provokes.
fn drive(mem: &mut SecureMemory, blocks: u64, iters: u64, rng: &mut u64) -> u64 {
    let mut chk = 0u64;
    for i in 0..iters {
        let r = splitmix(rng);
        let block = r % blocks;
        if r & 1 == 0 {
            let mut pt = [0u8; 64];
            pt[..8].copy_from_slice(&r.to_be_bytes());
            pt[56..].copy_from_slice(&i.to_be_bytes());
            mem.write(block, pt).unwrap();
        } else {
            chk ^= u64::from(mem.read(block).unwrap()[0]);
        }
    }
    chk
}

#[test]
fn steady_state_accesses_do_not_allocate() {
    let mut mem = SecureMemory::new(CounterOrg::Morphable128, 1 << 22, PipelineKind::Rmcc, 7);
    let blocks = 512u64;
    let mut rng = 0x1234_5678u64;

    // Materialize every block, then run the mixed workload as long as the
    // measured window below so scratch buffers and relevel paths reach
    // their steady-state capacities before counting starts.
    for b in 0..blocks {
        mem.write(b, [b as u8; 64]).unwrap();
    }
    drive(&mut mem, blocks, 20_000, &mut rng);
    let relevels_before = mem.overflow_reencryptions();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let chk = drive(&mut mem, blocks, 20_000, &mut rng);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    std::hint::black_box(chk);

    // The measured window must itself have exercised the relevel path,
    // otherwise the zero-allocation claim would not cover it.
    assert!(
        mem.overflow_reencryptions() > relevels_before,
        "measured window triggered no relevels; workload too small"
    );
    assert_eq!(
        after - before,
        0,
        "steady-state reads/writes touched the heap"
    );
}
