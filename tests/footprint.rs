//! Engine memory per touched block on the kv-serving stream.
//!
//! A reduced kv stream (2^15 events, 5% writes) runs through an 8-shard
//! service over 8 GiB of protected space: every block the stream touches is
//! written once, then the stream itself is submitted. The footprint is
//! [`SecureMemoryService::footprint_bytes`] summed over the shards, so it is
//! counted from the engine's structures, not read from the process RSS,
//! and is the same on every run and host.
//!
//! Two keyspaces: the 256 × 32-region one the repository benchmark serves
//! (2.2 touched blocks per touched region on this stream), and the
//! original 4,096 × 256-region one (1.5 per region, spread over nearly all
//! 2^20 regions of the space). Each must
//! stay at or below a quarter of the bytes per block the engine held with
//! 1,024-slot `Option` pages and per-level counter-cache copy arenas.
//!
//! Run with `--nocapture` to see the `footprint-ok` line.

use rmcc::secmem::{Access, AccessResult, SecureMemoryService, ServiceConfig};
use rmcc::sim::service_run::access_for_event;
use rmcc::workloads::corpus::{KvServingConfig, Scenario};

/// Bytes per touched block with 1,024-slot pages, on the 256 × 32 keyspace.
const PAGED_1024_BYTES_PER_BLOCK_SMALL: u64 = 31_622;
/// The same on the original 4,096 × 256 keyspace.
const PAGED_1024_BYTES_PER_BLOCK_ORIGINAL: u64 = 81_026;

const SHARDS: usize = 8;
const DATA_BYTES: u64 = 1 << 33;
const EVENTS: u64 = 1 << 15;
const BATCH: usize = 512;

/// Bytes per touched block after serving the stream over a
/// `tenants × regions_per_tenant` keyspace.
fn bytes_per_touched_block(tenants: u64, regions_per_tenant: u64) -> (u64, usize) {
    let scenario = Scenario::KvServing(KvServingConfig {
        tenants,
        regions_per_tenant,
        blocks_per_region: 128,
        hot_blocks_per_region: 8,
        events: EVENTS,
        write_permille: 50,
        churn_period: 0,
        seed: 601,
    });
    let stream: Vec<Access> = scenario
        .events()
        .enumerate()
        .map(|(i, ev)| access_for_event(&ev, i as u64))
        .collect();
    let mut blocks: Vec<u64> = stream.iter().map(Access::block).collect();
    blocks.sort_unstable();
    blocks.dedup();

    let svc = SecureMemoryService::new(&ServiceConfig::new(SHARDS, DATA_BYTES));
    let prewrite: Vec<Access> = blocks
        .iter()
        .map(|&block| Access::Write {
            block,
            data: [block as u8; 64],
        })
        .collect();
    for batch in prewrite.chunks(BATCH).chain(stream.chunks(BATCH)) {
        let results = svc.submit(batch);
        assert!(
            results
                .iter()
                .all(|r| matches!(r, AccessResult::Data(_) | AccessResult::Written { .. })),
            "every access is legal after the pre-write"
        );
    }
    let total: u64 = svc.footprint_bytes().iter().sum();
    (total / blocks.len() as u64, blocks.len())
}

#[test]
fn footprint_per_touched_block_is_a_quarter_of_1024_slot_pages() {
    let (small, small_blocks) = bytes_per_touched_block(256, 32);
    let (original, original_blocks) = bytes_per_touched_block(4_096, 256);
    println!(
        "footprint: 256x32 {small} B/block over {small_blocks} blocks (1024-slot pages: \
         {PAGED_1024_BYTES_PER_BLOCK_SMALL}); 4096x256 {original} B/block over \
         {original_blocks} blocks (1024-slot pages: {PAGED_1024_BYTES_PER_BLOCK_ORIGINAL})"
    );
    assert!(
        small * 4 <= PAGED_1024_BYTES_PER_BLOCK_SMALL,
        "256x32 keyspace: {small} B/block"
    );
    assert!(
        original * 4 <= PAGED_1024_BYTES_PER_BLOCK_ORIGINAL,
        "4096x256 keyspace: {original} B/block"
    );
    println!("footprint-ok: 256x32 {small} B/block; 4096x256 {original} B/block");
}
