//! Property and golden tests for the sharded [`SecureMemoryService`].
//!
//! Three contracts, machine-checked:
//!
//! 1. **Routing is a partition.** Every block routes to exactly one
//!    in-range shard, the choice is stable, and coverage-mates (blocks
//!    protected by the same L0 counter group) never split across shards —
//!    the invariant that keeps relevels shard-local.
//! 2. **Batched equals serial, byte for byte.** `submit` over any batch,
//!    at any shard count and worker width, returns exactly what a single
//!    serial [`SecureMemory`] engine returns for the same sequence —
//!    results *and* order-sensitive digest.
//! 3. **The golden run never drifts.** A seeded multi-tenant service run
//!    is pinned — its full telemetry JSONL (fixture file) and its result
//!    checksum. Any change to routing, batching, memoization steering, or
//!    the crypto pipeline shows up here as a diff.

use proptest::prelude::*;
use rmcc::secmem::{
    digest_results, serial_reference, Access, AccessResult, HealthConfig, SecureMemory,
    SecureMemoryService, ServiceConfig,
};
use rmcc::sim::service_run::{access_for_event, run_service, ServingScenario};
use rmcc::workloads::corpus::{KvServingConfig, Scenario};

/// Address space small enough to keep proptest cases fast, large enough
/// for several tree levels per shard.
const DATA_BYTES: u64 = 1 << 24;

/// Turns generated tuples into an access batch over a dense block range,
/// so every shard sees traffic and submission order matters.
fn to_batch(raw: &[(u64, bool, u8)]) -> Vec<Access> {
    raw.iter()
        .map(|&(block, is_write, fill)| {
            if is_write {
                Access::Write {
                    block,
                    data: [fill; 64],
                }
            } else {
                Access::Read { block }
            }
        })
        .collect()
}

proptest! {
    /// Every block routes to exactly one in-range shard, deterministically,
    /// and coverage-mates always land on the same shard.
    #[test]
    fn routing_is_a_stable_region_preserving_partition(
        block in 0u64..(1 << 18),
        shards in 1usize..=16,
    ) {
        let service = SecureMemoryService::new(&ServiceConfig::new(shards, DATA_BYTES));
        let snap = service.snapshot();
        let shard = snap.shard_of(block);
        prop_assert!(shard < shards, "shard {shard} out of range 0..{shards}");
        prop_assert_eq!(shard, snap.shard_of(block), "routing must be stable");
        // Every coverage-mate of `block` (same L0 region) routes identically.
        let coverage = snap.coverage().max(1);
        let first = (block / coverage) * coverage;
        for mate in first..first + coverage.min(8) {
            prop_assert_eq!(
                snap.shard_of(mate), shard,
                "coverage-mates must never split across shards"
            );
        }
    }

    /// `submit` is byte-identical to a serial single-engine execution of
    /// the same batch, for any batch, shard count, and worker width.
    #[test]
    fn submit_is_byte_identical_to_the_serial_engine(
        raw in prop::collection::vec((0u64..2048, any::<bool>(), any::<u8>()), 1..64),
        shards in 1usize..=8,
        jobs in 1usize..=4,
    ) {
        let batch = to_batch(&raw);
        let cfg = ServiceConfig::new(shards, DATA_BYTES);
        let service = SecureMemoryService::new(&cfg);
        let batched = service.submit_with_jobs(&batch, jobs);
        let serial = serial_reference(&cfg, &batch);
        prop_assert_eq!(&batched, &serial, "batched results diverged from serial");
        prop_assert_eq!(
            digest_results(&batched),
            digest_results(&serial),
            "order-sensitive digest diverged"
        );
    }

    /// Repeat submissions stay identical: the same two batches through
    /// three fresh services — narrow, wide, and narrow with the health
    /// lifecycle enabled — give the same digests in sequence. Clean load
    /// never trips the lifecycle, so enabling it never changes results.
    #[test]
    fn resubmission_sequences_are_width_invariant(
        raw_a in prop::collection::vec((0u64..1024, any::<bool>(), any::<u8>()), 1..32),
        raw_b in prop::collection::vec((0u64..1024, any::<bool>(), any::<u8>()), 1..32),
        shards in 1usize..=6,
    ) {
        let (a, b) = (to_batch(&raw_a), to_batch(&raw_b));
        let cfg = ServiceConfig::new(shards, DATA_BYTES);
        let narrow = SecureMemoryService::new(&cfg);
        let wide = SecureMemoryService::new(&cfg);
        let health = SecureMemoryService::new(&cfg.with_health(HealthConfig::new()));
        for batch in [&a, &b] {
            let rn = narrow.submit_with_jobs(batch, 1);
            let rw = wide.submit_with_jobs(batch, 4);
            let rh = health.submit_with_jobs(batch, 1);
            prop_assert_eq!(digest_results(&rn), digest_results(&rw));
            prop_assert_eq!(digest_results(&rn), digest_results(&rh));
        }
    }
}

/// When the counter caches write their dirty nodes back is invisible: a
/// kv stream through a service whose shards are all flushed every third
/// batch returns the same results, batch for batch, and every shard's
/// state digest matches the never-flushed service's after every batch.
#[test]
fn counter_cache_flushes_change_no_result_or_digest() {
    const SHARDS: usize = 4;
    let scenario = Scenario::KvServing(KvServingConfig {
        tenants: 16,
        regions_per_tenant: 8,
        blocks_per_region: 128,
        hot_blocks_per_region: 8,
        events: 1 << 13,
        write_permille: 200,
        churn_period: 2_048,
        seed: 18,
    });
    let stream: Vec<Access> = scenario
        .events()
        .enumerate()
        .map(|(i, ev)| access_for_event(&ev, i as u64))
        .collect();
    let cfg = ServiceConfig::new(SHARDS, DATA_BYTES);
    let plain = SecureMemoryService::new(&cfg);
    let flushed = SecureMemoryService::new(&cfg);
    for (i, batch) in stream.chunks(256).enumerate() {
        if i % 3 == 2 {
            for shard in 0..SHARDS {
                flushed.with_shard(shard, SecureMemory::flush_counter_cache);
            }
        }
        assert_eq!(plain.submit(batch), flushed.submit(batch), "batch {i}");
        for shard in 0..SHARDS {
            assert_eq!(
                plain.shard_state_digest(shard),
                flushed.shard_state_digest(shard),
                "batch {i}, shard {shard}"
            );
        }
    }
    let writebacks: u64 = flushed
        .counter_cache_stats()
        .iter()
        .map(|s| s.writebacks)
        .sum();
    assert!(writebacks > 0, "the flushes wrote dirty nodes back");
}

/// Dirty counter-cache victims reach DRAM on the service path. One shard's
/// stream cycles through more L0 regions whose node lines share a
/// counter-cache set than the set has ways: every round writes them all
/// (resident lines turn dirty) and then reads them all, and each read's
/// fill evicts a line the writes left dirty, which `verify_path` writes
/// back. A twin flushed after every batch never holds a dirty line across
/// batches; the two must agree on every result and shard digest, and the
/// unflushed service must count write-backs, all of them from evictions.
#[test]
fn dirty_counter_cache_victims_are_written_back_by_read_fills() {
    use rmcc::secmem::engine::{COUNTER_CACHE_LINES, COUNTER_CACHE_WAYS};
    const SHARDS: usize = 2;
    const SHARD: usize = 1;
    // 16,384 L0 regions: 256 per set of the counter cache.
    const BIG_DATA_BYTES: u64 = 1 << 27;
    let cfg = ServiceConfig::new(SHARDS, BIG_DATA_BYTES);
    let plain = SecureMemoryService::new(&cfg);
    let flushed = SecureMemoryService::new(&cfg);
    let snap = plain.snapshot();
    let coverage = snap.coverage();
    let sets = (COUNTER_CACHE_LINES / COUNTER_CACHE_WAYS) as u64;
    // The first block of each L0 region whose node line falls in set 5
    // and that `SHARD` owns: half again as many as the set has ways.
    let blocks: Vec<u64> = plain
        .with_shard(SHARD, |mem| {
            let layout = mem.layout();
            (0..layout.level_count(0))
                .filter(|&r| (layout.node_addr(0, r) >> 6) % sets == 5)
                .map(|r| r * coverage)
                .filter(|&block| snap.shard_of(block) == SHARD)
                .take(COUNTER_CACHE_WAYS * 3 / 2)
                .collect()
        })
        .expect("shard exists");
    assert_eq!(blocks.len(), COUNTER_CACHE_WAYS * 3 / 2);
    let digests = |service: &SecureMemoryService| {
        (0..SHARDS)
            .map(|shard| service.shard_state_digest(shard))
            .collect::<Vec<_>>()
    };
    for round in 0..4u8 {
        let writes: Vec<Access> = blocks
            .iter()
            .enumerate()
            .map(|(i, &block)| Access::Write {
                block,
                data: [round.wrapping_mul(64).wrapping_add(i as u8); 64],
            })
            .collect();
        let reads: Vec<Access> = blocks.iter().map(|&block| Access::Read { block }).collect();
        for (phase, batch) in [("write", &writes), ("read", &reads)] {
            let got = plain.submit(batch);
            let twin = flushed.submit(batch);
            assert_eq!(got.len(), twin.len());
            for (i, (result, twin_result)) in got.iter().zip(&twin).enumerate() {
                assert_eq!(result, twin_result, "round {round} {phase} {i}");
                if let (Some(Access::Write { data, .. }), "read") = (writes.get(i), phase) {
                    assert_eq!(*result, AccessResult::Data(*data), "round {round} read {i}");
                }
            }
            for shard in 0..SHARDS {
                flushed.with_shard(shard, SecureMemory::flush_counter_cache);
            }
            assert_eq!(digests(&plain), digests(&flushed), "round {round} {phase}s");
        }
    }
    let writebacks = plain.counter_cache_stats()[SHARD].writebacks;
    assert!(
        writebacks >= (COUNTER_CACHE_WAYS * 3 / 2) as u64,
        "read fills wrote back only {writebacks} dirty victims"
    );
}

/// The pinned telemetry series of each seeded small service run, one per
/// corpus scenario. Regenerate only for intentional changes:
///
/// ```text
/// cargo test --test service_properties -- --ignored regenerate
/// ```
const GOLDEN_KV: &str = include_str!("golden/service_run_small.jsonl");
const GOLDEN_PHASE: &str = include_str!("golden/service_run_phase_small.jsonl");
const GOLDEN_ADVERSARIAL: &str = include_str!("golden/service_run_adversarial_small.jsonl");

/// The pinned order-sensitive result checksums of the same runs.
const GOLDEN_KV_CHECKSUM: u64 = 0x9ba6_4580_9ecb_f7a5;
const GOLDEN_PHASE_CHECKSUM: u64 = 0xff18_fe98_f8b2_08b4;
const GOLDEN_ADVERSARIAL_CHECKSUM: u64 = 0xadd4_1aa2_1e9d_1f79;

/// `(scenario, fixture path, pinned telemetry, pinned checksum)` per
/// scenario.
fn golden_cases() -> [(ServingScenario, &'static str, &'static str, u64); 3] {
    [
        (
            ServingScenario::KvServing,
            "tests/golden/service_run_small.jsonl",
            GOLDEN_KV,
            GOLDEN_KV_CHECKSUM,
        ),
        (
            ServingScenario::PhaseChange,
            "tests/golden/service_run_phase_small.jsonl",
            GOLDEN_PHASE,
            GOLDEN_PHASE_CHECKSUM,
        ),
        (
            ServingScenario::AdversarialLocality,
            "tests/golden/service_run_adversarial_small.jsonl",
            GOLDEN_ADVERSARIAL,
            GOLDEN_ADVERSARIAL_CHECKSUM,
        ),
    ]
}

#[test]
fn seeded_service_runs_match_golden_fixtures() {
    for (scenario, path, golden, checksum) in golden_cases() {
        let name = scenario.corpus_scenario().name();
        let r = run_service(scenario);
        assert_eq!(
            r.checksum, checksum,
            "{name}: service run checksum drifted: got {:#018x}",
            r.checksum
        );
        assert_eq!(
            r.jsonl, golden,
            "{name}: service telemetry drifted from {path} \
             (intentional changes must regenerate the fixture)"
        );
    }
}

#[test]
#[ignore = "writes the golden fixtures; run explicitly after intentional changes"]
fn regenerate() {
    let mut checksums = String::new();
    for (scenario, path, _, _) in golden_cases() {
        let r = run_service(scenario);
        std::fs::write(path, &r.jsonl).unwrap_or_else(|e| panic!("cannot write fixture: {e}"));
        checksums.push_str(&format!(
            "\n  {}: {:#018x}",
            scenario.corpus_scenario().name(),
            r.checksum
        ));
    }
    panic!("fixtures regenerated; update the pinned checksums to:{checksums}\nand rerun");
}
