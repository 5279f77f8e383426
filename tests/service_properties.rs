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
    digest_results, serial_reference, Access, HealthConfig, SecureMemoryService, ServiceConfig,
};
use rmcc::sim::service_run::{run_service, ServingScenario};

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
