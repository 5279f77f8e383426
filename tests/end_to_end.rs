//! End-to-end integration tests: the functional secure memory exercised
//! through every scheme, pipeline, and attack the threat model covers.

use rmcc::core::shard::{memo_policy, ShardMemoConfig};
use rmcc::crypto::Backend;
use rmcc::secmem::counters::CounterOrg;
use rmcc::secmem::engine::{IncrementPolicy, PipelineKind, ReadError, SecureMemory};

const ORGS: [CounterOrg; 3] = [
    CounterOrg::Mono8,
    CounterOrg::Sc64,
    CounterOrg::Morphable128,
];
const PIPES: [PipelineKind; 2] = [PipelineKind::Sgx, PipelineKind::Rmcc];

fn pattern(block: u64, salt: u8) -> [u8; 64] {
    core::array::from_fn(|i| (block as u8).wrapping_mul(31) ^ (i as u8) ^ salt)
}

#[test]
fn roundtrip_every_org_and_pipeline() {
    for org in ORGS {
        for pipe in PIPES {
            let mut mem = SecureMemory::new(org, 1 << 22, pipe, 1);
            for block in [0u64, 1, 63, 64, 127, 128, 1000] {
                mem.write(block, pattern(block, 0)).unwrap();
            }
            for block in [0u64, 1, 63, 64, 127, 128, 1000] {
                assert_eq!(
                    mem.read(block).unwrap(),
                    pattern(block, 0),
                    "{org} / {pipe:?} block {block}"
                );
            }
        }
    }
}

#[test]
fn overwrites_always_return_latest_value() {
    let mut mem = SecureMemory::new(CounterOrg::Morphable128, 1 << 22, PipelineKind::Rmcc, 2);
    for round in 0..20u8 {
        mem.write(5, pattern(5, round)).unwrap();
        assert_eq!(mem.read(5).unwrap(), pattern(5, round));
    }
}

#[test]
fn sc64_overflow_reencryption_preserves_all_covered_data() {
    // Push one block's counter past the 7-bit minor so the whole counter
    // block relevels, then verify every *other* covered block still
    // decrypts correctly (re-encryption must be transparent).
    let mut mem = SecureMemory::new(CounterOrg::Sc64, 1 << 22, PipelineKind::Rmcc, 3);
    for b in 0..64u64 {
        mem.write(b, pattern(b, 7)).unwrap();
    }
    for _ in 0..130 {
        mem.write(0, pattern(0, 9)).unwrap();
    }
    assert!(
        mem.overflow_reencryptions() > 0,
        "relevel must have happened"
    );
    for b in 1..64u64 {
        assert_eq!(
            mem.read(b).unwrap(),
            pattern(b, 7),
            "block {b} corrupted by relevel"
        );
    }
    assert_eq!(mem.read(0).unwrap(), pattern(0, 9));
}

#[test]
fn every_tamper_vector_is_detected() {
    let mut mem = SecureMemory::new(CounterOrg::Morphable128, 1 << 22, PipelineKind::Rmcc, 4);
    mem.write(10, pattern(10, 1)).unwrap();

    // Ciphertext bit flips at every word boundary.
    for byte in [0usize, 15, 16, 31, 32, 47, 48, 63] {
        mem.tamper_data(10, byte, 0x01).unwrap();
        assert_eq!(
            mem.read(10),
            Err(ReadError::DataTampered { block: 10 }),
            "byte {byte}"
        );
        mem.tamper_data(10, byte, 0x01).unwrap(); // undo
        assert!(mem.read(10).is_ok(), "undo at byte {byte} failed");
    }

    // MAC corruption.
    mem.tamper_mac(10, 1 << 40).unwrap();
    assert!(mem.read(10).is_err());
}

#[test]
fn replay_detected_across_pipelines() {
    for pipe in PIPES {
        let mut mem = SecureMemory::new(CounterOrg::Morphable128, 1 << 22, pipe, 5);
        mem.write(77, pattern(77, 1)).unwrap();
        let stale = mem.snapshot(77).unwrap();
        mem.write(77, pattern(77, 2)).unwrap();
        mem.replay(&stale).unwrap();
        assert!(
            matches!(mem.read(77), Err(ReadError::MetadataTampered { .. })),
            "{pipe:?}: replay must be caught by the tree"
        );
    }
}

/// RMCC's memoization-aware update plugged into the functional engine, as
/// the sharded service plugs it in: counters jump to memoized values and
/// everything still decrypts.
#[test]
fn functional_engine_with_real_rmcc_policy() {
    let (policy, handle) = memo_policy(&ShardMemoConfig::paper());
    handle.seed_groups([1_000, 50_000]);
    let mut mem = SecureMemory::with_policy(
        CounterOrg::Morphable128,
        1 << 22,
        PipelineKind::Rmcc,
        6,
        policy,
    );
    // Writes land on memoized values (1000, 1001, ...) and data is intact.
    for round in 0..5u8 {
        for b in 0..32u64 {
            mem.write(b, pattern(b, round)).unwrap();
        }
    }
    for b in 0..32u64 {
        assert_eq!(mem.read(b).unwrap(), pattern(b, 4));
        let c = mem.counter_of(b);
        assert!(c >= 1_000, "counter {c} did not jump to the memoized group");
    }
}

/// Drives one engine through writes, overwrites, reads, and a tamper
/// round-trip, and returns its architectural digest. Used to compare
/// backends: identical histories must leave identical digests.
fn drive_history(mem: &mut SecureMemory) -> u64 {
    for block in [0u64, 1, 63, 64, 127, 128, 1000] {
        mem.write(block, pattern(block, 0)).unwrap();
    }
    for round in 0..20u8 {
        mem.write(5, pattern(5, round)).unwrap();
        assert_eq!(mem.read(5).unwrap(), pattern(5, round));
    }
    mem.tamper_data(64, 3, 0x80).unwrap();
    assert_eq!(mem.read(64), Err(ReadError::DataTampered { block: 64 }));
    mem.tamper_data(64, 3, 0x80).unwrap(); // undo
    assert_eq!(mem.read(64).unwrap(), pattern(64, 0));
    mem.state_digest()
}

#[test]
fn hardened_backend_leaves_every_state_digest_unchanged() {
    // The bitsliced constant-time backend must be bit-identical to the
    // T-table path: the same history leaves the same architectural digest
    // for every counter organization and pipeline.
    for org in ORGS {
        for pipe in PIPES {
            let digest_on = |backend: Backend| {
                let mut mem = SecureMemory::with_policy_on(
                    org,
                    1 << 22,
                    pipe,
                    11,
                    Box::new(IncrementPolicy),
                    backend,
                );
                assert_eq!(mem.backend(), backend);
                drive_history(&mut mem)
            };
            assert_eq!(
                digest_on(Backend::Fast),
                digest_on(Backend::Hardened),
                "{org} / {pipe:?}: hardened digest diverged from fast"
            );
        }
    }
}

#[test]
fn hardened_env_rerun_matches_the_reference_backend() {
    // The env-driven constructor path under RMCC_BACKEND=hardened: the
    // same workload as the explicit-backend reference must round-trip and
    // land on the same digest. Backends never change outputs, so the
    // process-global env flip is benign for any concurrently constructed
    // engine.
    let reference = {
        let mut mem = SecureMemory::with_policy_on(
            CounterOrg::Morphable128,
            1 << 22,
            PipelineKind::Rmcc,
            12,
            Box::new(IncrementPolicy),
            Backend::Reference,
        );
        drive_history(&mut mem)
    };
    std::env::set_var("RMCC_BACKEND", "hardened");
    let mut mem = SecureMemory::new(CounterOrg::Morphable128, 1 << 22, PipelineKind::Rmcc, 12);
    assert_eq!(mem.backend(), Backend::Hardened, "env selection failed");
    assert_eq!(
        drive_history(&mut mem),
        reference,
        "hardened env run diverged from the byte-wise reference"
    );
    std::env::remove_var("RMCC_BACKEND");
}

#[test]
fn distinct_keys_produce_distinct_ciphertexts() {
    // Same plaintext, same addresses, different master keys: the memory
    // images must differ (no key-independent leakage). Observable via MACs.
    let mut a = SecureMemory::new(CounterOrg::Sc64, 1 << 22, PipelineKind::Rmcc, 100);
    let mut b = SecureMemory::new(CounterOrg::Sc64, 1 << 22, PipelineKind::Rmcc, 101);
    a.write(0, [1u8; 64]).unwrap();
    b.write(0, [1u8; 64]).unwrap();
    // Cross-reading is impossible through the public API; instead confirm
    // both verify under their own keys and tamper-detection still works
    // independently.
    assert!(a.read(0).is_ok());
    assert!(b.read(0).is_ok());
    a.tamper_data(0, 0, 1).unwrap();
    assert!(a.read(0).is_err());
    assert!(
        b.read(0).is_ok(),
        "tampering one machine must not affect the other"
    );
}
