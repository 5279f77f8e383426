//! Property-based tests over the stack's core invariants.

use proptest::prelude::*;
use rmcc::core::rmcc::{Rmcc, RmccConfig};
use rmcc::core::table::{MemoizationTable, TableConfig};
use rmcc::crypto::clmul::{clmul128, clmul64};
use rmcc::crypto::mac::{compute_mac, gf64_mul, verify_mac, xor_with_pads, MacKeys};
use rmcc::crypto::otp::{KeySet, OtpPipeline, RmccOtp, SgxOtp};
use rmcc::faults::{FaultHarness, FaultKind};
use rmcc::secmem::counters::{CounterBlock, CounterOrg};
use rmcc::secmem::engine::{PipelineKind, SecureMemory};

proptest! {
    /// Encrypt-then-decrypt is the identity for any plaintext, address, and
    /// counter, under both pipelines.
    #[test]
    fn encryption_roundtrips(
        plain in prop::array::uniform32(any::<u8>()),
        addr in 0u64..(1 << 40),
        ctr in 0u64..(1 << 50),
        sgx in any::<bool>(),
    ) {
        let keys = KeySet::from_master(42);
        let pads = if sgx {
            SgxOtp::new(keys).block_pads(addr, ctr)
        } else {
            RmccOtp::new(keys).block_pads(addr, ctr)
        };
        let mut block = [0u8; 64];
        block[..32].copy_from_slice(&plain);
        block[32..].copy_from_slice(&plain);
        let cipher = xor_with_pads(&block, &pads);
        prop_assert_eq!(xor_with_pads(&cipher, &pads), block);
    }

    /// MACs verify on authentic data and fail on any single flipped bit.
    #[test]
    fn macs_catch_any_flip(
        seed in any::<u64>(),
        pad in any::<u128>(),
        byte in 0usize..64,
        bit in 0u8..8,
    ) {
        let keys = MacKeys::from_seed(seed);
        let mut block = [0u8; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = (seed as u8).wrapping_add(i as u8);
        }
        let mac = compute_mac(&keys, &block, pad);
        prop_assert!(verify_mac(&keys, &block, pad, mac));
        block[byte] ^= 1 << bit;
        prop_assert!(!verify_mac(&keys, &block, pad, mac));
    }

    /// GF(2^64) multiplication forms a commutative ring with XOR.
    #[test]
    fn gf64_ring_laws(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        prop_assert_eq!(gf64_mul(a, b), gf64_mul(b, a));
        prop_assert_eq!(gf64_mul(gf64_mul(a, b), c), gf64_mul(a, gf64_mul(b, c)));
        prop_assert_eq!(gf64_mul(a, b ^ c), gf64_mul(a, b) ^ gf64_mul(a, c));
        prop_assert_eq!(gf64_mul(a, 1), a);
    }

    /// Carry-less multiplication is commutative and distributes over XOR at
    /// both widths.
    #[test]
    fn clmul_laws(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        prop_assert_eq!(clmul64(a, b), clmul64(b, a));
        prop_assert_eq!(clmul64(a, b ^ c), clmul64(a, b) ^ clmul64(a, c));
        let (x, y) = (a as u128 | ((c as u128) << 64), b as u128);
        prop_assert_eq!(clmul128(x, y), clmul128(y, x));
    }

    /// A counter block never decreases any counter, never reuses a value
    /// for a slot, and relevels move every slot forward.
    #[test]
    fn counters_strictly_increase(
        org_sel in 0usize..3,
        ops in prop::collection::vec((0usize..64, 1u64..200), 1..300),
    ) {
        let org = [CounterOrg::Mono8, CounterOrg::Sc64, CounterOrg::Morphable128][org_sel];
        let mut cb = CounterBlock::new(org);
        let slots = org.coverage();
        let mut seen: Vec<Vec<u64>> = vec![Vec::new(); slots];
        for (slot, delta) in ops {
            let slot = slot % slots;
            let target = cb.value(slot) + delta;
            let before: Vec<u64> = cb.values().collect();
            let max = cb.max_value();
            let relevel_to = |min: u64| {
                assert!(min > max, "a relevel must pass the block's maximum");
                min
            };
            match cb.advance(slot, target, relevel_to) {
                Ok(None) => {
                    prop_assert_eq!(cb.value(slot), target);
                    // No other slot moved.
                    for (s, prev) in before.iter().enumerate() {
                        if s != slot {
                            prop_assert_eq!(cb.value(s), *prev);
                        }
                    }
                }
                Ok(Some(old)) => {
                    prop_assert_eq!(old.values().collect::<Vec<u64>>(), before.clone());
                    for (s, prev) in before.iter().enumerate() {
                        prop_assert!(cb.value(s) > *prev, "slot {} did not move forward", s);
                    }
                }
                Err(saturated) => panic!("{saturated:?} below 2^56"),
            }
            let v = cb.value(slot);
            prop_assert!(!seen[slot].contains(&v), "slot {} reused value {}", slot, v);
            seen[slot].push(v);
        }
    }

    /// The memoization-aware update always lands on a memoized value when
    /// one is reachable, never decreases a counter, and never spends budget
    /// it does not have.
    #[test]
    fn memo_update_invariants(
        starts in prop::collection::vec(10u64..100_000, 1..16),
        writes in prop::collection::vec(0usize..128, 1..200),
    ) {
        let mut rmcc = Rmcc::new(RmccConfig::paper());
        for s in &starts {
            rmcc.seed_group(0, *s);
        }
        let mut cb = CounterBlock::new(CounterOrg::Morphable128);
        for slot in writes {
            let before = cb.value(slot);
            let out = rmcc.update_counter(0, &mut cb, slot, false).unwrap();
            prop_assert!(out.new_value > before);
            prop_assert_eq!(cb.value(slot), out.new_value);
            if rmcc.table(0).nearest_memoized_above(before).is_some() && out.charged_requests > 0 {
                prop_assert!(out.releveled);
            }
        }
        // The budget ledger never goes negative.
        prop_assert!(rmcc.budget(0).available() >= 0.0);
    }

    /// Table lookups after an insert hit the whole group and nothing else
    /// nearby; nearest-above always returns a memoized value.
    #[test]
    fn table_group_semantics(start in 0u64..1_000_000, probe in 0u64..1_000_010) {
        let mut t = MemoizationTable::new(TableConfig::paper());
        t.insert_group(start);
        let in_group = probe >= start && probe < start + 8;
        prop_assert_eq!(t.probe(probe), in_group);
        if let Some(next) = t.nearest_memoized_above(probe) {
            prop_assert!(next > probe);
            prop_assert!(t.probe(next));
        }
    }

    /// Threat-model invariant (the failure-semantics table in DESIGN.md):
    /// after any single injected fault, reading the victim block either
    /// returns a typed error or the exact last-written plaintext — never a
    /// silently different value.
    #[test]
    fn single_fault_is_detected_or_harmless(
        seed in any::<u64>(),
        org_sel in 0usize..3,
        sgx in any::<bool>(),
        block in 0u64..256,
        fault in 0usize..6,
        byte in 0usize..64,
        bit in 0u8..8,
    ) {
        let org = [CounterOrg::Mono8, CounterOrg::Sc64, CounterOrg::Morphable128][org_sel];
        let pipeline = if sgx { PipelineKind::Sgx } else { PipelineKind::Rmcc };
        let mut mem = SecureMemory::new(org, 1 << 20, pipeline, seed);

        // First write: the stale images every rollback/replay fault restores.
        let mut old = [0u8; 64];
        for (i, b) in old.iter_mut().enumerate() {
            *b = (seed as u8) ^ (i as u8);
        }
        mem.write(block, old).unwrap();
        let replay_snap = mem.snapshot(block).unwrap();
        let l0 = mem.layout().l0_index(block);
        let node_snap = mem.snapshot_node(0, l0).unwrap();
        let data_snap = mem.data_snapshot(block).unwrap();

        // Second write: the plaintext a correct read must return.
        let mut last = old;
        last[byte] ^= 0xa5;
        mem.write(block, last).unwrap();

        match fault {
            0 => mem.tamper_data(block, byte, 1 << bit).unwrap(),
            1 => mem.tamper_mac(block, 1u64 << bit).unwrap(),
            2 => mem.replay(&replay_snap).unwrap(),
            3 => mem.replay_node(&node_snap),
            4 => mem.restore_data(&data_snap),
            _ => {
                let forged = mem.observed_max() + 1;
                mem.forge_node_counters(0, l0, forged).unwrap();
            }
        }

        match mem.read(block) {
            Err(_) => {}
            Ok(got) => prop_assert_eq!(got, last),
        }
    }

    /// The harness-level statement of the same invariant, which also covers
    /// the RMCC memoization-table fault class: every fault classifies as
    /// detected or fail-safe, never as silent corruption, and the memory
    /// reads back intact after each healed fault.
    #[test]
    fn harness_faults_are_always_safe(
        seed in any::<u64>(),
        sgx in any::<bool>(),
        kinds in prop::collection::vec(0usize..FaultKind::ALL.len(), 1..10),
    ) {
        let pipeline = if sgx { PipelineKind::Sgx } else { PipelineKind::Rmcc };
        let mut h = FaultHarness::new(CounterOrg::Morphable128, pipeline, seed, 16, 1 << 20);
        for k in kinds {
            let kind = FaultKind::ALL[k];
            let outcome = h.inject(kind);
            prop_assert!(outcome.is_safe(), "{:?} classified {:?}", kind, outcome);
        }
        prop_assert!(h.verify_all());
    }
}
