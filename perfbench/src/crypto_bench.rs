//! The `crypto` layer in isolation: raw AES per backend, the RMCC pad
//! pipeline and the MAC, timed on the workload's own `(block, counter)`
//! pairs.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rmcc_crypto::aes::{Aes, AesVariant, Backend, BATCH_BLOCKS};
use rmcc_crypto::mac::{compute_mac, verify_mac, MacKeys};
use rmcc_crypto::otp::{KeySet, OtpPipeline, RmccOtp};

use crate::Ledger;

/// Distinct pairs one pipeline round derives.
pub const MAX_PAIRS: usize = 4_096;

/// Pairs the hit path cycles over: few enough that they rarely collide in
/// the pipeline's direct-mapped 16K-slot pad memo, so every call hits.
const HIT_PAIRS: usize = 256;

/// Key seed for the pipelines built here (any value: cost is key-blind).
const KEY_SEED: u64 = 0x0005_EED0_0F5E_C3E7;

/// Repeats `op` (which performs `per_call` operations) until `budget`
/// has passed; returns operations per second.
fn rate(budget: Duration, per_call: u64, mut op: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < budget {
        for _ in 0..64 {
            op(calls);
            calls += 1;
        }
    }
    (calls * per_call) as f64 / start.elapsed().as_secs_f64()
}

/// Repeats `round` (which times `per_round` operations itself and returns
/// the ns it measured) until `budget` has passed; returns ns per operation.
fn ns_per_op(budget: Duration, per_round: usize, mut round: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let (mut ns, mut ops) = (0u64, 0u64);
    while ops == 0 || start.elapsed() < budget {
        ns += round();
        ops += per_round as u64;
    }
    ns as f64 / ops as f64
}

/// Times `f` once, in ns.
fn timed(f: impl FnOnce()) -> u64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as u64
}

/// Measures raw AES throughput on both constant-time-relevant backends
/// (scalar and 8-lane) and the pad pipeline and MAC on `pairs` under
/// `backend`, appending `crypto.*` rows to `ledger`. Each row runs for
/// about `budget`.
pub fn run(ledger: &mut Ledger, pairs: &[(u64, u64)], backend: Backend, budget: Duration) {
    for b in [Backend::Fast, Backend::Hardened] {
        let aes = Aes::new_128_on(&[0x2b; 16], b);
        let scalar = rate(budget, 1, |i| {
            black_box(aes.encrypt_u128(black_box(u128::from(i))));
        });
        let batch8 = rate(budget, BATCH_BLOCKS as u64, |i| {
            let base = u128::from(i) << 3;
            black_box(
                aes.encrypt_u128_batch8(black_box(std::array::from_fn(|l| base | l as u128))),
            );
        });
        ledger.push(
            &format!("crypto.aes.{}_scalar_blocks_per_s", b.name()),
            scalar,
            "1/s",
        );
        ledger.push(
            &format!("crypto.aes.{}_batch8_blocks_per_s", b.name()),
            batch8,
            "1/s",
        );
    }

    let mut pairs: Vec<(u64, u64)> = pairs.to_vec();
    pairs.sort_unstable();
    pairs.dedup();
    pairs.truncate(MAX_PAIRS);
    if pairs.is_empty() {
        pairs.push((1, 1));
    }
    let n = pairs.len();
    let keys = || KeySet::from_master_on(KEY_SEED, AesVariant::Aes128, backend);

    // Miss path: a fresh pipeline derives every pair for the first time.
    let miss = ns_per_op(budget, n, || {
        let pipe = RmccOtp::new(keys());
        timed(|| {
            for &(block, ctr) in &pairs {
                black_box(pipe.block_pads(black_box(block), ctr));
            }
        })
    });
    ledger.push("crypto.otp.block_pads_ns", miss, "ns");

    // Hit path: a warmed pipeline serves the same few pairs from its memo.
    let hot = &pairs[..n.min(HIT_PAIRS)];
    let pipe = RmccOtp::new(keys());
    for &(block, ctr) in hot {
        pipe.block_pads(block, ctr);
    }
    let hit = ns_per_op(budget, hot.len(), || {
        timed(|| {
            for &(block, ctr) in hot {
                black_box(pipe.block_pads(black_box(block), ctr));
            }
        })
    });
    ledger.push("crypto.otp.block_pads_hit_ns", hit, "ns");

    let mac_pad = ns_per_op(budget, n, || {
        let pipe = RmccOtp::new(keys());
        timed(|| {
            for &(block, ctr) in &pairs {
                black_box(pipe.mac_pad(black_box(block), ctr));
            }
        })
    });
    ledger.push("crypto.otp.mac_pad_ns", mac_pad, "ns");

    let batch8 = ns_per_op(budget, n, || {
        timed(|| {
            for chunk in pairs.chunks(BATCH_BLOCKS) {
                black_box(pipe.block_pads_batch8(black_box(chunk)));
            }
        })
    });
    ledger.push("crypto.otp.batch8_ns_per_block", batch8, "ns");

    let mac_keys = MacKeys::from_seed(KEY_SEED);
    let blocks: Vec<([u8; 64], u128)> = pairs
        .iter()
        .map(|&(block, ctr)| ([block as u8; 64], u128::from(block) << 64 | u128::from(ctr)))
        .collect();
    let macs: Vec<u64> = blocks
        .iter()
        .map(|(data, pad)| compute_mac(&mac_keys, data, *pad))
        .collect();
    let compute = ns_per_op(budget, n, || {
        timed(|| {
            for (data, pad) in &blocks {
                black_box(compute_mac(&mac_keys, black_box(data), *pad));
            }
        })
    });
    let verify = ns_per_op(budget, n, || {
        timed(|| {
            for ((data, pad), &mac) in blocks.iter().zip(&macs) {
                black_box(verify_mac(&mac_keys, black_box(data), *pad, mac));
            }
        })
    });
    ledger.push("crypto.mac.compute_ns", compute, "ns");
    ledger.push("crypto.mac.verify_ns", verify, "ns");
}

/// ns per block of `backend`'s 8-lane AES, read back from the rows [`run`]
/// appended: the cheapest a modeled AES can be on that backend.
pub fn batch8_ns_per_block(ledger: &Ledger, backend: Backend) -> Option<f64> {
    ledger
        .get(&format!(
            "crypto.aes.{}_batch8_blocks_per_s",
            backend.name()
        ))
        .filter(|r| *r > 0.0)
        .map(|r| 1e9 / r)
}
