//! Attack demo: what secure memory actually defends against.
//!
//! Plays the adversary with physical access that the paper's threat model
//! assumes (a memory-bus probe, §II): spoofing ciphertext, forging MACs,
//! mounting a full replay, replaying a tree node above a counter block the
//! memory controller has cached, and rolling back a counter block the
//! controller holds dirty — and shows each one being caught. Finishes
//! with the §IV-D1 empirical check that RMCC's truncated-clmul OTPs are as
//! random as raw AES output.
//!
//! ```text
//! cargo run --release --example attack_demo
//! ```

use rmcc::crypto::aes::Aes;
use rmcc::crypto::nist::{pass_rate, BitStream};
use rmcc::crypto::otp::{KeySet, PadPurpose, RmccOtp, COUNTER_MAX};
use rmcc::secmem::counters::CounterOrg;
use rmcc::secmem::engine::{PipelineKind, ReadError, SecureMemory};

fn main() {
    let mut mem = SecureMemory::new(CounterOrg::Morphable128, 1 << 24, PipelineKind::Rmcc, 99);
    let block = 1234;
    mem.write(block, block_of(b"wire $1,000,000 to account 7731"))
        .expect("write within capacity");

    println!("=== Attack 1: flip one ciphertext bit on the bus ===");
    mem.tamper_data(block, 31, 0x01).expect("block is written");
    report(mem.read(block));
    // Restore by rewriting.
    mem.write(block, block_of(b"wire $1,000,000 to account 7731"))
        .expect("write within capacity");

    println!("\n=== Attack 2: forge the MAC too ===");
    mem.tamper_data(block, 31, 0x01).expect("block is written");
    mem.tamper_mac(block, 0xdead_beef)
        .expect("block is written");
    report(mem.read(block));
    mem.write(block, block_of(b"wire $1,000,000 to account 7731"))
        .expect("write within capacity");

    println!("\n=== Attack 3: full replay (stale data + MAC + counter image) ===");
    // The earlier reads cached the block's counter block, so the rewrites
    // left it dirty on-chip. The attacker waits for each write-back: an
    // image captured or replayed under a dirty line is dead (Attack 6).
    mem.flush_counter_cache();
    let stale = mem.snapshot(block).expect("block is on the bus");
    mem.write(block, block_of(b"wire $1 to account 7731"))
        .expect("write within capacity");
    mem.flush_counter_cache();
    println!("  victim updated the block; attacker replays the old snapshot");
    mem.replay(&stale).expect("snapshot is from this memory");
    report(mem.read(block));

    println!("\n=== Attack 4: forge the counter image at the 56-bit bound ===");
    // Probe for saturation-handling bugs: jam every counter in the covering
    // block to the Observed-System-Max bound, then to COUNTER_MAX itself.
    let l0 = mem.layout().l0_index(block);
    mem.flush_counter_cache();
    for forged in [mem.observed_max() + 1, COUNTER_MAX] {
        mem.forge_node_counters(0, l0, forged)
            .expect("node is in the layout");
        println!("  attacker forges the counter image to {forged}");
        report(mem.read(block));
    }

    println!("\n=== Attack 5: replay a stale ancestor under a cached node ===");
    // A read verifies the tree only up to the first node held in the
    // on-chip counter cache, so a stale parent replayed above a cached
    // counter block is caught when that block is evicted and refetched.
    let mut mem = SecureMemory::new(CounterOrg::Morphable128, 1 << 26, PipelineKind::Rmcc, 99);
    let latest = block_of(b"wire $1 to account 7731");
    mem.write(block, block_of(b"wire $1,000,000 to account 7731"))
        .expect("write within capacity");
    let l0 = mem.layout().l0_index(block);
    let parent = mem
        .layout()
        .parent_index(0, l0)
        .expect("the parent node is in memory");
    let stale = mem.snapshot_node(1, parent).expect("node is on the bus");
    mem.write(block, latest).expect("write within capacity");
    mem.read(block).expect("clean read");
    println!("  victim reads the block, so its counter block is cached on-chip");
    mem.replay_node(&stale);
    println!("  attacker replays a stale copy of the parent node");
    match mem.read(block) {
        Ok(data) if data == latest => {
            println!("  the cached counter block still serves the latest value")
        }
        other => report(other),
    }
    // Table I's counter cache has 64 sets of 32 ways. Counter blocks one
    // parent node (128 counter blocks) apart share a set, so 32 reads under
    // other parents push the victim's counter block out.
    let stride = CounterOrg::Morphable128.tree_arity() as u64;
    let evictions = 32;
    for k in 1..=evictions {
        let other = (l0 + k * stride) * CounterOrg::Morphable128.coverage() as u64;
        mem.write(other, block_of(b"unrelated"))
            .expect("write within capacity");
        mem.read(other).expect("clean read");
    }
    println!("  {evictions} reads under other parent nodes evict the cached counter block");
    report(mem.read(block));

    println!("\n=== Attack 6: roll back a counter block the controller holds dirty ===");
    // A write to a cached counter block only marks its line dirty; the new
    // image reaches DRAM when the line is written back. Until then the DRAM
    // image is dead, so rolling it back changes nothing the chip reads.
    let mut mem = SecureMemory::new(CounterOrg::Morphable128, 1 << 24, PipelineKind::Rmcc, 99);
    mem.write(block, block_of(b"wire $1,000,000 to account 7731"))
        .expect("write within capacity");
    mem.read(block).expect("clean read");
    let l0 = mem.layout().l0_index(block);
    let stale = mem.snapshot_node(0, l0).expect("node is on the bus");
    mem.write(block, latest).expect("write within capacity");
    println!("  victim rewrites the block; its cached counter block is now dirty");
    mem.replay_node(&stale);
    println!("  attacker rolls back the counter block's DRAM image");
    match mem.read(block) {
        Ok(data) if data == latest => {
            println!("  the dirty counter block masks the replay: the latest value is served")
        }
        other => report(other),
    }
    mem.flush_counter_cache();
    println!("  the controller writes the counter block back over the replayed image");
    match mem.read(block) {
        Ok(data) if data == latest => println!("  the latest value reads back"),
        other => report(other),
    }
    mem.replay_node(&stale);
    println!("  attacker replays the stale image again");
    report(mem.read(block));

    println!("\n=== §IV-D1: are RMCC's OTPs still random? ===");
    let keys = KeySet::from_master(7);
    let pipe = RmccOtp::new(keys);
    let aes = Aes::new_128(&[7u8; 16]);

    // Stream A: raw AES counter-mode output.
    let aes_words: Vec<u128> = (0..2048u128).map(|i| aes.encrypt_u128(i)).collect();
    // Stream B: RMCC OTPs across counters and addresses.
    let otp_words: Vec<u128> = (0..2048u64)
        .map(|i| {
            pipe.word_pad(
                i * 31 % 65_536,
                (i % 4) as u8,
                1 + i % 999,
                PadPurpose::Encryption,
            )
        })
        .collect();

    let aes_rate = pass_rate(&[BitStream::from_u128_words(&aes_words)]);
    let otp_rate = pass_rate(&[BitStream::from_u128_words(&otp_words)]);
    println!(
        "  NIST STS pass rate, raw AES stream : {:.0}%",
        aes_rate * 100.0
    );
    println!(
        "  NIST STS pass rate, RMCC OTP stream: {:.0}%",
        otp_rate * 100.0
    );
    println!(
        "  -> OTPs pass at the same rate as the AES streams they are built from: {}",
        (aes_rate - otp_rate).abs() < 0.2
    );
}

/// Pads a message into one 64-byte memory block.
fn block_of(msg: &[u8]) -> [u8; 64] {
    let mut b = [b'.'; 64];
    b[..msg.len()].copy_from_slice(msg);
    b
}

fn report(result: Result<[u8; 64], ReadError>) {
    match result {
        Ok(data) => println!("  !! UNDETECTED: read returned {:?}…", &data[..16]),
        Err(e) => println!("  detected: {e}"),
    }
}
