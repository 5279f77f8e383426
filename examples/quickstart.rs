//! Quickstart: the RMCC stack in five minutes.
//!
//! Walks through the library bottom-up — encrypt/verify a block, watch the
//! memoization table self-reinforce, and run a small end-to-end simulation.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rmcc::core::rmcc::{Rmcc, RmccConfig};
use rmcc::secmem::counters::{CounterBlock, CounterOrg};
use rmcc::secmem::engine::{PipelineKind, SecureMemory};
use rmcc::sim::config::{Scheme, SystemConfig};
use rmcc::sim::core_model::CoreModel;
use rmcc::sim::lifetime::{run_lifetime, LifetimeRunner};
use rmcc::sim::runner::Runner;
use rmcc::workloads::workload::{Scale, Workload};

fn main() {
    banner("1. Counter-mode secure memory, functionally");
    let mut mem = SecureMemory::new(CounterOrg::Morphable128, 1 << 24, PipelineKind::Rmcc, 2024);
    let secret = block_of(b"attack at dawn");
    mem.write(7, secret).expect("write within capacity");
    println!("  wrote block 7, counter is now {}", mem.counter_of(7));
    println!(
        "  read back: {:?}",
        std::str::from_utf8(&mem.read(7).unwrap()[..14]).unwrap()
    );
    mem.tamper_data(7, 3, 0x80).expect("block 7 is written");
    println!(
        "  after a bus-level bit flip: {:?}",
        mem.read(7).unwrap_err()
    );

    banner("2. The memoization table self-reinforces (Figure 6)");
    let mut rmcc = Rmcc::new(RmccConfig::paper());
    rmcc.seed_group(0, 20_000_000); // the paper's example value
                                    // Ten scattered counter blocks, all with different histories.
    let mut blocks: Vec<CounterBlock> = (0..10)
        .map(|i| CounterBlock::with_state(CounterOrg::Morphable128, 1_000 * (i + 1), vec![0; 128]))
        .collect();
    for (i, cb) in blocks.iter_mut().enumerate() {
        let before = cb.value(0);
        let out = rmcc.update_counter(0, cb, 0, false).expect("writeback");
        println!(
            "  block {i}: counter {before:>6} -> {:>9} (memoized: {})",
            out.new_value, out.landed_on_memoized
        );
    }
    let covered = blocks
        .iter()
        .filter(|cb| rmcc.lookup(0, cb.value(0)).is_hit())
        .count();
    println!("  {covered}/10 blocks now decrypt via the memoization table");

    banner("3. A whole-lifetime simulation (canneal, tiny input)");
    for scheme in [Scheme::Morphable, Scheme::Rmcc] {
        let report = run_lifetime(
            Workload::Canneal,
            Scale::Tiny,
            None,
            &SystemConfig::lifetime(scheme),
        )
        .expect("canneal needs no graph");
        print!(
            "  {scheme:<10} LLC misses {:>7}  counter-miss rate {:>5.1}%",
            report.llc_misses,
            100.0 * report.counter_miss_rate()
        );
        if scheme == Scheme::Rmcc {
            print!(
                "  memoization hit rate {:>5.1}%",
                100.0 * report.meta.memo_l0.all_hit_rate()
            );
        }
        println!();
    }

    banner("4. One trace source, every runner");
    // A workload is a streaming trace source; any Runner consumes it —
    // kernels re-execute per run, nothing is buffered.
    let cfg = SystemConfig::lifetime(Scheme::Rmcc);
    let functional = LifetimeRunner::new(&cfg).run(&mut Workload::Mcf.source(Scale::Tiny));
    let timed = CoreModel::new(&cfg, 0x9a9e).run(&mut Workload::Mcf.source(Scale::Tiny));
    println!(
        "  lifetime: {} accesses, {} LLC misses",
        functional.accesses, functional.llc_misses
    );
    println!(
        "  detailed: {} instrs in {:.2} ms simulated ({} LLC misses — same stream)",
        timed.instrs,
        timed.elapsed_ps as f64 / 1e9,
        timed.llc_misses
    );

    banner("5. Epoch-resolved telemetry (opt-in)");
    if std::env::var_os("RMCC_TELEMETRY").is_some() {
        let mut cfg = SystemConfig::lifetime(Scheme::Rmcc);
        cfg.telemetry = true;
        cfg.rmcc.epoch_accesses = 200; // short epochs so a tiny run resolves several
        let mut runner = LifetimeRunner::new(&cfg);
        runner.run(&mut Workload::Canneal.source(Scale::Tiny));
        let jsonl = runner
            .engine()
            .finish_telemetry()
            .expect("telemetry was on");
        let rows = rmcc::telemetry::parse_jsonl(&jsonl).expect("well-formed JSONL");
        println!("  {} epoch snapshots; the last one:", rows.len());
        println!("  {}", jsonl.lines().last().unwrap_or_default());
        let last = rows.last().expect("at least one epoch");
        let col = |key: &str| {
            last.get(key)
                .and_then(rmcc::telemetry::JsonValue::as_f64)
                .unwrap_or(0.0)
        };
        assert!(col("aes_paid") > 0.0, "AES work must be tallied");
        assert!(col("total_requests") > 0.0, "requests must be counted");
        assert!(
            (0.0..=1.0).contains(&col("conformance_ratio")),
            "conformance is a ratio"
        );
        println!(
            "  telemetry-ok: {} epochs, {} AES paid, {} saved",
            rows.len(),
            col("aes_paid") as u64,
            col("aes_saved") as u64
        );
    } else {
        println!("  set RMCC_TELEMETRY=1 to record a JSONL series of this run");
        println!("  (see also: cargo run --release --example convergence_report)");
    }

    banner("6. Multi-tenant sharded service (batched API)");
    {
        use rmcc::secmem::{
            digest_results, serial_reference, Access, SecureMemoryService, ServiceConfig,
        };
        // Four shards over one address space; routing is fixed when the
        // service is built, and a batch fans out across shards while
        // returning results in submission order.
        let cfg = ServiceConfig::new(4, 1 << 24);
        let service = SecureMemoryService::new(&cfg);
        let snap = service.snapshot();
        let batch: Vec<Access> = (0..8u64)
            .flat_map(|tenant| {
                let block = tenant * snap.coverage() * 7;
                [
                    Access::Write {
                        block,
                        data: block_of(b"tenant payload"),
                    },
                    Access::Read { block },
                ]
            })
            .collect();
        let results = service.submit_with_jobs(&batch, 2);
        let ok = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(ok, results.len(), "every access in the batch succeeds");
        // The batched results are byte-identical to a fresh single-engine
        // serial execution — the digest is order-sensitive, so this checks
        // order too.
        let serial = serial_reference(&cfg, &batch);
        assert_eq!(digest_results(&results), digest_results(&serial));
        println!(
            "  service-ok: {} accesses over {} shards, batched == serial",
            results.len(),
            snap.shards()
        );
    }

    println!("\nNext: `cargo run --release -p rmcc-bench --bin figures` regenerates the paper.");
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Pads a message into one 64-byte memory block.
fn block_of(msg: &[u8]) -> [u8; 64] {
    let mut b = [b'.'; 64];
    b[..msg.len()].copy_from_slice(msg);
    b
}
