//! Record-once / replay-many for the serving corpus: stream the small
//! key-value serving scenario to a compact on-disk trace, replay the file
//! through the sharded service, and prove the replay is byte-identical to
//! the live run — same telemetry JSONL, same result checksum — at a few
//! encoded bytes per event.
//!
//! ```text
//! cargo run --release --example trace_roundtrip
//! ```

use rmcc::sim::service_run::{run_service, run_service_from, ServingScenario, EVENTS, SEED};
use rmcc::workloads::codec::{reader_from_path, record_to_path};

/// The pinned telemetry fixture of the small run (also pinned by
/// `tests/service_properties.rs`), so CI can diff the replayed telemetry
/// against a checked-in golden, not just against this process's live run.
const GOLDEN: &str = include_str!("../tests/golden/service_run_small.jsonl");

fn main() {
    let scenario = ServingScenario::KvServing;
    println!(
        "scenario: {} ({} events, seed {:#x})",
        scenario.corpus_scenario().name(),
        EVENTS,
        SEED
    );

    println!("\n1. live run through the 4-shard service…");
    let live = run_service(scenario);
    println!(
        "   {} accesses, checksum {:#018x}",
        live.accesses, live.checksum
    );
    assert_eq!(
        live.jsonl, GOLDEN,
        "live telemetry drifted from tests/golden/service_run_small.jsonl"
    );

    let path = std::env::temp_dir().join("rmcc_trace_roundtrip.trc");
    println!("\n2. recording the scenario to {}…", path.display());
    let summary = record_to_path(&path, &mut scenario.corpus_scenario())
        .expect("recording cannot fail on tmpfs");
    println!(
        "   {} events in {} bytes = {:.2} bytes/event (payload {:.2})",
        summary.events,
        summary.total_bytes(),
        summary.total_bytes() as f64 / summary.events.max(1) as f64,
        summary.bytes_per_event()
    );
    assert!(
        summary.bytes_per_event() <= 4.0,
        "encoding regressed past 4 bytes/event: {:.2}",
        summary.bytes_per_event()
    );

    println!("\n3. replaying the recorded file through a fresh service…");
    let mut reader = reader_from_path(&path).expect("recorded file opens");
    let replayed = run_service_from(&mut reader);
    assert!(
        reader.error().is_none(),
        "replay hit a codec error: {:?}",
        reader.error()
    );
    assert_eq!(
        replayed.checksum, live.checksum,
        "replayed result checksum diverged from the live run"
    );
    assert_eq!(
        replayed.jsonl, live.jsonl,
        "replayed telemetry diverged from the live run"
    );
    assert_eq!(
        replayed.jsonl, GOLDEN,
        "replayed telemetry drifted from golden"
    );
    assert_eq!(replayed, live, "full replayed result diverged");
    println!(
        "   checksum {:#018x} and {}-row telemetry JSONL match the live run and the golden fixture",
        replayed.checksum,
        replayed.jsonl.lines().count()
    );

    let _ = std::fs::remove_file(&path);
    println!("\ntrace-roundtrip-ok");
}
