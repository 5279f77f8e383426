//! Golden test: pin the exact epoch-resolved JSONL a seeded dynamics run
//! emits, byte for byte.
//!
//! The fixture in `tests/golden/dynamics_small.jsonl` is the full telemetry
//! series of [`DynamicsConfig::small`]. Any change to the RMCC mechanics,
//! the crypto cost model, the snapshot cadence, the metric set, or the
//! JSON rendering shows up here as a diff — regenerate the fixture only
//! when such a change is intentional:
//!
//! ```text
//! cargo run --release --example convergence_report   # eyeball the new series
//! # then dump `run_dynamics(&DynamicsConfig::small()).jsonl` over the fixture
//! ```

use rmcc::sim::dynamics::{run_dynamics, DynamicsConfig};
use rmcc::telemetry::{parse_jsonl, JsonValue};

const GOLDEN: &str = include_str!("golden/dynamics_small.jsonl");

#[test]
fn seeded_dynamics_run_matches_golden_jsonl() {
    let r = run_dynamics(&DynamicsConfig::small());
    assert_eq!(
        r.jsonl, GOLDEN,
        "telemetry series drifted from tests/golden/dynamics_small.jsonl \
         (intentional changes must regenerate the fixture)"
    );
}

#[test]
fn golden_run_is_stable_across_reruns_and_threads() {
    // Rerun stability and thread independence in one shot: four concurrent
    // runs of the same config, each compared byte-for-byte to the fixture.
    // Engines share nothing, so parallel execution must not perturb the
    // series.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let r = run_dynamics(&DynamicsConfig::small());
                assert_eq!(r.jsonl, GOLDEN, "concurrent rerun diverged");
            });
        }
    });
}

#[test]
fn golden_fixture_parses_and_carries_the_headline_metrics() {
    let rows = parse_jsonl(GOLDEN).expect("fixture is well-formed JSONL");
    assert!(
        rows.len() >= 4,
        "fixture resolves only {} epochs",
        rows.len()
    );
    // Every column the acceptance criteria name is present in every row.
    for (i, row) in rows.iter().enumerate() {
        for key in [
            "epoch",
            "accesses",
            "table_hit_rate",
            "aes_saved",
            "budget_spent_epoch",
            "budget_carry_over",
            "osm",
            "conformance_ratio",
        ] {
            assert!(row.get(key).is_some(), "epoch {}: missing {key}", i + 1);
        }
    }
    // Epoch ordinals count up from 1.
    for (i, row) in rows.iter().enumerate() {
        let epoch = row.get("epoch").and_then(JsonValue::as_f64).unwrap();
        assert_eq!(epoch as usize, i + 1);
    }
    // And the fixture shows real memoization work, not a dead run.
    let last = rows.last().expect("non-empty");
    let saved = last.get("aes_saved").and_then(JsonValue::as_f64).unwrap();
    assert!(saved > 0.0, "no AES work was ever saved");
}
