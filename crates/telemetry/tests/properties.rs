//! Property tests over the telemetry layer itself: whatever updates a run
//! applies, the exported JSONL must parse back to exactly the recorded
//! values, with a stable schema.

use proptest::prelude::*;
use rmcc_telemetry::{parse_jsonl, to_jsonl, EpochSeries, JsonValue, MetricsRegistry};

proptest! {
    /// JSONL round-trips: every counter/gauge value and the key order
    /// survive emit → parse, for arbitrary update sequences.
    #[test]
    fn jsonl_round_trips_arbitrary_updates(
        incrs in prop::collection::vec((0usize..4, 0u64..(1 << 50)), 1..40),
        gauge_milli in prop::collection::vec(0u64..2_000, 1..8),
    ) {
        let mut reg = MetricsRegistry::new();
        let names = ["hits", "misses", "aes_saved", "budget_total"];
        let cids: Vec<_> = names.iter().map(|n| reg.counter(n)).collect();
        let g = reg.gauge("conformance");
        let mut series = EpochSeries::new();

        let mut expect: Vec<Vec<u64>> = Vec::new();
        let mut shadow = [0u64; 4];
        let epochs = gauge_milli.len();
        for (epoch, gm) in gauge_milli.iter().enumerate() {
            for (which, by) in incrs.iter().skip(epoch % 2) {
                reg.incr(cids[*which], *by);
                shadow[*which] = shadow[*which].saturating_add(*by);
            }
            reg.set_gauge(g, *gm as f64 / 1000.0);
            series.push(reg.snapshot(epoch as u64, 500));
            expect.push(shadow.to_vec());
        }

        let docs = parse_jsonl(&to_jsonl(&reg, &series)).expect("emitted JSONL parses");
        prop_assert_eq!(docs.len(), epochs);
        for (epoch, doc) in docs.iter().enumerate() {
            prop_assert_eq!(
                doc.keys().expect("object"),
                vec!["epoch", "accesses", "hits", "misses", "aes_saved",
                     "budget_total", "conformance"]
            );
            prop_assert_eq!(
                doc.get("epoch").and_then(JsonValue::as_f64),
                Some(epoch as f64)
            );
            for (i, name) in names.iter().enumerate() {
                // Counter values stay below 2^53 here, so f64 is exact.
                prop_assert_eq!(
                    doc.get(name).and_then(JsonValue::as_f64),
                    Some(expect[epoch][i] as f64),
                    "epoch {} metric {}", epoch, name
                );
            }
            prop_assert_eq!(
                doc.get("conformance").and_then(JsonValue::as_f64),
                Some(gauge_milli[epoch] as f64 / 1000.0)
            );
        }
    }

    /// Re-applying the same updates yields byte-identical JSONL (the
    /// determinism contract).
    #[test]
    fn same_updates_emit_identical_bytes(
        ops in prop::collection::vec((0u64..1000, 0u64..100), 1..30),
    ) {
        let run = || {
            let mut reg = MetricsRegistry::new();
            let c = reg.counter("events");
            let h = reg.histogram("depth", &[0, 1, 2, 4, 8]);
            let mut series = EpochSeries::new();
            for (epoch, (v, d)) in ops.iter().enumerate() {
                reg.incr(c, *v);
                reg.observe(h, *d);
                series.push(reg.snapshot(epoch as u64, *v));
            }
            to_jsonl(&reg, &series)
        };
        let first = run();
        prop_assert_eq!(first, run());
    }
}
