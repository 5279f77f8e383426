//! The benchmark's own tests: every workload at a tiny size reports every
//! metric `BENCHMARK.json` names, with its unit; the counts that must not
//! depend on timing repeat exactly; the traced replay reproduces the
//! untraced run; and the command line behaves as documented.

use std::process::Command;

use perfbench::{Options, Outcome, Workload, END_TO_END, PER_LAYER};
use rmcc_telemetry::export::{parse_json_line, JsonValue};
use rmcc_workloads::workload::Scale;

fn run(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let opts = Options {
        workload,
        seed,
        seconds: 0.2,
        trace,
        scale: Scale::Tiny,
    };
    let out = perfbench::run(&opts).expect("tiny workload runs");
    let failed: Vec<_> = out.checks.iter().filter(|c| !c.passed).collect();
    assert!(
        out.correct(),
        "{}: {failed:?}, {} failed",
        workload.name(),
        out.failed
    );
    out
}

fn manifest() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    parse_json_line(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn listed(manifest: &JsonValue, key: &str) -> Vec<(String, String)> {
    let Some(JsonValue::Arr(entries)) = manifest.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    entries
        .iter()
        .map(|e| {
            let field = |f| {
                e.get(f)
                    .and_then(JsonValue::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn manifest_lists_match_what_the_benchmark_reports() {
    let m = manifest();
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&m, "end_to_end"), own(&END_TO_END));
    assert_eq!(listed(&m, "per_layer"), own(&PER_LAYER));
    let Some(JsonValue::Arr(workloads)) = m.get("workloads") else {
        panic!("no workloads list");
    };
    for w in workloads {
        let name = w.get("name").and_then(JsonValue::as_str).expect("name");
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
    assert!(workloads.len() >= 2);
}

#[test]
fn every_workload_reports_every_listed_metric_with_its_unit() {
    let m = manifest();
    for (seed, workload) in (1..).zip(Workload::ALL) {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = run(workload, seed, trace);
            for (name, unit) in listed(&m, key) {
                let row = out
                    .metrics
                    .row(&name)
                    .unwrap_or_else(|| panic!("{}: {name} missing", workload.name()));
                assert_eq!(row.unit, unit, "{}: {name}", workload.name());
                assert!(
                    row.value.is_finite(),
                    "{}: {name} = {}",
                    workload.name(),
                    row.value
                );
            }
            assert!(out.attempted > 0);
        }
    }
}

#[test]
fn deterministic_counts_repeat_across_runs() {
    for workload in Workload::ALL {
        let a = run(workload, 77, false);
        let b = run(workload, 77, false);
        assert!(!a.deterministic.is_empty());
        assert_eq!(a.deterministic, b.deterministic, "{}", workload.name());
        assert_eq!(
            a.metrics.get("aes_per_access"),
            b.metrics.get("aes_per_access"),
            "{}",
            workload.name()
        );
        let c = run(workload, 78, false);
        assert_ne!(
            a.deterministic,
            c.deterministic,
            "{}: the seed must matter",
            workload.name()
        );
    }
}

#[test]
fn traced_replay_reproduces_the_untraced_run() {
    for workload in Workload::ALL {
        let untraced = run(workload, 91, false);
        let traced = run(workload, 91, true);
        let pinned = |o: &Outcome, key: &str| {
            o.deterministic
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
        };
        let keys: &[&str] = match workload {
            Workload::SimCanneal => &["morphable", "rmcc", "codec_bytes_per_event"],
            _ => &["first_pass_digest", "codec_bytes_per_event"],
        };
        for key in keys {
            let u = pinned(&untraced, key);
            assert!(u.is_some(), "{}: {key} not pinned", workload.name());
            assert_eq!(u, pinned(&traced, key), "{}: {key}", workload.name());
        }
    }
}

#[test]
fn command_line_usage_and_result_line() {
    let bin = env!("CARGO_BIN_EXE_perfbench");
    let status = |args: &[&str]| Command::new(bin).args(args).output().expect("runs");
    for bad in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "kv_read",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "kv_read",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--workload", "kv_read", "--seed", "1", "--seconds", "1"],
    ] {
        let out = status(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(out.stdout.is_empty(), "{bad:?} printed a result");
    }
    let out = status(&[
        "--workload",
        "kv_write",
        "--seed",
        "5",
        "--seconds",
        "0.2",
        "--trace",
        "0",
        "--scale",
        "tiny",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = parse_json_line(stdout.lines().last().expect("output")).expect("JSON result");
    assert_eq!(
        last.keys(),
        Some(vec!["correct", "attempted", "failed", "metrics"])
    );
    assert_eq!(last.get("correct"), Some(&JsonValue::Bool(true)));
    let metrics = last
        .get("metrics")
        .and_then(JsonValue::keys)
        .expect("metrics");
    assert_eq!(metrics, END_TO_END.map(|(n, _)| n).to_vec());
    assert!(stdout.starts_with("host {\"available_parallelism\": "));
}
