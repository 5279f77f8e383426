//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--scale small|tiny]`
//!
//! Prints a provenance line, one line per measurement (`metric` lines for
//! the untraced run, `layer` lines for the traced run), the correctness
//! checks, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 if a check fails, 2 on a
//! usage or set-up error.

use std::process::ExitCode;

use perfbench::{host, Options, Outcome, Workload, END_TO_END, HELD_OUT_SEED, PER_LAYER};
use rmcc_workloads::workload::Scale;

const USAGE: &str =
    "usage: perfbench --workload <kv_read|kv_write|sweep_hardened|sim_canneal> --seed <n> --seconds <s> --trace <0|1> [--scale small|tiny]";

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scale = Scale::Small;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(0.0..=3_600.0).contains(&s) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "small" => Scale::Small,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

/// The final result line: the metrics `BENCHMARK.json` names, in order.
fn result_line(opts: &Options, out: &Outcome) -> Result<String, String> {
    let names: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let row = out
            .metrics
            .row(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if row.unit != unit || !row.value.is_finite() {
            return Err(format!("metric {name} reads {} {}", row.value, row.unit));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            row.value
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match perfbench::run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload.name());
            return ExitCode::from(2);
        }
    };
    println!(
        "host {{\"available_parallelism\": {}, \"workload\": \"{}\", \"backend\": \"{}\", \"scale\": \"{}\", \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \"seconds\": {}, \"trace\": {}, \"profile\": \"{}\", \"rustc\": \"{}\"}}",
        host::available_parallelism(),
        opts.workload.name(),
        out.backend,
        opts.scale,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        host::PROFILE,
        host::RUSTC,
    );
    let kind = if opts.trace { "layer" } else { "metric" };
    for row in out.metrics.rows() {
        let note = if row.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", row.note)
        };
        println!("{kind} {} {} {}{note}", row.name, row.value, row.unit);
    }
    for (name, value) in &out.deterministic {
        println!("pinned {name} {value}");
    }
    for c in &out.checks {
        let verdict = if c.passed { "ok" } else { "FAILED" };
        println!("check {} {verdict} {}", c.name, c.detail);
    }
    match result_line(&opts, &out) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: correctness gate failed");
        ExitCode::FAILURE
    }
}
