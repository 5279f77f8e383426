//! Quick calibration probe: one workload through all four schemes.
//!
//! ```text
//! cargo run --release -p rmcc-bench --bin probe [tiny|small|full] [workload]
//! ```

use rmcc_bench::{scale_from, workload_from};
use rmcc_sim::config::{Scheme, SystemConfig};
use rmcc_sim::detailed::run_detailed;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = match scale_from(args.first().map(String::as_str)) {
        Ok(scale) => scale,
        Err(err) => {
            eprintln!("probe: {err}");
            std::process::exit(2);
        }
    };
    let workload = match workload_from(args.get(1).map(String::as_str)) {
        Ok(workload) => workload,
        Err(err) => {
            eprintln!("probe: {err}");
            std::process::exit(2);
        }
    };
    eprintln!("probe: {workload} @ {scale}");
    let non = run_detailed(
        workload,
        scale,
        None,
        &SystemConfig::detailed_scaled(Scheme::NonSecure),
    )
    .expect("no graph needed");
    println!(
        "{:<11} {:>10.2} µs  miss-lat {:>6.1} ns",
        "Non-secure",
        non.elapsed_ps as f64 / 1e6,
        non.mean_miss_latency_ns
    );
    for scheme in [Scheme::Sc64, Scheme::Morphable, Scheme::Rmcc] {
        let t = std::time::Instant::now();
        let r = run_detailed(
            workload,
            scale,
            None,
            &SystemConfig::detailed_scaled(scheme),
        )
        .expect("no graph needed");
        println!(
            "{:<11} {:>10.2} µs  miss-lat {:>6.1} ns  perf {:>6.2}%  ctr-miss {:>5.1}%  memo-hit(all) {:>5.1}%  accel {:>5.1}%  [{:.0}s]",
            scheme.to_string(),
            r.elapsed_ps as f64 / 1e6,
            r.mean_miss_latency_ns,
            100.0 * r.normalized_perf(&non),
            100.0 * r.meta.counter_miss_rate(),
            100.0 * r.meta.memo_l0.all_hit_rate(),
            100.0 * r.meta.accelerated_rate(),
            t.elapsed().as_secs_f64(),
        );
    }
}
