//! Graph analytics under secure memory — the paper's motivating scenario.
//!
//! Runs real graph kernels (BFS and PageRank over an R-MAT graph) through
//! the detailed timing simulator under four memory systems and prints the
//! slowdown each one pays, plus where RMCC claws performance back.
//!
//! ```text
//! cargo run --release --example graph_analytics [tiny|small]
//! ```

use rmcc::sim::config::{Scheme, SystemConfig};
use rmcc::sim::detailed::run_detailed;
use rmcc::workloads::workload::{graph_for, Scale, Workload};

fn main() {
    let scale = match std::env::args().nth(1).as_deref() {
        Some("small") => Scale::Small,
        _ => Scale::Tiny,
    };
    println!("building R-MAT graph at scale {scale}…");
    let graph = graph_for(scale);
    println!(
        "graph: {} vertices, {} directed edges\n",
        graph.n_vertices(),
        graph.n_edges()
    );

    for workload in [Workload::Bfs, Workload::PageRank] {
        println!("── {workload} ──");
        let non = run_detailed(
            workload,
            scale,
            Some(&graph),
            &SystemConfig::table1(Scheme::NonSecure),
        )
        .expect("graph supplied");
        println!(
            "  {:<11} {:>9.2} µs   LLC-miss latency {:>6.1} ns   (baseline)",
            Scheme::NonSecure.to_string(),
            non.elapsed_ps as f64 / 1e6,
            non.mean_miss_latency_ns
        );
        for scheme in [Scheme::Sc64, Scheme::Morphable, Scheme::Rmcc] {
            let r = run_detailed(workload, scale, Some(&graph), &SystemConfig::table1(scheme))
                .expect("graph supplied");
            println!(
                "  {:<11} {:>9.2} µs   LLC-miss latency {:>6.1} ns   perf vs non-secure {:>5.1}%   ctr-miss rate {:>5.1}%",
                scheme.to_string(),
                r.elapsed_ps as f64 / 1e6,
                r.mean_miss_latency_ns,
                100.0 * r.normalized_perf(&non),
                100.0 * r.meta.counter_miss_rate(),
            );
        }
        println!();
    }
    println!("RMCC's gap over Morphable is the paper's Figure 13; it widens with");
    println!("irregularity (BFS) and with AES latency (see `figures tiny fig17`).");
}
