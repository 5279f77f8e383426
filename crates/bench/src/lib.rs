//! Figure harnesses for the RMCC reproduction.
//!
//! Every table and figure in the paper's evaluation has a figure id:
//! `cargo run --release -p rmcc-bench --bin figures [tiny|small|full] [figNN …]`
//! regenerates them at a chosen scale and prints the same series the paper
//! plots. Wall-clock performance is measured by the repository benchmark
//! in `perfbench/`, not here.
//!
//! Figure harness logic lives in [`rmcc_sim::experiments`]; this crate only
//! drives it and formats output. Per-workload cells fan out across a
//! worker pool sized by `RMCC_JOBS` (default: all host cores); results are
//! byte-identical at any width.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use rmcc_sim::experiments::{serving_scenarios, table1, Experiments, Series};
use rmcc_workloads::workload::{Scale, Workload};

/// Parses a scale name, defaulting to `tiny`.
///
/// Unknown names are an error, not a silent fallback: a typo like `"ful"`
/// must not quietly run a tiny-scale benchmark and corrupt a comparison.
pub fn scale_from(arg: Option<&str>) -> Result<Scale, String> {
    match arg.unwrap_or("tiny") {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "full" => Ok(Scale::Full),
        other => Err(format!(
            "unknown scale {other:?} (valid scales: tiny, small, full)"
        )),
    }
}

/// Parses a workload name (case-insensitive), defaulting to `canneal`.
///
/// Unknown names are an error listing every valid workload, for the same
/// reason as [`scale_from`]: a typo like `"cannel"` must not quietly run a
/// different workload.
pub fn workload_from(arg: Option<&str>) -> Result<Workload, String> {
    let name = arg.unwrap_or("canneal");
    Workload::ALL
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let valid: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!(
                "unknown workload {name:?} (valid workloads: {})",
                valid.join(", ")
            )
        })
}

/// Every figure id this harness knows, in paper order; `serving` is the
/// repo's own serving-corpus extension, not a paper figure.
pub const ALL_FIGURES: [&str; 18] = [
    "table1", "fig03", "fig04", "fig10", "fig12", "fig13+14", "fig15", "fig16", "fig17", "fig18",
    "fig19+20", "fig21+22", "maxctr", "accel", "page4k", "ablation", "relwork", "serving",
];

/// Runs one figure by id and returns its printable series (empty for
/// `table1`, which is plain text), or an error naming the known ids when
/// the id is not recognised.
pub fn run_figure(ex: &Experiments, id: &str) -> Result<Vec<Series>, String> {
    let series = match id {
        "table1" => {
            println!("{}", table1());
            vec![]
        }
        "fig03" => vec![ex.fig03_counter_miss()],
        "fig04" => vec![ex.fig04_tlb()],
        "fig10" => vec![ex.fig10_hit_breakdown()],
        "fig12" => vec![ex.fig12_bandwidth()],
        "fig13+14" => {
            let (a, b) = ex.fig13_fig14();
            vec![a, b]
        }
        "fig13" | "fig14" => {
            let (a, b) = ex.fig13_fig14();
            if id == "fig13" {
                vec![a]
            } else {
                vec![b]
            }
        }
        "fig15" => vec![ex.fig15_coverage()],
        "fig16" => vec![ex.fig16_traffic()],
        "fig17" => vec![ex.fig17_aes_latency()],
        "fig18" => vec![ex.fig18_counter_cache()],
        "fig19+20" => {
            let (a, b) = ex.fig19_fig20();
            vec![a, b]
        }
        "fig19" | "fig20" => {
            let (a, b) = ex.fig19_fig20();
            if id == "fig19" {
                vec![a]
            } else {
                vec![b]
            }
        }
        "fig21+22" => {
            let (a, b) = ex.fig21_fig22();
            vec![a, b]
        }
        "fig21" | "fig22" => {
            let (a, b) = ex.fig21_fig22();
            if id == "fig21" {
                vec![a]
            } else {
                vec![b]
            }
        }
        "maxctr" => vec![ex.max_counter_growth()],
        "serving" => vec![serving_scenarios()],
        "accel" => vec![ex.accelerated_misses()],
        "page4k" => vec![ex.page_size_sensitivity()],
        "relwork" => vec![ex.related_work_speculation()],
        "ablation" => vec![ex.ablation_read_triggered()],
        other => {
            return Err(format!(
                "unknown figure id {other:?} (known: {ALL_FIGURES:?})"
            ))
        }
    };
    Ok(series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(scale_from(Some("full")), Ok(Scale::Full));
        assert_eq!(scale_from(Some("small")), Ok(Scale::Small));
        assert_eq!(scale_from(Some("tiny")), Ok(Scale::Tiny));
    }

    #[test]
    fn scale_typos_are_rejected_with_the_valid_names() {
        for typo in ["ful", "smal", "bogus", "TINY"] {
            let err = scale_from(Some(typo)).expect_err("typo must not map to a scale");
            assert!(err.contains(typo), "error names the offender: {err}");
            assert!(
                err.contains("tiny") && err.contains("small") && err.contains("full"),
                "error lists the valid scales: {err}"
            );
        }
    }

    #[test]
    fn workload_parsing() {
        assert_eq!(workload_from(None), Ok(Workload::Canneal));
        assert_eq!(workload_from(Some("mcf")), Ok(Workload::Mcf));
        assert_eq!(workload_from(Some("pagerank")), Ok(Workload::PageRank));
    }

    #[test]
    fn workload_typos_are_rejected_with_the_valid_names() {
        for typo in ["cannel", "mfc", "page_rank", ""] {
            let err = workload_from(Some(typo)).expect_err("typo must not map to a workload");
            assert!(
                err.contains(&format!("{typo:?}")),
                "error names the offender: {err}"
            );
            for w in Workload::ALL {
                assert!(err.contains(w.name()), "error lists {}: {err}", w.name());
            }
        }
    }

    #[test]
    fn every_listed_figure_runs_at_tiny() {
        let ex = Experiments::new(Scale::Tiny);
        // The cheap, single-config figures; the sweeps rerun every
        // workload once per configuration.
        for id in ["table1", "fig03", "fig04", "fig15", "accel", "serving"] {
            assert!(run_figure(&ex, id).is_ok());
        }
    }

    #[test]
    fn unknown_figure_is_an_error_not_a_panic() {
        let ex = Experiments::new(Scale::Tiny);
        let err = run_figure(&ex, "fig99").expect_err("fig99 is not a figure");
        assert!(err.contains("fig99"), "{err}");
        assert!(err.contains("table1"), "error lists known ids: {err}");
    }
}
