//! The detailed (gem5-style) timing runner: core model, memory controller,
//! and DDR4, producing the paper's performance, latency, and bandwidth
//! numbers (Figures 12, 13, 14, 17, 18).

use rmcc_dram::channel::DramStats;
use rmcc_dram::config::Ps;

use crate::config::{Scheme, SystemConfig};
use crate::core_model::CoreModel;
use crate::meta_engine::MetaStats;
use crate::page_map::PLACEMENT_SEED;

/// End-of-run report for one detailed simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct DetailedReport {
    /// Scheme that ran.
    pub scheme: Scheme,
    /// Total execution time.
    pub elapsed_ps: Ps,
    /// Instructions executed (memory + compute).
    pub instrs: u64,
    /// LLC misses serviced.
    pub llc_misses: u64,
    /// Mean LLC-miss latency in nanoseconds (Figure 14).
    pub mean_miss_latency_ns: f64,
    /// DRAM channel statistics (Figure 12 bandwidth breakdown).
    pub dram: DramStats,
    /// Functional metadata statistics.
    pub meta: MetaStats,
}

impl DetailedReport {
    /// Performance normalized against `baseline` (same trace):
    /// `baseline_time / self_time`, so 1.0 = parity, <1 = slower.
    pub fn normalized_perf(&self, baseline: &DetailedReport) -> f64 {
        if self.elapsed_ps == 0 {
            return 0.0;
        }
        baseline.elapsed_ps as f64 / self.elapsed_ps as f64
    }

    /// Bus utilization of one traffic class over the run (Figure 12).
    pub fn utilization(&self, class: rmcc_dram::channel::TrafficClass) -> f64 {
        self.dram.utilization(class, self.elapsed_ps)
    }
}

/// Runs `workload` at `scale` under `cfg`, reusing `graph` when provided.
///
/// # Errors
///
/// Returns [`rmcc_workloads::workload::WorkloadError::MissingGraph`] if a
/// graph workload is handed `graph: None` by a caller that built the
/// source itself; the `None` path here builds the graph on demand and
/// cannot fail.
pub fn run_detailed(
    workload: rmcc_workloads::workload::Workload,
    scale: rmcc_workloads::workload::Scale,
    graph: Option<&rmcc_workloads::graph::Csr>,
    cfg: &SystemConfig,
) -> Result<DetailedReport, rmcc_workloads::workload::WorkloadError> {
    let mut core = CoreModel::new(cfg, PLACEMENT_SEED);
    match graph {
        Some(_) => workload.source_on(graph, scale).try_stream(&mut core)?,
        None => workload.source(scale).try_stream(&mut core)?,
    }
    Ok(core.report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmcc_workloads::workload::{Scale, Workload};

    fn cfg(scheme: Scheme) -> SystemConfig {
        let mut c = SystemConfig::table1(scheme);
        c.data_bytes = 1 << 32;
        c
    }

    #[test]
    fn non_secure_beats_secure() {
        let non = run_detailed(
            Workload::Canneal,
            Scale::Tiny,
            None,
            &cfg(Scheme::NonSecure),
        )
        .expect("self-built graph");
        let sec = run_detailed(
            Workload::Canneal,
            Scale::Tiny,
            None,
            &cfg(Scheme::Morphable),
        )
        .expect("self-built graph");
        assert!(sec.elapsed_ps > non.elapsed_ps);
        assert!(sec.normalized_perf(&non) < 1.0);
        assert!(non.normalized_perf(&non) == 1.0);
    }

    #[test]
    fn miss_latency_reported() {
        let r = run_detailed(
            Workload::Omnetpp,
            Scale::Tiny,
            None,
            &cfg(Scheme::Morphable),
        )
        .expect("self-built graph");
        assert!(
            r.mean_miss_latency_ns > 20.0,
            "latency {}",
            r.mean_miss_latency_ns
        );
        assert!(r.llc_misses > 0);
        assert!(r.instrs > 0);
    }

    #[test]
    fn bandwidth_utilization_bounded() {
        let r = run_detailed(
            Workload::Canneal,
            Scale::Tiny,
            None,
            &cfg(Scheme::Morphable),
        )
        .expect("self-built graph");
        let total: f64 = rmcc_dram::channel::TrafficClass::ALL
            .iter()
            .map(|&c| r.utilization(c))
            .sum();
        assert!(total > 0.0 && total <= 1.0, "total utilization {total}");
    }

    #[test]
    fn deterministic() {
        let a = run_detailed(Workload::Mcf, Scale::Tiny, None, &cfg(Scheme::Rmcc))
            .expect("self-built graph");
        let b = run_detailed(Workload::Mcf, Scale::Tiny, None, &cfg(Scheme::Rmcc))
            .expect("self-built graph");
        assert_eq!(a, b);
    }
}
