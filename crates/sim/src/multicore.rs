//! Multi-core detailed simulation.
//!
//! §V evaluates GraphBig "as four threads" sharing one memory system. This
//! runner models `n` cores — each a [`CoreEngine`] with its own private
//! L1/L2 and ROB/MLP state — contending for a shared LLC, one counter
//! cache, one set of memoization tables, and one DDR4 channel. Threads
//! execute the same kernel over disjoint partitions: the trace is buffered
//! *once* (in a [`VecSink`] — the lockstep interleaving genuinely needs
//! random access) and each core replays it offset into its own address
//! region, modeling partitioned inputs without `n` trace copies.

use rmcc_dram::config::Ps;
use rmcc_workloads::trace::{TraceSource, VecSink};
use rmcc_workloads::workload::{Scale, Workload};

use crate::config::SystemConfig;
use crate::engine::CoreEngine;
use crate::mc::MemoryController;
use crate::meta_engine::MetaStats;
use crate::page_map::{PageMap, PLACEMENT_SEED};

/// Virtual-address stride separating per-thread partitions (1 TB).
const THREAD_STRIDE: u64 = 1 << 40;

/// Result of a multi-core run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiCoreReport {
    /// Cores simulated.
    pub cores: usize,
    /// Wall-clock of the slowest core.
    pub elapsed_ps: Ps,
    /// Total instructions across cores.
    pub instrs: u64,
    /// Total LLC misses across cores.
    pub llc_misses: u64,
    /// Mean LLC-miss latency (ns) at the shared memory controller.
    pub mean_miss_latency_ns: f64,
    /// Functional metadata statistics of the shared memory controller.
    pub meta: MetaStats,
}

/// The lockstep n-core runner: buffers the source's trace once, then
/// interleaves per-core replay by simulated time against one shared LLC,
/// metadata engine, and DRAM channel.
#[derive(Debug, Clone)]
pub struct MultiCoreRunner {
    cfg: SystemConfig,
    n_cores: usize,
}

impl MultiCoreRunner {
    /// Builds a runner for `n_cores` cores under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is zero.
    pub fn new(cfg: &SystemConfig, n_cores: usize) -> Self {
        assert!(n_cores > 0, "need at least one core");
        MultiCoreRunner {
            cfg: cfg.clone(),
            n_cores,
        }
    }

    /// Buffers one complete trace from `source`, replays it on every core
    /// and reports on the run.
    pub fn run(&mut self, source: &mut dyn TraceSource) -> MultiCoreReport {
        // One shared buffer; each core replays it offset into its own 1 TB
        // region (the seed buffered one full copy per core).
        let mut buf = VecSink::default();
        source.stream(&mut buf);
        let events = &buf.events;

        let n = self.n_cores;
        let mut engines: Vec<CoreEngine> = (0..n).map(|_| CoreEngine::new(&self.cfg)).collect();
        let mut cursors = vec![0usize; n];
        let mut llc = CoreEngine::llc_for(&self.cfg);
        let mut mc = MemoryController::new(&self.cfg);
        let page_map = PageMap::new(self.cfg.page_size, PLACEMENT_SEED, self.cfg.data_bytes);

        // Lockstep: always advance the core that is furthest behind, so
        // shared structures see an approximately time-ordered request
        // stream.
        while let Some(ci) = (0..n)
            .filter(|&i| cursors[i] < events.len())
            .min_by_key(|&i| engines[i].dispatch())
        {
            let mut ev = events[cursors[ci]];
            cursors[ci] += 1;
            ev.addr += ci as u64 * THREAD_STRIDE;
            engines[ci].step(ev, &page_map, &mut llc, &mut mc);
        }

        let mut elapsed = 0;
        let mut instrs = 0;
        let mut llc_misses = 0;
        for e in &engines {
            let s = e.stats();
            elapsed = s.elapsed_ps.max(elapsed);
            instrs += s.instrs;
            llc_misses += s.llc_misses;
        }
        MultiCoreReport {
            cores: n,
            elapsed_ps: elapsed,
            instrs,
            llc_misses,
            mean_miss_latency_ns: mc.latency_stats().mean_ns(),
            meta: *mc.meta_stats(),
        }
    }
}

/// Runs `workload` on `n_cores` cores sharing one memory system.
///
/// Each core executes the workload over its own partition (a distinct
/// address region), so footprint and memory pressure scale with the core
/// count, as in the paper's 4-thread GraphBig runs.
///
/// # Panics
///
/// Panics if `n_cores` is zero.
///
/// # Errors
///
/// Typed like the other runners; the source builds its own graph, so this
/// cannot fail in practice.
pub fn run_multicore(
    workload: Workload,
    scale: Scale,
    n_cores: usize,
    cfg: &SystemConfig,
) -> Result<MultiCoreReport, rmcc_workloads::workload::WorkloadError> {
    let mut buf = VecSink::default();
    workload.source(scale).try_stream(&mut buf)?;
    Ok(MultiCoreRunner::new(cfg, n_cores).run(&mut buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;

    fn cfg() -> SystemConfig {
        let mut c = SystemConfig::detailed_scaled(Scheme::Morphable);
        c.data_bytes = 1 << 33;
        c
    }

    #[test]
    fn more_cores_do_more_work_in_more_time() {
        let one = run_multicore(Workload::Canneal, Scale::Tiny, 1, &cfg()).expect("runs");
        let four = run_multicore(Workload::Canneal, Scale::Tiny, 4, &cfg()).expect("runs");
        assert_eq!(four.cores, 4);
        assert_eq!(four.instrs, 4 * one.instrs);
        // Contention on one channel: at least as slow as 1 core, but far
        // faster than 4x serial (the cores do overlap).
        assert!(four.elapsed_ps >= one.elapsed_ps);
        assert!(
            four.elapsed_ps < 4 * one.elapsed_ps,
            "no parallelism modeled: {} vs {}",
            four.elapsed_ps,
            one.elapsed_ps
        );
        assert!(four.llc_misses >= 2 * one.llc_misses);
        assert!(four.mean_miss_latency_ns >= 0.9 * one.mean_miss_latency_ns);
    }

    #[test]
    fn single_core_multicore_is_deterministic() {
        let a = run_multicore(Workload::Omnetpp, Scale::Tiny, 2, &cfg()).expect("runs");
        let b = run_multicore(Workload::Omnetpp, Scale::Tiny, 2, &cfg()).expect("runs");
        assert_eq!(a, b);
    }

    #[test]
    fn shared_metadata_stats_are_reported() {
        let r = run_multicore(Workload::Canneal, Scale::Tiny, 2, &cfg()).expect("runs");
        // Every LLC miss is a demand read at the shared metadata engine.
        assert_eq!(r.meta.data_reads, r.llc_misses);
    }
}
