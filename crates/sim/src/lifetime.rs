//! The lifetime (Pin-style) functional runner.
//!
//! The paper's hit-rate, traffic, and coverage numbers (Figures 3, 4, 10,
//! 15, 16, 19–22) come from whole-lifetime Pin runs with no timing model:
//! caches, counters, and the memoization machinery are simulated
//! functionally over the full access stream. This runner reproduces that
//! methodology: it consumes a workload trace, filters it through the cache
//! hierarchy and TLBs, and drives the shared [`MetaEngine`].

use rmcc_cache::hierarchy::Hierarchy;
use rmcc_cache::tlb::{PageSize, Tlb};
use rmcc_workloads::trace::{TraceEvent, TraceSink, TraceSource};

use crate::config::{Scheme, SystemConfig};
use crate::meta_engine::{MetaEngine, MetaStats};
use crate::page_map::{PageMap, PLACEMENT_SEED};

/// End-of-run report for one (workload, configuration) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeReport {
    /// Scheme that ran.
    pub scheme: Scheme,
    /// Total traced accesses.
    pub accesses: u64,
    /// LLC misses (demand reads to memory).
    pub llc_misses: u64,
    /// LLC writebacks.
    pub llc_writebacks: u64,
    /// Functional metadata statistics.
    pub meta: MetaStats,
    /// TLB misses under 4 KB pages.
    pub tlb_misses_4k: u64,
    /// TLB misses under 2 MB pages.
    pub tlb_misses_2m: u64,
    /// Average data blocks covered per live memoized L0 value (Figure 15),
    /// measured over the touched footprint at the end of the run.
    pub avg_value_coverage: f64,
    /// Largest data-counter value observed (§IV-D2 growth analysis).
    pub max_counter: u64,
    /// Overhead requests charged to the L0 budget (Figure 16 split).
    pub rmcc_spent_l0: u64,
    /// Overhead requests charged to the L1 budget (Figure 16 split).
    pub rmcc_spent_l1: u64,
}

impl LifetimeReport {
    /// Counter-cache miss rate per LLC miss (Figure 3).
    pub fn counter_miss_rate(&self) -> f64 {
        self.meta.counter_miss_rate()
    }

    /// TLB misses per LLC miss (Figure 4's normalization).
    pub fn tlb_per_llc_miss(&self, page: PageSize) -> f64 {
        if self.llc_misses == 0 {
            return 0.0;
        }
        let misses = match page {
            PageSize::Small4K => self.tlb_misses_4k,
            PageSize::Huge2M => self.tlb_misses_2m,
        };
        misses as f64 / self.llc_misses as f64
    }

    /// Total memory requests (the Figure 16/20 traffic numerator).
    pub fn total_requests(&self) -> u64 {
        self.meta.total_requests
    }
}

/// The functional lifetime simulator; a [`TraceSink`], so workloads stream
/// straight in.
pub struct LifetimeRunner {
    engine: MetaEngine,
    hierarchy: Hierarchy,
    tlb_4k: Tlb,
    tlb_2m: Tlb,
    page_map: PageMap,
    scheme: Scheme,
    accesses: u64,
    llc_misses: u64,
    llc_writebacks: u64,
}

impl std::fmt::Debug for LifetimeRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LifetimeRunner")
            .field("scheme", &self.scheme)
            .field("accesses", &self.accesses)
            .finish_non_exhaustive()
    }
}

impl LifetimeRunner {
    /// Builds the runner for `cfg` (typically [`SystemConfig::lifetime`]).
    pub fn new(cfg: &SystemConfig) -> Self {
        LifetimeRunner {
            engine: MetaEngine::new(cfg),
            hierarchy: Hierarchy::new(cfg.hierarchy),
            // Table I: 1536-entry TLBs (12-way → power-of-two sets).
            tlb_4k: Tlb::new(1536, 12, PageSize::Small4K),
            tlb_2m: Tlb::new(1536, 12, PageSize::Huge2M),
            page_map: PageMap::new(cfg.page_size, PLACEMENT_SEED, cfg.data_bytes),
            scheme: cfg.scheme,
            accesses: 0,
            llc_misses: 0,
            llc_writebacks: 0,
        }
    }

    /// The underlying metadata engine (for seeding or inspection).
    pub fn engine(&mut self) -> &mut MetaEngine {
        &mut self.engine
    }

    /// Streams one complete trace from `source` and reports on it.
    pub fn run(&mut self, source: &mut dyn TraceSource) -> LifetimeReport {
        source.stream(self);
        self.report()
    }

    /// Produces the end-of-run report.
    pub fn report(&mut self) -> LifetimeReport {
        let meta = *self.engine.stats();
        // Figure 15: touched data blocks per live group value, each value
        // counting once for every group that holds it.
        let groups: Vec<(u64, u64)> = self.engine.rmcc().map_or_else(Vec::new, |r| {
            let size = r.table(0).config().group_size;
            let live = r.table(0).groups().iter();
            live.map(|g| (g.start, g.start + size)).collect()
        });
        let slots: u64 = groups.iter().map(|(start, end)| end - start).sum();
        let state = self.engine.metadata();
        let max_counter = state.as_ref().map_or(0, |m| m.max_observed());
        let covered: u64 = state.map_or(0, |m| {
            let holding = |v: u64| groups.iter().filter(|&&(s, e)| s <= v && v < e).count();
            m.data_counter_values().map(|v| holding(v) as u64).sum()
        });
        let coverage = if slots == 0 {
            0.0
        } else {
            covered as f64 / slots as f64
        };
        let (spent_l0, spent_l1) = self.engine.rmcc().map_or((0, 0), |r| {
            (r.budget(0).total_spent(), r.budget(1).total_spent())
        });
        LifetimeReport {
            scheme: self.scheme,
            accesses: self.accesses,
            llc_misses: self.llc_misses,
            llc_writebacks: self.llc_writebacks,
            meta,
            tlb_misses_4k: self.tlb_4k.misses(),
            tlb_misses_2m: self.tlb_2m.misses(),
            avg_value_coverage: coverage,
            max_counter,
            rmcc_spent_l0: spent_l0,
            rmcc_spent_l1: spent_l1,
        }
    }
}

impl TraceSink for LifetimeRunner {
    fn emit(&mut self, ev: TraceEvent) {
        self.accesses += 1;
        self.tlb_4k.access(ev.addr);
        self.tlb_2m.access(ev.addr);
        let paddr = self.page_map.translate(ev.addr);
        let line = paddr >> 6;
        let outcome = self.hierarchy.access(line, ev.is_write);
        if outcome.is_llc_miss() {
            self.llc_misses += 1;
            self.engine.on_read(line << 6);
        }
        for &wb in outcome.writebacks() {
            self.llc_writebacks += 1;
            self.engine.on_writeback(wb << 6);
        }
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
pub fn run_lifetime(
    workload: rmcc_workloads::workload::Workload,
    scale: rmcc_workloads::workload::Scale,
    graph: Option<&rmcc_workloads::graph::Csr>,
    cfg: &SystemConfig,
) -> Result<LifetimeReport, rmcc_workloads::workload::WorkloadError> {
    let mut runner = LifetimeRunner::new(cfg);
    match graph {
        Some(_) => workload.source_on(graph, scale).try_stream(&mut runner)?,
        None => workload.source(scale).try_stream(&mut runner)?,
    }
    Ok(runner.report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmcc_workloads::workload::{Scale, Workload};

    fn cfg(scheme: Scheme) -> SystemConfig {
        let mut c = SystemConfig::lifetime(scheme);
        c.data_bytes = 1 << 32;
        c
    }

    #[test]
    fn canneal_tiny_runs_and_reports() {
        let r = run_lifetime(
            Workload::Canneal,
            Scale::Tiny,
            None,
            &cfg(Scheme::Morphable),
        )
        .expect("self-built graph");
        assert!(r.accesses > 10_000);
        assert!(r.llc_misses > 0);
        assert!(r.meta.data_reads == r.llc_misses);
        let rate = r.counter_miss_rate();
        assert!((0.0..=1.0).contains(&rate));
    }

    #[test]
    fn rmcc_reports_memo_stats() {
        let r = run_lifetime(Workload::Canneal, Scale::Tiny, None, &cfg(Scheme::Rmcc))
            .expect("self-built graph");
        let lookups =
            r.meta.memo_l0.all_group_hits + r.meta.memo_l0.all_mru_hits + r.meta.memo_l0.all_misses;
        assert!(lookups > 0, "RMCC must perform lookups");
        assert!(r.max_counter > 0);
    }

    #[test]
    fn non_secure_has_no_counter_misses() {
        let r = run_lifetime(Workload::Mcf, Scale::Tiny, None, &cfg(Scheme::NonSecure))
            .expect("self-built graph");
        assert_eq!(r.meta.counter_misses, 0);
        assert_eq!(r.counter_miss_rate(), 0.0);
    }

    #[test]
    fn tlb_misses_fewer_under_huge_pages() {
        let r = run_lifetime(
            Workload::Canneal,
            Scale::Tiny,
            None,
            &cfg(Scheme::NonSecure),
        )
        .expect("self-built graph");
        assert!(r.tlb_misses_2m <= r.tlb_misses_4k);
        assert!(r.tlb_per_llc_miss(PageSize::Huge2M) <= r.tlb_per_llc_miss(PageSize::Small4K));
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_lifetime(Workload::Omnetpp, Scale::Tiny, None, &cfg(Scheme::Rmcc))
            .expect("self-built graph");
        let b = run_lifetime(Workload::Omnetpp, Scale::Tiny, None, &cfg(Scheme::Rmcc))
            .expect("self-built graph");
        assert_eq!(a, b);
    }
}
