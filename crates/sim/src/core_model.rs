//! The single-core detailed pipeline — the reproduction's stand-in for
//! gem5's out-of-order CPU.
//!
//! The timing logic itself (ROB, MSHR window, dependent-load serialization,
//! private L1/L2 filter) lives in the shared [`CoreEngine`]; this module
//! packages one engine with its own LLC, page map, and memory controller so
//! a workload can stream straight in via [`TraceSink`].

use rmcc_cache::set_assoc::SetAssocCache;
use rmcc_workloads::trace::{TraceEvent, TraceSink, TraceSource};

use crate::config::SystemConfig;
use crate::engine::CoreEngine;
use crate::mc::MemoryController;
use crate::page_map::PageMap;

pub use crate::engine::CoreStats;

/// One [`CoreEngine`] plus a private memory system (LLC, page map, memory
/// controller); implements [`TraceSink`] so workloads stream straight into
/// it.
pub struct CoreModel {
    cfg: SystemConfig,
    engine: CoreEngine,
    llc: SetAssocCache,
    page_map: PageMap,
    mc: MemoryController,
}

impl std::fmt::Debug for CoreModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreModel")
            .field("scheme", &self.cfg.scheme)
            .field("stats", &self.engine.stats())
            .finish_non_exhaustive()
    }
}

impl CoreModel {
    /// Builds a core + memory system for `cfg`, with physical placement
    /// derived from `placement_seed`.
    pub fn new(cfg: &SystemConfig, placement_seed: u64) -> Self {
        CoreModel {
            engine: CoreEngine::new(cfg),
            llc: CoreEngine::llc_for(cfg),
            page_map: PageMap::new(cfg.page_size, placement_seed, cfg.data_bytes),
            mc: MemoryController::new(cfg),
            cfg: cfg.clone(),
        }
    }

    /// The memory controller (metadata, DRAM, and latency statistics).
    pub fn mc(&mut self) -> &mut MemoryController {
        &mut self.mc
    }

    /// Execution statistics; `elapsed_ps` is final once the trace ends.
    pub fn stats(&self) -> CoreStats {
        self.engine.stats()
    }

    /// The scheme this model simulates.
    pub fn scheme(&self) -> crate::config::Scheme {
        self.cfg.scheme
    }
}

impl TraceSink for CoreModel {
    fn emit(&mut self, ev: TraceEvent) {
        self.engine
            .step(ev, &self.page_map, &mut self.llc, &mut self.mc);
    }
}

impl CoreModel {
    /// Streams one complete trace from `source` and reports on it.
    pub fn run(&mut self, source: &mut dyn TraceSource) -> crate::detailed::DetailedReport {
        source.stream(self);
        self.report()
    }

    /// The detailed report for everything streamed so far.
    pub fn report(&mut self) -> crate::detailed::DetailedReport {
        let stats = self.stats();
        crate::detailed::DetailedReport {
            scheme: self.cfg.scheme,
            elapsed_ps: stats.elapsed_ps,
            instrs: stats.instrs,
            llc_misses: stats.llc_misses,
            mean_miss_latency_ns: self.mc.latency_stats().mean_ns(),
            dram: self.mc.dram_stats(),
            meta: *self.mc.meta_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Scheme, CYCLE_PS, L1_LATENCY, RETIRE_WIDTH, WORK_SCALE};
    use rmcc_secmem::tree::InitPolicy;
    use rmcc_workloads::trace::TraceEvent;

    fn cfg(scheme: Scheme) -> SystemConfig {
        let mut c = SystemConfig::table1(scheme);
        c.counter_init = InitPolicy::Zero;
        c.data_bytes = 1 << 30;
        c
    }

    fn ev(addr: u64, is_write: bool, dep: bool) -> TraceEvent {
        TraceEvent {
            addr,
            is_write,
            work: 2,
            dep_on_prev_load: dep,
        }
    }

    #[test]
    fn cache_hits_are_fast() {
        let mut core = CoreModel::new(&cfg(Scheme::NonSecure), 1);
        core.emit(ev(0x1000, false, false)); // cold miss
        let t_miss = core.stats().elapsed_ps;
        for _ in 0..100 {
            core.emit(ev(0x1000, false, false)); // L1 hits
        }
        let t_total = core.stats().elapsed_ps;
        // Hit events advance time only at the front-end dispatch rate
        // ((1 + work×scale) / width cycles each), far below miss latency.
        let per_event = (1 + 2 * WORK_SCALE as u64) * CYCLE_PS / RETIRE_WIDTH as u64;
        assert!(
            t_total - t_miss <= 100 * per_event + L1_LATENCY + 1_000,
            "hits cost {} over {} expected",
            t_total - t_miss,
            100 * per_event
        );
        assert_eq!(core.stats().llc_misses, 1);
    }

    #[test]
    fn dependent_chains_serialize() {
        // Pointer chasing over distinct lines: each load waits for the
        // previous one.
        let mut chained = CoreModel::new(&cfg(Scheme::NonSecure), 1);
        let mut parallel = CoreModel::new(&cfg(Scheme::NonSecure), 1);
        for i in 0..64u64 {
            let a = 0x10_0000 + i * 4096;
            chained.emit(ev(a, false, true));
            parallel.emit(ev(a, false, false));
        }
        let tc = chained.stats().elapsed_ps;
        let tp = parallel.stats().elapsed_ps;
        assert!(tc > tp * 3, "chained {tc} vs parallel {tp}");
    }

    #[test]
    fn secure_memory_slows_dependent_misses() {
        let mut non = CoreModel::new(&cfg(Scheme::NonSecure), 1);
        let mut sec = CoreModel::new(&cfg(Scheme::Morphable), 1);
        for i in 0..128u64 {
            // Strided far apart: LLC misses with distinct counter blocks.
            let a = i * (1 << 20);
            non.emit(ev(a, false, true));
            sec.emit(ev(a, false, true));
        }
        let tn = non.stats().elapsed_ps;
        let ts = sec.stats().elapsed_ps;
        assert!(ts > tn, "secure {ts} must exceed non-secure {tn}");
    }

    #[test]
    fn writes_do_not_block_retire() {
        let mut core = CoreModel::new(&cfg(Scheme::Morphable), 1);
        for i in 0..64u64 {
            core.emit(ev(i * (1 << 20), true, false));
        }
        let t = core.stats().elapsed_ps;
        // 64 posted writes shouldn't cost 64 full memory latencies.
        assert!(t < 64 * 50_000, "writes stalled the core: {t}");
    }

    #[test]
    fn stats_count_instructions() {
        let mut core = CoreModel::new(&cfg(Scheme::NonSecure), 1);
        core.emit(ev(0, false, false));
        core.emit(ev(64, false, false));
        let s = core.stats();
        assert_eq!(s.mem_instrs, 2);
        // (1 + work×WORK_SCALE) per event.
        let expected = 2 * (1 + 2 * WORK_SCALE as u64);
        assert_eq!(s.instrs, expected);
        assert!(s.ipns() > 0.0);
    }
}
