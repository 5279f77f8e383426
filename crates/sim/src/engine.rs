//! The shared per-core execution engine.
//!
//! One implementation of the interval-style core model — 4-wide dispatch,
//! 192-entry ROB, MSHR-bounded memory-level parallelism, dependent-load
//! serialization — in front of a last-level cache. Both the single-core
//! detailed runner ([`crate::core_model`]) and the lockstep multicore runner
//! ([`crate::multicore`]) drive this engine, so their functional behaviour
//! cannot diverge: the single-core runner owns its LLC, the multicore
//! runner shares one LLC and memory controller across engines.
//!
//! Each engine's private L1/L2 is an [`rmcc_cache::hierarchy::PrivateCaches`],
//! the same filter [`rmcc_cache::hierarchy::Hierarchy`] runs for the
//! lifetime runner, handed the LLC on every access. That is what keeps the
//! detailed runner's `MetaStats` byte-identical to the lifetime runner's
//! (`tests/sim_consistency.rs`).

use std::collections::VecDeque;

use rmcc_cache::hierarchy::{Level, PrivateCaches};
use rmcc_cache::set_assoc::SetAssocCache;
use rmcc_dram::config::Ps;
use rmcc_workloads::trace::TraceEvent;

use crate::config::{
    Scheme, SystemConfig, CYCLE_PS, L1_LATENCY, L2_LATENCY, L3_LATENCY, MAX_OUTSTANDING_MISSES,
    RETIRE_WIDTH, ROB_ENTRIES, WORK_SCALE,
};
use crate::mc::MemoryController;
use crate::page_map::PageMap;

/// Execution summary of one trace on one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Trace events (memory instructions) executed.
    pub mem_instrs: u64,
    /// Total instructions (memory + `work`).
    pub instrs: u64,
    /// Total execution time.
    pub elapsed_ps: Ps,
    /// LLC misses issued to the memory controller.
    pub llc_misses: u64,
}

impl CoreStats {
    /// Instructions per nanosecond (for sanity checks; figures use
    /// normalized runtime).
    pub fn ipns(&self) -> f64 {
        if self.elapsed_ps == 0 {
            0.0
        } else {
            self.instrs as f64 * 1e3 / self.elapsed_ps as f64
        }
    }
}

/// One core's timing state: private L1/L2, ROB, MSHR window, and dispatch
/// cursor. The LLC, page map, and memory controller are passed into
/// [`CoreEngine::step`] so they can be owned (single-core) or shared
/// (multicore).
pub struct CoreEngine {
    scheme: Scheme,
    caches: PrivateCaches,
    /// In-flight instructions in program order: `(instruction count,
    /// completion time)`. Occupancy is counted in *instructions* so the
    /// 192-entry ROB limit matches Table I.
    rob: VecDeque<(u64, Ps)>,
    /// Instructions currently occupying the ROB.
    rob_occupancy: u64,
    /// Completion times of outstanding LLC misses (MSHR window).
    outstanding: VecDeque<Ps>,
    /// Front-end dispatch cursor.
    dispatch: Ps,
    /// Completion time of the most recent load.
    last_load_done: Ps,
    /// Latest completion seen (simulation end candidate).
    horizon: Ps,
    stats: CoreStats,
}

impl std::fmt::Debug for CoreEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreEngine")
            .field("scheme", &self.scheme)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl CoreEngine {
    /// Builds one core's private state for `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        CoreEngine {
            scheme: cfg.scheme,
            caches: PrivateCaches::new(&cfg.hierarchy),
            rob: VecDeque::with_capacity(ROB_ENTRIES),
            rob_occupancy: 0,
            outstanding: VecDeque::new(),
            dispatch: 0,
            last_load_done: 0,
            horizon: 0,
            stats: CoreStats::default(),
        }
    }

    /// Builds the LLC this engine expects to run against (a convenience for
    /// runners; multicore builds one and shares it across engines).
    pub fn llc_for(cfg: &SystemConfig) -> SetAssocCache {
        SetAssocCache::with_capacity(cfg.hierarchy.l3.bytes, cfg.hierarchy.l3.ways)
    }

    /// The front-end dispatch cursor — the lockstep scheduling key: the
    /// multicore runner always advances the engine that is furthest behind.
    pub fn dispatch(&self) -> Ps {
        self.dispatch
    }

    /// Execution statistics; `elapsed_ps` is final once the trace ends.
    pub fn stats(&self) -> CoreStats {
        let mut s = self.stats;
        s.elapsed_ps = self.horizon.max(self.dispatch);
        s
    }

    fn hit_latency(level: Level) -> Ps {
        match level {
            Level::L1 => L1_LATENCY,
            Level::L2 => L2_LATENCY,
            Level::L3 => L3_LATENCY,
        }
    }

    /// Executes one trace event against the shared memory system: advances
    /// dispatch, applies ROB and MSHR limits, filters the access through
    /// the caches, and issues any LLC miss and dirty writebacks to `mc`.
    pub fn step(
        &mut self,
        ev: TraceEvent,
        page_map: &PageMap,
        llc: &mut SetAssocCache,
        mc: &mut MemoryController,
    ) {
        let cycle = CYCLE_PS as f64;
        let width = RETIRE_WIDTH as f64;
        let instrs = 1 + ev.work as u64 * WORK_SCALE as u64;
        self.stats.mem_instrs += 1;
        self.stats.instrs += instrs;

        // Front end: dispatch advances at `width` instructions per cycle.
        self.dispatch += (instrs as f64 * cycle / width) as Ps;

        // ROB pressure: with a full window, dispatch waits for the oldest
        // instructions to complete (in-order retire).
        while self.rob_occupancy + instrs > ROB_ENTRIES as u64 {
            let Some((n, oldest)) = self.rob.pop_front() else {
                break;
            };
            self.rob_occupancy -= n;
            self.dispatch = self.dispatch.max(oldest);
        }

        let paddr = page_map.translate(ev.addr);
        let line = paddr >> 6;
        let outcome = self.caches.access(line, ev.is_write, llc);

        // Issue time: dependent loads wait for the feeding load's data.
        let mut issue = if ev.dep_on_prev_load {
            self.dispatch.max(self.last_load_done)
        } else {
            self.dispatch
        };

        let done = match outcome.hit_level {
            Some(level) => issue + Self::hit_latency(level),
            None => {
                self.stats.llc_misses += 1;
                // MSHR window: a full window delays the new miss.
                while let Some(&front) = self.outstanding.front() {
                    if front <= issue {
                        self.outstanding.pop_front();
                    } else if self.outstanding.len() >= MAX_OUTSTANDING_MISSES {
                        issue = front;
                        self.outstanding.pop_front();
                    } else {
                        break;
                    }
                }
                let done = mc.read(issue + L3_LATENCY, line << 6);
                self.outstanding.push_back(done);
                done
            }
        };

        // Dirty LLC victims go to memory as writebacks (posted).
        for &wb in outcome.writebacks() {
            mc.write(issue, wb << 6);
        }

        if ev.is_write {
            // Stores complete at dispatch via the store buffer.
            self.rob.push_back((instrs, self.dispatch));
        } else {
            self.rob.push_back((instrs, done));
            self.last_load_done = done;
        }
        self.rob_occupancy += instrs;
        self.horizon = self.horizon.max(done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use rmcc_secmem::tree::InitPolicy;

    fn cfg(scheme: Scheme) -> SystemConfig {
        let mut c = SystemConfig::table1(scheme);
        c.counter_init = InitPolicy::Zero;
        c.data_bytes = 1 << 30;
        c
    }

    #[test]
    fn dispatch_advances_and_stats_accumulate() {
        let c = cfg(Scheme::NonSecure);
        let mut engine = CoreEngine::new(&c);
        let mut llc = CoreEngine::llc_for(&c);
        let mut mc = MemoryController::new(&c);
        let pm = PageMap::new(c.page_size, 1, c.data_bytes);
        for i in 0..10u64 {
            let ev = TraceEvent {
                addr: i * 64,
                is_write: false,
                work: 2,
                dep_on_prev_load: false,
            };
            engine.step(ev, &pm, &mut llc, &mut mc);
        }
        let s = engine.stats();
        assert_eq!(s.mem_instrs, 10);
        assert_eq!(s.instrs, 10 * (1 + 2 * WORK_SCALE as u64));
        assert!(engine.dispatch() > 0);
        assert!(s.elapsed_ps >= engine.dispatch());
    }
}
