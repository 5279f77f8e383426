//! The shared per-core execution engine.
//!
//! One implementation of the interval-style core model — 4-wide dispatch,
//! 192-entry ROB, MSHR-bounded memory-level parallelism, dependent-load
//! serialization — plus the private L1/L2 filter in front of a last-level
//! cache. Both the single-core detailed runner ([`crate::core_model`]) and
//! the lockstep multicore runner ([`crate::multicore`]) drive this engine,
//! so their functional behaviour provably cannot diverge: the single-core
//! runners own their LLC, the multicore runner shares one LLC and memory
//! controller across engines.
//!
//! The cache filter replicates [`rmcc_cache::hierarchy::Hierarchy`]
//! operation-for-operation (same lookup/fill order, same dirty-victim
//! cascade), which is what keeps the detailed runner's `MetaStats`
//! byte-identical to the lifetime runner's (`tests/sim_consistency.rs`).

use std::collections::VecDeque;

use rmcc_cache::hierarchy::Level;
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

/// What one access did at the LLC boundary (the engine-internal analogue of
/// [`rmcc_cache::hierarchy::HierarchyOutcome`]).
struct FilterOutcome {
    /// The highest level that hit, or `None` for a full miss.
    hit_level: Option<Level>,
    /// Dirty LLC victims that must be written back to memory.
    writebacks: Vec<u64>,
}

/// One core's timing state: private L1/L2, ROB, MSHR window, and dispatch
/// cursor. The LLC, page map, and memory controller are passed into
/// [`CoreEngine::step`] so they can be owned (single-core) or shared
/// (multicore).
pub struct CoreEngine {
    scheme: Scheme,
    l1: SetAssocCache,
    l2: SetAssocCache,
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
        let h = &cfg.hierarchy;
        CoreEngine {
            scheme: cfg.scheme,
            l1: SetAssocCache::with_capacity(h.l1.bytes, h.l1.ways),
            l2: SetAssocCache::with_capacity(h.l2.bytes, h.l2.ways),
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

    /// Filters one line access through private L1/L2 and the given LLC,
    /// replicating `Hierarchy::access` exactly: lookups top-down, fills
    /// bottom-up, dirty victims cascading one level at a time, and only
    /// dirty LLC evictions surfacing as memory writebacks.
    fn filter(&mut self, line: u64, is_write: bool, llc: &mut SetAssocCache) -> FilterOutcome {
        let mut out = FilterOutcome {
            hit_level: None,
            writebacks: Vec::new(),
        };

        if self.l1.lookup(line, is_write) {
            out.hit_level = Some(Level::L1);
            return out;
        }
        if self.l2.lookup(line, false) {
            out.hit_level = Some(Level::L2);
        } else if llc.lookup(line, false) {
            out.hit_level = Some(Level::L3);
        } else {
            // Full miss: fetch from memory and install in the LLC.
            if let Some(v) = llc.fill(line, false) {
                if v.dirty {
                    out.writebacks.push(v.addr);
                }
            }
        }

        // Fill into L2 unless it already hit there.
        if out.hit_level != Some(Level::L2) {
            if let Some(v) = self.l2.fill(line, false) {
                if v.dirty {
                    spill_into_llc(llc, v.addr, &mut out.writebacks);
                }
            }
        }
        // Fill into L1, carrying the write's dirty bit.
        if let Some(v) = self.l1.fill(line, is_write) {
            if v.dirty {
                // Dirty L1 victim into L2, cascading further victims.
                if let Some(v2) = self.l2.fill(v.addr, true) {
                    if v2.dirty {
                        spill_into_llc(llc, v2.addr, &mut out.writebacks);
                    }
                }
            }
        }
        out
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
        let outcome = self.filter(line, ev.is_write, llc);

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
        for wb in &outcome.writebacks {
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

/// Installs a dirty L2 victim into the LLC, emitting a memory writeback if
/// the LLC in turn evicts a dirty line (mirror of `Hierarchy::spill_into_l3`).
fn spill_into_llc(llc: &mut SetAssocCache, addr: u64, writebacks: &mut Vec<u64>) {
    if let Some(v) = llc.fill(addr, true) {
        if v.dirty {
            writebacks.push(v.addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use rmcc_cache::hierarchy::Hierarchy;
    use rmcc_secmem::tree::InitPolicy;

    fn cfg(scheme: Scheme) -> SystemConfig {
        let mut c = SystemConfig::table1(scheme);
        c.counter_init = InitPolicy::Zero;
        c.data_bytes = 1 << 30;
        c
    }

    /// The engine's private-cache + LLC filter must be operation-for-
    /// operation identical to the three-level `Hierarchy` — this is the
    /// invariant that keeps detailed-mode MetaStats equal to lifetime-mode.
    #[test]
    fn filter_matches_hierarchy_exactly() {
        let c = cfg(Scheme::NonSecure);
        let mut engine = CoreEngine::new(&c);
        let mut llc = CoreEngine::llc_for(&c);
        let mut hierarchy = Hierarchy::new(c.hierarchy);

        // A mixed read/write stream with reuse, conflict, and eviction.
        let mut lines: Vec<(u64, bool)> = Vec::new();
        for i in 0..40_000u64 {
            let line = (i * 2_654_435_761) % 150_000;
            lines.push((line, i % 3 == 0));
        }
        for &(line, is_write) in &lines {
            let h = hierarchy.access(line, is_write);
            let e = engine.filter(line, is_write, &mut llc);
            assert_eq!(
                h.hit_level, e.hit_level,
                "hit level diverged at line {line}"
            );
            assert_eq!(
                h.writebacks, e.writebacks,
                "writebacks diverged at line {line}"
            );
        }
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
