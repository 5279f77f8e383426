//! The timing memory controller: drives the metadata engine's decisions
//! through the DDR4 channel model and computes when secure reads actually
//! complete.
//!
//! The read-path latency model follows Figure 5: the data access, the
//! counter-chain fetches, and the address-only AES all start immediately;
//! the counter-dependent AES serializes after the counter arrives unless
//! RMCC's memoization table short-circuits it into a table lookup plus a
//! carry-less multiply.

use std::collections::VecDeque;

use rmcc_dram::channel::{Channel, ReqKind, TrafficClass};
use rmcc_dram::config::{ns, Ps, T_BURST};

use crate::config::{
    Scheme, SystemConfig, CLMUL_LATENCY, MAX_OUTSTANDING_OVERFLOWS, TABLE_LOOKUP_LATENCY,
};
use crate::meta_engine::{MetaEngine, MetaStats, SideKind, SideRequest, MAX_CHAIN_LEVELS};

/// Counter-cache access latency (a small SRAM in the MC).
const COUNTER_CACHE_LAT: Ps = 2_000;

/// GF dot-product / XOR latency at the end of verification ("highly
/// parallel", §II-C).
const COMBINE_LAT: Ps = 1_000;

/// Read-latency accounting (Figure 14).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Completed demand reads.
    pub reads: u64,
    /// Sum of end-to-end read latencies.
    pub total_ps: Ps,
}

impl LatencyStats {
    /// Mean LLC-miss latency in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.total_ps as f64 / self.reads as f64 / 1e3
        }
    }
}

/// The timing memory controller.
pub struct MemoryController {
    cfg: SystemConfig,
    engine: MetaEngine,
    dram: Channel,
    /// Completion times of in-flight relevel batches (§V: at most two
    /// outstanding overflows; later ones stall the triggering request).
    overflow_slots: VecDeque<Ps>,
    latency: LatencyStats,
}

impl std::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("scheme", &self.cfg.scheme)
            .field("latency", &self.latency)
            .finish_non_exhaustive()
    }
}

impl MemoryController {
    /// Builds the MC for `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        MemoryController {
            engine: MetaEngine::new(cfg),
            dram: Channel::new(),
            overflow_slots: VecDeque::new(),
            latency: LatencyStats::default(),
            cfg: cfg.clone(),
        }
    }

    /// Functional metadata statistics.
    pub fn meta_stats(&self) -> &MetaStats {
        self.engine.stats()
    }

    /// DRAM channel statistics (bandwidth breakdown, Figure 12).
    pub fn dram_stats(&self) -> rmcc_dram::channel::DramStats {
        self.dram.stats()
    }

    /// Read-latency statistics (Figure 14).
    pub fn latency_stats(&self) -> LatencyStats {
        self.latency
    }

    /// The metadata engine (for end-of-run table inspection).
    pub fn engine(&mut self) -> &mut MetaEngine {
        &mut self.engine
    }

    fn side_class(kind: SideKind) -> TrafficClass {
        match kind {
            SideKind::CounterWriteback => TrafficClass::Counter,
            SideKind::OverflowL0 => TrafficClass::OverflowL0,
            SideKind::OverflowHigher => TrafficClass::OverflowHigher,
            SideKind::ReadTriggeredReencrypt => TrafficClass::Data,
        }
    }

    /// Issues the engine's non-overflow side traffic at `at`, in order;
    /// overflow bursts then go through the paced overflow engine. Returns
    /// a stall time the *triggering* request must respect when the
    /// overflow engine was saturated.
    fn issue_side(&mut self, at: Ps) -> Ps {
        fn is_overflow(s: &SideRequest) -> bool {
            matches!(s.kind, SideKind::OverflowL0 | SideKind::OverflowHigher)
        }
        fn req_kind(s: &SideRequest) -> ReqKind {
            if s.is_write {
                ReqKind::Write
            } else {
                ReqKind::Read
            }
        }
        let side = self.engine.side();
        for s in side.iter().filter(|s| !is_overflow(s)) {
            self.dram
                .access(at, s.addr, req_kind(s), Self::side_class(s.kind));
        }
        let mut stall_until = at;
        if side.iter().any(is_overflow) {
            // Admission control: at most `MAX_OUTSTANDING_OVERFLOWS` batches.
            while let Some(&front) = self.overflow_slots.front() {
                if front <= at {
                    self.overflow_slots.pop_front();
                } else if self.overflow_slots.len() >= MAX_OUTSTANDING_OVERFLOWS {
                    stall_until = front;
                    self.overflow_slots.pop_front();
                } else {
                    break;
                }
            }
            // The batch trickles out a few requests at a time (§V: at most
            // eight queue slots), which the bus serializes anyway; space
            // requests by one burst each.
            let mut t = stall_until;
            let mut last_done = stall_until;
            for s in side.iter().filter(|s| is_overflow(s)) {
                last_done = self
                    .dram
                    .access(t, s.addr, req_kind(s), Self::side_class(s.kind))
                    .done;
                t += T_BURST;
            }
            self.overflow_slots.push_back(last_done);
        }
        stall_until
    }

    /// Services a demand read (LLC miss) issued at `at`; returns when the
    /// decrypted, verified data is ready for the core.
    pub fn read(&mut self, at: Ps, paddr: u64) -> Ps {
        let outcome = self.engine.on_read(paddr);
        let at = self.issue_side(at).max(at);
        let data_done = self
            .dram
            .access(at, paddr, ReqKind::Read, TrafficClass::Data)
            .done;

        if self.cfg.scheme == Scheme::NonSecure {
            let done = data_done;
            self.latency.reads += 1;
            self.latency.total_ps += done - at;
            return done;
        }

        let org = self.cfg.scheme.counter_org().expect("secure scheme");
        let decode = org.decode_latency_ps();
        let aes = self.cfg.aes_latency;
        let memo_fast = TABLE_LOOKUP_LATENCY + CLMUL_LATENCY;

        // Fetch every missed chain level in parallel (indices derive from
        // the address alone), innermost first in `outcome.fetches`.
        let mut fetch_done = [0; MAX_CHAIN_LEVELS];
        for (done, f) in fetch_done.iter_mut().zip(outcome.fetches.iter()) {
            *done = self
                .dram
                .access(at, f.addr, ReqKind::Read, TrafficClass::Counter)
                .done;
        }
        let fetch_done = &fetch_done[..outcome.fetches.len()];

        // Resolve verification top-down. `value_ready` starts at the point
        // the deepest *known* counter value is usable: the cache-hit level
        // (or the on-chip root).
        let mut value_ready = at + COUNTER_CACHE_LAT + decode;
        for (f, &fd) in outcome.fetches.iter().zip(fetch_done).rev() {
            if self.cfg.speculative_verify {
                // PoisonIvy-style speculation: consume fetched counters
                // before their MACs check out; verification runs off the
                // critical path (squash on the vanishingly rare failure).
                value_ready = value_ready.max(fd) + decode;
                continue;
            }
            // The OTP to verify this node: starts once the protecting value
            // is ready; memoized values skip the AES.
            let otp_lat = if f.verify_memo_hit { memo_fast } else { aes };
            let otp_ready = value_ready + otp_lat;
            // Node verified (MAC compare) and decoded once both the data
            // and the OTP are there.
            value_ready = otp_ready.max(fd) + COMBINE_LAT + decode;
        }

        // Data OTP (Figure 5): the address-only AES has been running since
        // `at`; with a memoized counter value only the lookup + clmul
        // remain after the counter is ready.
        let otp_ready = if outcome.l0_memo_hit {
            (value_ready + memo_fast).max(at + aes + CLMUL_LATENCY)
        } else {
            value_ready + aes
        };
        let done = data_done.max(otp_ready) + COMBINE_LAT;
        self.latency.reads += 1;
        self.latency.total_ps += done - at;
        done
    }

    /// Services a dirty-data writeback at `at`. Writebacks are posted, so
    /// no completion time is returned; all traffic is accounted.
    pub fn write(&mut self, at: Ps, paddr: u64) {
        let outcome = self.engine.on_writeback(paddr);
        let at = self.issue_side(at).max(at);
        for f in outcome.fetches.iter() {
            self.dram
                .access(at, f.addr, ReqKind::Read, TrafficClass::Counter);
        }
        self.dram
            .access(at + ns(1.0), paddr, ReqKind::Write, TrafficClass::Data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmcc_secmem::tree::InitPolicy;

    fn cfg(scheme: Scheme) -> SystemConfig {
        let mut c = SystemConfig::table1(scheme);
        c.counter_init = InitPolicy::Zero;
        c.data_bytes = 1 << 30;
        c
    }

    #[test]
    fn non_secure_read_is_just_dram() {
        let mut mc = MemoryController::new(&cfg(Scheme::NonSecure));
        // Issue past the t=0 refresh window.
        let t0 = ns(1_000.0);
        let done = mc.read(t0, 0x4000);
        // Closed-row DRAM: ~30 ns.
        assert!(
            done - t0 >= ns(25.0) && done - t0 < ns(120.0),
            "lat = {}",
            done - t0
        );
    }

    #[test]
    fn secure_counter_miss_costs_more_than_counter_hit() {
        let mut mc = MemoryController::new(&cfg(Scheme::Morphable));
        let t0 = 0;
        let cold = mc.read(t0, 0x4000); // chain all misses
                                        // Re-read nearby after the chain is cached.
        let t1 = cold + ns(1000.0);
        let warm_done = mc.read(t1, 0x4000 + 64);
        let cold_lat = cold - t0;
        let warm_lat = warm_done - t1;
        assert!(
            cold_lat > warm_lat + ns(10.0),
            "cold {cold_lat} vs warm {warm_lat}"
        );
    }

    #[test]
    fn secure_adds_latency_over_non_secure() {
        let mut sec = MemoryController::new(&cfg(Scheme::Morphable));
        let mut non = MemoryController::new(&cfg(Scheme::NonSecure));
        let s = sec.read(0, 0x8000);
        let n = non.read(0, 0x8000);
        assert!(s > n, "secure {s} vs non-secure {n}");
    }

    #[test]
    fn rmcc_memo_hit_shaves_aes_from_counter_miss() {
        let mut rm = MemoryController::new(&cfg(Scheme::Rmcc));
        let mut base = MemoryController::new(&cfg(Scheme::Morphable));
        // Conform a block's counter to a memoized value, then evict nothing:
        // read a *different* counter block (cold) with the same value.
        rm.engine().seed_rmcc_group(0, 5);
        rm.engine().seed_rmcc_group(1, 1);
        // Write to block in cb 0 so its value becomes 5.
        rm.write(0, 0);
        base.write(0, 0);
        let t = ns(100_000.0);
        let r = rm.read(t, 0);
        let b = base.read(t, 0);
        // Same cache state (L0 resident after write): both fast; now force
        // a counter miss by reading far away after conforming its counter
        // via a write.
        rm.write(r, 300 * 128 * 64);
        base.write(b, 300 * 128 * 64);
        // Thrash the counter cache so the L0 block for that address evicts.
        let mut t_rm = r + ns(1000.0);
        let mut t_base = b + ns(1000.0);
        for i in 0..3000u64 {
            let a = (1000 + i) * 64 * 128; // distinct counter blocks, all sets
            t_rm = rm.read(t_rm, a) + ns(10.0);
            t_base = base.read(t_base, a) + ns(10.0);
        }
        let lat_rm = {
            let t = t_rm + ns(5000.0);
            rm.read(t, 300 * 128 * 64) - t
        };
        let lat_base = {
            let t = t_base + ns(5000.0);
            base.read(t, 300 * 128 * 64) - t
        };
        assert!(
            lat_rm + ns(5.0) < lat_base,
            "rmcc {lat_rm} should beat baseline {lat_base} by ~AES"
        );
    }

    #[test]
    fn latency_stats_accumulate() {
        let mut mc = MemoryController::new(&cfg(Scheme::Morphable));
        mc.read(0, 0);
        mc.read(ns(10_000.0), 64);
        let l = mc.latency_stats();
        assert_eq!(l.reads, 2);
        assert!(l.mean_ns() > 10.0);
        assert_eq!(LatencyStats::default().mean_ns(), 0.0);
    }

    #[test]
    fn overflow_bursts_are_paced() {
        let mut mc = MemoryController::new(&cfg(Scheme::Sc64));
        // Force relevels by hammering one block 128+ times.
        for i in 0..130u64 {
            mc.write(i * ns(100.0), 0x5000);
        }
        let s = mc.meta_stats();
        assert!(s.relevels_l0 >= 1);
        assert!(s.overflow_l0_requests >= 128);
        // DRAM saw the overflow class.
        let d = mc.dram_stats();
        assert!(d.classes[2].requests >= 128);
    }
}

#[cfg(test)]
mod speculation_tests {
    use super::*;
    use crate::config::{Scheme, SystemConfig};
    use rmcc_secmem::tree::InitPolicy;

    /// Speculative verification must cut cold-chain latency but cannot beat
    /// hiding the decryption AES itself.
    #[test]
    fn speculation_helps_cold_chains_only() {
        let mut base_cfg = SystemConfig::table1(Scheme::Morphable);
        base_cfg.counter_init = InitPolicy::Zero;
        base_cfg.data_bytes = 1 << 30;
        let mut spec_cfg = base_cfg.clone();
        spec_cfg.speculative_verify = true;

        let mut base = MemoryController::new(&base_cfg);
        let mut spec = MemoryController::new(&spec_cfg);
        let t0 = ns(1_000.0);
        // Cold read: full chain fetch; speculation skips the per-level
        // verify AES serialization.
        let b = base.read(t0, 0x4000) - t0;
        let s = spec.read(t0, 0x4000) - t0;
        assert!(
            s < b,
            "speculation {s} must beat baseline {b} on cold chains"
        );
        // But the final data OTP still pays the AES after the counter
        // arrives: speculation keeps at least one AES on the path.
        let cfg = &base_cfg;
        assert!(
            s >= cfg.aes_latency,
            "decryption AES cannot be speculated away"
        );
    }
}
