//! Transaction-level DDR4 channel timing model.
//!
//! The model tracks per-bank open rows (with the paper's 500 ns timeout
//! policy), rank refresh windows, data-bus serialization, queue
//! backpressure, and an FR-FCFS-Capped row-hit streak cap. It plays the
//! role Ramulator plays in the paper: given a timestamped stream of
//! requests it answers "when does this access complete, and was it a row
//! hit?".

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::config::{
    Ps, QUEUE_CAPACITY, RANKS, ROW_HIT_CAP, ROW_TIMEOUT, TOTAL_BANKS, T_BURST, T_CL, T_RCD, T_REFI,
    T_RFC, T_RP,
};
use crate::mapping::AddressMapping;

/// Read or write request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqKind {
    /// A 64 B read burst.
    Read,
    /// A 64 B write burst.
    Write,
}

/// What kind of traffic a request belongs to, for the Figure 12 bandwidth
/// breakdown (data, counters, level-0 overflow, level-1+ overflow).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Demand data reads and dirty-data writebacks.
    Data,
    /// Counter-block and integrity-tree-node accesses.
    Counter,
    /// Re-encryption traffic caused by L0 (data-counter) overflows.
    OverflowL0,
    /// Re-encryption traffic caused by L1-and-higher overflows.
    OverflowHigher,
}

impl TrafficClass {
    /// All classes, in Figure 12's legend order.
    pub const ALL: [TrafficClass; 4] = [
        TrafficClass::Data,
        TrafficClass::Counter,
        TrafficClass::OverflowL0,
        TrafficClass::OverflowHigher,
    ];

    fn index(self) -> usize {
        match self {
            TrafficClass::Data => 0,
            TrafficClass::Counter => 1,
            TrafficClass::OverflowL0 => 2,
            TrafficClass::OverflowHigher => 3,
        }
    }
}

impl std::fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrafficClass::Data => write!(f, "data"),
            TrafficClass::Counter => write!(f, "counters"),
            TrafficClass::OverflowL0 => write!(f, "level 0 overflow"),
            TrafficClass::OverflowHigher => write!(f, "level 1+ overflow"),
        }
    }
}

/// Row-buffer outcome of an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowOutcome {
    /// The target row was already open.
    Hit,
    /// The bank was precharged (idle timeout or first touch).
    Closed,
    /// A different row was open and had to be precharged first.
    Conflict,
}

/// Timing result of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// When the channel actually started servicing the request.
    pub start: Ps,
    /// When the last data beat transferred.
    pub done: Ps,
    /// Row-buffer outcome.
    pub row: RowOutcome,
}

impl Completion {
    /// Total request latency from issue to completion.
    pub fn latency(&self, issued_at: Ps) -> Ps {
        self.done.saturating_sub(issued_at)
    }
}

/// Per-traffic-class counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Requests serviced.
    pub requests: u64,
    /// Data-bus busy time attributable to the class.
    pub bus_ps: Ps,
}

/// Channel-wide statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Reads serviced.
    pub reads: u64,
    /// Writes serviced.
    pub writes: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Accesses to precharged banks.
    pub row_closed: u64,
    /// Row-buffer conflicts.
    pub row_conflicts: u64,
    /// Per-class request/bus accounting.
    pub classes: [ClassStats; 4],
}

impl DramStats {
    /// Bus utilization of `class` over the elapsed window, in `[0, 1]`.
    pub fn utilization(&self, class: TrafficClass, elapsed: Ps) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.classes[class.index()].bus_ps as f64 / elapsed as f64
        }
    }

    /// Total serviced requests.
    pub fn total_requests(&self) -> u64 {
        self.reads + self.writes
    }
}

#[derive(Debug, Clone, Copy)]
struct BankState {
    open_row: Option<u64>,
    ready_at: Ps,
    last_use: Ps,
    hit_streak: u32,
}

/// One DDR4 channel.
///
/// # Examples
///
/// ```
/// use rmcc_dram::channel::{Channel, ReqKind, RowOutcome, TrafficClass};
///
/// let mut ch = Channel::new();
/// let first = ch.access(0, 0x1000, ReqKind::Read, TrafficClass::Data);
/// // A back-to-back access to the same row is a row hit and faster.
/// let second = ch.access(first.done, 0x1040, ReqKind::Read, TrafficClass::Data);
/// assert_eq!(second.row, RowOutcome::Hit);
/// assert!(second.done - second.start < first.done - first.start);
/// ```
#[derive(Debug, Clone)]
pub struct Channel {
    map: AddressMapping,
    banks: Vec<BankState>,
    bus_free: Ps,
    outstanding: BinaryHeap<Reverse<Ps>>,
    stats: DramStats,
}

impl Default for Channel {
    fn default() -> Self {
        Self::new()
    }
}

impl Channel {
    /// Creates a Table I channel with all banks precharged.
    pub fn new() -> Self {
        let banks = vec![
            BankState {
                open_row: None,
                ready_at: 0,
                last_use: 0,
                hit_streak: 0
            };
            TOTAL_BANKS
        ];
        Channel {
            map: AddressMapping::new(),
            banks,
            bus_free: 0,
            // Never more than `QUEUE_CAPACITY` in flight (see `access`).
            outstanding: BinaryHeap::with_capacity(QUEUE_CAPACITY),
            stats: DramStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Resets statistics (end of warm-up) without touching timing state.
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    /// Services a 64 B request issued at time `at` to byte address `addr`.
    ///
    /// Returns when the request started and finished and its row-buffer
    /// outcome. Calls may be non-monotonic in `at` by small amounts (the MC
    /// interleaves flows); the channel serializes via bank and bus state.
    pub fn access(&mut self, at: Ps, addr: u64, kind: ReqKind, class: TrafficClass) -> Completion {
        let mut start = at;

        // Queue backpressure: with `queue_capacity` requests in flight, a new
        // arrival waits until the earliest one drains.
        while let Some(&Reverse(earliest)) = self.outstanding.peek() {
            if earliest <= start {
                self.outstanding.pop();
            } else if self.outstanding.len() >= QUEUE_CAPACITY {
                start = earliest;
                self.outstanding.pop();
            } else {
                break;
            }
        }

        let coord = self.map.decode(addr);
        let flat = self.map.flat_bank(coord);

        // Refresh: rank `r` refreshes for tRFC every tREFI, staggered across
        // ranks. An access landing inside the window waits it out.
        let offset = T_REFI / RANKS as Ps * coord.rank as Ps;
        let phase = (start + T_REFI - (offset % T_REFI)) % T_REFI;
        if phase < T_RFC {
            start += T_RFC - phase;
        }

        let bank = &mut self.banks[flat];
        start = start.max(bank.ready_at);

        // Row-buffer state, honoring the 500 ns timeout policy and the
        // FR-FCFS row-hit cap.
        let timed_out = start.saturating_sub(bank.last_use) > ROW_TIMEOUT;
        let capped = bank.hit_streak >= ROW_HIT_CAP;
        let effective_row = if timed_out || capped {
            None
        } else {
            bank.open_row
        };
        let outcome = match effective_row {
            Some(r) if r == coord.row => RowOutcome::Hit,
            Some(_) => RowOutcome::Conflict,
            None => RowOutcome::Closed,
        };
        let array_latency = match outcome {
            RowOutcome::Hit => T_CL,
            RowOutcome::Closed => T_RCD + T_CL,
            RowOutcome::Conflict => T_RP + T_RCD + T_CL,
        };

        // Serialize the data burst on the shared bus.
        let data_start = (start + array_latency).max(self.bus_free);
        let done = data_start + T_BURST;
        self.bus_free = done;

        bank.open_row = Some(coord.row);
        bank.ready_at = done;
        bank.last_use = done;
        bank.hit_streak = if outcome == RowOutcome::Hit {
            bank.hit_streak + 1
        } else {
            0
        };

        // Bookkeeping.
        match kind {
            ReqKind::Read => self.stats.reads += 1,
            ReqKind::Write => self.stats.writes += 1,
        }
        match outcome {
            RowOutcome::Hit => self.stats.row_hits += 1,
            RowOutcome::Closed => self.stats.row_closed += 1,
            RowOutcome::Conflict => self.stats.row_conflicts += 1,
        }
        let cs = &mut self.stats.classes[class.index()];
        cs.requests += 1;
        cs.bus_ps += T_BURST;

        self.outstanding.push(Reverse(done));
        Completion {
            start,
            done,
            row: outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ns, ROW_BYTES};

    fn ch() -> Channel {
        Channel::new()
    }

    #[test]
    fn cold_access_pays_activation() {
        let mut c = ch();
        let r = c.access(0, 0, ReqKind::Read, TrafficClass::Data);
        assert_eq!(r.row, RowOutcome::Closed);
        // tRCD + tCL + burst, possibly plus refresh skew.
        assert!(r.done >= ns(13.75) * 2 + ns(2.5));
    }

    #[test]
    fn row_hit_is_faster() {
        let mut c = ch();
        let a = c.access(0, 0x100, ReqKind::Read, TrafficClass::Data);
        let b = c.access(a.done, 0x140, ReqKind::Read, TrafficClass::Data);
        assert_eq!(b.row, RowOutcome::Hit);
        assert!(b.done - b.start < a.done - a.start);
    }

    #[test]
    fn conflict_pays_precharge() {
        let mut c = ch();
        let a = c.access(0, 0, ReqKind::Read, TrafficClass::Data);
        // Same bank, different row: rows that map to the same bank are
        // found by scanning.
        let map = AddressMapping::new();
        let base = map.decode(0);
        let conflict_addr = (1..1_000_000u64)
            .map(|i| i * ROW_BYTES)
            .find(|&addr| {
                let d = map.decode(addr);
                (d.rank, d.bank) == (base.rank, base.bank) && d.row != base.row
            })
            .expect("some address conflicts");
        let b = c.access(a.done, conflict_addr, ReqKind::Read, TrafficClass::Data);
        assert_eq!(b.row, RowOutcome::Conflict);
        assert!(b.done - b.start > a.done - a.start);
    }

    #[test]
    fn row_timeout_closes_bank() {
        let mut c = ch();
        let a = c.access(0, 0x100, ReqKind::Read, TrafficClass::Data);
        // Well past the 500 ns timeout: the row is treated as precharged.
        let b = c.access(
            a.done + ns(10_000.0),
            0x140,
            ReqKind::Read,
            TrafficClass::Data,
        );
        assert_eq!(b.row, RowOutcome::Closed);
    }

    #[test]
    fn hit_streak_cap_forces_closure() {
        let cap = ROW_HIT_CAP;
        let mut c = ch();
        let mut t = 0;
        let mut outcomes = Vec::new();
        for i in 0..(cap as u64 + 2) {
            let r = c.access(t, 0x40 * i, ReqKind::Read, TrafficClass::Data);
            outcomes.push(r.row);
            t = r.done;
        }
        assert_eq!(outcomes[0], RowOutcome::Closed);
        assert!(outcomes[1..=cap as usize]
            .iter()
            .all(|&o| o == RowOutcome::Hit));
        assert_eq!(outcomes[cap as usize + 1], RowOutcome::Closed);
    }

    #[test]
    fn bus_serializes_parallel_banks() {
        let mut c = ch();
        // Two requests to different banks at the same instant cannot both
        // hold the data bus.
        let a = c.access(0, 0, ReqKind::Read, TrafficClass::Data);
        let b = c.access(0, ROW_BYTES, ReqKind::Read, TrafficClass::Data);
        assert!(b.done >= a.done + T_BURST || a.done >= b.done + T_BURST);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = ch();
        c.access(0, 0, ReqKind::Read, TrafficClass::Data);
        c.access(100, 64, ReqKind::Write, TrafficClass::Counter);
        let s = c.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.total_requests(), 2);
        assert_eq!(s.classes[0].requests, 1);
        assert_eq!(s.classes[1].requests, 1);
        assert!(s.utilization(TrafficClass::Data, 1_000_000) > 0.0);
        assert_eq!(s.utilization(TrafficClass::Data, 0), 0.0);
    }

    #[test]
    fn reset_stats_clears_counters_only() {
        let mut c = ch();
        let a = c.access(0, 0x100, ReqKind::Read, TrafficClass::Data);
        c.reset_stats();
        assert_eq!(c.stats().total_requests(), 0);
        // Timing state survives: the follow-up is still a row hit.
        let b = c.access(a.done, 0x140, ReqKind::Read, TrafficClass::Data);
        assert_eq!(b.row, RowOutcome::Hit);
    }

    #[test]
    fn queue_backpressure_delays_floods() {
        let cap = QUEUE_CAPACITY;
        let mut c = ch();
        // Issue far more requests than the queue holds, all at t = 0.
        let mut last_start = 0;
        for i in 0..(cap as u64 * 2) {
            let r = c.access(0, i * ROW_BYTES, ReqKind::Read, TrafficClass::Data);
            last_start = last_start.max(r.start);
        }
        // Later requests must have been pushed past t = 0 by backpressure.
        assert!(last_start > 0);
    }

    #[test]
    fn refresh_window_delays_unlucky_access() {
        let mut c = ch();
        // Rank 0's refresh window starts at multiples of tREFI. An access
        // issued right at that boundary must wait out tRFC.
        let r = c.access(T_REFI, 0, ReqKind::Read, TrafficClass::Data);
        assert!(r.start >= T_REFI + T_RFC - 1);
    }

    #[test]
    fn completion_latency_helper() {
        let done = Completion {
            start: 100,
            done: 300,
            row: RowOutcome::Hit,
        };
        assert_eq!(done.latency(50), 250);
        assert_eq!(done.latency(400), 0);
    }
}
