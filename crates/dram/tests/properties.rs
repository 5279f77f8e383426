//! Property-based tests for the DDR4 channel model's timing legality.

use proptest::prelude::*;
use rmcc_dram::channel::{Channel, ReqKind, TrafficClass};
use rmcc_dram::config::T_BURST;

proptest! {
    /// Completions never precede their service start, starts never precede
    /// issue, and every access takes at least a burst.
    #[test]
    fn timing_is_causal(reqs in prop::collection::vec((0u64..1_000_000, any::<u64>()), 1..300)) {
        let mut ch = Channel::new();
        let mut t = 0u64;
        for (dt, addr) in reqs {
            t += dt;
            let c = ch.access(t, addr % (1 << 37), ReqKind::Read, TrafficClass::Data);
            prop_assert!(c.start >= t, "start {} before issue {}", c.start, t);
            prop_assert!(c.done >= c.start + T_BURST);
        }
    }

    /// The shared data bus is never double-booked: all completions are
    /// pairwise separated by at least one burst.
    #[test]
    fn bus_is_exclusive(reqs in prop::collection::vec(any::<u64>(), 2..200)) {
        let mut ch = Channel::new();
        let mut dones: Vec<u64> = reqs
            .iter()
            .map(|&a| ch.access(0, a % (1 << 37), ReqKind::Read, TrafficClass::Data).done)
            .collect();
        dones.sort_unstable();
        for w in dones.windows(2) {
            prop_assert!(w[1] >= w[0] + T_BURST, "bursts overlap: {} vs {}", w[0], w[1]);
        }
    }

    /// Row-buffer outcome accounting matches the number of requests.
    #[test]
    fn stats_reconcile(reqs in prop::collection::vec((0u64..10_000, any::<u64>(), any::<bool>()), 1..300)) {
        let mut ch = Channel::new();
        let mut t = 0;
        for (dt, addr, w) in &reqs {
            t += dt;
            let kind = if *w { ReqKind::Write } else { ReqKind::Read };
            ch.access(t, addr % (1 << 37), kind, TrafficClass::Counter);
        }
        let s = ch.stats();
        prop_assert_eq!(s.total_requests(), reqs.len() as u64);
        prop_assert_eq!(s.row_hits + s.row_closed + s.row_conflicts, reqs.len() as u64);
        prop_assert_eq!(s.classes[1].requests, reqs.len() as u64);
    }
}
