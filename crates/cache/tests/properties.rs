//! Property-based tests for the cache substrate.

use proptest::prelude::*;
use rmcc_cache::hierarchy::{Hierarchy, HierarchyConfig, LevelConfig};
use rmcc_cache::set_assoc::SetAssocCache;

proptest! {
    /// A just-accessed line is always resident, and statistics reconcile.
    #[test]
    fn accessed_lines_are_resident(addrs in prop::collection::vec(0u64..10_000, 1..500)) {
        let mut c = SetAssocCache::new(256, 8);
        for &a in &addrs {
            c.access(a, false);
            prop_assert!(c.probe(a), "line {} missing right after access", a);
        }
        let s = c.stats();
        prop_assert_eq!(s.accesses, addrs.len() as u64);
        prop_assert_eq!(s.hits + s.misses, s.accesses);
    }

    /// With at most `ways` distinct lines per set, nothing is ever evicted.
    #[test]
    fn working_set_within_ways_never_evicts(rounds in 1usize..50) {
        let mut c = SetAssocCache::new(64, 4); // 16 sets
        // 4 lines, all in set 3.
        let lines: Vec<u64> = (0..4u64).map(|i| 3 + i * 16).collect();
        for _ in 0..rounds {
            for &l in &lines {
                c.access(l, false);
            }
        }
        for &l in &lines {
            prop_assert!(c.probe(l));
        }
        prop_assert_eq!(c.stats().misses, 4, "only compulsory misses allowed");
    }

    /// Residency count never exceeds capacity.
    #[test]
    fn capacity_is_respected(addrs in prop::collection::vec(any::<u64>(), 1..2_000) ) {
        let mut c = SetAssocCache::new(128, 8);
        for &a in &addrs {
            c.access(a, a % 3 == 0);
        }
        prop_assert!(c.resident_lines().count() <= c.capacity_lines());
    }

    /// Every dirty line eventually comes back out as a writeback or stays
    /// resident: dirty-in == writebacks + dirty-resident.
    #[test]
    fn dirty_lines_are_conserved(addrs in prop::collection::vec(0u64..500, 1..1_000)) {
        let mut c = SetAssocCache::new(32, 4);
        let mut dirtied = std::collections::HashSet::new();
        let mut written_back = 0u64;
        for &a in &addrs {
            match c.access(a, true) {
                rmcc_cache::set_assoc::AccessOutcome::Miss { evicted: Some(e) } if e.dirty => {
                    written_back += 1;
                    dirtied.remove(&e.addr);
                }
                _ => {}
            }
            dirtied.insert(a);
        }
        let resident_dirty = dirtied.iter().filter(|a| c.probe(**a)).count() as u64;
        prop_assert_eq!(c.stats().writebacks, written_back);
        prop_assert!(resident_dirty <= c.capacity_lines() as u64);
    }

    /// The hierarchy never reports a hit for a line it has never seen, and
    /// repeated accesses promote into L1.
    #[test]
    fn hierarchy_hits_require_history(addrs in prop::collection::vec(0u64..100_000, 1..300)) {
        let cfg = HierarchyConfig {
            l1: LevelConfig { bytes: 8 * 64, ways: 2 },
            l2: LevelConfig { bytes: 32 * 64, ways: 4 },
            l3: LevelConfig { bytes: 128 * 64, ways: 8 },
        };
        let mut h = Hierarchy::new(cfg);
        let mut seen = std::collections::HashSet::new();
        for &a in &addrs {
            let out = h.access(a, false);
            if !seen.contains(&a) {
                // First touch can only hit if another access brought it in —
                // impossible here since addresses are lines.
                prop_assert!(out.is_llc_miss(), "unseen line {} hit", a);
            }
            seen.insert(a);
            // Immediate re-access must hit L1.
            let again = h.access(a, false);
            prop_assert_eq!(again.hit_level, Some(rmcc_cache::hierarchy::Level::L1));
        }
    }
}
