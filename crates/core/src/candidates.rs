//! The high-counter-value monitor (§IV-C3).
//!
//! Some counter blocks hold values above Max-Counter-in-Table, which
//! memoization-aware update can never reach (counters only increase). When
//! enough read requests (2 K per epoch) use such high values, RMCC inserts a
//! new Memoized Counter Value Group above the current maximum. The monitor
//! watches a ladder of candidate start values — `X+1+8i` for `i = 0..=16`
//! and `X+129+2^j` for `j = 4..=17`, where `X` is Max-Counter-in-Table —
//! and picks the smallest candidate that at least 98% of the epoch's
//! high-value reads fall below.

/// Reads above Max-Counter-in-Table per epoch that trigger an insertion.
pub const HIGH_READ_TRIGGER: u64 = 2_048;

/// Fraction of high-value reads a new group's start should exceed.
pub const COVERAGE_REQUIREMENT: f64 = 0.98;

/// Candidates on the ladder: 17 eight apart, then 14 doubling.
const RUNGS: usize = 17 + 14;

/// Tracks high-value reads against the candidate ladder for one epoch.
///
/// # Examples
///
/// ```
/// use rmcc_core::candidates::HighValueMonitor;
///
/// let mut m = HighValueMonitor::new(100); // Max-Counter-in-Table = 100
/// for _ in 0..3000 {
///     m.observe(120); // reads far above the table
/// }
/// assert!(m.should_insert());
/// // 98% of high reads are below the candidate 100+1+8*3 = 125.
/// assert_eq!(m.select_start(u64::MAX), 125);
/// ```
#[derive(Debug, Clone)]
pub struct HighValueMonitor {
    /// Candidate start values, ascending.
    thresholds: [u64; RUNGS],
    /// `counts_below[k]` = high reads with value < `thresholds[k]`.
    counts_below: [u64; RUNGS],
    /// Total reads observed above Max-Counter-in-Table this epoch.
    high_reads: u64,
    /// The X the ladder was built from.
    base: u64,
}

impl HighValueMonitor {
    /// Builds the ladder over Max-Counter-in-Table `x`.
    /// The ladder is held inline, so a reset allocates nothing.
    pub fn new(x: u64) -> Self {
        let mut thresholds = [0; RUNGS];
        for (k, t) in (0u64..).zip(thresholds.iter_mut()) {
            *t = if k <= 16 {
                x + 1 + 8 * k
            } else {
                x + 129 + (1 << (k - 13))
            };
        }
        HighValueMonitor {
            thresholds,
            counts_below: [0; RUNGS],
            high_reads: 0,
            base: x,
        }
    }

    /// The Max-Counter-in-Table this ladder is relative to.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// High-value reads seen this epoch.
    pub fn high_reads(&self) -> u64 {
        self.high_reads
    }

    /// Records a read whose counter value exceeds Max-Counter-in-Table.
    pub fn observe(&mut self, value: u64) {
        debug_assert!(
            value > self.base,
            "monitor only sees values above the table max"
        );
        self.high_reads += 1;
        for (t, c) in self.thresholds.iter().zip(self.counts_below.iter_mut()) {
            if value < *t {
                *c += 1;
            }
        }
    }

    /// Whether enough high reads accumulated to justify a new group.
    pub fn should_insert(&self) -> bool {
        self.high_reads >= HIGH_READ_TRIGGER
    }

    /// Chooses the new group's start: the smallest candidate covering ≥98%
    /// of observed high reads, falling back to the largest candidate when
    /// even it covers less. The result is clamped to `system_max + 1`
    /// (§IV-D2) so the fastest-growing counter still advances by only one
    /// at a time in the worst case.
    #[allow(clippy::cast_possible_truncation)] // high_reads ≪ 2^53, ceil() is exact
    pub fn select_start(&self, system_max: u64) -> u64 {
        let need = (self.high_reads as f64 * COVERAGE_REQUIREMENT).ceil() as u64;
        let pick = self
            .thresholds
            .iter()
            .zip(self.counts_below.iter())
            .find(|(_, &c)| c >= need)
            .map(|(&t, _)| t)
            .or_else(|| self.thresholds.last().copied())
            // An empty ladder never occurs in practice; clamping below then
            // yields the most conservative start, `system_max + 1`.
            .unwrap_or(u64::MAX);
        pick.min(system_max.saturating_add(1))
    }

    /// Starts a fresh epoch over a (possibly new) table maximum.
    pub fn reset(&mut self, x: u64) {
        *self = HighValueMonitor::new(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_shape_matches_paper() {
        let m = HighValueMonitor::new(1000);
        assert_eq!(m.thresholds.len(), 17 + 14);
        assert_eq!(m.thresholds[0], 1001);
        assert_eq!(m.thresholds[16], 1000 + 1 + 128);
        assert_eq!(m.thresholds[17], 1000 + 129 + 16);
        assert_eq!(*m.thresholds.last().unwrap(), 1000 + 129 + (1 << 17));
        assert!(m.thresholds.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn trigger_threshold() {
        let mut m = HighValueMonitor::new(0);
        for _ in 0..HIGH_READ_TRIGGER - 1 {
            m.observe(5);
        }
        assert!(!m.should_insert());
        m.observe(5);
        assert!(m.should_insert());
    }

    #[test]
    fn select_smallest_covering_candidate() {
        let mut m = HighValueMonitor::new(100);
        // 99% of reads at 110, 1% way out at 200 000.
        for _ in 0..990 {
            m.observe(110);
        }
        for _ in 0..10 {
            m.observe(200_000);
        }
        // Need 980 of 1000 below the pick: 110 < 111 = 100+1+8*2 is wrong —
        // 100+1+8*2 = 117 > 110; smallest candidate above 110 is 117.
        let start = m.select_start(u64::MAX);
        assert_eq!(start, 117);
    }

    #[test]
    fn falls_back_to_largest_candidate() {
        let mut m = HighValueMonitor::new(0);
        // Everything sits above the whole ladder.
        for _ in 0..100 {
            m.observe(10_000_000);
        }
        assert_eq!(m.select_start(u64::MAX), 129 + (1 << 17));
    }

    #[test]
    fn clamped_by_system_max() {
        let mut m = HighValueMonitor::new(100);
        for _ in 0..100 {
            m.observe(50_000);
        }
        assert_eq!(m.select_start(120), 121);
    }

    #[test]
    fn reset_rebuilds_ladder() {
        let mut m = HighValueMonitor::new(0);
        m.observe(3);
        m.reset(500);
        assert_eq!(m.base(), 500);
        assert_eq!(m.high_reads(), 0);
        assert_eq!(m.thresholds[0], 501);
    }
}
