//! The per-epoch traffic-overhead budget (§IV-C1/§IV-C2).
//!
//! RMCC's extra traffic — read-triggered counter updates for read-mostly
//! blocks and the additional overflows its value jumps can cause — is capped
//! at a fraction (default 1%) of memory traffic per epoch of 1,000,000
//! memory accesses. Leftover budget carries over to the next epoch. When
//! the budget runs dry, RMCC falls back to the baseline update policy for
//! the rest of the epoch, except on writes that would overflow anyway
//! (releveling to a memoized value there costs nothing extra).

/// Memory accesses per budget epoch (paper: 1,000,000). Short-running
/// simulations may shrink the epoch via [`TrafficBudget::with_epoch`] so
/// that epoch-resolved telemetry still sees multiple boundaries.
pub const EPOCH_ACCESSES: u64 = 1_000_000;

/// Fractional bits of the fixed-point ledger. The budget accumulates in
/// integer units of 2^-32 requests so that carry-over across epochs is
/// exact: repeated `available += allowance` in `f64` drifts once the
/// allowance has a non-terminating binary fraction, and over enough epochs
/// the drift can grant (or withhold) whole requests.
const FP_BITS: u32 = 32;

/// One request in fixed-point ledger units.
const FP_ONE: u128 = 1 << FP_BITS;

/// Converts a non-negative request count (possibly fractional) into
/// fixed-point ledger units. Performed once per budget at construction;
/// every subsequent ledger operation is exact integer arithmetic.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // rounded non-negative finite value; `as` saturates
fn to_fixed_point(requests: f64) -> u128 {
    (requests * FP_ONE as f64).round() as u128
}

/// Converts fixed-point ledger units back to (fractional) requests for
/// reporting.
#[allow(clippy::cast_precision_loss)] // reporting only; the ledger stays integral
fn from_fixed_point(units: u128) -> f64 {
    units as f64 / FP_ONE as f64
}

/// A replenishing traffic budget.
///
/// All quantities are in units of 64 B memory requests.
///
/// # Examples
///
/// ```
/// use rmcc_core::budget::TrafficBudget;
///
/// let mut b = TrafficBudget::new(0.01); // 1% of traffic
/// // A fresh budget grants one epoch's allowance up front.
/// assert!(b.try_consume(100));
/// assert!(!b.try_consume(1_000_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficBudget {
    /// Fraction of per-epoch traffic grantable as overhead (reporting
    /// only; the ledger below never touches it after construction).
    fraction: f64,
    /// Accesses per epoch (paper: [`EPOCH_ACCESSES`]).
    epoch_accesses: u64,
    /// Fresh allowance granted at each epoch boundary, fixed-point.
    allowance_fp: u128,
    /// Requests still grantable, fixed-point.
    available_fp: u128,
    /// Accesses seen in the current epoch.
    epoch_progress: u64,
    /// Total overhead requests ever granted.
    total_spent: u64,
    /// Overhead requests granted in the current epoch.
    epoch_spent: u64,
    /// Leftover budget carried into the current epoch at its boundary,
    /// fixed-point.
    carry_over_fp: u128,
    /// Total accesses ever observed.
    total_accesses: u64,
    /// Completed epochs.
    epochs: u64,
}

impl TrafficBudget {
    /// Creates a budget granting `fraction` of each epoch's accesses,
    /// with the first epoch's allowance immediately available.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is negative or not finite.
    pub fn new(fraction: f64) -> Self {
        Self::with_epoch(fraction, EPOCH_ACCESSES)
    }

    /// Like [`TrafficBudget::new`] but with a custom epoch length in
    /// accesses (tests and short telemetry runs; the paper uses
    /// [`EPOCH_ACCESSES`]).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is negative or not finite, or if
    /// `epoch_accesses` is zero.
    pub fn with_epoch(fraction: f64, epoch_accesses: u64) -> Self {
        assert!(
            fraction.is_finite() && fraction >= 0.0,
            "fraction must be non-negative"
        );
        assert!(epoch_accesses > 0, "epoch must span at least one access");
        #[allow(clippy::cast_precision_loss)] // one-time allowance sizing
        let allowance_fp = to_fixed_point(fraction * epoch_accesses as f64);
        TrafficBudget {
            fraction,
            epoch_accesses,
            allowance_fp,
            available_fp: allowance_fp,
            epoch_progress: 0,
            total_spent: 0,
            epoch_spent: 0,
            carry_over_fp: 0,
            total_accesses: 0,
            epochs: 0,
        }
    }

    /// The configured overhead fraction.
    pub fn fraction(&self) -> f64 {
        self.fraction
    }

    /// Accesses per epoch.
    pub fn epoch_accesses(&self) -> u64 {
        self.epoch_accesses
    }

    /// The fresh allowance granted at each epoch boundary, in requests.
    pub fn allowance(&self) -> f64 {
        from_fixed_point(self.allowance_fp)
    }

    /// Overhead requests granted so far in the current epoch. Together with
    /// [`Self::carry_over`] this is the telemetry invariant:
    /// `epoch_spent <= allowance + carry_over` at all times — see
    /// [`Self::invariant_holds`] for the exact integer form.
    pub fn epoch_spent(&self) -> u64 {
        self.epoch_spent
    }

    /// Leftover budget that carried into the current epoch at its boundary
    /// (zero during the first epoch: nothing has carried yet).
    pub fn carry_over(&self) -> f64 {
        from_fixed_point(self.carry_over_fp)
    }

    /// Requests currently grantable.
    pub fn available(&self) -> f64 {
        from_fixed_point(self.available_fp)
    }

    /// The budget invariant, checked in exact fixed-point arithmetic with
    /// no floating-point tolerance: overhead granted within an epoch never
    /// exceeds the fresh allowance plus what carried in at the boundary.
    pub fn invariant_holds(&self) -> bool {
        u128::from(self.epoch_spent) << FP_BITS
            <= self.allowance_fp.saturating_add(self.carry_over_fp)
    }

    /// Total overhead requests granted over the run.
    pub fn total_spent(&self) -> u64 {
        self.total_spent
    }

    /// Total memory accesses observed.
    pub fn total_accesses(&self) -> u64 {
        self.total_accesses
    }

    /// Realized overhead as a fraction of all observed accesses.
    pub fn realized_overhead(&self) -> f64 {
        if self.total_accesses == 0 {
            0.0
        } else {
            self.total_spent as f64 / self.total_accesses as f64
        }
    }

    /// Records one memory access; every `epoch_accesses`-th access rolls
    /// the epoch and replenishes the budget (carrying leftover forward).
    /// Returns `true` when an epoch boundary was crossed — the caller runs
    /// its end-of-epoch maintenance (table reselection) then.
    pub fn on_access(&mut self) -> bool {
        self.total_accesses += 1;
        // Saturating: progress resets every epoch and epochs is monotone, so
        // neither can approach u64::MAX in any realistic run.
        self.epoch_progress = self.epoch_progress.saturating_add(1);
        if self.epoch_progress >= self.epoch_accesses {
            self.epoch_progress = 0;
            self.epochs = self.epochs.saturating_add(1);
            // Carry-over: leftover adds to the new allowance (§IV-C1).
            // Integer ledger units, so the carry is exact at any epoch count.
            self.carry_over_fp = self.available_fp;
            self.epoch_spent = 0;
            self.available_fp = self.available_fp.saturating_add(self.allowance_fp);
            true
        } else {
            false
        }
    }

    /// Completed epochs so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Whether the remaining budget covers `requests` of overhead traffic
    /// (exactly when [`TrafficBudget::try_consume`] would spend them).
    pub fn can_afford(&self, requests: u64) -> bool {
        self.available_fp >= u128::from(requests) << FP_BITS
    }

    /// Attempts to spend `requests` of overhead traffic; `false` (and no
    /// spend) if the remaining budget cannot cover it.
    pub fn try_consume(&mut self, requests: u64) -> bool {
        if self.can_afford(requests) {
            self.available_fp -= u128::from(requests) << FP_BITS;
            self.total_spent = self.total_spent.saturating_add(requests);
            // Saturating: resets every epoch, cannot approach u64::MAX.
            self.epoch_spent = self.epoch_spent.saturating_add(requests);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_allowance_and_exhaustion() {
        let mut b = TrafficBudget::new(0.01);
        assert!((b.available() - 10_000.0).abs() < 1e-9);
        assert!(b.can_afford(10_000) && !b.can_afford(10_001));
        assert!(b.try_consume(10_000));
        assert!(!b.try_consume(1));
        assert_eq!(b.total_spent(), 10_000);
    }

    #[test]
    fn replenishes_each_epoch_with_carry_over() {
        let mut b = TrafficBudget::new(0.01);
        assert!(b.try_consume(9_000)); // leave 1 000
        let mut boundaries = 0;
        for _ in 0..EPOCH_ACCESSES {
            if b.on_access() {
                boundaries += 1;
            }
        }
        assert_eq!(boundaries, 1);
        assert_eq!(b.epochs(), 1);
        // 1 000 leftover + 10 000 fresh.
        assert!((b.available() - 11_000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_fraction_grants_nothing() {
        let mut b = TrafficBudget::new(0.0);
        assert!(!b.try_consume(1));
        assert!(b.try_consume(0));
    }

    #[test]
    fn realized_overhead_tracks_ratio() {
        let mut b = TrafficBudget::new(0.08);
        for _ in 0..1000 {
            b.on_access();
        }
        b.try_consume(20);
        assert!((b.realized_overhead() - 0.02).abs() < 1e-12);
        assert_eq!(TrafficBudget::new(0.01).realized_overhead(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_fraction_panics() {
        let _ = TrafficBudget::new(-0.5);
    }

    #[test]
    fn epoch_spent_and_carry_over_track_boundaries() {
        let mut b = TrafficBudget::with_epoch(0.01, 1_000); // allowance 10
        assert_eq!(b.epoch_accesses(), 1_000);
        assert!((b.allowance() - 10.0).abs() < 1e-12);
        assert!(b.try_consume(4));
        assert_eq!(b.epoch_spent(), 4);
        assert_eq!(b.carry_over(), 0.0, "nothing carried before epoch 1");
        let mut boundaries = 0;
        for _ in 0..1_000 {
            if b.on_access() {
                boundaries += 1;
            }
        }
        assert_eq!(boundaries, 1);
        // 6 left over carried in; per-epoch spend reset.
        assert!((b.carry_over() - 6.0).abs() < 1e-12);
        assert_eq!(b.epoch_spent(), 0);
        assert!((b.available() - 16.0).abs() < 1e-12);
        // The telemetry invariant: spend never exceeds allowance + carry,
        // checked exactly — no epsilon.
        assert!(b.try_consume(16));
        assert!(!b.try_consume(1));
        assert!(b.invariant_holds());
    }

    #[test]
    fn fractional_allowance_carries_exactly() {
        // Allowance 2.5 requests/epoch: the half-request remainder must
        // accumulate without floating-point drift, affording exactly five
        // requests every two epochs at any epoch count.
        let mut b = TrafficBudget::with_epoch(0.5, 5);
        let mut granted = 0u64;
        for epoch in 1..=10_000u64 {
            while b.try_consume(1) {
                granted += 1;
            }
            assert!(b.invariant_holds(), "invariant broke in epoch {epoch}");
            for _ in 0..5 {
                b.on_access();
            }
            // After `epoch` epochs the ledger has granted floor(2.5 * epoch).
            assert_eq!(granted, epoch * 5 / 2, "drift after {epoch} epochs");
        }
    }

    #[test]
    fn non_dyadic_allowance_never_drifts() {
        // 0.1 has no finite binary expansion; the fixed-point ledger
        // quantizes it once at construction and then stays exact: after any
        // number of unspent epochs the affordable request count is the
        // floor of (epochs + 1) times the quantized allowance.
        let mut b = TrafficBudget::with_epoch(0.1, 1);
        for _ in 0..99_999 {
            b.on_access();
        }
        // 100_000 allowances of round(0.1 * 2^32) / 2^32 requests each.
        assert!(b.try_consume(10_000));
        assert!(!b.try_consume(1));
    }

    #[test]
    #[should_panic(expected = "at least one access")]
    fn zero_length_epoch_panics() {
        let _ = TrafficBudget::with_epoch(0.01, 0);
    }

    #[test]
    fn failed_consume_does_not_spend() {
        let mut b = TrafficBudget::new(0.01);
        let before = b.available();
        assert!(!b.can_afford(1_000_000));
        assert!(!b.try_consume(1_000_000));
        assert!((b.available() - before).abs() < 1e-12);
        assert_eq!(b.total_spent(), 0);
    }
}
