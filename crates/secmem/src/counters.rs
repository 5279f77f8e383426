//! Write-counter organizations: SGX monolithic counters, split counters
//! (SC-64), and Morphable counters.
//!
//! A 64 B *counter block* encodes the write counters of many data blocks
//! (§II-C/§II-D of the paper):
//!
//! * **Mono8** — eight independent 56-bit counters (SGX). Coverage 8.
//! * **Sc64** — one 64-bit major counter + sixty-four 7-bit minors; a block's
//!   counter value is `major + minor`. Coverage 64. A minor that cannot
//!   encode its new value forces a *relevel*: every encoded value in the
//!   block is raised to a common target and all covered data blocks are
//!   re-encrypted.
//! * **Morphable128** — one major + 128 minors with a format ladder
//!   (uniform low-width minors, or a zero-bitmap plus wider non-zero minors)
//!   and min-rebase, which is what lets it cover two 4 KB pages with few
//!   overflows. Coverage 128.
//!
//! The *mechanism* here is policy-free: [`CounterBlock::try_write`] reports
//! [`WouldOverflow`] and the caller (the baseline MC or RMCC's
//! memoization-aware update) chooses the relevel target.

use rmcc_crypto::otp::COUNTER_MAX;

/// SC-64's per-minor ceiling: 7-bit minors (SGX-style split counters).
const SC64_MINOR_LIMIT: u64 = 127;

/// Which counter organization a counter block uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterOrg {
    /// SGX-style: 8 × 56-bit monolithic counters per block.
    Mono8,
    /// Split counters, 64-bit major + 64 × 7-bit minors.
    Sc64,
    /// Morphable counters: 128 minors with zero-compression formats.
    Morphable128,
}

impl CounterOrg {
    /// Data blocks covered per 64 B counter block (8 / 64 / 128).
    pub fn coverage(self) -> usize {
        match self {
            CounterOrg::Mono8 => 8,
            CounterOrg::Sc64 => 64,
            CounterOrg::Morphable128 => 128,
        }
    }

    /// Integrity-tree arity: counters per tree node, same encoding as L0.
    pub fn tree_arity(self) -> usize {
        self.coverage()
    }

    /// Counter-decode latency in picoseconds (§V: "We simulate 3ns counter
    /// decoding latency" for Morphable; simpler formats decode faster).
    pub fn decode_latency_ps(self) -> u64 {
        match self {
            CounterOrg::Mono8 => 0,
            CounterOrg::Sc64 => 1_000,
            CounterOrg::Morphable128 => 3_000,
        }
    }
}

impl std::fmt::Display for CounterOrg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CounterOrg::Mono8 => write!(f, "SGX-mono"),
            CounterOrg::Sc64 => write!(f, "SC-64"),
            CounterOrg::Morphable128 => write!(f, "Morphable"),
        }
    }
}

/// Error: the requested counter value cannot be encoded without releveling
/// the whole counter block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WouldOverflow {
    /// The smallest shared target that releveling must reach so every
    /// covered block still moves forward (`max encoded value + 1`).
    pub min_relevel_target: u64,
}

impl std::fmt::Display for WouldOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "counter update requires releveling to ≥ {}",
            self.min_relevel_target
        )
    }
}

impl std::error::Error for WouldOverflow {}

/// Payload bits available to Morphable minors (512 − 64 major − 8 format
/// metadata).
const MORPHABLE_PAYLOAD_BITS: usize = 440;

/// One 64 B counter block's architectural state.
///
/// # Examples
///
/// ```
/// use rmcc_secmem::counters::{CounterBlock, CounterOrg};
///
/// let mut cb = CounterBlock::new(CounterOrg::Sc64);
/// cb.try_write(3, 1).unwrap();
/// assert_eq!(cb.value(3), 1);
/// // Jumping past the 7-bit minor range reports an overflow.
/// assert!(cb.try_write(3, 400).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterBlock {
    org: CounterOrg,
    major: u64,
    minors: Vec<u64>,
}

impl CounterBlock {
    /// A zero-initialized counter block.
    pub fn new(org: CounterOrg) -> Self {
        CounterBlock {
            org,
            major: 0,
            minors: vec![0; org.coverage()],
        }
    }

    /// A counter block whose values start at arbitrary (e.g. randomized)
    /// state: `major` plus per-slot minors, canonicalized for the format.
    ///
    /// The paper's lifetime methodology randomizes all counters before
    /// measurement so RMCC cannot trivially memoize "value zero" (§V).
    pub fn with_state(org: CounterOrg, major: u64, minors: Vec<u64>) -> Self {
        assert_eq!(minors.len(), org.coverage(), "one minor per covered block");
        let mut cb = CounterBlock { org, major, minors };
        cb.rebase();
        cb
    }

    /// The organization of this block.
    pub fn org(&self) -> CounterOrg {
        self.org
    }

    /// The encoded counter value of covered slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range for the organization.
    #[allow(clippy::indexing_slicing)] // documented panic contract
    pub fn value(&self, slot: usize) -> u64 {
        // Encoded values are capped at COUNTER_MAX (< 2^56) by every write
        // path, so the sum cannot overflow; saturating makes that explicit.
        // audit:allow(R1, reason = "slot bounds are this accessor's documented panic contract")
        self.major.saturating_add(self.minors[slot])
    }

    /// The largest encoded value in the block.
    pub fn max_value(&self) -> u64 {
        self.major
            .saturating_add(self.minors.iter().copied().max().unwrap_or(0))
    }

    /// Heap bytes this block owns: its minor-counter vector.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.minors.capacity() * std::mem::size_of::<u64>()
    }

    /// Iterates over all encoded values.
    pub fn values(&self) -> impl Iterator<Item = u64> + '_ {
        self.minors
            .iter()
            .map(move |m| self.major.saturating_add(*m))
    }

    /// Attempts to raise slot `slot` to `target`.
    ///
    /// # Errors
    ///
    /// Returns [`WouldOverflow`] when the value cannot be encoded in the
    /// block's format; the caller must [`CounterBlock::relevel`] (and
    /// re-encrypt every covered block).
    ///
    /// # Panics
    ///
    /// Panics if `target` does not strictly increase the slot's value (the
    /// security invariant: a (block, counter) pair is never reused) or if it
    /// exceeds the 56-bit counter space.
    pub fn try_write(&mut self, slot: usize, target: u64) -> Result<(), WouldOverflow> {
        assert!(
            target > self.value(slot),
            "counter must strictly increase (slot {slot}: {} -> {target})",
            self.value(slot)
        );
        assert!(target <= COUNTER_MAX, "counter value exceeds 56 bits");
        if target < self.major {
            // Cannot represent values below the shared major at all.
            return Err(WouldOverflow {
                min_relevel_target: self.max_value() + 1,
            });
        }
        let new_minor = target - self.major;
        match self.org {
            CounterOrg::Mono8 => {
                // `slot` was bounds-checked by the `value(slot)` assert above.
                if let Some(m) = self.minors.get_mut(slot) {
                    *m = new_minor;
                }
                Ok(())
            }
            CounterOrg::Sc64 => {
                if new_minor <= SC64_MINOR_LIMIT {
                    if let Some(m) = self.minors.get_mut(slot) {
                        *m = new_minor;
                    }
                    Ok(())
                } else {
                    Err(WouldOverflow {
                        min_relevel_target: self.max_value() + 1,
                    })
                }
            }
            CounterOrg::Morphable128 => {
                // Check the candidate multiset analytically (no clone, no
                // allocation on the write path), then commit in place and
                // min-rebase by the candidate minimum that check found —
                // free: it changes no encoded values.
                if let Some(min) = morphable_write_fits(&self.minors, slot, new_minor) {
                    if let Some(m) = self.minors.get_mut(slot) {
                        *m = new_minor;
                    }
                    self.rebase_by(min);
                    Ok(())
                } else {
                    Err(WouldOverflow {
                        min_relevel_target: self.max_value() + 1,
                    })
                }
            }
        }
    }

    /// Whether raising `slot` to `target` would succeed, without changing
    /// any state. Policies use this to weigh a memoized jump against the
    /// baseline `+1` before committing.
    pub fn can_write(&self, slot: usize, target: u64) -> bool {
        if target <= self.value(slot) || target > COUNTER_MAX || target < self.major {
            return false;
        }
        let new_minor = target - self.major;
        match self.org {
            CounterOrg::Mono8 => true,
            CounterOrg::Sc64 => new_minor <= SC64_MINOR_LIMIT,
            CounterOrg::Morphable128 => {
                morphable_write_fits(&self.minors, slot, new_minor).is_some()
            }
        }
    }

    /// Relevels the block: every covered slot's value becomes exactly
    /// `target`. The caller is responsible for re-encrypting all covered
    /// data blocks with the new value (that traffic is the overflow cost).
    ///
    /// # Panics
    ///
    /// Panics unless `target > max_value()`, which both the baseline policy
    /// (`max + 1`) and RMCC's policy (nearest memoized ≥ `max + 1`) satisfy,
    /// and panics if `target` exceeds the 56-bit counter space.
    pub fn relevel(&mut self, target: u64) {
        assert!(
            target > self.max_value(),
            "relevel must move every counter forward"
        );
        assert!(target <= COUNTER_MAX, "counter value exceeds 56 bits");
        self.major = target;
        self.minors.iter_mut().for_each(|m| *m = 0);
    }

    /// Subtracts the minimum minor from every minor and folds it into the
    /// major — Morphable's rebase. Encoded values are unchanged, so no
    /// re-encryption is needed.
    fn rebase(&mut self) {
        if self.org != CounterOrg::Morphable128 {
            return;
        }
        self.rebase_by(self.minors.iter().copied().min().unwrap_or(0));
    }

    /// Rebase by `min`, which must be the minimum minor.
    fn rebase_by(&mut self, min: u64) {
        if min > 0 {
            // Rebase preserves encoded values, so the sum stays bounded.
            self.major = self.major.saturating_add(min);
            self.minors.iter_mut().for_each(|m| *m -= min);
        }
    }
}

/// Whether replacing `minors[slot]` with `new_minor` yields a multiset that
/// still fits one of Morphable's formats *after min-rebase*; if it does,
/// the candidate minimum the rebase subtracts.
///
/// Computed analytically over the existing minors — the candidate is never
/// materialized, so the hot write path performs no heap allocation. One
/// branch-free min/max pass over the other minors finds the candidate's
/// range; the rebase subtracts its minimum from every minor, so the widest
/// post-rebase field is `max − min` and a minor is non-zero post-rebase iff
/// it exceeds the candidate minimum. Those are counted only when the
/// uniform format does not fit.
fn morphable_write_fits(minors: &[u64], slot: usize, new_minor: u64) -> Option<u64> {
    let (before, rest) = minors.split_at(slot.min(minors.len()));
    let others = [before, rest.get(1..).unwrap_or_default()];
    let (mut low, mut high) = (new_minor, new_minor);
    for part in others {
        for &m in part {
            low = low.min(m);
            high = high.max(m);
        }
    }
    let rebased_max = high - low;
    if rebased_max == 0 {
        return Some(low);
    }
    let width = 64 - rebased_max.leading_zeros() as usize; // bits to hold max
    if width > 9 {
        return None; // beyond the widest field in the ladder
    }
    // Uniform format: every minor gets `width` bits.
    if minors.len() * width <= MORPHABLE_PAYLOAD_BITS {
        return Some(low);
    }
    // Zero-compressed format: 1 presence bit per minor + `width` bits per
    // non-zero (post-rebase) minor.
    let nonzero = others
        .iter()
        .map(|part| part.iter().filter(|&&m| m > low).count())
        .sum::<usize>()
        + usize::from(new_minor > low);
    (minors.len() + nonzero * width <= MORPHABLE_PAYLOAD_BITS).then_some(low)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_and_arity() {
        assert_eq!(CounterOrg::Mono8.coverage(), 8);
        assert_eq!(CounterOrg::Sc64.coverage(), 64);
        assert_eq!(CounterOrg::Morphable128.coverage(), 128);
        assert_eq!(CounterOrg::Morphable128.tree_arity(), 128);
        assert_eq!(CounterOrg::Morphable128.decode_latency_ps(), 3_000);
    }

    #[test]
    fn mono_counters_are_independent() {
        let mut cb = CounterBlock::new(CounterOrg::Mono8);
        cb.try_write(0, 1_000_000).unwrap();
        cb.try_write(7, 5).unwrap();
        assert_eq!(cb.value(0), 1_000_000);
        assert_eq!(cb.value(7), 5);
        assert_eq!(cb.value(3), 0);
        assert_eq!(cb.max_value(), 1_000_000);
    }

    #[test]
    fn sc64_encodes_within_minor_range() {
        let mut cb = CounterBlock::new(CounterOrg::Sc64);
        for v in 1..=127 {
            cb.try_write(0, v).unwrap();
        }
        assert_eq!(cb.value(0), 127);
        let err = cb.try_write(0, 128).unwrap_err();
        assert_eq!(err.min_relevel_target, 128);
    }

    #[test]
    fn sc64_relevel_resets_minors() {
        let mut cb = CounterBlock::new(CounterOrg::Sc64);
        cb.try_write(0, 127).unwrap();
        cb.try_write(1, 50).unwrap();
        cb.relevel(128);
        for slot in 0..64 {
            assert_eq!(cb.value(slot), 128);
        }
        // Writes work again.
        cb.try_write(0, 129).unwrap();
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn counter_reuse_panics() {
        let mut cb = CounterBlock::new(CounterOrg::Sc64);
        cb.try_write(0, 5).unwrap();
        let _ = cb.try_write(0, 5);
    }

    #[test]
    #[should_panic(expected = "move every counter forward")]
    fn relevel_backwards_panics() {
        let mut cb = CounterBlock::new(CounterOrg::Sc64);
        cb.try_write(0, 100).unwrap();
        cb.relevel(100);
    }

    #[test]
    fn morphable_survives_many_more_increments_than_sc64() {
        // Hammer one slot with +1 writes; count how many succeed before the
        // first overflow.
        let count_until_overflow = |org: CounterOrg| {
            let mut cb = CounterBlock::new(org);
            let mut v = 0u64;
            loop {
                v += 1;
                if cb.try_write(0, v).is_err() {
                    return v;
                }
            }
        };
        let sc = count_until_overflow(CounterOrg::Sc64);
        let mo = count_until_overflow(CounterOrg::Morphable128);
        assert_eq!(sc, 128);
        assert!(mo > sc, "morphable ({mo}) must outlast sc64 ({sc})");
    }

    #[test]
    fn morphable_rebase_reclaims_headroom() {
        let mut cb = CounterBlock::new(CounterOrg::Morphable128);
        // Raise every slot in lockstep (uniform 3-bit format always fits),
        // letting min-rebase fold each completed round into the major.
        for round in 1..=7u64 {
            for slot in 0..128 {
                cb.try_write(slot, round).unwrap();
            }
        }
        for slot in 0..128 {
            assert_eq!(cb.value(slot), 7);
        }
        // Rebase left all minors at 0, so a single 9-bit-wide jump fits the
        // zero-compressed format.
        cb.try_write(0, 7 + 500).unwrap();
        assert_eq!(cb.value(0), 507);
    }

    #[test]
    fn morphable_zero_compression_allows_wide_hot_minors() {
        let mut cb = CounterBlock::new(CounterOrg::Morphable128);
        // ~40 hot blocks at width up to 7 bits: 128 + 40*7 = 408 ≤ 440.
        for slot in 0..40 {
            cb.try_write(slot, 100).unwrap();
        }
        for slot in 0..40 {
            assert_eq!(cb.value(slot), 100);
        }
        // But many wide minors exceed the payload.
        let mut failed = false;
        for slot in 40..128 {
            if cb.try_write(slot, 100 + slot as u64).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "unbounded wide minors should eventually overflow");
    }

    #[test]
    fn failed_morphable_write_leaves_values_intact() {
        let mut cb = CounterBlock::new(CounterOrg::Morphable128);
        for slot in 0..30 {
            cb.try_write(slot, 50 + slot as u64).unwrap();
        }
        let before: Vec<u64> = cb.values().collect();
        // This jump cannot fit (width > 9).
        assert!(cb.try_write(0, 1 << 20).is_err());
        let after: Vec<u64> = cb.values().collect();
        assert_eq!(before, after);
    }

    #[test]
    fn analytic_write_fits_matches_materialized_reference() {
        // The old implementation: clone the minors, apply the write, rebase,
        // then check the formats. Returns the rebased `(major, minors)` when
        // the candidate fits. The analytic version must agree exactly, and
        // so must the state `try_write` leaves.
        fn reference(
            major: u64,
            minors: &[u64],
            slot: usize,
            new_minor: u64,
        ) -> Option<(u64, Vec<u64>)> {
            let mut cand = minors.to_vec();
            cand[slot] = new_minor;
            let min = cand.iter().copied().min().unwrap_or(0);
            cand.iter_mut().for_each(|m| *m -= min);
            let rebased = Some((major + min, cand.clone()));
            let max = cand.iter().copied().max().unwrap_or(0);
            if max == 0 {
                return rebased;
            }
            let width = 64 - max.leading_zeros() as usize;
            if width > 9 {
                return None;
            }
            if cand.len() * width <= MORPHABLE_PAYLOAD_BITS {
                return rebased;
            }
            let nonzero = cand.iter().filter(|&&m| m != 0).count();
            if cand.len() + nonzero * width <= MORPHABLE_PAYLOAD_BITS {
                rebased
            } else {
                None
            }
        }
        let mut z = 0x5eed_1234_u64;
        let mut next = move || {
            z = z
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            z >> 33
        };
        let mut fits = 0u32;
        let mut landed = [0u32; 2]; // [refused, written] by `try_write`
        for case in 0..2_000 {
            // Mix sparse, dense, narrow, and wide minor sets.
            let magnitude = [1u64, 7, 63, 511, 4095][case % 5];
            let density = [1u64, 3, 8][case % 3];
            let mut minors: Vec<u64> = (0..128)
                .map(|_| {
                    if next() % 8 < density {
                        next() % (magnitude + 1)
                    } else {
                        0
                    }
                })
                .collect();
            let slot = (next() % 128) as usize;
            let new_minor = next() % (2 * magnitude + 2);
            if case % 4 == 3 {
                // The written slot holds the block's only zero minor, so a
                // write that lands rebases by the new minimum.
                minors.iter_mut().for_each(|m| *m += 1 + next() % 2);
                minors[slot] = 0;
            }
            let major = 1_000 + case as u64;
            let expected = reference(major, &minors, slot, new_minor);
            let got = morphable_write_fits(&minors, slot, new_minor);
            let ctx = format!("case {case}: slot {slot} new_minor {new_minor} minors {minors:?}");
            assert_eq!(got.is_some(), expected.is_some(), "{ctx}");
            fits += u32::from(got.is_some());
            // The same write through the block: `can_write` predicts
            // `try_write`, and a write that lands leaves exactly the
            // reference's rebased state.
            let mut cb = CounterBlock {
                org: CounterOrg::Morphable128,
                major,
                minors: minors.clone(),
            };
            let target = major + new_minor;
            if target <= cb.value(slot) {
                assert!(!cb.can_write(slot, target), "{ctx}");
                continue;
            }
            let predicted = cb.can_write(slot, target);
            let written = cb.try_write(slot, target);
            assert_eq!(predicted, written.is_ok(), "{ctx}");
            landed[usize::from(written.is_ok())] += 1;
            match expected {
                Some((ref_major, ref_minors)) => {
                    assert!(written.is_ok(), "{ctx}");
                    assert_eq!((cb.major, &cb.minors), (ref_major, &ref_minors), "{ctx}");
                }
                None => {
                    assert!(written.is_err(), "{ctx}");
                    assert_eq!((cb.major, &cb.minors), (major, &minors), "{ctx}");
                }
            }
        }
        // The sweep must exercise both outcomes to mean anything.
        assert!(fits > 100, "only {fits} accepted");
        assert!(fits < 1_900, "only {} rejected", 2_000 - fits);
        assert!(
            landed.iter().all(|&n| n > 100),
            "try_write outcomes {landed:?}"
        );
    }

    #[test]
    fn with_state_canonicalizes() {
        let cb = CounterBlock::with_state(CounterOrg::Morphable128, 1000, vec![5; 128]);
        // Rebase folds the uniform 5 into the major.
        assert_eq!(cb.value(0), 1005);
        assert_eq!(cb.max_value(), 1005);
    }

    #[test]
    #[should_panic(expected = "56 bits")]
    fn mono_overflow_at_56_bits_panics() {
        let mut cb = CounterBlock::new(CounterOrg::Mono8);
        let _ = cb.try_write(0, COUNTER_MAX + 1);
    }

    #[test]
    fn values_below_major_overflow() {
        let mut cb = CounterBlock::new(CounterOrg::Sc64);
        cb.try_write(0, 127).unwrap();
        cb.relevel(200);
        // Target 201 ok, but a target below the major cannot be encoded...
        cb.try_write(1, 201).unwrap();
        // ...there is no such case via the public API since writes must
        // increase, and all values ≥ major after relevel. Verify invariant:
        assert!(cb.values().all(|v| v >= 200));
    }
}
