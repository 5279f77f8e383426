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
//! The *mechanism* here is policy-free: [`CounterBlock::advance`] writes,
//! else relevels to a target the caller (the baseline MC or RMCC's
//! memoization-aware update) chooses, and never passes [`COUNTER_MAX`].

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

/// Why [`CounterBlock::try_write`] left the block unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The format cannot encode the value: the block must relevel, to at
    /// least `max_value() + 1` so every covered block moves forward.
    Overflow,
    /// The value lies past [`COUNTER_MAX`].
    Saturated,
}

/// Refusal: a counter would pass [`COUNTER_MAX`], the end of the 56-bit
/// counter space, where only key renewal helps (§IV-D2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Saturated;

/// Payload bits available to Morphable minors (512 − 64 major − 8 format
/// metadata).
const MORPHABLE_PAYLOAD_BITS: usize = 440;

/// Morphable's widest ladder field: after min-rebase every stored minor
/// fits 9 bits.
const MORPHABLE_MINOR_LIMIT: u64 = (1 << 9) - 1;

/// A block's minors, inline at the width their format stores.
///
/// SC-64 minors never exceed 127 and Morphable's never exceed 511 after
/// min-rebase (up to 1,022 between a write and its rebase), so both fit
/// 16 bits; Mono8's 56-bit counters stay `u64`.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Minors {
    Mono8([u64; 8]),
    Sc64([u16; 64]),
    Morphable128([u16; 128]),
}

impl Minors {
    fn zeroed(org: CounterOrg) -> Self {
        match org {
            CounterOrg::Mono8 => Minors::Mono8([0; 8]),
            CounterOrg::Sc64 => Minors::Sc64([0; 64]),
            CounterOrg::Morphable128 => Minors::Morphable128([0; 128]),
        }
    }

    fn org(&self) -> CounterOrg {
        match self {
            Minors::Mono8(_) => CounterOrg::Mono8,
            Minors::Sc64(_) => CounterOrg::Sc64,
            Minors::Morphable128(_) => CounterOrg::Morphable128,
        }
    }

    /// The minor of `slot`, if the format covers it.
    #[inline]
    fn get(&self, slot: usize) -> Option<u64> {
        match self {
            Minors::Mono8(m) => m.get(slot).copied(),
            Minors::Sc64(m) => m.get(slot).copied().map(u64::from),
            Minors::Morphable128(m) => m.get(slot).copied().map(u64::from),
        }
    }

    /// Stores `minor` in `slot`. The caller has checked that it fits the
    /// format (see [`narrow`]).
    #[inline]
    fn set(&mut self, slot: usize, minor: u64) {
        fn put<T>(cells: &mut [T], slot: usize, value: T) {
            if let Some(cell) = cells.get_mut(slot) {
                *cell = value;
            }
        }
        match self {
            Minors::Mono8(m) => put(m, slot, minor),
            Minors::Sc64(m) => put(m, slot, narrow(minor)),
            Minors::Morphable128(m) => put(m, slot, narrow(minor)),
        }
    }

    /// Every minor, widened.
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let (wide, narrow): (&[u64], &[u16]) = match self {
            Minors::Mono8(m) => (m, &[]),
            Minors::Sc64(m) => (&[], m),
            Minors::Morphable128(m) => (&[], m),
        };
        wide.iter()
            .copied()
            .chain(narrow.iter().copied().map(u64::from))
    }
}

/// A minor that a fit check admitted for a 16-bit format (every admitted
/// value is at most 1,022).
///
/// # Panics
///
/// Panics if `minor` does not fit 16 bits: storing a truncated minor would
/// reuse a counter value.
#[inline]
fn narrow(minor: u64) -> u16 {
    let narrow = u16::try_from(minor);
    assert!(narrow.is_ok(), "minor {minor} exceeds 16 bits");
    narrow.unwrap_or(u16::MAX)
}

/// One 64 B counter block's architectural state.
///
/// The minors sit inline at their format's width ([`CounterOrg::Mono8`]:
/// `u64`, the split formats: `u16`), so a block owns no heap memory. Next to
/// them the block keeps a summary, updated by every write, relevel and
/// rebase: the largest minor and the number of zero minors. A Morphable
/// block's smallest minor is always 0 (min-rebase), so the summary alone
/// decides whether a write fits, and [`CounterBlock::max_value`] is a sum.
/// Only a write to the slot holding a Morphable block's *only* zero minor
/// rescans: the candidate minimum moves, and the block rebases.
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
    major: u64,
    /// The largest minor.
    max_minor: u64,
    /// How many minors are 0.
    zeros: usize,
    minors: Minors,
}

impl CounterBlock {
    /// A zero-initialized counter block.
    pub fn new(org: CounterOrg) -> Self {
        CounterBlock {
            major: 0,
            max_minor: 0,
            zeros: org.coverage(),
            minors: Minors::zeroed(org),
        }
    }

    /// A counter block whose values start at arbitrary (e.g. randomized)
    /// state: `major` plus per-slot minors, canonicalized for the format
    /// (Morphable min-rebases: its smallest minor folds into the major).
    ///
    /// The paper's lifetime methodology randomizes all counters before
    /// measurement so RMCC cannot trivially memoize "value zero" (§V).
    ///
    /// # Panics
    ///
    /// Panics unless there is one minor per covered block and every minor
    /// fits its format's field: at most 127 for SC-64, at most 511 after
    /// the rebase for Morphable (its widest ladder field, 9 bits), and at
    /// most [`COUNTER_MAX`] for Mono8.
    pub fn with_state(org: CounterOrg, major: u64, minors: Vec<u64>) -> Self {
        assert_eq!(minors.len(), org.coverage(), "one minor per covered block");
        let (base, field_max) = match org {
            CounterOrg::Mono8 => (0, COUNTER_MAX),
            CounterOrg::Sc64 => (0, SC64_MINOR_LIMIT),
            CounterOrg::Morphable128 => (
                minors.iter().copied().min().unwrap_or(0),
                MORPHABLE_MINOR_LIMIT,
            ),
        };
        let mut cb = CounterBlock::new(org);
        cb.major = major.saturating_add(base);
        for (slot, minor) in minors.into_iter().enumerate() {
            let stored = minor - base;
            assert!(
                stored <= field_max,
                "{org} minor {stored} (slot {slot}) exceeds the format's field ({field_max})"
            );
            cb.minors.set(slot, stored);
        }
        cb.resummarize();
        cb
    }

    /// The organization of this block.
    pub fn org(&self) -> CounterOrg {
        self.minors.org()
    }

    /// The encoded counter value of covered slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range for the organization.
    #[inline]
    pub fn value(&self, slot: usize) -> u64 {
        let minor = self.minors.get(slot);
        assert!(
            minor.is_some(),
            "slot {slot} outside the {} block",
            self.org()
        );
        // Encoded values are capped at COUNTER_MAX (< 2^56) by every write
        // path, so the sum cannot overflow; saturating makes that explicit.
        self.major.saturating_add(minor.unwrap_or(0))
    }

    /// The largest encoded value in the block.
    #[inline]
    pub fn max_value(&self) -> u64 {
        self.major.saturating_add(self.max_minor)
    }

    /// Iterates over all encoded values.
    pub fn values(&self) -> impl Iterator<Item = u64> + '_ {
        self.minors
            .iter()
            .map(move |m| self.major.saturating_add(m))
    }

    /// Attempts to raise slot `slot` to `target`.
    ///
    /// # Errors
    ///
    /// Leaves the block unchanged and returns [`Refusal::Overflow`] when
    /// the value cannot be encoded in the block's format (the caller must
    /// relevel, see [`CounterBlock::advance`]), or [`Refusal::Saturated`]
    /// when it lies past [`COUNTER_MAX`].
    ///
    /// # Panics
    ///
    /// Panics if `target` does not strictly increase the slot's value (the
    /// security invariant: a (block, counter) pair is never reused).
    pub fn try_write(&mut self, slot: usize, target: u64) -> Result<(), Refusal> {
        let current = self.value(slot);
        assert!(
            target > current,
            "counter must strictly increase (slot {slot}: {current} -> {target})"
        );
        if target > COUNTER_MAX {
            return Err(Refusal::Saturated);
        }
        // Every value is at least the major, so neither subtraction wraps.
        let (old_minor, new_minor) = (current - self.major, target - self.major);
        match self.fit(slot, old_minor, new_minor) {
            Some(low) => {
                self.commit(slot, old_minor, new_minor, low);
                Ok(())
            }
            None => Err(Refusal::Overflow),
        }
    }

    /// The one counter-advance rule: raises `slot` to `target` if the
    /// format encodes it, else relevels the block to the caller's choice
    /// `relevel_to(max_value() + 1)` (at least its argument) and returns the
    /// old block, from whose values the caller re-encrypts what it covers.
    ///
    /// # Errors
    ///
    /// [`Saturated`], block unchanged, when a value passes [`COUNTER_MAX`].
    ///
    /// # Panics
    ///
    /// As [`CounterBlock::try_write`] and [`CounterBlock::relevel`].
    pub fn advance(
        &mut self,
        slot: usize,
        target: u64,
        relevel_to: impl FnOnce(u64) -> u64,
    ) -> Result<Option<CounterBlock>, Saturated> {
        match self.try_write(slot, target) {
            Ok(()) => return Ok(None),
            Err(Refusal::Saturated) => return Err(Saturated),
            Err(Refusal::Overflow) => {}
        }
        let before = self.clone();
        self.relevel(relevel_to(self.max_value() + 1))?;
        Ok(Some(before))
    }

    /// Whether raising `slot` to `target` would succeed, without changing
    /// any state. Policies use this to weigh a memoized jump against the
    /// baseline `+1` before committing.
    pub fn can_write(&self, slot: usize, target: u64) -> bool {
        let current = self.value(slot);
        target > current
            && target <= COUNTER_MAX
            && self
                .fit(slot, current - self.major, target - self.major)
                .is_some()
    }

    /// Whether slot `slot` can move from minor `old_minor` to `new_minor`
    /// (`> old_minor`); if it can, the amount the Morphable min-rebase then
    /// subtracts from every minor (0 for the other formats).
    ///
    /// A Morphable write keeps the candidate minimum at 0 unless it writes
    /// the block's only zero minor, so the kept summary gives the
    /// candidate's widest post-rebase minor (`max(max_minor, new)`) and its
    /// non-zero count without a scan; the only-zero case rescans.
    #[inline]
    fn fit(&self, slot: usize, old_minor: u64, new_minor: u64) -> Option<u64> {
        let minors = match &self.minors {
            Minors::Mono8(_) => return Some(0),
            Minors::Sc64(_) => return (new_minor <= SC64_MINOR_LIMIT).then_some(0),
            Minors::Morphable128(m) => m,
        };
        let (low, nonzero) = if old_minor == 0 && self.zeros == 1 {
            only_zero_candidate(minors, slot, new_minor)
        } else {
            let others_nonzero = minors.len() - self.zeros - usize::from(old_minor > 0);
            (0, others_nonzero + 1)
        };
        let rebased_max = self.max_minor.max(new_minor) - low;
        morphable_fits(minors.len(), rebased_max, nonzero).then_some(low)
    }

    /// Writes minor `new_minor` (replacing `old_minor`) into `slot` and
    /// rebases by `low`, the candidate minimum [`CounterBlock::fit`] found.
    fn commit(&mut self, slot: usize, old_minor: u64, new_minor: u64, low: u64) {
        self.minors.set(slot, new_minor);
        self.max_minor = self.max_minor.max(new_minor);
        // The new minor exceeds the old one, so it is never 0.
        self.zeros -= usize::from(old_minor == 0);
        if low > 0 {
            self.rebase_by(low);
        }
    }

    /// Relevels the block: every covered slot's value becomes exactly
    /// `target`. The caller is responsible for re-encrypting all covered
    /// data blocks with the new value (that traffic is the overflow cost).
    ///
    /// # Errors
    ///
    /// [`Saturated`], block unchanged, when `target` passes [`COUNTER_MAX`].
    ///
    /// # Panics
    ///
    /// Panics unless `target > max_value()`, which both the baseline policy
    /// (`max + 1`) and RMCC's policy (nearest memoized ≥ `max + 1`) satisfy.
    pub fn relevel(&mut self, target: u64) -> Result<(), Saturated> {
        assert!(
            target > self.max_value(),
            "relevel must move every counter forward"
        );
        if target > COUNTER_MAX {
            return Err(Saturated);
        }
        *self = CounterBlock {
            major: target,
            ..CounterBlock::new(self.org())
        };
        Ok(())
    }

    /// Morphable's min-rebase by `low`, the smallest minor: subtracts it
    /// from every minor and folds it into the major. Encoded values are
    /// unchanged, so no re-encryption is needed.
    fn rebase_by(&mut self, low: u64) {
        if let Minors::Morphable128(minors) = &mut self.minors {
            let low16 = narrow(low);
            let (mut max, mut zeros) = (0, 0);
            for m in minors.iter_mut() {
                *m -= low16;
                max = max.max(*m);
                zeros += usize::from(*m == 0);
            }
            // Rebase preserves encoded values, so the sum stays bounded.
            self.major = self.major.saturating_add(low);
            (self.max_minor, self.zeros) = (u64::from(max), zeros);
        }
    }

    /// Recomputes the kept summary from the minors.
    fn resummarize(&mut self) {
        self.max_minor = self.minors.iter().max().unwrap_or(0);
        self.zeros = self.minors.iter().filter(|&m| m == 0).count();
    }
}

/// The candidate minimum and non-zero count when a Morphable write of
/// `new_minor` replaces the block's only zero minor, at `slot`: one scan
/// over the other minors finds the minimum the rebase subtracts, a second
/// counts the minors that stay non-zero after it.
fn only_zero_candidate(minors: &[u16], slot: usize, new_minor: u64) -> (u64, usize) {
    let others = || {
        minors
            .iter()
            .enumerate()
            .filter(move |&(i, _)| i != slot)
            .map(|(_, &m)| u64::from(m))
    };
    let low = others().fold(new_minor, u64::min);
    let nonzero = others().filter(|&m| m > low).count() + usize::from(new_minor > low);
    (low, nonzero)
}

/// Whether `coverage` Morphable minors whose widest post-rebase value is
/// `rebased_max`, `nonzero` of them non-zero, fit one of the formats: a
/// uniform field per minor, or a zero bitmap plus a field per non-zero
/// minor, all fields at most 9 bits wide.
fn morphable_fits(coverage: usize, rebased_max: u64, nonzero: usize) -> bool {
    if rebased_max == 0 {
        return true;
    }
    let width = 64 - rebased_max.leading_zeros() as usize; // bits to hold max
    if width > 9 {
        return false; // beyond the widest field in the ladder
    }
    // Uniform format: every minor gets `width` bits; else zero-compressed:
    // 1 presence bit per minor + `width` bits per non-zero minor.
    coverage * width <= MORPHABLE_PAYLOAD_BITS
        || coverage + nonzero * width <= MORPHABLE_PAYLOAD_BITS
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
        assert_eq!(cb.try_write(0, 128), Err(Refusal::Overflow));
    }

    #[test]
    fn sc64_relevel_resets_minors() {
        let mut cb = CounterBlock::new(CounterOrg::Sc64);
        cb.try_write(0, 127).unwrap();
        cb.try_write(1, 50).unwrap();
        cb.relevel(128).unwrap();
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
        let _ = cb.relevel(100);
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
    fn blocks_are_inline_and_near_their_64_byte_image() {
        // Minors live in the block itself (no heap), at most ~5 lines.
        assert!(std::mem::size_of::<CounterBlock>() <= 320);
    }

    #[test]
    #[should_panic(expected = "exceeds the format's field")]
    fn with_state_rejects_a_minor_wider_than_the_field() {
        // 600 above the block's minimum needs 10 bits.
        let mut minors = vec![7; 128];
        minors[5] = 607;
        let _ = CounterBlock::with_state(CounterOrg::Morphable128, 0, minors);
    }

    #[test]
    fn with_state_canonicalizes() {
        let cb = CounterBlock::with_state(CounterOrg::Morphable128, 1000, vec![5; 128]);
        // Rebase folds the uniform 5 into the major.
        assert_eq!(cb.value(0), 1005);
        assert_eq!(cb.max_value(), 1005);
    }

    #[test]
    fn writes_and_relevels_past_56_bits_are_refused() {
        let mut cb = CounterBlock::new(CounterOrg::Mono8);
        cb.try_write(0, COUNTER_MAX).unwrap();
        let before = cb.clone();
        assert_eq!(cb.try_write(1, COUNTER_MAX + 1), Err(Refusal::Saturated));
        assert_eq!(cb.relevel(COUNTER_MAX + 1), Err(Saturated));
        assert_eq!(cb, before, "a refusal changes nothing");
    }

    #[test]
    fn advance_writes_relevels_or_refuses() {
        let mut cb = CounterBlock::new(CounterOrg::Sc64);
        assert_eq!(cb.advance(0, 127, |_| unreachable!()), Ok(None));
        // 128 does not fit a 7-bit minor: relevel to the caller's choice.
        let before = cb.clone();
        let chosen = |min: u64| {
            assert_eq!(min, 128);
            1_000
        };
        assert_eq!(cb.advance(1, 128, chosen), Ok(Some(before)));
        assert!(cb.values().all(|v| v == 1_000));
        // A target, or a relevel target, past COUNTER_MAX is refused.
        let mut cb = CounterBlock::with_state(CounterOrg::Sc64, COUNTER_MAX - 130, vec![0; 64]);
        let before = cb.clone();
        assert_eq!(cb.advance(0, COUNTER_MAX + 1, |min| min), Err(Saturated));
        assert_eq!(cb.advance(1, COUNTER_MAX, |min| min + 200), Err(Saturated));
        assert_eq!(cb, before);
        // Up to COUNTER_MAX itself, the rule writes and relevels.
        assert_eq!(
            cb.advance(1, COUNTER_MAX - 2, |min| min + 2),
            Ok(Some(before))
        );
        assert_eq!(cb.value(1), COUNTER_MAX - 127);
        assert_eq!(cb.advance(1, COUNTER_MAX, |_| unreachable!()), Ok(None));
    }

    #[test]
    fn values_below_major_overflow() {
        let mut cb = CounterBlock::new(CounterOrg::Sc64);
        cb.try_write(0, 127).unwrap();
        cb.relevel(200).unwrap();
        // Target 201 ok, but a target below the major cannot be encoded...
        cb.try_write(1, 201).unwrap();
        // ...there is no such case via the public API since writes must
        // increase, and all values ≥ major after relevel. Verify invariant:
        assert!(cb.values().all(|v| v >= 200));
    }
}

#[cfg(test)]
mod vec_oracle_tests {
    //! The block against a test-only copy of its earlier representation, a
    //! heap `Vec<u64>` of minors that every fit check and `max_value`
    //! rescanned: random `try_write`/`can_write`/`relevel`/`with_state` runs
    //! on all three formats must leave the same major and minors and give
    //! the same results and `max_value`, and after every step the kept
    //! summary must equal a rescan. Writes and relevels past `COUNTER_MAX`
    //! must be refused with the block still equal to the oracle.
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// The earlier block, kept as the oracle.
    #[derive(Debug, Clone)]
    struct VecBlock {
        org: CounterOrg,
        major: u64,
        minors: Vec<u64>,
    }

    impl VecBlock {
        fn with_state(org: CounterOrg, major: u64, minors: Vec<u64>) -> Self {
            let mut b = VecBlock { org, major, minors };
            if org == CounterOrg::Morphable128 {
                b.rebase_by(b.minors.iter().copied().min().unwrap_or(0));
            }
            b
        }

        fn value(&self, slot: usize) -> u64 {
            self.major + self.minors[slot]
        }

        fn max_value(&self) -> u64 {
            self.major + self.minors.iter().copied().max().unwrap_or(0)
        }

        fn try_write(&mut self, slot: usize, target: u64) -> Result<(), Refusal> {
            assert!(target > self.value(slot));
            if target > COUNTER_MAX {
                return Err(Refusal::Saturated);
            }
            let overflow = Refusal::Overflow;
            if target < self.major {
                return Err(overflow);
            }
            let new_minor = target - self.major;
            match self.org {
                CounterOrg::Mono8 => {
                    self.minors[slot] = new_minor;
                    Ok(())
                }
                CounterOrg::Sc64 if new_minor <= SC64_MINOR_LIMIT => {
                    self.minors[slot] = new_minor;
                    Ok(())
                }
                CounterOrg::Sc64 => Err(overflow),
                CounterOrg::Morphable128 => match write_fits(&self.minors, slot, new_minor) {
                    Some(min) => {
                        self.minors[slot] = new_minor;
                        self.rebase_by(min);
                        Ok(())
                    }
                    None => Err(overflow),
                },
            }
        }

        fn can_write(&self, slot: usize, target: u64) -> bool {
            if target <= self.value(slot) || target > COUNTER_MAX || target < self.major {
                return false;
            }
            let new_minor = target - self.major;
            match self.org {
                CounterOrg::Mono8 => true,
                CounterOrg::Sc64 => new_minor <= SC64_MINOR_LIMIT,
                CounterOrg::Morphable128 => write_fits(&self.minors, slot, new_minor).is_some(),
            }
        }

        fn relevel(&mut self, target: u64) -> Result<(), Saturated> {
            assert!(target > self.max_value());
            if target > COUNTER_MAX {
                return Err(Saturated);
            }
            self.major = target;
            self.minors.iter_mut().for_each(|m| *m = 0);
            Ok(())
        }

        fn rebase_by(&mut self, min: u64) {
            self.major += min;
            self.minors.iter_mut().for_each(|m| *m -= min);
        }
    }

    /// The earlier fit check: the candidate's range and non-zero count
    /// from scans over every other minor.
    fn write_fits(minors: &[u64], slot: usize, new_minor: u64) -> Option<u64> {
        let others = || {
            minors
                .iter()
                .enumerate()
                .filter(move |&(i, _)| i != slot)
                .map(|(_, &m)| m)
        };
        let low = others().fold(new_minor, u64::min);
        let high = others().fold(new_minor, u64::max);
        let rebased_max = high - low;
        if rebased_max == 0 {
            return Some(low);
        }
        let width = 64 - rebased_max.leading_zeros() as usize;
        if width > 9 {
            return None;
        }
        if minors.len() * width <= MORPHABLE_PAYLOAD_BITS {
            return Some(low);
        }
        let nonzero = others().filter(|&m| m > low).count() + usize::from(new_minor > low);
        (minors.len() + nonzero * width <= MORPHABLE_PAYLOAD_BITS).then_some(low)
    }

    /// A target relative to the block at the time the step runs.
    #[derive(Debug, Clone, Copy)]
    enum Target {
        /// The slot's value plus this step (0: a reuse, refused).
        Step(u64),
        /// The block's largest value plus this step.
        AboveMax(u64),
        CounterMax,
        PastCounterMax,
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// `try_write` where the target moves the slot forward, `can_write`
        /// otherwise.
        /// `zero` picks the slot among those holding a zero minor, so a
        /// block with one zero has it written.
        Write {
            zero: bool,
            slot: u64,
            target: Target,
        },
        /// `can_write` alone.
        Probe {
            zero: bool,
            slot: u64,
            target: Target,
        },
        Relevel(Target),
        /// Replace both blocks with `with_state` of a fresh state.
        WithState(u64, Vec<u64>),
    }

    /// What a run exercised, summed across cases to prove the sweep means
    /// something.
    #[derive(Debug, Default)]
    struct Coverage {
        writes: [u64; 2],
        only_zero_writes: [u64; 2],
        counter_max_writes: u64,
        relevels: u64,
        /// Refused writes and relevels past `COUNTER_MAX`.
        saturated: [u64; 2],
    }

    fn pick<T: Copy>(rng: &mut TestRng, options: &[T]) -> T {
        options[rng.below(options.len() as u64) as usize]
    }

    /// A random `with_state` input: narrow or wide spreads, sparse or dense,
    /// some with exactly one zero minor, some ending at `COUNTER_MAX`.
    fn state(rng: &mut TestRng, org: CounterOrg) -> (u64, Vec<u64>) {
        let spread = match org {
            CounterOrg::Mono8 => pick(rng, &[0, 7, 511, 1 << 20]),
            CounterOrg::Sc64 => pick(rng, &[0, 3, 7, 63, 127]),
            CounterOrg::Morphable128 => pick(rng, &[0, 1, 3, 7, 15, 63, 511]),
        };
        // Morphable folds any common base into the major.
        let base = match org {
            CounterOrg::Morphable128 => pick(rng, &[0, 1, 700]),
            _ => 0,
        };
        let density = pick(rng, &[1, 4, 8]);
        let mut minors: Vec<u64> = (0..org.coverage())
            .map(|_| {
                let m = if rng.below(8) < density {
                    let any = rng.below(spread + 1);
                    pick(rng, &[1, spread, any])
                } else {
                    0
                };
                base + m.min(spread)
            })
            .collect();
        if spread > 0 && rng.below(3) == 0 {
            // One zero minor only: writing it moves the candidate minimum.
            minors.iter_mut().for_each(|m| *m = (*m).max(base + 1));
            let slot = rng.below(minors.len() as u64) as usize;
            minors[slot] = base;
        }
        let major = if rng.below(4) == 0 {
            COUNTER_MAX - base - spread - rng.below(4)
        } else {
            rng.below(2_000)
        };
        (major, minors)
    }

    fn target(rng: &mut TestRng) -> Target {
        match rng.below(10) {
            0 => Target::Step(0),
            1..=3 => Target::Step(1),
            4 => Target::Step(1 + rng.below(8)),
            5 => Target::Step(1 + rng.below(600)),
            6 => Target::AboveMax(pick(rng, &[0, 1, 2, 300])),
            7 => Target::CounterMax,
            8 => Target::PastCounterMax,
            _ => Target::Step(1 + rng.below(130)),
        }
    }

    /// An org, its starting state, and up to 100 steps.
    struct Runs;

    impl Strategy for Runs {
        type Value = (CounterOrg, u64, Vec<u64>, Vec<Op>);

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            use CounterOrg::{Mono8, Morphable128, Sc64};
            let org = pick(rng, &[Mono8, Sc64, Morphable128, Morphable128]);
            let (major, minors) = state(rng, org);
            let ops = (0..1 + rng.below(100))
                .map(|_| {
                    let zero = rng.below(3) == 0;
                    let slot = rng.below(org.coverage() as u64);
                    match rng.below(40) {
                        0 => {
                            let (major, minors) = state(rng, org);
                            Op::WithState(major, minors)
                        }
                        1 | 2 => Op::Relevel(target(rng)),
                        3..=12 => Op::Probe {
                            zero,
                            slot,
                            target: target(rng),
                        },
                        _ => Op::Write {
                            zero,
                            slot,
                            target: target(rng),
                        },
                    }
                })
                .collect();
            (org, major, minors, ops)
        }
    }

    fn resolve(target: Target, current: u64, max: u64) -> u64 {
        match target {
            Target::Step(step) => current.saturating_add(step),
            Target::AboveMax(step) => max.saturating_add(step),
            Target::CounterMax => COUNTER_MAX,
            Target::PastCounterMax => COUNTER_MAX + 1,
        }
    }

    /// The block and the oracle hold the same state, and the kept summary
    /// is what a rescan finds.
    fn assert_agree(cb: &CounterBlock, oracle: &VecBlock, ctx: &dyn std::fmt::Debug) {
        let minors: Vec<u64> = cb.minors.iter().collect();
        assert_eq!(cb.org(), oracle.org, "{ctx:?}");
        assert_eq!(
            (cb.major, &minors),
            (oracle.major, &oracle.minors),
            "{ctx:?}"
        );
        assert_eq!(cb.max_value(), oracle.max_value(), "{ctx:?}");
        let values: Vec<u64> = cb.values().collect();
        let expected: Vec<u64> = (0..oracle.minors.len()).map(|s| oracle.value(s)).collect();
        assert_eq!(values, expected, "{ctx:?}");
        let max_minor = minors.iter().copied().max().unwrap_or(0);
        let zeros = minors.iter().filter(|&&m| m == 0).count();
        assert_eq!(
            (cb.max_minor, cb.zeros),
            (max_minor, zeros),
            "summary {ctx:?}"
        );
        if cb.org() == CounterOrg::Morphable128 {
            assert!(zeros > 0, "Morphable keeps a zero minor {ctx:?}");
        }
    }

    /// Runs one case on both representations, asserting agreement after
    /// every step.
    fn run(case: &<Runs as Strategy>::Value, cov: &mut Coverage) {
        let (org, major, minors, ops) = case;
        let mut cb = CounterBlock::with_state(*org, *major, minors.clone());
        let mut oracle = VecBlock::with_state(*org, *major, minors.clone());
        assert_agree(&cb, &oracle, &"with_state");
        for (step, op) in ops.iter().enumerate() {
            let ctx = (step, op);
            let slot_for = |zero: bool, slot: u64| {
                let zeros: Vec<usize> = (0..oracle.minors.len())
                    .filter(|&s| oracle.minors[s] == 0)
                    .collect();
                if zero && !zeros.is_empty() {
                    zeros[slot as usize % zeros.len()]
                } else {
                    slot as usize
                }
            };
            match *op {
                Op::Write { zero, slot, target } | Op::Probe { zero, slot, target } => {
                    let slot = slot_for(zero, slot);
                    let current = oracle.value(slot);
                    let t = resolve(target, current, oracle.max_value());
                    let predicted = cb.can_write(slot, t);
                    assert_eq!(predicted, oracle.can_write(slot, t), "can_write {ctx:?}");
                    if matches!(op, Op::Write { .. }) && t > current {
                        let only_zero = oracle.minors[slot] == 0
                            && oracle.minors.iter().filter(|&&m| m == 0).count() == 1;
                        let got = cb.try_write(slot, t);
                        assert_eq!(got, oracle.try_write(slot, t), "try_write {ctx:?}");
                        assert_eq!(predicted, got.is_ok(), "{ctx:?}");
                        cov.writes[usize::from(got.is_ok())] += 1;
                        if only_zero && org == &CounterOrg::Morphable128 {
                            cov.only_zero_writes[usize::from(got.is_ok())] += 1;
                        }
                        cov.counter_max_writes += u64::from(got.is_ok() && t == COUNTER_MAX);
                        cov.saturated[0] += u64::from(got == Err(Refusal::Saturated));
                    }
                }
                Op::Relevel(target) => {
                    let max = oracle.max_value();
                    let t = resolve(target, max, max);
                    if t > max {
                        let got = cb.relevel(t);
                        assert_eq!(got, oracle.relevel(t), "relevel {ctx:?}");
                        cov.relevels += u64::from(got.is_ok());
                        cov.saturated[1] += u64::from(got.is_err());
                    }
                }
                Op::WithState(major, ref minors) => {
                    cb = CounterBlock::with_state(*org, major, minors.clone());
                    oracle = VecBlock::with_state(*org, major, minors.clone());
                }
            }
            assert_agree(&cb, &oracle, &ctx);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3_000))]

        #[test]
        fn kept_summary_matches_the_vec_oracle(case in Runs) {
            run(&case, &mut Coverage::default());
        }
    }

    #[test]
    fn oracle_runs_reach_every_branch() {
        let mut rng = TestRng::deterministic_for("oracle_runs_reach_every_branch");
        let mut cov = Coverage::default();
        for _ in 0..1_000 {
            run(&Runs.sample(&mut rng), &mut cov);
        }
        let floors = [
            cov.writes[0],
            cov.writes[1],
            cov.only_zero_writes[0],
            cov.only_zero_writes[1],
            cov.counter_max_writes,
            cov.relevels,
            cov.saturated[0],
            cov.saturated[1],
        ];
        assert!(floors.iter().all(|&n| n >= 50), "{cov:?}");
    }
}
