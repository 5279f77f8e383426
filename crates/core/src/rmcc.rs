//! The RMCC engine: memoization tables, candidate monitors, and traffic
//! budgets for every counter level, plus the memoization-aware counter
//! update decision procedure (§IV-B, §IV-C).
//!
//! The engine is the policy brain the memory controller consults:
//!
//! * on the **read path**, [`Rmcc::lookup`] answers whether a counter
//!   value's AES contribution is memoized (hiding the AES latency after a
//!   counter miss) and feeds the high-value monitor;
//! * on the **write path**, [`Rmcc::update_counter`] raises a counter to
//!   the nearest memoized value when that is free or affordable, falling
//!   back to the baseline `+1` when the budget is dry;
//! * every memory access ticks [`Rmcc::on_memory_access`], which rolls
//!   epochs: table reselection, monitor reset, budget replenishment.

use rmcc_secmem::counters::{CounterBlock, Saturated};

use crate::budget::TrafficBudget;
use crate::candidates::HighValueMonitor;
use crate::table::{LookupResult, MemoizationTable, TableConfig, TableStats};

/// Counter levels with their own tables (paper: L0 data counters and L1
/// tree counters, 128 entries each — Figure 8 / Table I).
pub const DEFAULT_LEVELS: usize = 2;

/// Relevels per epoch beyond which the DoS guard (§IV-D2) pauses
/// memoization-aware updates for the rest of the epoch: "after encountering
/// a large number of overflows in an epoch, RMCC can adaptively pause
/// memoization-aware counter update and revert to baseline".
pub const DOS_OVERFLOW_GUARD: u64 = 32_768;

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmccConfig {
    /// Geometry of each level's memoization table.
    pub table: TableConfig,
    /// Per-level traffic-overhead budget fraction (paper: 1% each for L0
    /// and L1, a 2% total — §VI).
    pub budget_fraction: f64,
    /// Whether read requests with unmemoized counters also receive
    /// memoization-aware updates (§IV-C1). Disable for ablation.
    pub read_triggered: bool,
    /// Memory accesses per budget epoch (paper:
    /// [`crate::budget::EPOCH_ACCESSES`]). Short telemetry runs shrink
    /// this so epoch-resolved series still cross boundaries.
    pub epoch_accesses: u64,
}

impl RmccConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        RmccConfig {
            table: TableConfig::paper(),
            budget_fraction: 0.01,
            read_triggered: true,
            epoch_accesses: crate::budget::EPOCH_ACCESSES,
        }
    }

    /// The paper's configuration with a different per-level budget
    /// (Figures 19/20 evaluate 1%, 2%, 8%).
    pub fn with_budget(budget_fraction: f64) -> Self {
        RmccConfig {
            budget_fraction,
            ..Self::paper()
        }
    }

    /// The paper's configuration with a different group size
    /// (Figures 21/22 evaluate 4, 8, 16).
    pub fn with_group_size(group_size: u64) -> Self {
        RmccConfig {
            table: TableConfig::with_group_size(group_size),
            ..Self::paper()
        }
    }
}

/// What a counter update did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// The counter's value after the update.
    pub new_value: u64,
    /// Whether the whole counter block releveled (the caller must model the
    /// re-encryption of every covered block).
    pub releveled: bool,
    /// Overhead requests charged to this level's budget by this update
    /// (zero when the update was free relative to the baseline policy).
    pub charged_requests: u64,
    /// Whether the new value is currently memoized in a live group.
    pub landed_on_memoized: bool,
}

/// Why [`Rmcc::update_counter`] left the counter unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoUpdate {
    /// A read-triggered update not taken (a writeback never is).
    Declined,
    /// The counter would pass the 56-bit counter space.
    Saturated,
}

impl From<Saturated> for NoUpdate {
    fn from(_: Saturated) -> Self {
        NoUpdate::Saturated
    }
}

/// Per-level state: table + high-value monitor.
#[derive(Debug, Clone)]
struct LevelState {
    table: MemoizationTable,
    monitor: HighValueMonitor,
}

/// The complete RMCC mechanism.
///
/// # Examples
///
/// ```
/// use rmcc_core::rmcc::{Rmcc, RmccConfig};
/// use rmcc_secmem::counters::{CounterBlock, CounterOrg};
///
/// let mut rmcc = Rmcc::new(RmccConfig::paper());
/// let mut cb = CounterBlock::new(CounterOrg::Morphable128);
///
/// // Bootstrap a group, then writes conform to memoized values.
/// rmcc.seed_group(0, 40);
/// let out = rmcc.update_counter(0, &mut cb, 3, false).expect("writebacks always update");
/// assert_eq!(out.new_value, 40);
/// assert!(out.landed_on_memoized);
/// ```
#[derive(Debug, Clone)]
pub struct Rmcc {
    cfg: RmccConfig,
    levels: Vec<LevelState>,
    budgets: Vec<TrafficBudget>,
    /// Observed-System-Max register mirror (fed by the caller on lookups).
    system_max: u64,
    /// Relevels seen this epoch, for the §IV-D2 DoS guard.
    epoch_relevels: u64,
    /// Set when the DoS guard tripped; cleared at the epoch boundary.
    dos_paused: bool,
}

impl Rmcc {
    /// Creates an engine with empty tables; groups bootstrap via the
    /// high-value monitors (or [`Rmcc::seed_group`]).
    pub fn new(cfg: RmccConfig) -> Self {
        let levels = (0..DEFAULT_LEVELS)
            .map(|_| LevelState {
                table: MemoizationTable::new(cfg.table),
                monitor: HighValueMonitor::new(0),
            })
            .collect();
        let budgets = (0..DEFAULT_LEVELS)
            .map(|_| TrafficBudget::with_epoch(cfg.budget_fraction, cfg.epoch_accesses))
            .collect();
        Rmcc {
            cfg,
            levels,
            budgets,
            system_max: 0,
            epoch_relevels: 0,
            dos_paused: false,
        }
    }

    /// The configuration.
    pub fn config(&self) -> RmccConfig {
        self.cfg
    }

    /// Table statistics for `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` has no table.
    #[allow(clippy::indexing_slicing)] // documented panic contract
    pub fn table_stats(&self, level: usize) -> TableStats {
        // audit:allow(R1, reason = "level bounds are this accessor's documented panic contract")
        self.levels[level].table.stats()
    }

    /// The budget for `level` (read-only view).
    ///
    /// # Panics
    ///
    /// Panics if `level` has no table.
    #[allow(clippy::indexing_slicing)] // documented panic contract
    pub fn budget(&self, level: usize) -> &TrafficBudget {
        // audit:allow(R1, reason = "level bounds are this accessor's documented panic contract")
        &self.budgets[level]
    }

    /// Direct access to a level's table (diagnostics / Figure 15 coverage).
    ///
    /// # Panics
    ///
    /// Panics if `level` has no table.
    #[allow(clippy::indexing_slicing)] // documented panic contract
    pub fn table(&self, level: usize) -> &MemoizationTable {
        // audit:allow(R1, reason = "level bounds are this accessor's documented panic contract")
        &self.levels[level].table
    }

    /// Whether `level` has a memoization table (levels from
    /// [`DEFAULT_LEVELS`] up fall back to baseline behaviour).
    pub fn covers_level(&self, level: usize) -> bool {
        level < DEFAULT_LEVELS
    }

    /// Marks `value`'s memoized AES result at `level` as corrupted (fault
    /// injection). Returns `true` if live table state was actually hit; the
    /// next lookup of that value falls back to the full AES path and heals
    /// the entry (fail-safe memoization). Uncovered levels have no table and
    /// return `false`.
    pub fn corrupt_entry(&mut self, level: usize, value: u64) -> bool {
        self.levels
            .get_mut(level)
            .is_some_and(|lvl| lvl.table.corrupt_entry(value))
    }

    /// Manually seeds a group (tests and warm-started experiments). Levels
    /// without a table ignore the seed.
    pub fn seed_group(&mut self, level: usize, start: u64) {
        if let Some(lvl) = self.levels.get_mut(level) {
            lvl.table.insert_group(start);
            let max = lvl.table.max_counter_in_table().unwrap_or(0);
            lvl.monitor.reset(max);
        }
    }

    /// Records one memory access (any kind). Rolls budget epochs and runs
    /// end-of-epoch table reselection + monitor reset when a boundary is
    /// crossed. Call exactly once per memory request the MC services.
    /// Returns `true` when an epoch boundary was crossed, so callers can
    /// snapshot epoch-resolved telemetry in lockstep with the budget.
    pub fn on_memory_access(&mut self) -> bool {
        let mut boundary = false;
        for b in &mut self.budgets {
            boundary |= b.on_access();
        }
        if boundary {
            self.epoch_relevels = 0;
            self.dos_paused = false;
            for lvl in &mut self.levels {
                let candidate = if lvl.monitor.should_insert() {
                    Some(lvl.monitor.select_start(self.system_max))
                } else {
                    None
                };
                lvl.table.epoch_reselect(candidate);
                let max = lvl.table.max_counter_in_table().unwrap_or(0);
                lvl.monitor.reset(max);
            }
        }
        boundary
    }

    /// Whether the §IV-D2 DoS guard is currently pausing memoization-aware
    /// updates (an attacker manipulating counters to force overflow storms
    /// makes RMCC revert to the baseline policy for the rest of the epoch).
    pub fn dos_paused(&self) -> bool {
        self.dos_paused
    }

    fn note_relevel(&mut self) {
        // Saturating: the guard trips long before the count nears the limit.
        self.epoch_relevels = self.epoch_relevels.saturating_add(1);
        if self.epoch_relevels >= DOS_OVERFLOW_GUARD {
            self.dos_paused = true;
        }
    }

    /// Updates the engine's mirror of the Observed-System-Max register
    /// (§IV-D2); new memoized groups never start above `system_max + 1`.
    pub fn note_system_max(&mut self, system_max: u64) {
        self.system_max = self.system_max.max(system_max);
    }

    /// The current Observed-System-Max register value. Monotonically
    /// non-decreasing over a run — telemetry records it each epoch and the
    /// property suite checks the monotonicity.
    pub fn observed_system_max(&self) -> u64 {
        self.system_max
    }

    /// Read-path lookup: is `value`'s counter-only AES result memoized at
    /// `level`? Also feeds the high-value monitor and performs mid-epoch
    /// group insertion after 2 K high reads (§IV-C3).
    ///
    /// Levels without a table always miss.
    pub fn lookup(&mut self, level: usize, value: u64) -> LookupResult {
        let Some(lvl) = self.levels.get_mut(level) else {
            return LookupResult::Miss;
        };
        let result = lvl.table.lookup(value);
        let max_in_table = lvl.table.max_counter_in_table().unwrap_or(0);
        if value > max_in_table {
            if lvl.monitor.base() != max_in_table {
                lvl.monitor.reset(max_in_table);
            }
            lvl.monitor.observe(value);
            if lvl.monitor.should_insert() {
                let start = lvl.monitor.select_start(self.system_max);
                lvl.table.insert_group(start);
                let new_max = lvl.table.max_counter_in_table().unwrap_or(0);
                lvl.monitor.reset(new_max);
            }
        }
        result
    }

    /// Memoization-aware counter update (§IV-B, §IV-C2) for the counter in
    /// `slot` of `cb` at `level`: decide, then commit once.
    ///
    /// 1. Jump to the nearest memoized value above the current one if the
    ///    block can encode it: one `try_write` checks the fit and commits.
    /// 2. Else, if the budget covers the relevel the jump needs
    ///    (`2 × coverage` requests), relevel onto the table. Only now is the
    ///    baseline `+1` checked (`can_write`): the relevel is charged only
    ///    if `+1` would have fit, since otherwise it was forced anyway.
    /// 3. Else advance by `+1` ([`CounterBlock::advance`]): a forced relevel
    ///    lands for free on the nearest memoized value at or above it.
    ///
    /// `read_triggered` marks updates for read requests whose counters
    /// missed the table (§IV-C1): step 1 only, paying 2 requests
    /// (re-encrypt + writeback) from the budget.
    ///
    /// # Errors
    ///
    /// [`NoUpdate`], with the block, budgets and DoS guard unchanged.
    pub fn update_counter(
        &mut self,
        level: usize,
        cb: &mut CounterBlock,
        slot: usize,
        read_triggered: bool,
    ) -> Result<UpdateOutcome, NoUpdate> {
        if read_triggered && !self.cfg.read_triggered {
            return Err(NoUpdate::Declined);
        }
        let current = cb.value(slot);
        // The DoS guard reverts to the baseline policy for the rest of the
        // epoch (§IV-D2); forced relevels below still steer to memoized
        // values, which costs nothing either way.
        let memo_target = if self.dos_paused {
            None
        } else {
            self.levels
                .get(level)
                .and_then(|lvl| lvl.table.nearest_memoized_above(current))
        };

        if let Some(target) = memo_target {
            // The budget is checked before the write and spent after it,
            // so a refused write spends nothing.
            let read_cost = if read_triggered { 2 } else { 0 };
            let budget = self.budgets.get_mut(level).ok_or(NoUpdate::Declined)?;
            if budget.can_afford(read_cost)
                && cb.try_write(slot, target).is_ok()
                && budget.try_consume(read_cost)
            {
                return Ok(UpdateOutcome {
                    new_value: target,
                    charged_requests: read_cost,
                    landed_on_memoized: true,
                    ..UpdateOutcome::default()
                });
            }
            let cost = 2 * cb.org().coverage() as u64;
            if !read_triggered && budget.can_afford(cost) {
                let charged = cost * u64::from(cb.can_write(slot, current + 1));
                cb.relevel(relevel_target(&self.levels, level, cb.max_value() + 1))?;
                // Covered, so the spend cannot fail.
                budget.try_consume(charged);
                return Ok(self.releveled(level, cb.value(slot), charged));
            }
        }
        if read_triggered {
            // Nothing to conform to without a relevel: no point paying.
            return Err(NoUpdate::Declined);
        }

        // Baseline policy; a forced relevel still lands on the table.
        let baseline = current + 1;
        if cb
            .advance(slot, baseline, |min| {
                relevel_target(&self.levels, level, min)
            })?
            .is_some()
        {
            return Ok(self.releveled(level, cb.value(slot), 0));
        }
        Ok(UpdateOutcome {
            new_value: baseline,
            landed_on_memoized: self.is_memoized(level, baseline),
            ..UpdateOutcome::default()
        })
    }

    /// Counts a relevel of a block to `to` toward the DoS guard.
    fn releveled(&mut self, level: usize, to: u64, charged: u64) -> UpdateOutcome {
        self.note_relevel();
        UpdateOutcome {
            new_value: to,
            releveled: true,
            charged_requests: charged,
            landed_on_memoized: self.is_memoized(level, to),
        }
    }

    fn is_memoized(&self, level: usize, value: u64) -> bool {
        self.levels
            .get(level)
            .is_some_and(|lvl| lvl.table.probe(value))
    }
}

/// Where a relevel at `level` that must reach `min_target` lands: the
/// nearest memoized value at or above it, or `min_target` itself.
fn relevel_target(levels: &[LevelState], level: usize, min_target: u64) -> u64 {
    levels
        .get(level)
        .and_then(|lvl| lvl.table.relevel_target(min_target))
        .unwrap_or(min_target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmcc_secmem::counters::CounterOrg;

    #[test]
    fn lookup_without_groups_misses_and_bootstraps() {
        let mut r = Rmcc::new(RmccConfig::paper());
        r.note_system_max(200_000);
        // 2 K high-value reads trigger a group insertion.
        for _ in 0..crate::candidates::HIGH_READ_TRIGGER {
            assert_eq!(r.lookup(0, 100_000), LookupResult::Miss);
        }
        assert!(
            r.table(0).max_counter_in_table().is_some(),
            "monitor must bootstrap a group"
        );
        // The inserted group sits above the hot value but within the ladder.
        let max = r.table(0).max_counter_in_table().unwrap();
        assert!(
            max > 100_000,
            "group must land above the hot values, got {max}"
        );
    }

    #[test]
    fn writes_conform_to_memoized_values() {
        let mut r = Rmcc::new(RmccConfig::paper());
        r.seed_group(0, 100);
        let mut cb = CounterBlock::new(CounterOrg::Morphable128);
        let out = r.update_counter(0, &mut cb, 0, false).unwrap();
        assert_eq!(out.new_value, 100);
        assert!(out.landed_on_memoized);
        assert_eq!(out.charged_requests, 0, "encodable jumps are free");
        // Consecutive writes walk the group (Figure 7).
        let out = r.update_counter(0, &mut cb, 0, false).unwrap();
        assert_eq!(out.new_value, 101);
    }

    #[test]
    fn sc64_jump_needs_budget() {
        let mut r = Rmcc::new(RmccConfig::paper());
        r.seed_group(0, 1_000); // far beyond a 7-bit minor
        let mut cb = CounterBlock::new(CounterOrg::Sc64);
        let out = r.update_counter(0, &mut cb, 0, false).unwrap();
        // The jump forces a relevel baseline would avoid → charged.
        assert!(out.releveled);
        assert_eq!(out.charged_requests, 2 * 64);
        assert_eq!(out.new_value, 1_000);
        assert_eq!(cb.value(5), 1_000, "relevel moves every slot");
    }

    #[test]
    fn dry_budget_falls_back_to_baseline() {
        let mut r = Rmcc::new(RmccConfig::with_budget(0.0));
        r.seed_group(0, 1_000);
        let mut cb = CounterBlock::new(CounterOrg::Sc64);
        let out = r.update_counter(0, &mut cb, 0, false).unwrap();
        assert!(!out.releveled);
        assert_eq!(out.new_value, 1);
        assert_eq!(out.charged_requests, 0);
    }

    #[test]
    fn forced_overflow_relevels_to_memoized_for_free() {
        let mut r = Rmcc::new(RmccConfig::with_budget(0.0));
        r.seed_group(0, 1_000);
        let mut cb = CounterBlock::new(CounterOrg::Sc64);
        // Exhaust the minor range so even +1 overflows.
        for v in 1..=127 {
            cb.try_write(0, v).unwrap();
        }
        let out = r.update_counter(0, &mut cb, 0, false).unwrap();
        assert!(out.releveled);
        assert_eq!(out.charged_requests, 0, "forced relevels are free");
        assert_eq!(out.new_value, 1_000, "steered to the memoized value");
        assert!(out.landed_on_memoized);
    }

    #[test]
    fn no_memoized_value_means_baseline() {
        let mut r = Rmcc::new(RmccConfig::paper());
        let mut cb = CounterBlock::new(CounterOrg::Morphable128);
        let out = r.update_counter(0, &mut cb, 0, false).unwrap();
        assert_eq!(out.new_value, 1);
        assert!(!out.landed_on_memoized);
    }

    #[test]
    fn read_triggered_updates_respect_budget() {
        let mut r = Rmcc::new(RmccConfig::paper());
        r.seed_group(0, 50);
        let mut cb = CounterBlock::new(CounterOrg::Morphable128);
        let out = r.update_counter(0, &mut cb, 0, true).unwrap();
        assert_eq!(out.new_value, 50);
        assert_eq!(out.charged_requests, 2);
        // Drain the budget; further read-triggered updates decline.
        while r.budgets[0].try_consume(100) {}
        while r.budgets[0].try_consume(1) {}
        let mut cb2 = CounterBlock::new(CounterOrg::Morphable128);
        assert_eq!(
            r.update_counter(0, &mut cb2, 0, true),
            Err(NoUpdate::Declined)
        );
        assert_eq!(cb2.value(0), 0, "declined update leaves the counter alone");
    }

    #[test]
    fn read_triggered_never_relevels() {
        let mut r = Rmcc::new(RmccConfig::paper());
        r.seed_group(0, 1_000);
        let mut cb = CounterBlock::new(CounterOrg::Sc64); // jump would relevel
        assert_eq!(
            r.update_counter(0, &mut cb, 0, true),
            Err(NoUpdate::Declined)
        );
    }

    #[test]
    fn uncovered_levels_use_baseline() {
        let mut r = Rmcc::new(RmccConfig::paper());
        let above = DEFAULT_LEVELS;
        r.seed_group(above, 40);
        assert!(r.covers_level(above - 1));
        assert!(!r.covers_level(above));
        assert_eq!(r.lookup(above, 40), LookupResult::Miss);
        let mut cb = CounterBlock::new(CounterOrg::Morphable128);
        let out = r.update_counter(above, &mut cb, 0, false).unwrap();
        assert_eq!(out.new_value, 1);
    }

    #[test]
    fn corrupted_entry_is_never_served_and_heals() {
        let mut r = Rmcc::new(RmccConfig::paper());
        r.seed_group(0, 100);
        assert_eq!(r.lookup(0, 100), LookupResult::GroupHit);
        assert!(r.corrupt_entry(0, 100));
        // Fail-safe: full AES path, counted, never the corrupted result.
        assert_eq!(r.lookup(0, 100), LookupResult::Miss);
        assert_eq!(r.table_stats(0).fallbacks, 1);
        // Healed by the recompute.
        assert_eq!(r.lookup(0, 100), LookupResult::GroupHit);
        // Uncovered levels have nothing to corrupt.
        assert!(!r.corrupt_entry(5, 100));
    }

    #[test]
    fn epoch_boundary_runs_reselection() {
        let mut r = Rmcc::new(RmccConfig::paper());
        r.seed_group(0, 10);
        for _ in 0..crate::budget::EPOCH_ACCESSES {
            r.on_memory_access();
        }
        assert_eq!(r.budget(0).epochs(), 1);
        assert!(r.table(0).max_counter_in_table().is_some());
    }

    #[test]
    fn self_reinforcement_converges_counters() {
        // Figure 6's dynamic: scattered counters conform to the table over
        // repeated writebacks.
        let mut r = Rmcc::new(RmccConfig::paper());
        r.seed_group(0, 100_000);
        let mut blocks: Vec<CounterBlock> = (0..32)
            .map(|i| {
                CounterBlock::with_state(CounterOrg::Morphable128, 50_000 + i * 1_000, vec![0; 128])
            })
            .collect();
        for cb in &mut blocks {
            for slot in 0..128 {
                let _ = r.update_counter(0, cb, slot, false);
            }
        }
        let memoized = blocks
            .iter()
            .flat_map(|cb| cb.values())
            .filter(|&v| r.table(0).probe(v))
            .count();
        let total = blocks.len() * 128;
        assert!(
            memoized as f64 / total as f64 > 0.9,
            "only {memoized}/{total} conformed"
        );
    }
}

#[cfg(test)]
mod dos_guard_tests {
    use super::*;
    use rmcc_secmem::counters::CounterOrg;

    #[test]
    fn overflow_storm_trips_the_guard() {
        let mut r = Rmcc::new(RmccConfig::paper());
        r.seed_group(0, 10_000_000);
        assert!(!r.dos_paused());
        // An attacker forces relevels by hammering blocks whose jumps
        // always overflow; budget is huge so charged relevels flow.
        let mut cfg = RmccConfig::paper();
        cfg.budget_fraction = 10.0; // effectively unlimited for the test
        let mut r = Rmcc::new(cfg);
        r.seed_group(0, 10_000_000);
        for _ in 0..DOS_OVERFLOW_GUARD {
            let mut cb = CounterBlock::new(CounterOrg::Sc64);
            let out = r.update_counter(0, &mut cb, 0, false).unwrap();
            assert!(out.releveled);
        }
        assert!(r.dos_paused(), "guard must trip after an overflow storm");
        // While paused, updates revert to baseline +1.
        let mut cb = CounterBlock::new(CounterOrg::Sc64);
        let out = r.update_counter(0, &mut cb, 0, false).unwrap();
        assert_eq!(out.new_value, 1);
        assert!(!out.releveled);
    }

    #[test]
    fn guard_clears_at_epoch_boundary() {
        let mut cfg = RmccConfig::paper();
        cfg.budget_fraction = 10.0;
        let mut r = Rmcc::new(cfg);
        r.seed_group(0, 10_000_000);
        for _ in 0..DOS_OVERFLOW_GUARD {
            let mut cb = CounterBlock::new(CounterOrg::Sc64);
            let _ = r.update_counter(0, &mut cb, 0, false);
        }
        assert!(r.dos_paused());
        for _ in 0..crate::budget::EPOCH_ACCESSES {
            r.on_memory_access();
        }
        assert!(!r.dos_paused(), "guard must clear each epoch");
    }
}

#[cfg(test)]
mod update_differential_tests {
    //! `update_counter` (decide, then commit once) against a transcription
    //! of the procedure it replaced, which proved every fit with
    //! `can_write` before writing: same outcome, block, budget spend and
    //! DoS-guard state on random blocks, ladders and budgets. Where the
    //! transcription panics (a relevel past `COUNTER_MAX`), the update
    //! must refuse with `NoUpdate::Saturated` and change nothing.
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use rmcc_crypto::otp::COUNTER_MAX;
    use rmcc_secmem::counters::CounterOrg::{Mono8, Morphable128, Sc64};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn outcome(new_value: u64, releveled: bool, charged: u64, memo: bool) -> UpdateOutcome {
        UpdateOutcome {
            new_value,
            releveled,
            charged_requests: charged,
            landed_on_memoized: memo,
        }
    }

    /// The previous decision procedure, kept as the oracle.
    fn reference_update(
        r: &mut Rmcc,
        level: usize,
        cb: &mut CounterBlock,
        slot: usize,
        read_triggered: bool,
    ) -> Option<UpdateOutcome> {
        let coverage = cb.org().coverage() as u64;
        let current = cb.value(slot);
        let baseline = current + 1;
        let memo_target = if r.dos_paused {
            None
        } else {
            r.levels
                .get(level)
                .and_then(|lvl| lvl.table.nearest_memoized_above(current))
        };
        if read_triggered {
            if !r.cfg.read_triggered || r.dos_paused {
                return None;
            }
            let target = memo_target?;
            if !cb.can_write(slot, target)
                || !r.budgets.get_mut(level).is_some_and(|b| b.try_consume(2))
            {
                return None;
            }
            cb.try_write(slot, target).unwrap();
            return Some(outcome(target, false, 2, true));
        }
        let baseline_fits = cb.can_write(slot, baseline);
        let relevel = |r: &mut Rmcc, cb: &mut CounterBlock, charged: u64| {
            let min_target = cb.max_value() + 1;
            let memoized = r.levels.get(level).and_then(|lvl| {
                lvl.table
                    .nearest_memoized_above(min_target.saturating_sub(1))
            });
            let relevel_to = match memoized {
                Some(t) if t >= min_target => t,
                _ => min_target,
            };
            cb.relevel(relevel_to).expect("relevel past COUNTER_MAX");
            r.note_relevel();
            outcome(relevel_to, true, charged, r.is_memoized(level, relevel_to))
        };
        if let Some(target) = memo_target {
            if cb.can_write(slot, target) {
                cb.try_write(slot, target).unwrap();
                return Some(outcome(target, false, 0, true));
            }
            if baseline_fits {
                let cost = 2 * coverage;
                if r.budgets
                    .get_mut(level)
                    .is_some_and(|b| b.try_consume(cost))
                {
                    return Some(relevel(r, cb, cost));
                }
                cb.try_write(slot, baseline).unwrap();
                return Some(outcome(baseline, false, 0, r.is_memoized(level, baseline)));
            }
            return Some(relevel(r, cb, 0));
        }
        if baseline_fits {
            cb.try_write(slot, baseline).unwrap();
            Some(outcome(baseline, false, 0, r.is_memoized(level, baseline)))
        } else {
            Some(relevel(r, cb, 0))
        }
    }

    fn pick<T: Copy>(rng: &mut TestRng, options: &[T]) -> T {
        options[rng.below(options.len() as u64) as usize]
    }

    /// An engine, a block and a run of `(level, slot, read_triggered)`
    /// updates (level 2 has no table). Blocks have narrow or wide minor
    /// spreads, some ending exactly at `COUNTER_MAX`; ladders sit inside,
    /// just above or far above the block, or straddle `COUNTER_MAX`;
    /// budgets sit around one relevel's cost, dry included; the DoS guard
    /// is clear, one relevel from tripping, or tripped.
    struct Cases;

    impl Strategy for Cases {
        type Value = (Rmcc, CounterBlock, Vec<(usize, usize, bool)>);

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let org = pick(rng, &[Mono8, Sc64, Morphable128]);
            let coverage = org.coverage() as u64;
            let spread = pick(rng, &[0, 3, 8, 127, if org == Sc64 { 120 } else { 511 }]);
            let major = match rng.below(4) {
                0 => COUNTER_MAX - spread - rng.below(4),
                _ => rng.below(2_000),
            };
            let minor = |rng: &mut TestRng| {
                let any = rng.below(spread + 1);
                pick(rng, &[0, spread, any])
            };
            let minors = (0..coverage).map(|_| minor(rng)).collect();
            let cb = CounterBlock::with_state(org, major, minors);

            let mut cfg = RmccConfig::paper();
            cfg.read_triggered = rng.below(4) != 0;
            let mut rmcc = Rmcc::new(cfg);
            for _ in 0..rng.below(4) {
                let anchor = cb.value(rng.below(coverage) as usize);
                let start = match rng.below(4) {
                    0 => anchor.saturating_sub(4) + rng.below(20),
                    1 => anchor + pick(rng, &[1, 7, 8, 120, 130, 300, 600, 1_000]),
                    2 => COUNTER_MAX - rng.below(10),
                    _ => 1_000_000,
                };
                rmcc.seed_group(rng.below(3) as usize, start);
            }
            for budget in &mut rmcc.budgets {
                let allowance = pick(rng, &[0, 1, 2, 3, 16, 127, 128, 129, 255, 256, 257, 10_000]);
                *budget = TrafficBudget::with_epoch(allowance as f64 / 1_000.0, 1_000);
            }
            rmcc.epoch_relevels = pick(rng, &[0, DOS_OVERFLOW_GUARD - 1, DOS_OVERFLOW_GUARD]);
            rmcc.dos_paused = rmcc.epoch_relevels >= DOS_OVERFLOW_GUARD;
            let updates = (0..1 + rng.below(12))
                .map(|_| {
                    (
                        rng.below(3) as usize,
                        rng.below(coverage) as usize,
                        rng.below(2) == 0,
                    )
                })
                .collect();
            (rmcc, cb, updates)
        }
    }

    /// Runs one case through both procedures, asserting agreement after
    /// every update; returns how many updates the reference panicked on.
    fn run(case: &<Cases as Strategy>::Value) -> u64 {
        let (mut r_ref, mut cb_ref, updates) = case.clone();
        let (mut r_new, mut cb_new) = (r_ref.clone(), cb_ref.clone());
        for &(level, slot, read_triggered) in &updates {
            let ctx = (level, slot, read_triggered);
            let before = (r_new.clone(), cb_new.clone());
            let new = r_new.update_counter(level, &mut cb_new, slot, read_triggered);
            let reference = catch_unwind(AssertUnwindSafe(|| {
                reference_update(&mut r_ref, level, &mut cb_ref, slot, read_triggered)
            }));
            let Ok(reference) = reference else {
                // The reference's state is torn; the new side's is intact.
                assert_eq!(new, Err(NoUpdate::Saturated), "{ctx:?}");
                assert_eq!(cb_new, before.1, "{ctx:?}");
                assert_eq!(r_new.budgets, before.0.budgets, "{ctx:?}");
                assert_eq!(r_new.epoch_relevels, before.0.epoch_relevels);
                assert_eq!(r_new.dos_paused, before.0.dos_paused);
                return 1;
            };
            assert_eq!(new.ok(), reference, "outcome: {ctx:?}");
            assert_eq!(cb_new, cb_ref);
            assert_eq!(r_new.budgets, r_ref.budgets);
            assert_eq!(r_new.dos_paused, r_ref.dos_paused);
            assert_eq!(r_new.epoch_relevels, r_ref.epoch_relevels);
        }
        0
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4_000))]

        #[test]
        fn update_counter_matches_the_check_then_write_procedure(case in Cases) {
            run(&case);
        }
    }

    #[test]
    fn saturating_cases_are_exercised() {
        let mut rng = TestRng::deterministic_for("saturating_cases_are_exercised");
        let saturated: u64 = (0..1_000).map(|_| run(&Cases.sample(&mut rng))).sum();
        assert!(saturated >= 20, "only {saturated} saturating cases");
    }
}
