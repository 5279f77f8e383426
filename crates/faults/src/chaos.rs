//! Service-level chaos campaign: shard lifecycle recovery under fire.
//!
//! [`crate::service`] shows single-entry memo corruption failing safe; this
//! module escalates to the faults a lifecycle exists for — injected policy
//! panics mid-batch, counter saturation, whole-table memo upsets, node-image
//! replay, and forged counter images — under mixed zipfian load, and then
//! asserts the strong recovery contract:
//!
//! * the victim shard is **quarantined** by the deterministic circuit
//!   breaker (never served from known-bad state),
//! * every other shard's results stay **byte-identical** to a never-faulted
//!   control twin while the fault is live (containment),
//! * the shard **recovers to `Healthy`** through the epoch-counted
//!   quarantine → rebuild path, and
//! * after replaying the writes the quarantine refused, the rebuilt shard's
//!   architectural state digest is **byte-identical to the control twin's**
//!   (deterministic recovery).
//!
//! Everything — load, victims, injection order — derives from one seed, so
//! a CI failure reproduces with a single command
//! (`examples/chaos_campaign`).

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rmcc_core::shard::{memo_policy, MemoHandle, ShardMemoConfig};
use rmcc_secmem::engine::CounterUpdatePolicy;
use rmcc_secmem::service::{
    Access, AccessResult, HealthConfig, SecureMemoryService, ServiceConfig, ShardHealth,
};

/// The memo-ladder seed every shard's table starts from (shared with
/// [`crate::service::LADDER_SEED`] so the two harnesses steer identically).
pub use crate::service::LADDER_SEED;

/// What an armed [`ChaosFuse`] does to the next policy consultation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuseMode {
    /// Delegate to the wrapped policy (no fault).
    Disarmed,
    /// Panic inside `bump` — the mid-batch policy panic the service must
    /// contain per entry.
    Panic,
    /// Return an unsatisfiable counter target, forcing
    /// `WriteError::CounterSaturated` before any state is mutated.
    Saturate,
}

/// A shared switch arming one shard's [`ChaosPolicy`]. The fuse stays in
/// its mode until changed, so repeated writes keep faulting until the
/// circuit breaker trips; the campaign disarms it once the victim is
/// quarantined.
#[derive(Clone)]
pub struct ChaosFuse {
    mode: Arc<Mutex<FuseMode>>,
}

fn lock_mode(mode: &Arc<Mutex<FuseMode>>) -> MutexGuard<'_, FuseMode> {
    mode.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ChaosFuse {
    /// A disarmed fuse.
    pub fn new() -> Self {
        ChaosFuse {
            mode: Arc::new(Mutex::new(FuseMode::Disarmed)),
        }
    }

    /// Sets the fuse's mode.
    pub fn arm(&self, mode: FuseMode) {
        *lock_mode(&self.mode) = mode;
    }

    /// Returns the fuse to pass-through.
    pub fn disarm(&self) {
        self.arm(FuseMode::Disarmed);
    }

    /// The current mode.
    pub fn mode(&self) -> FuseMode {
        *lock_mode(&self.mode)
    }
}

impl Default for ChaosFuse {
    fn default() -> Self {
        Self::new()
    }
}

/// A [`CounterUpdatePolicy`] wrapper that injects the armed fault on `bump`
/// and otherwise delegates to the wrapped policy. The inner policy is not
/// consulted while a fault fires, so its access accounting stays aligned
/// with the control twin's once refused writes are replayed.
pub struct ChaosPolicy {
    inner: Box<dyn CounterUpdatePolicy>,
    fuse: ChaosFuse,
}

impl ChaosPolicy {
    /// Wraps `inner` with `fuse`.
    pub fn new(inner: Box<dyn CounterUpdatePolicy>, fuse: ChaosFuse) -> Self {
        ChaosPolicy { inner, fuse }
    }
}

impl CounterUpdatePolicy for ChaosPolicy {
    fn bump(&mut self, current: u64) -> u64 {
        match self.fuse.mode() {
            // The faults crate sits outside the panic-freedom audit scope:
            // this panic is the *injected fault*, contained by the service.
            FuseMode::Panic => panic!("chaos: injected policy panic"),
            // Past every counter bound: the engine refuses the write with
            // CounterSaturated before mutating anything.
            FuseMode::Saturate => u64::MAX,
            FuseMode::Disarmed => self.inner.bump(current),
        }
    }

    fn relevel_target(&mut self, min_target: u64) -> u64 {
        self.inner.relevel_target(min_target)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn scrub(&mut self) -> u64 {
        self.inner.scrub()
    }
}

/// The fault classes the campaign rotates through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFaultClass {
    /// Persistent policy panic mid-batch (contained per entry, then
    /// quarantined by the fault-rate breaker).
    PanicFuse,
    /// Persistent counter saturation (typed refusal, immediate quarantine).
    SaturationFuse,
    /// Whole-table memo upset: every memoized value poisoned at once;
    /// detected by the sub-batch scrub *before* anything is served.
    MemoPoison,
    /// Stale node-image replay on the victim's counter block: reads fail
    /// tree verification until the rebuild re-derives the image.
    NodeReplay,
    /// Forged counter-block image (old MAC kept): reads fail until rebuilt.
    ForgedCounters,
}

impl ChaosFaultClass {
    /// Every class, in campaign order.
    pub const ALL: [ChaosFaultClass; 5] = [
        ChaosFaultClass::PanicFuse,
        ChaosFaultClass::SaturationFuse,
        ChaosFaultClass::MemoPoison,
        ChaosFaultClass::NodeReplay,
        ChaosFaultClass::ForgedCounters,
    ];

    /// Diagnostic name.
    pub fn name(self) -> &'static str {
        match self {
            ChaosFaultClass::PanicFuse => "panic-fuse",
            ChaosFaultClass::SaturationFuse => "saturation-fuse",
            ChaosFaultClass::MemoPoison => "memo-poison",
            ChaosFaultClass::NodeReplay => "node-replay",
            ChaosFaultClass::ForgedCounters => "forged-counters",
        }
    }
}

/// Mixed warm-up batches before each injection.
const WARM_BATCHES: usize = 2;
/// Mixed batches driven while the fault is live (the campaign breaks out
/// early once the victim is quarantined).
const PRESSURE_BATCHES: usize = 4;
/// Cap on read-only recovery batches while waiting for readmission.
const RECOVERY_BATCHES_CAP: usize = 12;
/// Mixed verification batches after replay.
const VERIFY_BATCHES: usize = 2;
/// Accesses per mixed batch (before the victim-targeted head/tail). The
/// batch counts above are sized so every class quarantines, rebuilds, and
/// readmits well inside the caps.
const BATCH_LEN: usize = 48;

/// The health thresholds the campaign runs under: short 64-access windows
/// and a hair-trigger breaker (`quarantine_faults: 1`) so a faulted shard is
/// quarantined before any degraded-mode write could make its counters
/// diverge from the control twin's.
const CAMPAIGN_HEALTH: HealthConfig = HealthConfig {
    epoch_accesses: 64,
    degrade_faults: 1,
    quarantine_faults: 1,
    recover_epochs: 1,
    quarantine_epochs: 1,
};

/// Campaign shape. Everything is counted (batches, accesses); nothing is
/// timed, so the whole run is a pure function of the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Shards in both the faulted service and its control twin.
    pub shards: usize,
    /// Master seed for load generation.
    pub seed: u64,
}

impl ChaosConfig {
    /// A campaign over `shards` shards (clamped to ≥ 1) seeded by `seed`.
    pub fn new(shards: usize, seed: u64) -> Self {
        ChaosConfig {
            shards: shards.max(1),
            seed,
        }
    }
}

/// One fault class's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassOutcome {
    /// The injected class.
    pub class: ChaosFaultClass,
    /// The victim shard.
    pub victim: usize,
    /// The breaker quarantined the victim while the fault was live.
    pub quarantined: bool,
    /// The victim returned to `Healthy` within the recovery cap.
    pub recovered: bool,
    /// Every non-victim entry matched the control twin during pressure.
    pub containment_ok: bool,
    /// After replaying refused writes, every shard's architectural state
    /// digest matched the control twin's and the verification batches were
    /// entry-for-entry identical.
    pub twin_identical: bool,
    /// Writes the quarantine refused (or the fault failed) and the
    /// campaign replayed in order.
    pub replayed_writes: u64,
}

impl ClassOutcome {
    /// The full recovery contract for this class.
    pub fn ok(&self) -> bool {
        self.quarantined && self.recovered && self.containment_ok && self.twin_identical
    }
}

/// The whole campaign's outcome.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Per-class outcomes, in injection order.
    pub outcomes: Vec<ClassOutcome>,
    /// Every shard reported `Healthy` after the final class.
    pub final_all_healthy: bool,
    /// Every shard's final state digest matched the control twin's.
    pub final_digests_equal: bool,
}

impl ChaosReport {
    /// Whether every class met the full recovery contract.
    pub fn recovery_ok(&self) -> bool {
        self.final_all_healthy
            && self.final_digests_equal
            && !self.outcomes.is_empty()
            && self.outcomes.iter().all(ClassOutcome::ok)
    }
}

impl std::fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for o in &self.outcomes {
            writeln!(
                f,
                "  {:<16} victim={} quarantined={} recovered={} contained={} \
                 twin-identical={} replayed={}",
                o.class.name(),
                o.victim,
                o.quarantined,
                o.recovered,
                o.containment_ok,
                o.twin_identical,
                o.replayed_writes,
            )?;
        }
        write!(
            f,
            "  final: all-healthy={} digests-equal={}",
            self.final_all_healthy, self.final_digests_equal
        )
    }
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A faulted service and its never-faulted control twin under identical
/// seeded load — the apparatus [`run_chaos_campaign`] drives.
pub struct ChaosServiceHarness {
    faulted: SecureMemoryService,
    control: SecureMemoryService,
    handles: Vec<MemoHandle>,
    fuses: Vec<ChaosFuse>,
    /// Per shard, the data blocks (one per owned region) the load targets.
    shard_blocks: Vec<Vec<u64>>,
    rng: u64,
}

impl ChaosServiceHarness {
    /// Builds the twin pair: both health-enabled, both memoizing with the
    /// same seeded ladder; only the faulted side's policies are wrapped in
    /// chaos fuses.
    pub fn new(cfg: &ChaosConfig) -> Self {
        let memo_cfg = {
            let mut m = ShardMemoConfig::paper().with_epoch(64);
            m.budget_fraction = 0.5;
            m
        };
        let svc_cfg = ServiceConfig::new(cfg.shards, 1 << 26).with_health(CAMPAIGN_HEALTH);
        let fuses: Vec<ChaosFuse> = (0..cfg.shards).map(|_| ChaosFuse::new()).collect();
        let mut handles = Vec::with_capacity(cfg.shards);
        let faulted = {
            let fuses = &fuses;
            let handles = &mut handles;
            SecureMemoryService::with_policies(&svc_cfg, |shard| {
                let (policy, handle) = memo_policy(&memo_cfg);
                handle.seed_groups([LADDER_SEED]);
                handles.push(handle);
                let fuse = fuses.get(shard).cloned().unwrap_or_default();
                Box::new(ChaosPolicy::new(policy, fuse))
            })
        };
        let control = SecureMemoryService::with_policies(&svc_cfg, |_| {
            let (policy, handle) = memo_policy(&memo_cfg);
            handle.seed_groups([LADDER_SEED]);
            policy
        });
        // Four owned regions per shard, found by region scan.
        let snap = faulted.snapshot();
        let coverage = snap.coverage();
        let mut shard_blocks: Vec<Vec<u64>> = vec![Vec::new(); snap.shards()];
        let mut region = 0u64;
        while shard_blocks.iter().any(|b| b.len() < 4) && region < 100_000 {
            let block = region * coverage;
            if let Some(list) = shard_blocks.get_mut(snap.shard_of(block)) {
                if list.len() < 4 {
                    list.push(block);
                }
            }
            region = region.saturating_add(1);
        }
        ChaosServiceHarness {
            faulted,
            control,
            handles,
            fuses,
            shard_blocks,
            rng: splitmix(cfg.seed ^ 0xC4A0_5CA0),
        }
    }

    /// The faulted service (inspection seam for tests).
    pub fn faulted(&self) -> &SecureMemoryService {
        &self.faulted
    }

    /// The control twin.
    pub fn control(&self) -> &SecureMemoryService {
        &self.control
    }

    fn next(&mut self) -> u64 {
        self.rng = splitmix(self.rng);
        self.rng
    }

    /// The victim block a class targets on `shard`.
    fn victim_block(&self, shard: usize) -> u64 {
        self.shard_blocks
            .get(shard)
            .and_then(|b| b.first())
            .copied()
            .unwrap_or(0)
    }

    /// All load-universe blocks, flattened.
    fn universe(&self) -> Vec<u64> {
        self.shard_blocks.iter().flatten().copied().collect()
    }

    /// One mixed zipfian-ish batch: block popularity decays by octave, and
    /// roughly half the accesses are writes.
    fn mixed_batch(&mut self, len: usize) -> Vec<Access> {
        let universe = self.universe();
        let mut batch = Vec::with_capacity(len);
        for _ in 0..len {
            let r = self.next();
            // Octave-decayed rank: higher octaves confine the pick to the
            // front of the universe, skewing popularity zipf-style.
            let octave = (r >> 8) % 4;
            let span = (universe.len() >> octave).max(1);
            let idx = (r % span as u64) as usize;
            let block = universe.get(idx).copied().unwrap_or(0);
            if r & 1 == 0 {
                batch.push(Access::Write {
                    block,
                    data: [(r >> 16) as u8; 64],
                });
            } else {
                batch.push(Access::Read { block });
            }
        }
        batch
    }

    /// Submits one batch to both twins and returns (faulted, control)
    /// results.
    fn drive(&mut self, batch: &[Access]) -> (Vec<AccessResult>, Vec<AccessResult>) {
        (self.faulted.submit(batch), self.control.submit(batch))
    }
}

/// Runs the full rotating-victim campaign described in the module docs.
pub fn run_chaos_campaign(cfg: &ChaosConfig) -> ChaosReport {
    let mut h = ChaosServiceHarness::new(cfg);

    // Populate every universe block once on both twins so node snapshots
    // and read-backs have state to work with.
    let setup: Vec<Access> = h
        .universe()
        .iter()
        .map(|&block| Access::Write {
            block,
            data: [0xA5; 64],
        })
        .collect();
    h.drive(&setup);

    let mut outcomes = Vec::new();
    for (i, class) in ChaosFaultClass::ALL.iter().copied().enumerate() {
        let victim = i % cfg.shards.max(1);
        outcomes.push(run_class(&mut h, class, victim));
    }

    let shards = cfg.shards.max(1);
    let final_all_healthy = (0..shards).all(|s| h.faulted.health(s) == Some(ShardHealth::Healthy));
    let final_digests_equal =
        (0..shards).all(|s| h.faulted.shard_state_digest(s) == h.control.shard_state_digest(s));
    ChaosReport {
        outcomes,
        final_all_healthy,
        final_digests_equal,
    }
}

/// Injects one class on `victim` and drives it through pressure, recovery,
/// replay, and verification.
fn run_class(h: &mut ChaosServiceHarness, class: ChaosFaultClass, victim: usize) -> ClassOutcome {
    let victim_block = h.victim_block(victim);

    // Warm: twins must agree entry for entry before the fault.
    let mut containment_ok = true;
    for _ in 0..WARM_BATCHES {
        let batch = h.mixed_batch(BATCH_LEN);
        let (f, c) = h.drive(&batch);
        containment_ok &= f == c;
    }

    // Inject.
    match class {
        ChaosFaultClass::PanicFuse => {
            if let Some(fuse) = h.fuses.get(victim) {
                fuse.arm(FuseMode::Panic);
            }
        }
        ChaosFaultClass::SaturationFuse => {
            if let Some(fuse) = h.fuses.get(victim) {
                fuse.arm(FuseMode::Saturate);
            }
        }
        ChaosFaultClass::MemoPoison => {
            if let Some(handle) = h.handles.get(victim) {
                handle.corrupt_all();
            }
        }
        ChaosFaultClass::NodeReplay => {
            // Capture a stale image, let both twins advance past it, then
            // restore it on the faulted side only.
            let stale = h.faulted.with_shard(victim, |mem| {
                let l0 = mem.layout().l0_index(victim_block);
                mem.snapshot_node(0, l0).ok()
            });
            let advance = [Access::Write {
                block: victim_block,
                data: [0x5C; 64],
            }];
            h.drive(&advance);
            if let Some(Some(snap)) = stale {
                // The advanced node reaches DRAM at its write-back; the
                // attacker replays over that image.
                h.faulted.with_shard(victim, |mem| {
                    mem.flush_counter_cache();
                    mem.replay_node(&snap);
                });
            }
        }
        ChaosFaultClass::ForgedCounters => {
            h.faulted.with_shard(victim, |mem| {
                // Forge over the written-back image, not under a dirty line.
                mem.flush_counter_cache();
                let l0 = mem.layout().l0_index(victim_block);
                let _ = mem.forge_node_counters(0, l0, 1 << 40);
            });
        }
    }

    // Pressure: mixed load with a victim-targeted head (a read, so image
    // corruption is *detected* before any write republishes the node) and
    // tail (a write, so fuse classes always trip). Break out as soon as the
    // breaker fires; the victim-shard writes that failed are queued for
    // replay in submission order.
    let mut replay_queue: Vec<Access> = Vec::new();
    let mut quarantined = false;
    let snap = h.faulted.snapshot();
    for round in 0..PRESSURE_BATCHES {
        let mut batch = vec![Access::Read {
            block: victim_block,
        }];
        batch.extend(h.mixed_batch(BATCH_LEN));
        batch.push(Access::Write {
            block: victim_block,
            data: [0xB0 ^ round as u8; 64],
        });
        batch.push(Access::Read {
            block: victim_block,
        });
        let (f, c) = h.drive(&batch);
        for ((access, fr), cr) in batch.iter().zip(f.iter()).zip(c.iter()) {
            let owner = snap.shard_of(access.block());
            if owner != victim {
                containment_ok &= fr == cr;
            } else if matches!(access, Access::Write { .. }) && !fr.is_ok() {
                replay_queue.push(*access);
            }
        }
        if h.faulted
            .health(victim)
            .is_some_and(|s| s != ShardHealth::Healthy)
        {
            quarantined = true;
            if let Some(fuse) = h.fuses.get(victim) {
                fuse.disarm();
            }
            break;
        }
    }

    // Recovery: read-only pressure on the victim shard until the
    // epoch-counted quarantine → rebuild path readmits it.
    let victim_reads: Vec<Access> = {
        let blocks = h.shard_blocks.get(victim).cloned().unwrap_or_default();
        (0..64)
            .map(|i| Access::Read {
                block: blocks.get(i % blocks.len().max(1)).copied().unwrap_or(0),
            })
            .collect()
    };
    let mut recovered = h.faulted.health(victim) == Some(ShardHealth::Healthy);
    for _ in 0..RECOVERY_BATCHES_CAP {
        if recovered {
            break;
        }
        h.faulted.submit(&victim_reads);
        recovered = h.faulted.health(victim) == Some(ShardHealth::Healthy);
    }

    // Replay the refused writes, in order, on the faulted twin only (the
    // control twin already executed them).
    let replayed_writes = replay_queue.len() as u64;
    let mut replay_ok = true;
    if !replay_queue.is_empty() {
        for r in h.faulted.submit(&replay_queue) {
            replay_ok &= r.is_ok();
        }
    }

    // Verify: twins must agree entry for entry and state digest for state
    // digest again.
    let mut twin_identical = replay_ok;
    for _ in 0..VERIFY_BATCHES {
        let batch = h.mixed_batch(BATCH_LEN);
        let (f, c) = h.drive(&batch);
        twin_identical &= f == c;
    }
    for s in 0..h.shard_blocks.len() {
        twin_identical &= h.faulted.shard_state_digest(s) == h.control.shard_state_digest(s);
    }

    ClassOutcome {
        class,
        victim,
        quarantined,
        recovered,
        containment_ok,
        twin_identical,
        replayed_writes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuse_modes_round_trip() {
        let fuse = ChaosFuse::new();
        assert_eq!(fuse.mode(), FuseMode::Disarmed);
        fuse.arm(FuseMode::Saturate);
        assert_eq!(fuse.mode(), FuseMode::Saturate);
        fuse.disarm();
        assert_eq!(fuse.mode(), FuseMode::Disarmed);
    }

    #[test]
    fn chaos_policy_delegates_when_disarmed() {
        use rmcc_secmem::engine::IncrementPolicy;
        let fuse = ChaosFuse::new();
        let mut p = ChaosPolicy::new(Box::new(IncrementPolicy), fuse.clone());
        assert_eq!(p.bump(7), 8);
        assert_eq!(p.relevel_target(100), 100);
        assert_eq!(p.scrub(), 0);
        fuse.arm(FuseMode::Saturate);
        assert_eq!(p.bump(7), u64::MAX);
    }

    #[test]
    fn campaign_recovers_every_class() {
        let cfg = ChaosConfig::new(3, 0xC4A0_5EED);
        let report = run_chaos_campaign(&cfg);
        assert_eq!(report.outcomes.len(), ChaosFaultClass::ALL.len());
        for o in &report.outcomes {
            assert!(o.quarantined, "{}: breaker must fire", o.class.name());
            assert!(o.recovered, "{}: must readmit", o.class.name());
            assert!(o.containment_ok, "{}: blast radius", o.class.name());
            assert!(o.twin_identical, "{}: twin identity", o.class.name());
        }
        assert!(report.final_all_healthy);
        assert!(report.final_digests_equal);
        assert!(report.recovery_ok());
    }

    #[test]
    fn campaign_is_seed_deterministic() {
        let cfg = ChaosConfig::new(2, 42);
        let a = run_chaos_campaign(&cfg);
        let b = run_chaos_campaign(&cfg);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.recovery_ok(), b.recovery_ok());
    }
}
