//! Multi-tenant sharded secure-memory service: fixed region-preserving
//! routing and a batched access API over the single-owner [`SecureMemory`]
//! engine.
//!
//! The engine in [`crate::engine`] is deliberately a one-tenant `&mut`
//! structure — the shape the paper evaluates. Serving aggregate traffic from
//! many tenants needs a different shape, and this module provides it without
//! touching the engine's crypto:
//!
//! * **Shards.** A [`SecureMemoryService`] owns N independent shards, each a
//!   full [`SecureMemory`] (its own `PagedArena` tree, counter state, and —
//!   when built with [`SecureMemoryService::with_policies`] — its own
//!   per-shard counter-update policy, e.g. a memoization table plus traffic
//!   budget). Shards share nothing mutable; each is guarded by its own
//!   `Mutex`, so traffic to different shards never serializes.
//! * **Region-preserving routing.** A data block routes to a shard by
//!   hashing its *L0 region* (the coverage group of blocks sharing one
//!   counter block), never the raw block address. Overflow releveling
//!   re-encrypts a whole region; keeping regions intact per shard keeps that
//!   mechanic — and therefore every stored ciphertext and counter — exactly
//!   what a single serial engine would produce. See
//!   [`ServiceSnapshot::shard_of`].
//! * **Routing fixed at construction.** Shard count and counter coverage
//!   never change after [`SecureMemoryService::with_policies`] returns
//!   (changing them would require migrating stored state between shards),
//!   so routing lives in a plain `Copy` [`ServiceSnapshot`] built once.
//!   [`SecureMemoryService::snapshot`] hands out a copy; no lock guards it.
//! * **Batched API.** [`SecureMemoryService::submit_with_jobs`] partitions a
//!   batch by shard, drives the shards concurrently on a scoped-thread pool
//!   of the given width, and merges per-shard results back in submission
//!   order; [`SecureMemoryService::submit`] is the width-1 call. Per-shard
//!   order is submission order, and shards are independent, so batched
//!   output is **byte-identical** to running the same batch serially — at
//!   any worker width. Failures are surfaced per entry as typed
//!   [`AccessResult`] variants; one bad access (or even a panicking shard,
//!   isolated via `catch_unwind`) never fails the whole batch.
//! * **Per-shard health lifecycle (opt-in).** A service built with a
//!   [`HealthConfig`] runs a deterministic circuit breaker per shard:
//!   `Healthy → Degraded → Quarantined → Rebuilding → Healthy`, every
//!   threshold counted in the shard's own accesses (never wall-clock).
//!   Degraded shards bypass the memo table via the full-AES baseline write
//!   path; Quarantined/Rebuilding shards reject writes with a typed
//!   [`ShardFaultCause`]; the rebuild pass reconstructs the integrity tree
//!   from trusted state, re-verifies every stored MAC, and resets the
//!   shard's policy before readmission. Without a `HealthConfig` the
//!   service behaves exactly as before — no monitoring, no rejection.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;

use rmcc_cache::set_assoc::CacheStats;
use rmcc_crypto::aes::Backend;
use rmcc_crypto::mac::DataBlock;
use rmcc_crypto::stats::CryptoStats;

use crate::counters::CounterOrg;
use crate::engine::{
    CounterUpdatePolicy, IncrementPolicy, PipelineKind, ReadError, RebuildReport, SecureMemory,
    WriteError,
};

/// One request in a batch submitted to the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Decrypt-and-verify the 64-byte block at `block`.
    Read {
        /// Data-block index (byte address / 64).
        block: u64,
    },
    /// Encrypt-and-store `data` at `block`, bumping its counter.
    Write {
        /// Data-block index (byte address / 64).
        block: u64,
        /// Plaintext to store.
        data: DataBlock,
    },
}

impl Access {
    /// The data-block index this access targets (what routing hashes).
    pub fn block(&self) -> u64 {
        match *self {
            Access::Read { block } | Access::Write { block, .. } => block,
        }
    }
}

/// Per-entry outcome of a submitted batch, in submission order.
///
/// Every entry gets exactly one result; errors are typed and per entry, so a
/// tampered or out-of-range access never fails the rest of the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// Read succeeded: the decrypted, integrity-verified plaintext.
    Data(DataBlock),
    /// Write succeeded.
    Written {
        /// The block's write counter after this write.
        counter: u64,
    },
    /// Read failed with the engine's typed error (tamper detection fires
    /// here: [`ReadError::DataTampered`] / [`ReadError::MetadataTampered`]).
    ReadFailed(ReadError),
    /// Write refused with the engine's typed error; no state was mutated.
    WriteFailed(WriteError),
    /// The owning shard could not service this entry. The fault is
    /// contained to the shard (other shards and other batches are
    /// unaffected); panics are additionally tallied in
    /// [`SecureMemoryService::fault_count`]. The shard index and typed
    /// cause let a caller retry exactly the affected entries — e.g. resubmit
    /// `Quarantined`-rejected writes after the shard reports `Healthy` —
    /// instead of replaying the whole batch.
    ShardFault {
        /// The shard that owned (and failed) this entry.
        shard: usize,
        /// Why the shard could not serve it.
        cause: ShardFaultCause,
    },
}

/// Why a shard produced an [`AccessResult::ShardFault`] for an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardFaultCause {
    /// The engine panicked servicing the entry; the panic was contained.
    Panicked,
    /// The shard is quarantined and rejects writes until it is rebuilt and
    /// readmitted (reads are still served — they cannot corrupt state).
    Quarantined,
    /// The shard is mid-rebuild and rejects writes until readmission.
    Rebuilding,
    /// Internal bookkeeping failure (unreachable index bounds); reported
    /// rather than panicking.
    Internal,
}

impl ShardFaultCause {
    /// Stable small code for digests and telemetry.
    fn code(self) -> u64 {
        match self {
            ShardFaultCause::Panicked => 1,
            ShardFaultCause::Quarantined => 2,
            ShardFaultCause::Rebuilding => 3,
            ShardFaultCause::Internal => 4,
        }
    }
}

impl AccessResult {
    /// Whether the access succeeded.
    pub fn is_ok(&self) -> bool {
        matches!(self, AccessResult::Data(_) | AccessResult::Written { .. })
    }

    /// Folds this result into a running order-sensitive digest.
    fn fold_into(&self, acc: u64) -> u64 {
        match *self {
            AccessResult::Data(d) => {
                let mut a = splitmix64(acc ^ 0xD1);
                for chunk in d.chunks_exact(8) {
                    let mut word = [0u8; 8];
                    word.copy_from_slice(chunk);
                    a = splitmix64(a ^ u64::from_le_bytes(word));
                }
                a
            }
            AccessResult::Written { counter } => splitmix64(acc ^ 0xA2 ^ splitmix64(counter)),
            AccessResult::ReadFailed(e) => {
                let (code, detail): (u64, u64) = match e {
                    ReadError::Unwritten { block } => (1, block),
                    ReadError::DataTampered { block } => (2, block),
                    ReadError::MetadataTampered { level } => (3, level as u64),
                };
                splitmix64(acc ^ 0xE3 ^ (code << 8) ^ splitmix64(detail))
            }
            AccessResult::WriteFailed(e) => {
                let (code, detail): (u64, u64) = match e {
                    WriteError::Layout(_) => (1, 0),
                    WriteError::CounterSaturated { counter } => (2, counter),
                };
                splitmix64(acc ^ 0xF4 ^ (code << 8) ^ splitmix64(detail))
            }
            AccessResult::ShardFault { shard, cause } => {
                splitmix64(acc ^ 0x0F ^ (cause.code() << 8) ^ splitmix64(shard as u64))
            }
        }
    }
}

/// Order-sensitive checksum of a whole result vector. Two result vectors are
/// byte-identical iff their digests match (up to hash collisions); the
/// batched-vs-serial regression tests and the sustained-load benchmark both
/// compare through this.
pub fn digest_results(results: &[AccessResult]) -> u64 {
    results
        .iter()
        .enumerate()
        .fold(0xCBF2_9CE4_8422_2325, |acc, (i, r)| {
            r.fold_into(splitmix64(acc ^ i as u64))
        })
}

/// One shard's position in the health lifecycle (DESIGN.md §12):
/// `Healthy → Degraded → Quarantined → Rebuilding → Healthy`, driven by a
/// per-epoch fault-rate circuit breaker — every threshold is counted in
/// accesses, never wall-clock, so the lifecycle is as deterministic as the
/// data path it protects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardHealth {
    /// Serving normally through the counter-update policy.
    Healthy,
    /// Serving, but writes bypass the memo table via the counted full-AES
    /// baseline path ([`SecureMemory::write_baseline`]); recovers after
    /// enough consecutive clean epochs.
    Degraded,
    /// Rejecting writes ([`ShardFaultCause::Quarantined`]) while the fault
    /// source drains; reads are still served. After a counted number of
    /// epochs the shard moves to `Rebuilding`.
    Quarantined,
    /// Still rejecting writes; the next epoch boundary runs the rebuild
    /// pass ([`SecureMemory::rebuild`]) and readmits the shard if every
    /// stored MAC re-verifies.
    Rebuilding,
}

impl ShardHealth {
    /// Stable small code for telemetry gauges (0 = Healthy … 3 =
    /// Rebuilding).
    pub fn code(self) -> u64 {
        match self {
            ShardHealth::Healthy => 0,
            ShardHealth::Degraded => 1,
            ShardHealth::Quarantined => 2,
            ShardHealth::Rebuilding => 3,
        }
    }
}

/// Circuit-breaker thresholds for the per-shard health lifecycle. All
/// quantities are counted per shard in *accesses* (the shard's own traffic),
/// preserving the §9 determinism contract: a given per-shard access sequence
/// always produces the same lifecycle trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Accesses per health epoch (the fault-rate window; clamped to ≥ 1).
    pub epoch_accesses: u64,
    /// Integrity faults within one window that demote a Healthy shard to
    /// Degraded.
    pub degrade_faults: u64,
    /// Integrity faults within one window that quarantine the shard
    /// outright. Counter saturation and detected memo corruption quarantine
    /// immediately regardless of this threshold.
    pub quarantine_faults: u64,
    /// Consecutive fault-free windows a Degraded shard must serve before
    /// readmission to Healthy.
    pub recover_epochs: u64,
    /// Windows a shard stays Quarantined (attempt-counted backoff, letting
    /// in-flight fault pressure drain) before the rebuild pass runs.
    pub quarantine_epochs: u64,
}

impl HealthConfig {
    /// Conservative defaults: 256-access windows, degrade at 2 faults,
    /// quarantine at 8, two clean windows to recover, one window of
    /// quarantine backoff.
    pub fn new() -> Self {
        HealthConfig {
            epoch_accesses: 256,
            degrade_faults: 2,
            quarantine_faults: 8,
            recover_epochs: 2,
            quarantine_epochs: 1,
        }
    }
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Cumulative health-lifecycle tallies for one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHealthStats {
    /// Current lifecycle state.
    pub health: ShardHealth,
    /// Completed health epochs (windows).
    pub health_epochs: u64,
    /// Integrity faults the monitor has counted (tamper-detected reads,
    /// saturated writes, panics, detected memo corruption).
    pub faults: u64,
    /// Accesses served on the degraded full-AES path.
    pub degraded_accesses: u64,
    /// Writes rejected while Quarantined or Rebuilding.
    pub rejected_writes: u64,
    /// Healthy → Degraded transitions.
    pub degrades: u64,
    /// Transitions into Quarantined (from any state).
    pub quarantines: u64,
    /// Successful rebuilds (readmissions to Healthy).
    pub rebuilds: u64,
    /// Rebuild passes that found unrecoverable blocks and re-quarantined.
    pub failed_rebuilds: u64,
    /// Stored blocks whose MAC failed even under trusted counters, summed
    /// over failed rebuild passes.
    pub unrecoverable_blocks: u64,
}

/// Counter organization of every shard: the paper's Morphable counters.
pub const SHARD_ORG: CounterOrg = CounterOrg::Morphable128;

/// OTP pipeline of every shard: the RMCC split pipeline.
const SHARD_PIPELINE: PipelineKind = PipelineKind::Rmcc;

/// Key-derivation seed; all shards share it so stored ciphertexts match the
/// single-engine reference exactly.
const SHARD_KEY_SEED: u64 = 0x0005_EED0_0F5E_C3E7;

/// How to build a [`SecureMemoryService`]. Two equal configs (plus equal
/// policy factories) build services with byte-identical behavior. Every
/// shard uses [`SHARD_ORG`], the RMCC pipeline and one fixed key seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Number of independent shards (clamped to ≥ 1).
    pub shards: usize,
    /// Protected-region capacity in bytes; every shard spans the full
    /// address space (the arenas are sparse, so untouched regions cost
    /// nothing) and routing decides ownership.
    pub data_bytes: u64,
    /// Per-shard health lifecycle thresholds. `None` (the default) disables
    /// health monitoring entirely: no state machine, no degraded routing,
    /// no write rejection — byte-identical to the pre-lifecycle service.
    pub health: Option<HealthConfig>,
    /// AES backend for every shard's key schedules. Backends are
    /// ciphertext-identical (see `rmcc_crypto::aes::Backend`), so this
    /// only changes the timing profile, never stored bytes or digests.
    pub backend: Backend,
}

impl ServiceConfig {
    /// A config with health monitoring off and the `RMCC_BACKEND`
    /// environment's AES backend.
    pub fn new(shards: usize, data_bytes: u64) -> Self {
        ServiceConfig {
            shards,
            data_bytes,
            health: None,
            backend: Backend::from_env(),
        }
    }

    /// The same config with an explicitly pinned AES backend (instead of
    /// the `RMCC_BACKEND` environment default).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The same config with the health lifecycle enabled.
    pub fn with_health(mut self, health: HealthConfig) -> Self {
        self.health = Some(health);
        self
    }
}

/// The routing snapshot: shard count and counter coverage, fixed when the
/// service is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceSnapshot {
    shards: usize,
    coverage: u64,
}

impl ServiceSnapshot {
    /// Routes a data block to its owning shard.
    ///
    /// The hash input is the block's **L0 region** (`block / coverage`), not
    /// the block itself: all blocks sharing a counter block land on one
    /// shard, so overflow releveling — which re-encrypts the whole region —
    /// stays shard-local and counters evolve exactly as in a serial engine.
    /// The region index is mixed through SplitMix64 so consecutive regions
    /// (and therefore hot tenants) scatter across shards.
    pub fn shard_of(&self, block: u64) -> usize {
        let region = block / self.coverage.max(1);
        let mixed = splitmix64(region);
        usize::try_from(mixed % self.shards.max(1) as u64).unwrap_or(0)
    }

    /// Number of shards this snapshot routes across.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Blocks per L0 region (the counter organization's coverage).
    pub fn coverage(&self) -> u64 {
        self.coverage
    }
}

/// One shard's health monitor: the deterministic circuit breaker plus its
/// cumulative tallies. Lives under the shard's mutex next to the engine, so
/// every lifecycle decision is ordered with the accesses that caused it.
struct HealthMonitor {
    cfg: HealthConfig,
    health: ShardHealth,
    /// Accesses (served or rejected) in the current window.
    window_accesses: u64,
    /// Integrity faults in the current window.
    window_faults: u64,
    /// Consecutive clean windows while Degraded.
    clean_epochs: u64,
    /// Windows spent in the current Quarantined stint.
    quarantine_age: u64,
    health_epochs: u64,
    faults: u64,
    degraded_accesses: u64,
    rejected_writes: u64,
    degrades: u64,
    quarantines: u64,
    rebuilds: u64,
    failed_rebuilds: u64,
    unrecoverable_blocks: u64,
}

impl HealthMonitor {
    fn new(cfg: HealthConfig) -> Self {
        HealthMonitor {
            cfg,
            health: ShardHealth::Healthy,
            window_accesses: 0,
            window_faults: 0,
            clean_epochs: 0,
            quarantine_age: 0,
            health_epochs: 0,
            faults: 0,
            degraded_accesses: 0,
            rejected_writes: 0,
            degrades: 0,
            quarantines: 0,
            rebuilds: 0,
            failed_rebuilds: 0,
            unrecoverable_blocks: 0,
        }
    }

    fn stats(&self) -> ShardHealthStats {
        ShardHealthStats {
            health: self.health,
            health_epochs: self.health_epochs,
            faults: self.faults,
            degraded_accesses: self.degraded_accesses,
            rejected_writes: self.rejected_writes,
            degrades: self.degrades,
            quarantines: self.quarantines,
            rebuilds: self.rebuilds,
            failed_rebuilds: self.failed_rebuilds,
            unrecoverable_blocks: self.unrecoverable_blocks,
        }
    }

    /// Ticks the window for one served access.
    fn note_access(&mut self, degraded: bool) {
        self.window_accesses = self.window_accesses.saturating_add(1);
        if degraded {
            self.degraded_accesses = self.degraded_accesses.saturating_add(1);
        }
    }

    /// Ticks the window for one rejected write. Rejected accesses still
    /// advance the window so a quarantined shard under read-only pressure
    /// keeps progressing toward its rebuild.
    fn note_rejected_write(&mut self) {
        self.window_accesses = self.window_accesses.saturating_add(1);
        self.rejected_writes = self.rejected_writes.saturating_add(1);
    }

    /// Counts one integrity fault and applies the threshold transitions.
    fn note_fault(&mut self) {
        self.faults = self.faults.saturating_add(1);
        self.window_faults = self.window_faults.saturating_add(1);
        if self.window_faults >= self.cfg.quarantine_faults.max(1) {
            self.quarantine();
        } else if self.health == ShardHealth::Healthy
            && self.window_faults >= self.cfg.degrade_faults.max(1)
        {
            self.degrade();
        }
    }

    /// Moves to Quarantined unless already quarantined or rebuilding.
    fn quarantine(&mut self) {
        if !matches!(
            self.health,
            ShardHealth::Quarantined | ShardHealth::Rebuilding
        ) {
            self.health = ShardHealth::Quarantined;
            self.quarantines = self.quarantines.saturating_add(1);
            self.quarantine_age = 0;
            self.clean_epochs = 0;
        }
    }

    /// Moves a Healthy shard to Degraded.
    fn degrade(&mut self) {
        if self.health == ShardHealth::Healthy {
            self.health = ShardHealth::Degraded;
            self.degrades = self.degrades.saturating_add(1);
            self.clean_epochs = 0;
        }
    }

    /// Records a finished rebuild pass: readmit on a clean report,
    /// re-quarantine otherwise.
    fn finish_rebuild(&mut self, report: &RebuildReport) {
        self.quarantine_age = 0;
        self.clean_epochs = 0;
        if report.is_clean() {
            self.health = ShardHealth::Healthy;
            self.rebuilds = self.rebuilds.saturating_add(1);
        } else {
            self.health = ShardHealth::Quarantined;
            self.failed_rebuilds = self.failed_rebuilds.saturating_add(1);
            self.unrecoverable_blocks = self
                .unrecoverable_blocks
                .saturating_add(report.data_unrecoverable);
        }
    }
}

/// One shard: a full engine, its fault tally, and (when the service was
/// configured with [`HealthConfig`]) its lifecycle monitor.
struct ShardState {
    mem: SecureMemory,
    faults: u64,
    monitor: Option<HealthMonitor>,
}

impl ShardState {
    /// Window-boundary processing: once the monitor's window fills, advance
    /// the lifecycle — recover a clean Degraded shard, age a Quarantined
    /// one toward its rebuild, and run the rebuild pass itself for a
    /// Rebuilding shard — then reset the window counters.
    fn roll_window(&mut self) {
        let Some(mon) = self.monitor.as_mut() else {
            return;
        };
        if mon.window_accesses < mon.cfg.epoch_accesses.max(1) {
            return;
        }
        mon.health_epochs = mon.health_epochs.saturating_add(1);
        match mon.health {
            ShardHealth::Healthy => {}
            ShardHealth::Degraded => {
                if mon.window_faults == 0 {
                    mon.clean_epochs = mon.clean_epochs.saturating_add(1);
                    if mon.clean_epochs >= mon.cfg.recover_epochs.max(1) {
                        mon.health = ShardHealth::Healthy;
                        mon.clean_epochs = 0;
                    }
                } else {
                    mon.clean_epochs = 0;
                }
            }
            ShardHealth::Quarantined => {
                mon.quarantine_age = mon.quarantine_age.saturating_add(1);
                if mon.quarantine_age >= mon.cfg.quarantine_epochs.max(1) {
                    mon.health = ShardHealth::Rebuilding;
                }
            }
            ShardHealth::Rebuilding => {
                let report = self.mem.rebuild();
                self.mem.reset_policy();
                mon.finish_rebuild(&report);
            }
        }
        mon.window_accesses = 0;
        mon.window_faults = 0;
    }
}

/// A concurrent, sharded front end over N independent [`SecureMemory`]
/// engines. See the [module docs](self) for the architecture; see
/// [`Self::submit_with_jobs`] for the batched API and its determinism
/// contract.
pub struct SecureMemoryService {
    snapshot: ServiceSnapshot,
    shards: Vec<Mutex<ShardState>>,
}

impl SecureMemoryService {
    /// Builds a service whose shards all use the baseline
    /// [`IncrementPolicy`]. With this policy the service is byte-identical
    /// to a serial engine *across shard counts* (counters depend only on
    /// per-region history, which routing keeps shard-local).
    pub fn new(cfg: &ServiceConfig) -> Self {
        Self::with_policies(cfg, |_| Box::new(IncrementPolicy))
    }

    /// Builds a service with one counter-update policy per shard, from a
    /// factory called with each shard index in order. This is how the
    /// memoizing stack plugs in: each shard gets its own memo table and
    /// budget ledger, so policy state — like everything else mutable — is
    /// shard-local.
    pub fn with_policies<F>(cfg: &ServiceConfig, mut policy_for: F) -> Self
    where
        F: FnMut(usize) -> Box<dyn CounterUpdatePolicy>,
    {
        let shards = cfg.shards.max(1);
        let snapshot = ServiceSnapshot {
            shards,
            coverage: SHARD_ORG.coverage() as u64,
        };
        let shard_states = (0..shards)
            .map(|i| {
                Mutex::new(ShardState {
                    mem: SecureMemory::with_policy_on(
                        SHARD_ORG,
                        cfg.data_bytes,
                        SHARD_PIPELINE,
                        SHARD_KEY_SEED,
                        policy_for(i),
                        cfg.backend,
                    ),
                    faults: 0,
                    monitor: cfg.health.map(HealthMonitor::new),
                })
            })
            .collect();
        SecureMemoryService {
            snapshot,
            shards: shard_states,
        }
    }

    /// The routing snapshot, fixed at construction.
    pub fn snapshot(&self) -> ServiceSnapshot {
        self.snapshot
    }

    /// Services a batch in the caller's thread: [`Self::submit_with_jobs`]
    /// at width 1.
    pub fn submit(&self, batch: &[Access]) -> Vec<AccessResult> {
        self.submit_with_jobs(batch, 1)
    }

    /// Services a batch: partitions by shard, drives shards concurrently on
    /// `jobs` workers (1 = in-caller-thread serial), merges results in
    /// submission order.
    ///
    /// **Determinism contract:** per-shard sub-batches preserve submission
    /// order and shards share no mutable state, so the returned vector is
    /// byte-identical at any worker width — and, for a service built with
    /// [`Self::new`], to a plain serial [`SecureMemory`] over the same batch
    /// (see [`serial_reference`]).
    pub fn submit_with_jobs(&self, batch: &[Access], jobs: usize) -> Vec<AccessResult> {
        let snap = self.snapshot;
        let mut parts: Vec<Vec<usize>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (i, access) in batch.iter().enumerate() {
            if let Some(part) = parts.get_mut(snap.shard_of(access.block())) {
                part.push(i);
            }
        }
        let busy = parts.iter().filter(|p| !p.is_empty()).count();
        let workers = jobs.max(1).min(busy.max(1));
        // Placeholder overwritten by scatter (routing covers every index).
        let mut merged = vec![
            AccessResult::ShardFault {
                shard: 0,
                cause: ShardFaultCause::Internal,
            };
            batch.len()
        ];
        if workers <= 1 {
            for (shard, indices) in parts.iter().enumerate() {
                if indices.is_empty() {
                    continue;
                }
                let results = self.run_shard(shard, indices, batch);
                scatter(&mut merged, indices, &results);
            }
        } else {
            let outs: Vec<Mutex<Vec<AccessResult>>> =
                parts.iter().map(|_| Mutex::new(Vec::new())).collect();
            let next = AtomicUsize::new(0);
            thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let shard = next.fetch_add(1, Ordering::Relaxed);
                        let Some(indices) = parts.get(shard) else {
                            break;
                        };
                        if indices.is_empty() {
                            continue;
                        }
                        let results = self.run_shard(shard, indices, batch);
                        if let Some(slot) = outs.get(shard) {
                            *slot.lock().unwrap_or_else(PoisonError::into_inner) = results;
                        }
                    });
                }
            });
            for (shard, indices) in parts.iter().enumerate() {
                let Some(slot) = outs.get(shard) else {
                    continue;
                };
                let results = slot.lock().unwrap_or_else(PoisonError::into_inner);
                scatter(&mut merged, indices, &results);
            }
        }
        merged
    }

    /// Runs one shard's sub-batch under its lock, isolating panics per
    /// entry. A poisoned lock is recovered (`into_inner`): the shard keeps
    /// serving, degraded, and the fault tally records the event.
    ///
    /// When the service was built with a [`HealthConfig`], this is also
    /// where the lifecycle runs: detected memo corruption is checked
    /// *before* any entry is served (a poisoned table must never influence
    /// a write), Quarantined/Rebuilding shards reject writes with a typed
    /// fault, Degraded shards route writes through the full-AES baseline
    /// path, and every access ticks the circuit breaker's window.
    fn run_shard(&self, shard: usize, indices: &[usize], batch: &[Access]) -> Vec<AccessResult> {
        let internal = AccessResult::ShardFault {
            shard,
            cause: ShardFaultCause::Internal,
        };
        let mut out = Vec::with_capacity(indices.len());
        let Some(slot) = self.shards.get(shard) else {
            out.resize(indices.len(), internal);
            return out;
        };
        let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
        // Sub-batch-start scrub: if the policy knows entries are corrupted
        // (e.g. a detected SRAM upset), quarantine before serving anything —
        // no access is ever steered by a known-bad table.
        {
            let state = &mut *guard;
            if let Some(mon) = state.monitor.as_mut() {
                if matches!(mon.health, ShardHealth::Healthy | ShardHealth::Degraded)
                    && state.mem.scrub_policy() > 0
                {
                    mon.faults = mon.faults.saturating_add(1);
                    mon.quarantine();
                }
            }
        }
        // Batched pad prefetch: collect this sub-batch's read targets and
        // derive their pads through the pipeline's 8-wide AES path before
        // serving any entry. Purely a wall-clock accelerator — pads are
        // bit-identical with or without it, and the engine's modeled
        // crypto tally is charged at access time either way — so the
        // determinism contract below is untouched.
        {
            let state = &mut *guard;
            let reads = indices
                .iter()
                .filter_map(|&i| batch.get(i))
                .filter_map(|access| match access {
                    Access::Read { block } => Some(*block),
                    Access::Write { .. } => None,
                });
            state.mem.prefetch_pads(reads);
        }
        for &i in indices {
            let Some(access) = batch.get(i) else {
                out.push(internal);
                continue;
            };
            let state = &mut *guard;
            let health = state
                .monitor
                .as_ref()
                .map_or(ShardHealth::Healthy, |m| m.health);
            if matches!(health, ShardHealth::Quarantined | ShardHealth::Rebuilding)
                && matches!(access, Access::Write { .. })
            {
                let cause = if health == ShardHealth::Quarantined {
                    ShardFaultCause::Quarantined
                } else {
                    ShardFaultCause::Rebuilding
                };
                if let Some(mon) = state.monitor.as_mut() {
                    mon.note_rejected_write();
                }
                out.push(AccessResult::ShardFault { shard, cause });
                state.roll_window();
                continue;
            }
            let degraded = health == ShardHealth::Degraded;
            match catch_unwind(AssertUnwindSafe(|| apply(&mut state.mem, access, degraded))) {
                Ok(result) => {
                    if let Some(mon) = state.monitor.as_mut() {
                        mon.note_access(degraded);
                        match result {
                            AccessResult::WriteFailed(WriteError::CounterSaturated { .. }) => {
                                // Saturation means the shard needs key-renewal
                                // scale recovery: quarantine immediately.
                                mon.note_fault();
                                mon.quarantine();
                            }
                            AccessResult::ReadFailed(
                                ReadError::DataTampered { .. } | ReadError::MetadataTampered { .. },
                            ) => mon.note_fault(),
                            // Unwritten reads and layout errors are client
                            // mistakes, not integrity faults.
                            _ => {}
                        }
                    }
                    out.push(result);
                }
                Err(_) => {
                    state.faults = state.faults.saturating_add(1);
                    if let Some(mon) = state.monitor.as_mut() {
                        mon.note_access(false);
                        mon.note_fault();
                    }
                    out.push(AccessResult::ShardFault {
                        shard,
                        cause: ShardFaultCause::Panicked,
                    });
                }
            }
            state.roll_window();
        }
        out
    }

    /// Runs `f` with exclusive access to one shard's engine — the
    /// inspection and fault-injection seam (the attacker model's per-shard
    /// bus access). Returns `None` for an out-of-range shard.
    pub fn with_shard<T>(&self, shard: usize, f: impl FnOnce(&mut SecureMemory) -> T) -> Option<T> {
        let slot = self.shards.get(shard)?;
        let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
        Some(f(&mut guard.mem))
    }

    /// How many panics this shard has absorbed ([`AccessResult::ShardFault`]
    /// entries it produced). `None` for an out-of-range shard.
    pub fn fault_count(&self, shard: usize) -> Option<u64> {
        let slot = self.shards.get(shard)?;
        let guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
        Some(guard.faults)
    }

    // --- health lifecycle --------------------------------------------------

    /// The shard's current lifecycle state. `None` for an out-of-range
    /// shard or a service built without a [`HealthConfig`].
    pub fn health(&self, shard: usize) -> Option<ShardHealth> {
        let slot = self.shards.get(shard)?;
        let guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
        guard.monitor.as_ref().map(|m| m.health)
    }

    /// The shard's cumulative health tallies. `None` for an out-of-range
    /// shard or a service built without a [`HealthConfig`].
    pub fn health_stats(&self, shard: usize) -> Option<ShardHealthStats> {
        let slot = self.shards.get(shard)?;
        let guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
        guard.monitor.as_ref().map(HealthMonitor::stats)
    }

    /// Host-forced quarantine (operator action / external detector).
    /// Returns whether the shard exists and has a monitor to transition.
    pub fn force_quarantine(&self, shard: usize) -> bool {
        let Some(slot) = self.shards.get(shard) else {
            return false;
        };
        let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
        match guard.monitor.as_mut() {
            Some(mon) => {
                mon.quarantine();
                true
            }
            None => false,
        }
    }

    /// Host-driven immediate rebuild, bypassing the epoch-counted backoff:
    /// runs the rebuild pass and the policy reset under the shard lock and
    /// readmits the shard if the report is clean. `None` for an
    /// out-of-range shard or a service without health monitoring.
    pub fn try_rebuild(&self, shard: usize) -> Option<RebuildReport> {
        let slot = self.shards.get(shard)?;
        let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
        let state = &mut *guard;
        let mon = state.monitor.as_mut()?;
        let report = state.mem.rebuild();
        state.mem.reset_policy();
        mon.finish_rebuild(&report);
        mon.window_accesses = 0;
        mon.window_faults = 0;
        Some(report)
    }

    /// The shard engine's architectural-state fingerprint
    /// ([`SecureMemory::state_digest`]) — what the chaos campaign compares
    /// against a never-faulted control twin. `None` for an out-of-range
    /// shard. Available with or without health monitoring.
    pub fn shard_state_digest(&self, shard: usize) -> Option<u64> {
        self.with_shard(shard, |mem| mem.state_digest())
    }

    /// Static-model crypto tallies, one per shard in shard order — the
    /// shard-labeled telemetry source.
    pub fn crypto_stats(&self) -> Vec<CryptoStats> {
        self.shards
            .iter()
            .map(|slot| {
                let guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
                guard.mem.crypto_stats()
            })
            .collect()
    }

    /// Engine state bytes ([`SecureMemory::footprint_bytes`]), one per shard
    /// in shard order.
    pub fn footprint_bytes(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|slot| {
                let guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
                guard.mem.footprint_bytes()
            })
            .collect()
    }

    /// On-chip counter-cache tallies ([`SecureMemory::counter_cache_stats`]),
    /// one per shard in shard order.
    pub fn counter_cache_stats(&self) -> Vec<CacheStats> {
        self.shards
            .iter()
            .map(|slot| {
                let guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
                guard.mem.counter_cache_stats()
            })
            .collect()
    }
}

/// Applies one access to an engine, mapping engine errors to per-entry
/// results. Shared by the service shards and [`serial_reference`] so both
/// paths are the same code. With `degraded` set, writes bypass the
/// counter-update policy via the full-AES baseline path.
fn apply(mem: &mut SecureMemory, access: &Access, degraded: bool) -> AccessResult {
    match *access {
        Access::Read { block } => match mem.read(block) {
            Ok(data) => AccessResult::Data(data),
            Err(e) => AccessResult::ReadFailed(e),
        },
        Access::Write { block, data } => {
            let written = if degraded {
                mem.write_baseline(block, data)
            } else {
                mem.write(block, data)
            };
            match written {
                Ok(()) => AccessResult::Written {
                    counter: mem.counter_of(block),
                },
                Err(e) => AccessResult::WriteFailed(e),
            }
        }
    }
}

/// Scatters per-shard results back to their submission-order positions.
fn scatter(merged: &mut [AccessResult], indices: &[usize], results: &[AccessResult]) {
    for (&i, &r) in indices.iter().zip(results.iter()) {
        if let Some(slot) = merged.get_mut(i) {
            *slot = r;
        }
    }
}

/// Runs a batch through one plain serial [`SecureMemory`] built from `cfg` —
/// the ground-truth reference the sharded service must match byte for byte
/// (for increment-policy services).
pub fn serial_reference(cfg: &ServiceConfig, batch: &[Access]) -> Vec<AccessResult> {
    let mut mem = SecureMemory::new(SHARD_ORG, cfg.data_bytes, SHARD_PIPELINE, SHARD_KEY_SEED);
    batch.iter().map(|a| apply(&mut mem, a, false)).collect()
}

/// SplitMix64 — the routing/digest mixer (also the bench suite's PRNG).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn block_of(tag: u8) -> DataBlock {
        let mut b = [0u8; 64];
        b[0] = tag;
        b[63] = tag ^ 0xFF;
        b
    }

    /// A mixed batch: writes, read-backs, an unwritten read, and an
    /// out-of-capacity write, across many regions.
    fn mixed_batch() -> Vec<Access> {
        let coverage = SHARD_ORG.coverage() as u64;
        let mut batch = Vec::new();
        for r in 0..24u64 {
            let block = r * coverage + (r % coverage);
            batch.push(Access::Write {
                block,
                data: block_of(r as u8),
            });
            batch.push(Access::Read { block });
            batch.push(Access::Write {
                block,
                data: block_of(r as u8 ^ 0x55),
            });
            batch.push(Access::Read { block });
        }
        batch.push(Access::Read { block: 9_999 }); // never written
        batch.push(Access::Write {
            block: u64::MAX / 64, // beyond capacity -> Layout error
            data: block_of(1),
        });
        batch
    }

    #[test]
    fn every_block_routes_to_exactly_one_in_range_shard() {
        let svc = SecureMemoryService::new(&ServiceConfig::new(5, 1 << 24));
        let snap = svc.snapshot();
        for block in 0..4_096u64 {
            let s = snap.shard_of(block);
            assert!(s < snap.shards());
            // Stable: same snapshot, same answer.
            assert_eq!(s, snap.shard_of(block));
            // Region-preserving: coverage-mates share a shard.
            let region_base = (block / snap.coverage()) * snap.coverage();
            assert_eq!(s, snap.shard_of(region_base));
        }
    }

    #[test]
    fn hardened_backend_service_is_bit_identical_to_fast() {
        // Same batch through fast- and hardened-pinned services: every
        // access result, the result digest, and every shard's
        // architectural digest must match bit for bit — the backend may
        // only change the timing profile, never stored state.
        let base = ServiceConfig::new(3, 1 << 24);
        let batch = mixed_batch();
        let runs: Vec<(Vec<AccessResult>, u64, Vec<u64>)> = [Backend::Fast, Backend::Hardened]
            .into_iter()
            .map(|backend| {
                let svc = SecureMemoryService::new(&base.with_backend(backend));
                let got = svc.submit_with_jobs(&batch, 2);
                let digests = (0..svc.snapshot().shards())
                    .map(|s| svc.shard_state_digest(s).expect("shard is live"))
                    .collect();
                (got.clone(), digest_results(&got), digests)
            })
            .collect();
        assert_eq!(runs[0], runs[1], "hardened service diverged from fast");
    }

    #[test]
    fn submit_matches_serial_engine_across_shard_counts_and_widths() {
        let base = ServiceConfig::new(1, 1 << 24);
        let batch = mixed_batch();
        let reference = serial_reference(&base, &batch);
        assert!(reference.iter().any(|r| matches!(r, AccessResult::Data(_))));
        assert!(reference
            .iter()
            .any(|r| matches!(r, AccessResult::ReadFailed(ReadError::Unwritten { .. }))));
        assert!(reference
            .iter()
            .any(|r| matches!(r, AccessResult::WriteFailed(WriteError::Layout(_)))));
        for shards in [1usize, 2, 3, 8] {
            for jobs in [1usize, 4] {
                let fresh = SecureMemoryService::new(&ServiceConfig::new(shards, 1 << 24));
                let got = fresh.submit_with_jobs(&batch, jobs);
                assert_eq!(got, reference, "shards={shards} jobs={jobs}");
                assert_eq!(digest_results(&got), digest_results(&reference));
            }
        }
    }

    #[test]
    fn counter_cache_stats_are_per_shard_engine_tallies() {
        let svc = SecureMemoryService::new(&ServiceConfig::new(3, 1 << 20));
        let snap = svc.snapshot();
        let write = [Access::Write {
            block: 0,
            data: block_of(7),
        }];
        let read = [Access::Read { block: 0 }];
        svc.submit(&write);
        svc.submit(&read);
        svc.submit(&read);
        let stats = svc.counter_cache_stats();
        assert_eq!(stats.len(), snap.shards());
        let owner = snap.shard_of(0);
        for (shard, s) in stats.iter().enumerate() {
            let engine = svc.with_shard(shard, |mem| mem.counter_cache_stats());
            assert_eq!(Some(*s), engine);
            assert_eq!(s.hits > 0, shard == owner, "only the owner read twice");
        }
    }

    #[test]
    fn per_entry_errors_do_not_fail_the_batch() {
        let svc = SecureMemoryService::new(&ServiceConfig::new(3, 1 << 20));
        let batch = vec![
            Access::Write {
                block: 0,
                data: block_of(7),
            },
            Access::Read { block: 123 }, // unwritten
            Access::Read { block: 0 },
        ];
        let results = svc.submit(&batch);
        assert!(matches!(results[0], AccessResult::Written { counter: 1 }));
        assert_eq!(
            results[1],
            AccessResult::ReadFailed(ReadError::Unwritten { block: 123 }),
            "typed per-entry error"
        );
        assert_eq!(results[2], AccessResult::Data(block_of(7)));
    }

    #[test]
    fn tamper_in_one_shard_is_contained_to_its_entries() {
        let cfg = ServiceConfig::new(4, 1 << 24);
        let svc = SecureMemoryService::new(&cfg);
        let snap = svc.snapshot();
        let coverage = snap.coverage();
        // One written block per shard.
        let mut per_shard = vec![None; snap.shards()];
        for region in 0..64u64 {
            let block = region * coverage;
            let s = snap.shard_of(block);
            if per_shard[s].is_none() {
                per_shard[s] = Some(block);
            }
        }
        let blocks: Vec<u64> = per_shard.into_iter().map(|b| b.unwrap()).collect();
        let writes: Vec<Access> = blocks
            .iter()
            .map(|&block| Access::Write {
                block,
                data: block_of(9),
            })
            .collect();
        svc.submit(&writes);
        // Flip a stored bit in shard 0's block only.
        let victim = blocks[0];
        svc.with_shard(snap.shard_of(victim), |mem| {
            mem.tamper_data(victim, 5, 0x01).unwrap();
        });
        let reads: Vec<Access> = blocks.iter().map(|&block| Access::Read { block }).collect();
        let results = svc.submit(&reads);
        assert_eq!(
            results[0],
            AccessResult::ReadFailed(ReadError::DataTampered { block: victim })
        );
        for r in &results[1..] {
            assert_eq!(*r, AccessResult::Data(block_of(9)), "other shards clean");
        }
        assert_eq!(
            svc.fault_count(0),
            Some(0),
            "tamper is an error, not a panic"
        );
    }

    /// A small-window health config for lifecycle tests.
    fn tight_health() -> HealthConfig {
        HealthConfig {
            epoch_accesses: 4,
            degrade_faults: 2,
            quarantine_faults: 10,
            recover_epochs: 2,
            quarantine_epochs: 1,
        }
    }

    #[test]
    fn health_is_absent_unless_configured() {
        let svc = SecureMemoryService::new(&ServiceConfig::new(2, 1 << 20));
        assert_eq!(svc.health(0), None);
        assert_eq!(svc.health_stats(0), None);
        assert!(!svc.force_quarantine(0));
        assert!(svc.try_rebuild(0).is_none());
        assert!(
            svc.shard_state_digest(0).is_some(),
            "digest needs no monitor"
        );
        let with = SecureMemoryService::new(
            &ServiceConfig::new(2, 1 << 20).with_health(HealthConfig::new()),
        );
        assert_eq!(with.health(0), Some(ShardHealth::Healthy));
        assert_eq!(with.health(99), None, "out of range");
        assert!(!with.force_quarantine(99));
    }

    #[test]
    fn tamper_faults_degrade_then_clean_windows_recover() {
        let cfg = ServiceConfig::new(1, 1 << 20).with_health(tight_health());
        let svc = SecureMemoryService::new(&cfg);
        svc.submit(&[Access::Write {
            block: 0,
            data: block_of(1),
        }]);
        svc.with_shard(0, |mem| mem.tamper_data(0, 3, 0x80).unwrap());
        // Two tamper-detected reads in one window: Healthy → Degraded.
        let r = svc.submit(&[Access::Read { block: 0 }, Access::Read { block: 0 }]);
        assert!(matches!(
            r[0],
            AccessResult::ReadFailed(ReadError::DataTampered { .. })
        ));
        assert_eq!(svc.health(0), Some(ShardHealth::Degraded));
        // A degraded write still serves (full-AES baseline) and heals the
        // tampered block.
        let r = svc.submit(&[
            Access::Write {
                block: 0,
                data: block_of(2),
            },
            Access::Read { block: 0 },
        ]);
        assert!(matches!(r[0], AccessResult::Written { .. }));
        assert_eq!(r[1], AccessResult::Data(block_of(2)));
        let stats = svc.health_stats(0).unwrap();
        assert_eq!(stats.degrades, 1);
        assert!(stats.degraded_accesses >= 2);
        assert_eq!(stats.faults, 2);
        // Two consecutive clean windows readmit the shard.
        let reads: Vec<Access> = (0..8).map(|_| Access::Read { block: 0 }).collect();
        svc.submit(&reads);
        assert_eq!(svc.health(0), Some(ShardHealth::Healthy));
        assert_eq!(svc.health_stats(0).unwrap().degrades, 1, "no flapping");
    }

    /// A policy that behaves like the baseline increment until its fuse is
    /// armed, then returns an unsatisfiable target exactly once — the
    /// counter-saturation injection.
    struct FusedPolicy {
        fuse: Arc<std::sync::atomic::AtomicBool>,
    }
    impl CounterUpdatePolicy for FusedPolicy {
        fn bump(&mut self, current: u64) -> u64 {
            if self.fuse.swap(false, Ordering::Relaxed) {
                rmcc_crypto::otp::COUNTER_MAX + 1
            } else {
                current + 1
            }
        }
        fn relevel_target(&mut self, min_target: u64) -> u64 {
            min_target
        }
    }

    #[test]
    fn counter_saturation_quarantines_then_rebuild_readmits() {
        let cfg = ServiceConfig::new(1, 1 << 20).with_health(tight_health());
        let fuse = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let f = Arc::clone(&fuse);
        let svc = SecureMemoryService::with_policies(&cfg, move |_| {
            Box::new(FusedPolicy {
                fuse: Arc::clone(&f),
            })
        });
        let twin = SecureMemoryService::with_policies(&cfg, |_| {
            Box::new(FusedPolicy {
                fuse: Arc::new(std::sync::atomic::AtomicBool::new(false)),
            })
        });
        let w0 = Access::Write {
            block: 0,
            data: block_of(7),
        };
        svc.submit(&[w0]);
        twin.submit(&[w0]);

        // Saturated write: typed error, immediate quarantine, no mutation.
        fuse.store(true, Ordering::Relaxed);
        let r = svc.submit(&[w0]);
        assert!(matches!(
            r[0],
            AccessResult::WriteFailed(WriteError::CounterSaturated { .. })
        ));
        assert_eq!(svc.health(0), Some(ShardHealth::Quarantined));

        // Quarantined: writes rejected with the typed cause, reads served.
        let r = svc.submit(&[w0, Access::Read { block: 0 }]);
        assert_eq!(
            r[0],
            AccessResult::ShardFault {
                shard: 0,
                cause: ShardFaultCause::Quarantined
            }
        );
        assert_eq!(r[1], AccessResult::Data(block_of(7)));
        // That read was access 4: the window rolled, and one quarantine
        // epoch elapsed → Rebuilding.
        assert_eq!(svc.health(0), Some(ShardHealth::Rebuilding));
        let r = svc.submit(&[w0]);
        assert_eq!(
            r[0],
            AccessResult::ShardFault {
                shard: 0,
                cause: ShardFaultCause::Rebuilding
            }
        );
        // Fill the window with reads; the boundary runs the rebuild pass.
        let reads: Vec<Access> = (0..3).map(|_| Access::Read { block: 0 }).collect();
        svc.submit(&reads);
        assert_eq!(svc.health(0), Some(ShardHealth::Healthy));
        let stats = svc.health_stats(0).unwrap();
        assert_eq!(stats.quarantines, 1);
        assert_eq!(stats.rebuilds, 1);
        assert_eq!(stats.rejected_writes, 2);
        assert_eq!(stats.unrecoverable_blocks, 0);

        // Replay the refused write; the shard converges to the twin that
        // never saw the fault.
        let w2 = Access::Write {
            block: 0,
            data: block_of(8),
        };
        assert!(matches!(svc.submit(&[w2])[0], AccessResult::Written { .. }));
        twin.submit(&[w2]);
        assert_eq!(
            svc.shard_state_digest(0),
            twin.shard_state_digest(0),
            "recovered shard is byte-identical to the never-faulted twin"
        );
    }

    #[test]
    fn forced_quarantine_and_host_driven_rebuild() {
        let cfg = ServiceConfig::new(1, 1 << 20).with_health(tight_health());
        let svc = SecureMemoryService::new(&cfg);
        let w = Access::Write {
            block: 5,
            data: block_of(3),
        };
        svc.submit(&[w]);
        assert!(svc.force_quarantine(0));
        let r = svc.submit(&[w]);
        assert_eq!(
            r[0],
            AccessResult::ShardFault {
                shard: 0,
                cause: ShardFaultCause::Quarantined
            }
        );
        let report = svc.try_rebuild(0).unwrap();
        assert!(report.is_clean());
        assert!(report.data_verified >= 1);
        assert_eq!(svc.health(0), Some(ShardHealth::Healthy));
        assert!(matches!(svc.submit(&[w])[0], AccessResult::Written { .. }));
        let stats = svc.health_stats(0).unwrap();
        assert_eq!(stats.quarantines, 1);
        assert_eq!(stats.rebuilds, 1);
        assert_eq!(stats.rejected_writes, 1);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = [
            AccessResult::Written { counter: 1 },
            AccessResult::ReadFailed(ReadError::Unwritten { block: 0 }),
        ];
        let b = [
            AccessResult::ReadFailed(ReadError::Unwritten { block: 0 }),
            AccessResult::Written { counter: 1 },
        ];
        assert_ne!(digest_results(&a), digest_results(&b));
        assert_eq!(digest_results(&a), digest_results(&a));
    }
}
