//! The secure-memory metadata engine: everything the memory controller does
//! besides raw DRAM timing.
//!
//! For every LLC miss or writeback the engine walks the counter cache and
//! integrity tree, applies the counter-update policy (baseline `+1` or
//! RMCC's memoization-aware update), performs RMCC table lookups, handles
//! overflows and dirty counter-block evictions, and reports the resulting
//! memory requests. Both the lifetime (Pin-style) runner and the detailed
//! timing simulator drive this one engine, so functional behaviour cannot
//! diverge between modes.

use std::collections::VecDeque;

use rmcc_cache::set_assoc::SetAssocCache;
use rmcc_core::rmcc::{Rmcc, UpdateOutcome, DEFAULT_LEVELS};
use rmcc_core::table::{LookupResult, TableStats};
use rmcc_crypto::stats::{CryptoCost, CryptoStats};
use rmcc_secmem::layout::BLOCK_BYTES;
use rmcc_secmem::tree::MetadataState;
use rmcc_telemetry::{CounterId, GaugeId, HistogramId, MetricsRegistry, Telemetry};

use crate::config::{Scheme, SystemConfig};

/// Why a side request exists — mapped to DRAM traffic classes and overhead
/// accounting by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SideKind {
    /// A dirty counter block / tree node written back to memory.
    CounterWriteback,
    /// Re-encryption of a data block caused by an L0 relevel.
    OverflowL0,
    /// Re-MAC of metadata caused by an L1-or-higher relevel.
    OverflowHigher,
    /// Re-encryption write for a read-triggered memoization-aware update
    /// (§IV-C1).
    ReadTriggeredReencrypt,
}

/// A memory request generated as a side effect of metadata maintenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SideRequest {
    /// Physical byte address.
    pub addr: u64,
    /// Write (`true`) or read.
    pub is_write: bool,
    /// Why the request exists.
    pub kind: SideKind,
}

/// One level of the verification chain that had to be fetched from memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChainFetch {
    /// The in-memory metadata level (0 = counter blocks).
    pub level: usize,
    /// The node's physical byte address.
    pub addr: u64,
    /// Whether the OTP needed to *verify* this node after it arrives can
    /// come from a memoization table (the node's protecting counter value
    /// hit the level-above table) instead of a fresh AES.
    pub verify_memo_hit: bool,
}

/// Most in-memory metadata levels one chain walk can fetch: a 64-ary tree
/// (the narrowest the simulator builds) over all 2^58 blocks of a 64-bit
/// address space has nine.
pub const MAX_CHAIN_LEVELS: usize = 9;

/// The chain levels one request fetched, innermost (L0) first, held inline
/// so that a request allocates nothing. Dereferences to a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChainFetches {
    fetches: [ChainFetch; MAX_CHAIN_LEVELS],
    len: usize,
}

impl ChainFetches {
    /// Appends `f`; a walk fetches at most `depth()` levels, which
    /// `MetaEngine::new` checks against `MAX_CHAIN_LEVELS`.
    fn push(&mut self, f: ChainFetch) {
        self.fetches[self.len] = f;
        self.len += 1;
    }
}

impl std::ops::Deref for ChainFetches {
    type Target = [ChainFetch];

    fn deref(&self) -> &[ChainFetch] {
        &self.fetches[..self.len]
    }
}

/// What servicing a data read required. Its side traffic is
/// [`MetaEngine::side`] until the next request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReadOutcome {
    /// Metadata levels fetched from memory, innermost (L0) first. Empty
    /// when the L0 counter block hit in the counter cache.
    pub fetches: ChainFetches,
    /// The level that terminated the walk with a counter-cache hit;
    /// `None` means the walk reached the on-chip root.
    pub cache_hit_level: Option<usize>,
    /// The data block's counter value (after any read-triggered update).
    pub counter_value: u64,
    /// RMCC: the data block's counter value hit the L0 memoization table,
    /// so the data OTP needs only a lookup + carry-less multiply.
    pub l0_memo_hit: bool,
}

impl ReadOutcome {
    /// Whether the L0 counter missed the counter cache (the paper's
    /// "counter miss" event, Figure 3).
    pub fn counter_missed(&self) -> bool {
        self.fetches.iter().any(|f| f.level == 0)
    }
}

/// What servicing a dirty-data writeback required. Its side traffic is
/// [`MetaEngine::side`] until the next request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WriteOutcome {
    /// Metadata levels fetched (the counter block must be resident to
    /// update it).
    pub fetches: ChainFetches,
    /// The counter value the block was encrypted under.
    pub counter_value: u64,
    /// Whether the update releveled the whole counter block.
    pub releveled: bool,
}

/// Per-level memoization lookup tallies, split by counter-cache outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoTally {
    /// Group hits on counter-cache misses.
    pub miss_group_hits: u64,
    /// MRU hits on counter-cache misses.
    pub miss_mru_hits: u64,
    /// Table misses on counter-cache misses.
    pub miss_misses: u64,
    /// Group hits across all lookups (cache hit or miss) — Figure 19's
    /// definition.
    pub all_group_hits: u64,
    /// MRU hits across all lookups.
    pub all_mru_hits: u64,
    /// Table misses across all lookups.
    pub all_misses: u64,
}

impl MemoTally {
    fn record(&mut self, result: LookupResult, counter_missed: bool) {
        match result {
            LookupResult::GroupHit => self.all_group_hits += 1,
            LookupResult::MruHit => self.all_mru_hits += 1,
            LookupResult::Miss => self.all_misses += 1,
        }
        if counter_missed {
            match result {
                LookupResult::GroupHit => self.miss_group_hits += 1,
                LookupResult::MruHit => self.miss_mru_hits += 1,
                LookupResult::Miss => self.miss_misses += 1,
            }
        }
    }

    /// Hit rate over all lookups (Fig. 19's definition).
    pub fn all_hit_rate(&self) -> f64 {
        let n = self.all_group_hits + self.all_mru_hits + self.all_misses;
        if n == 0 {
            0.0
        } else {
            (self.all_group_hits + self.all_mru_hits) as f64 / n as f64
        }
    }
}

/// Aggregate functional statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MetaStats {
    /// Data-read requests (LLC misses).
    pub data_reads: u64,
    /// Data writeback requests.
    pub data_writes: u64,
    /// LLC misses whose L0 counter missed the counter cache (Fig. 3).
    pub counter_misses: u64,
    /// Metadata blocks fetched from memory.
    pub counter_fetches: u64,
    /// Dirty metadata writebacks.
    pub counter_writebacks: u64,
    /// Data-block requests caused by L0 relevels.
    pub overflow_l0_requests: u64,
    /// Metadata requests caused by L1+ relevels.
    pub overflow_hi_requests: u64,
    /// L0 relevel events.
    pub relevels_l0: u64,
    /// L1+ relevel events.
    pub relevels_hi: u64,
    /// Read-triggered re-encryption writes (RMCC).
    pub read_triggered_writes: u64,
    /// Requests charged to RMCC budgets (jump-induced overflow traffic +
    /// read-triggered updates).
    pub rmcc_charged_requests: u64,
    /// L0-value memoization lookups.
    pub memo_l0: MemoTally,
    /// L1-value memoization lookups (on L0 fetch verification).
    pub memo_l1: MemoTally,
    /// Counter misses whose decryption/verification was fully accelerated:
    /// L0 value memoized AND the L1 requirement satisfied (cache hit or
    /// memoized) — the paper's 92% metric.
    pub accelerated_counter_misses: u64,
    /// Every memory request the MC issued (data + metadata + overflow).
    pub total_requests: u64,
    /// Writeback counter updates refused because the counter would pass
    /// the 56-bit counter space; the counter stayed where it was.
    pub saturated_updates: u64,
}

impl MetaStats {
    /// Fraction of LLC misses that suffered a counter-cache miss (Fig. 3).
    pub fn counter_miss_rate(&self) -> f64 {
        if self.data_reads == 0 {
            0.0
        } else {
            self.counter_misses as f64 / self.data_reads as f64
        }
    }

    /// Fraction of counter misses that were accelerated (the 92% result).
    pub fn accelerated_rate(&self) -> f64 {
        if self.counter_misses == 0 {
            0.0
        } else {
            self.accelerated_counter_misses as f64 / self.counter_misses as f64
        }
    }
}

/// Typed handles into the engine's metric registry, resolved once at
/// construction so epoch snapshots are plain indexed stores (no name
/// lookups on any path). Registration order in [`TeleIds::register`] *is*
/// the JSONL column order — append new metrics at the end of their
/// section, or golden exports change.
struct TeleIds {
    // Engine traffic, mirrored from `MetaStats` at each epoch boundary.
    data_reads: CounterId,
    data_writes: CounterId,
    counter_misses: CounterId,
    counter_fetches: CounterId,
    counter_writebacks: CounterId,
    relevels_l0: CounterId,
    relevels_hi: CounterId,
    read_triggered_writes: CounterId,
    total_requests: CounterId,
    // Counter cache.
    cache_hits: CounterId,
    cache_misses: CounterId,
    // L0 memoization table.
    table_group_hits: CounterId,
    table_mru_hits: CounterId,
    table_misses: CounterId,
    table_insertions: CounterId,
    table_evictions: CounterId,
    table_shadow_promotions: CounterId,
    table_mru_harvests: CounterId,
    // Static crypto-invocation model.
    aes_paid: CounterId,
    aes_saved: CounterId,
    clmul_ops: CounterId,
    mac_verifies: CounterId,
    // Budget / Observed-System-Max (level 0).
    budget_spent_total: CounterId,
    osm: CounterId,
    // Point-sampled gauges.
    cache_hit_rate: GaugeId,
    table_hit_rate: GaugeId,
    table_hit_rate_epoch: GaugeId,
    conformance_ratio: GaugeId,
    budget_spent_epoch: GaugeId,
    budget_carry_over: GaugeId,
    budget_available: GaugeId,
    aes_saved_fraction: GaugeId,
    // Histograms.
    chain_depth: HistogramId,
}

impl TeleIds {
    fn register(reg: &mut MetricsRegistry) -> Self {
        TeleIds {
            data_reads: reg.counter("data_reads"),
            data_writes: reg.counter("data_writes"),
            counter_misses: reg.counter("counter_misses"),
            counter_fetches: reg.counter("counter_fetches"),
            counter_writebacks: reg.counter("counter_writebacks"),
            relevels_l0: reg.counter("relevels_l0"),
            relevels_hi: reg.counter("relevels_hi"),
            read_triggered_writes: reg.counter("read_triggered_writes"),
            total_requests: reg.counter("total_requests"),
            cache_hits: reg.counter("cache_hits"),
            cache_misses: reg.counter("cache_misses"),
            table_group_hits: reg.counter("table_group_hits"),
            table_mru_hits: reg.counter("table_mru_hits"),
            table_misses: reg.counter("table_misses"),
            table_insertions: reg.counter("table_insertions"),
            table_evictions: reg.counter("table_evictions"),
            table_shadow_promotions: reg.counter("table_shadow_promotions"),
            table_mru_harvests: reg.counter("table_mru_harvests"),
            aes_paid: reg.counter("aes_paid"),
            aes_saved: reg.counter("aes_saved"),
            clmul_ops: reg.counter("clmul_ops"),
            mac_verifies: reg.counter("mac_verifies"),
            budget_spent_total: reg.counter("budget_spent_total"),
            osm: reg.counter("osm"),
            cache_hit_rate: reg.gauge("cache_hit_rate"),
            table_hit_rate: reg.gauge("table_hit_rate"),
            table_hit_rate_epoch: reg.gauge("table_hit_rate_epoch"),
            conformance_ratio: reg.gauge("conformance_ratio"),
            budget_spent_epoch: reg.gauge("budget_spent_epoch"),
            budget_carry_over: reg.gauge("budget_carry_over"),
            budget_available: reg.gauge("budget_available"),
            aes_saved_fraction: reg.gauge("aes_saved_fraction"),
            chain_depth: reg.histogram("chain_depth", &[0, 1, 2, 3, 4]),
        }
    }
}

/// The metadata engine.
pub struct MetaEngine {
    scheme: Scheme,
    meta: Option<MetadataState>,
    rmcc: Option<Rmcc>,
    counter_cache: SetAssocCache,
    /// Side traffic of the latest request (dirty evictions, overflow
    /// re-encryptions, read-triggered re-encryptions), reused across
    /// requests.
    side: Vec<SideRequest>,
    /// Dirty counter-cache victims awaiting write-back within one request,
    /// reused across requests.
    victims: VecDeque<u64>,
    stats: MetaStats,
    /// Static-model crypto tally; only accumulates while telemetry is on.
    crypto: CryptoStats,
    /// Full pad cost of one block under this scheme's pipeline.
    pad_full: CryptoCost,
    /// Share of `pad_full` a memoization hit skips (zero for non-RMCC).
    pad_memo_share: CryptoCost,
    telemetry: Telemetry,
    tele: Option<TeleIds>,
    /// Snapshot cadence in memory requests (`RmccConfig::epoch_accesses`);
    /// ticks in lockstep with the RMCC budgets' own epoch counters.
    epoch_len: u64,
    epoch_progress: u64,
    accesses_seen: u64,
    epochs_done: u64,
    prev_table_hits: u64,
    prev_table_lookups: u64,
}

impl std::fmt::Debug for MetaEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetaEngine")
            .field("scheme", &self.scheme)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl MetaEngine {
    /// Builds the engine for `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        let meta = cfg
            .scheme
            .counter_org()
            .map(|org| MetadataState::new(org, cfg.data_bytes, cfg.counter_init));
        if let Some(m) = meta.as_ref() {
            assert!(
                m.layout().depth() <= MAX_CHAIN_LEVELS,
                "metadata tree deeper than {MAX_CHAIN_LEVELS} levels"
            );
        }
        let rmcc = cfg.scheme.uses_rmcc().then(|| {
            let mut r = Rmcc::new(cfg.rmcc);
            if matches!(
                cfg.counter_init,
                rmcc_secmem::tree::InitPolicy::Randomized { .. }
            ) {
                // Measurement starts from the §V write-storm's converged
                // steady state: the tables hold the ladder the storm's
                // memoization-aware updates steered counters onto (see
                // `canonical_group_starts`).
                for start in rmcc_secmem::tree::canonical_group_starts() {
                    for level in 0..DEFAULT_LEVELS {
                        r.seed_group(level, start);
                    }
                }
            }
            r
        });
        let (telemetry, tele) = if cfg.telemetry {
            let mut reg = MetricsRegistry::new();
            let ids = TeleIds::register(&mut reg);
            (Telemetry::on(reg), Some(ids))
        } else {
            (Telemetry::off(), None)
        };
        let (pad_full, pad_memo_share) = match cfg.scheme {
            Scheme::NonSecure => (CryptoCost::default(), CryptoCost::default()),
            Scheme::Sc64 | Scheme::Morphable => (CryptoCost::sgx_block(), CryptoCost::default()),
            Scheme::Rmcc => (CryptoCost::rmcc_block(), CryptoCost::rmcc_counter_share()),
        };
        MetaEngine {
            scheme: cfg.scheme,
            meta,
            rmcc,
            counter_cache: SetAssocCache::new(
                cfg.counter_cache_lines().max(cfg.counter_cache_ways),
                cfg.counter_cache_ways,
            ),
            side: Vec::new(),
            victims: VecDeque::new(),
            stats: MetaStats::default(),
            crypto: CryptoStats::default(),
            pad_full,
            pad_memo_share,
            telemetry,
            tele,
            epoch_len: cfg.rmcc.epoch_accesses.max(1),
            epoch_progress: 0,
            accesses_seen: 0,
            epochs_done: 0,
            prev_table_hits: 0,
            prev_table_lookups: 0,
        }
    }

    /// Functional statistics so far.
    pub fn stats(&self) -> &MetaStats {
        &self.stats
    }

    /// The RMCC engine, when the scheme uses it.
    pub fn rmcc(&self) -> Option<&Rmcc> {
        self.rmcc.as_ref()
    }

    /// Seeds a memoized group directly (warm-started experiments / tests).
    /// No-op for schemes without RMCC.
    pub fn seed_rmcc_group(&mut self, level: usize, start: u64) {
        if let Some(r) = self.rmcc.as_mut() {
            r.seed_group(level, start);
        }
    }

    /// The counter state, when the scheme is secure.
    pub fn metadata(&mut self) -> Option<&mut MetadataState> {
        self.meta.as_mut()
    }

    /// Side traffic of the latest [`MetaEngine::on_read`] or
    /// [`MetaEngine::on_writeback`], in issue order.
    pub fn side(&self) -> &[SideRequest] {
        &self.side
    }

    /// Counter-cache statistics.
    pub fn counter_cache_stats(&self) -> rmcc_cache::set_assoc::CacheStats {
        self.counter_cache.stats()
    }

    fn tick(&mut self, requests: u64) {
        self.stats.total_requests += requests;
        if self.telemetry.is_on() {
            for _ in 0..requests {
                self.accesses_seen += 1;
                self.epoch_progress += 1;
                if self.epoch_progress >= self.epoch_len {
                    // Snapshot *before* the boundary access reaches the
                    // RMCC budgets: `epoch_spent` / `carry_over` still
                    // describe the epoch that just finished, and the table
                    // is in the state that served it (pre-reselection).
                    self.epoch_progress = 0;
                    self.snapshot_epoch();
                }
                if let Some(r) = self.rmcc.as_mut() {
                    r.on_memory_access();
                }
            }
        } else if let Some(r) = self.rmcc.as_mut() {
            for _ in 0..requests {
                r.on_memory_access();
            }
        }
    }

    /// Charges the static crypto model for one data-block pad computation
    /// (`block_memo_hit` = its counter-only AES came from the memoization
    /// table) plus one verify-OTP per fetched chain node. `verify_data`
    /// adds the data block's own MAC check (read path).
    fn note_op_crypto(&mut self, block_memo_hit: bool, fetches: &[ChainFetch], verify_data: bool) {
        if self.scheme == Scheme::NonSecure {
            return;
        }
        if block_memo_hit {
            self.crypto.pay_with_hit(self.pad_full, self.pad_memo_share);
        } else {
            self.crypto.pay(self.pad_full);
        }
        if verify_data {
            self.crypto.verify_mac();
        }
        for f in fetches {
            if f.verify_memo_hit {
                self.crypto.pay_with_hit(self.pad_full, self.pad_memo_share);
            } else {
                self.crypto.pay(self.pad_full);
            }
            self.crypto.verify_mac();
        }
    }

    /// Samples every metric into the registry and appends an epoch snapshot.
    /// Counters are mirrored absolutely from the engine's own cumulative
    /// tallies (so the hot path pays nothing between boundaries); gauges are
    /// point-in-time.
    fn snapshot_epoch(&mut self) {
        if self.tele.is_none() {
            return;
        }
        let stats = self.stats;
        let crypto = self.crypto;
        let cache = self.counter_cache.stats();
        let (table, osm, budget) = match self.rmcc.as_ref() {
            Some(r) => (
                r.table_stats(0),
                r.observed_system_max(),
                Some(*r.budget(0)),
            ),
            None => (TableStats::default(), 0, None),
        };
        // Conformance: fraction of live (touched) data counters whose value
        // the table can currently serve.
        let conformance = match (self.meta.as_ref(), self.rmcc.as_ref()) {
            (Some(m), Some(r)) => {
                let mut total = 0u64;
                let mut covered = 0u64;
                for v in m.data_counter_values() {
                    total += 1;
                    covered += u64::from(r.table(0).probe(v));
                }
                if total == 0 {
                    0.0
                } else {
                    covered as f64 / total as f64
                }
            }
            _ => 0.0,
        };
        let hits = table.group_hits + table.mru_hits;
        let lookups = table.lookups();
        let ep_hits = hits.saturating_sub(self.prev_table_hits);
        let ep_lookups = lookups.saturating_sub(self.prev_table_lookups);
        self.prev_table_hits = hits;
        self.prev_table_lookups = lookups;
        let epoch_hit_rate = if ep_lookups == 0 {
            0.0
        } else {
            ep_hits as f64 / ep_lookups as f64
        };

        self.epochs_done += 1;
        let (epoch, accesses) = (self.epochs_done, self.accesses_seen);
        let Some(ids) = self.tele.as_ref() else {
            return;
        };
        let Some(active) = self.telemetry.active_mut() else {
            return;
        };
        let reg = &mut active.registry;
        reg.set_counter(ids.data_reads, stats.data_reads);
        reg.set_counter(ids.data_writes, stats.data_writes);
        reg.set_counter(ids.counter_misses, stats.counter_misses);
        reg.set_counter(ids.counter_fetches, stats.counter_fetches);
        reg.set_counter(ids.counter_writebacks, stats.counter_writebacks);
        reg.set_counter(ids.relevels_l0, stats.relevels_l0);
        reg.set_counter(ids.relevels_hi, stats.relevels_hi);
        reg.set_counter(ids.read_triggered_writes, stats.read_triggered_writes);
        reg.set_counter(ids.total_requests, stats.total_requests);
        reg.set_counter(ids.cache_hits, cache.hits);
        reg.set_counter(ids.cache_misses, cache.misses);
        reg.set_counter(ids.table_group_hits, table.group_hits);
        reg.set_counter(ids.table_mru_hits, table.mru_hits);
        reg.set_counter(ids.table_misses, table.misses);
        reg.set_counter(ids.table_insertions, table.insertions);
        reg.set_counter(ids.table_evictions, table.evictions);
        reg.set_counter(ids.table_shadow_promotions, table.shadow_promotions);
        reg.set_counter(ids.table_mru_harvests, table.mru_harvests);
        reg.set_counter(ids.aes_paid, crypto.aes_paid);
        reg.set_counter(ids.aes_saved, crypto.aes_saved);
        reg.set_counter(ids.clmul_ops, crypto.clmul_ops);
        reg.set_counter(ids.mac_verifies, crypto.mac_verifies);
        reg.set_counter(
            ids.budget_spent_total,
            budget.map_or(0, |b| b.total_spent()),
        );
        reg.set_counter(ids.osm, osm);
        reg.set_gauge(ids.cache_hit_rate, cache.hit_rate());
        reg.set_gauge(ids.table_hit_rate, table.hit_rate());
        reg.set_gauge(ids.table_hit_rate_epoch, epoch_hit_rate);
        reg.set_gauge(ids.conformance_ratio, conformance);
        reg.set_gauge(
            ids.budget_spent_epoch,
            budget.map_or(0.0, |b| b.epoch_spent() as f64),
        );
        reg.set_gauge(
            ids.budget_carry_over,
            budget.map_or(0.0, |b| b.carry_over()),
        );
        reg.set_gauge(ids.budget_available, budget.map_or(0.0, |b| b.available()));
        reg.set_gauge(ids.aes_saved_fraction, crypto.aes_saved_fraction());
        active.snapshot(epoch, accesses);
    }

    /// Flushes a trailing partial epoch (if any requests arrived since the
    /// last boundary) and renders the recorded series as JSONL. Returns
    /// `None` when the engine was built without telemetry. Calling it again
    /// without further traffic re-renders the same series.
    pub fn finish_telemetry(&mut self) -> Option<String> {
        if self.telemetry.is_on() && self.epoch_progress > 0 {
            self.epoch_progress = 0;
            self.snapshot_epoch();
        }
        self.telemetry.to_jsonl()
    }

    /// The engine's telemetry handle (the `Off` variant unless
    /// [`SystemConfig::telemetry`] enabled it).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The static-model crypto tally. Only accumulates while telemetry is
    /// on; zero otherwise.
    pub fn crypto_stats(&self) -> CryptoStats {
        self.crypto
    }

    /// Walks the counter cache from level 0 upward until a hit (or the
    /// root), filling missed levels into `fetches` and adding side traffic
    /// for dirty victims. `dirty_l0` marks the L0 access as a write
    /// (writeback flow).
    fn resolve_chain(
        &mut self,
        l0_index: u64,
        dirty_l0: bool,
        fetches: &mut ChainFetches,
    ) -> Option<usize> {
        let meta = self.meta.as_mut().expect("secure scheme");
        let depth = meta.layout().depth();
        let mut hit_level = None;
        let mut level = 0;
        let mut index = l0_index;
        loop {
            if level >= depth {
                break; // reached the on-chip root
            }
            let addr = meta.layout().node_addr(level, index);
            let outcome = self.counter_cache.access(addr >> 6, dirty_l0 && level == 0);
            match outcome {
                rmcc_cache::set_assoc::AccessOutcome::Hit => {
                    hit_level = Some(level);
                    break;
                }
                rmcc_cache::set_assoc::AccessOutcome::Miss { evicted } => {
                    if let Some(e) = evicted.filter(|e| e.dirty) {
                        self.victims.push_back(e.addr << 6);
                    }
                    // Verification of this fetched node needs an OTP from
                    // its protecting counter; check the level-above table.
                    let protecting_value = meta.node_counter(level, index);
                    let verify_memo_hit = match self.rmcc.as_mut() {
                        Some(r) if r.covers_level(level + 1) => {
                            let result = r.lookup(level + 1, protecting_value);
                            if level == 0 {
                                self.stats.memo_l1.record(result, true);
                            }
                            result.is_hit()
                        }
                        _ => false,
                    };
                    fetches.push(ChainFetch {
                        level,
                        addr,
                        verify_memo_hit,
                    });
                    index = match meta.layout().parent_index(level, index) {
                        Some(p) => p,
                        None => break, // parent is the root
                    };
                    level += 1;
                }
            }
        }
        // Handle dirty victims (and any cascade they cause).
        while let Some(victim_addr) = self.victims.pop_front() {
            self.write_back_node(victim_addr);
        }
        hit_level
    }

    /// Raises the counter in `slot` of the counter block at `level`/`index`
    /// for a writeback: RMCC's memoization-aware update where a table covers
    /// the level, else the baseline `+1` by the block's one advance rule.
    /// Counts the budget it charged, and a refusal at the end of the counter
    /// space, which leaves the counter unchanged.
    fn bump_counter(&mut self, level: usize, index: u64, slot: usize) -> UpdateOutcome {
        let meta = self.meta.as_mut().expect("secure scheme");
        let rmcc = self.rmcc.as_mut().filter(|r| r.covers_level(level));
        let update = meta.with_block_mut(level, index, |cb| {
            let update = match rmcc {
                Some(r) => r.update_counter(level, cb, slot, false).ok(),
                // The baseline touches no `Rmcc` state, so updates at levels
                // without a table never count toward its DoS guard.
                None => cb
                    .advance(slot, cb.value(slot) + 1, |min| min)
                    .ok()
                    .map(|before| UpdateOutcome {
                        new_value: cb.value(slot),
                        releveled: before.is_some(),
                        ..UpdateOutcome::default()
                    }),
            };
            // A writeback is never declined: no update means saturation.
            update.ok_or(cb.value(slot))
        });
        self.stats.saturated_updates += u64::from(update.is_err());
        let update = update.unwrap_or_else(|counter| UpdateOutcome {
            new_value: counter,
            ..UpdateOutcome::default()
        });
        self.stats.rmcc_charged_requests += update.charged_requests;
        update
    }

    /// A dirty metadata block leaves the counter cache: write it to memory
    /// and bump its protecting counter, releveling ancestors as needed.
    fn write_back_node(&mut self, addr: u64) {
        let meta = self.meta.as_mut().expect("secure scheme");
        let Some((level, index)) = meta.layout().locate(addr) else {
            return;
        };
        self.side.push(SideRequest {
            addr,
            is_write: true,
            kind: SideKind::CounterWriteback,
        });
        self.stats.counter_writebacks += 1;

        let (parent_level, parent_index) = meta
            .layout()
            .parent_loc(level, index)
            .expect("writeback addressed a node outside the layout");
        let slot = meta.layout().parent_slot(index);
        let arity = meta.org().tree_arity() as u64;
        let depth = meta.layout().depth();

        // Bump the protecting counter — memoization-aware when a table
        // covers it (the L1 table covers counters of L0 blocks).
        let releveled = self
            .bump_counter(parent_level, parent_index, slot)
            .releveled;
        let meta = self.meta.as_ref().expect("secure scheme");

        if releveled {
            // Every child of the parent changed its protecting counter:
            // re-MAC them all (read + write each).
            self.stats.relevels_hi += 1;
            self.stats.overflow_hi_requests += 2 * arity;
            for child_slot in 0..arity {
                let child = parent_index * arity + child_slot;
                let child_addr = meta
                    .layout()
                    .node_addr(level, child.min(meta.layout().level_count(level) - 1));
                push_reencrypt(&mut self.side, child_addr, SideKind::OverflowHigher);
            }
        }

        // The parent's state changed: it must become dirty in the counter
        // cache (unless the parent is the on-chip root).
        if parent_level < depth {
            let parent_addr = meta.layout().node_addr(parent_level, parent_index);
            if let rmcc_cache::set_assoc::AccessOutcome::Miss { evicted: Some(e) } =
                self.counter_cache.access(parent_addr >> 6, true)
            {
                if e.dirty {
                    self.victims.push_back(e.addr << 6);
                }
            }
        }
    }

    /// Services a data-block read (an LLC miss) at physical address `paddr`.
    pub fn on_read(&mut self, paddr: u64) -> ReadOutcome {
        let mut out = ReadOutcome::default();
        self.side.clear();
        self.stats.data_reads += 1;
        if self.scheme == Scheme::NonSecure {
            self.tick(1);
            return out;
        }
        let data_block = paddr / BLOCK_BYTES;
        let (l0_index, slot) = {
            let meta = self.meta.as_mut().expect("secure scheme");
            (
                meta.layout().l0_index(data_block),
                meta.layout().l0_slot(data_block),
            )
        };
        out.cache_hit_level = self.resolve_chain(l0_index, false, &mut out.fetches);
        let counter_missed = out.counter_missed();
        if counter_missed {
            self.stats.counter_misses += 1;
        }

        let meta = self.meta.as_mut().expect("secure scheme");
        out.counter_value = meta.block(0, l0_index).value(slot);
        let system_max = meta.max_observed();

        if let Some(r) = self.rmcc.as_mut() {
            r.note_system_max(system_max);
            let result = r.lookup(0, out.counter_value);
            self.stats.memo_l0.record(result, counter_missed);
            out.l0_memo_hit = result.is_hit();

            if counter_missed {
                // The 92% metric: L0 memoized and the L1 side satisfied.
                let l1_ok = match out.fetches.iter().find(|f| f.level == 0) {
                    Some(f0) => {
                        let l1_fetched = out.fetches.iter().any(|f| f.level == 1);
                        !l1_fetched || f0.verify_memo_hit
                    }
                    None => true,
                };
                if out.l0_memo_hit && l1_ok {
                    self.stats.accelerated_counter_misses += 1;
                }

                // Read-triggered memoization-aware update (§IV-C1).
                if !out.l0_memo_hit {
                    let meta = self.meta.as_mut().expect("secure scheme");
                    let l0_line = meta.layout().node_addr(0, l0_index) >> 6;
                    let updated =
                        meta.with_block_mut(0, l0_index, |cb| r.update_counter(0, cb, slot, true));
                    if let Ok(u) = updated {
                        self.stats.read_triggered_writes += 1;
                        self.stats.rmcc_charged_requests += u.charged_requests;
                        out.counter_value = u.new_value;
                        self.side.push(SideRequest {
                            addr: paddr,
                            is_write: true,
                            kind: SideKind::ReadTriggeredReencrypt,
                        });
                        // The counter block is now dirty in the cache.
                        self.counter_cache.access(l0_line, true);
                    }
                }
            }
        }

        if self.telemetry.is_on() {
            self.note_op_crypto(out.l0_memo_hit, &out.fetches, true);
            let depth = out.fetches.len() as u64;
            if let (Some(active), Some(ids)) = (self.telemetry.active_mut(), self.tele.as_ref()) {
                active.registry.observe(ids.chain_depth, depth);
            }
        }
        self.stats.counter_fetches += out.fetches.len() as u64;
        let requests = 1 + out.fetches.len() as u64 + self.side.len() as u64;
        self.tick(requests);
        out
    }

    /// Services a dirty-data writeback at physical address `paddr`.
    pub fn on_writeback(&mut self, paddr: u64) -> WriteOutcome {
        let mut out = WriteOutcome::default();
        self.side.clear();
        self.stats.data_writes += 1;
        if self.scheme == Scheme::NonSecure {
            self.tick(1);
            return out;
        }
        let data_block = paddr / BLOCK_BYTES;
        let (l0_index, slot, coverage) = {
            let meta = self.meta.as_mut().expect("secure scheme");
            (
                meta.layout().l0_index(data_block),
                meta.layout().l0_slot(data_block),
                meta.org().coverage() as u64,
            )
        };
        self.resolve_chain(l0_index, true, &mut out.fetches);

        // Counter update.
        if let (Some(r), Some(meta)) = (self.rmcc.as_mut(), self.meta.as_ref()) {
            r.note_system_max(meta.max_observed());
        }
        let update = self.bump_counter(0, l0_index, slot);
        out.counter_value = update.new_value;
        out.releveled = update.releveled;

        if update.releveled {
            // Re-encrypt every covered data block: read + write each.
            self.stats.relevels_l0 += 1;
            self.stats.overflow_l0_requests += 2 * coverage;
            for block in l0_index * coverage..(l0_index + 1) * coverage {
                push_reencrypt(&mut self.side, block * BLOCK_BYTES, SideKind::OverflowL0);
            }
        }

        if self.telemetry.is_on() {
            // Writebacks re-encrypt under the new counter value; the
            // counter-only AES is memoized when the update conformed.
            self.note_op_crypto(update.landed_on_memoized, &out.fetches, false);
        }
        self.stats.counter_fetches += out.fetches.len() as u64;
        let requests = 1 + out.fetches.len() as u64 + self.side.len() as u64;
        self.tick(requests);
        out
    }
}

/// A relevel's re-encryption (or re-MAC) of `addr`: a read, then a write.
fn push_reencrypt(side: &mut Vec<SideRequest>, addr: u64, kind: SideKind) {
    for is_write in [false, true] {
        side.push(SideRequest {
            addr,
            is_write,
            kind,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmcc_secmem::tree::InitPolicy;
    use rmcc_telemetry::JsonValue;

    fn cfg(scheme: Scheme) -> SystemConfig {
        let mut c = SystemConfig::lifetime(scheme);
        c.counter_init = InitPolicy::Zero;
        c.data_bytes = 1 << 30;
        c
    }

    #[test]
    fn non_secure_has_no_metadata_traffic() {
        let mut e = MetaEngine::new(&cfg(Scheme::NonSecure));
        let out = e.on_read(0x1000);
        assert!(out.fetches.is_empty());
        assert_eq!(e.stats().total_requests, 1);
        assert_eq!(e.stats().counter_misses, 0);
    }

    #[test]
    fn first_read_walks_to_root_then_hits() {
        let mut e = MetaEngine::new(&cfg(Scheme::Morphable));
        let out = e.on_read(0x1000);
        // Cold caches: every in-memory level fetched.
        assert!(!out.fetches.is_empty());
        assert!(out.counter_missed());
        assert_eq!(out.cache_hit_level, None);
        // Second read of the same region: L0 now cached.
        let out2 = e.on_read(0x1040);
        assert!(out2.fetches.is_empty());
        assert_eq!(out2.cache_hit_level, Some(0));
        assert_eq!(e.stats().counter_misses, 1);
        assert_eq!(e.stats().data_reads, 2);
    }

    #[test]
    fn distant_blocks_share_higher_tree_levels() {
        let mut e = MetaEngine::new(&cfg(Scheme::Morphable));
        e.on_read(0);
        // A block in a different counter block but same L1 subtree: only L0
        // should miss.
        let out = e.on_read(128 * 64);
        assert_eq!(out.fetches.len(), 1);
        assert_eq!(out.fetches[0].level, 0);
        assert_eq!(out.cache_hit_level, Some(1));
    }

    #[test]
    fn writeback_increments_counter() {
        let mut e = MetaEngine::new(&cfg(Scheme::Morphable));
        let w1 = e.on_writeback(0x2000);
        assert_eq!(w1.counter_value, 1);
        let w2 = e.on_writeback(0x2000);
        assert_eq!(w2.counter_value, 2);
        assert!(!w2.releveled);
    }

    #[test]
    fn writebacks_past_counter_max_are_counted_not_applied() {
        use rmcc_crypto::otp::COUNTER_MAX;
        let block = 0x2000 / BLOCK_BYTES;
        for scheme in [Scheme::Sc64, Scheme::Morphable, Scheme::Rmcc] {
            let mut e = MetaEngine::new(&cfg(scheme));
            // A table group at the top of the counter space: RMCC's first
            // writeback conforms onto COUNTER_MAX itself.
            e.seed_rmcc_group(0, COUNTER_MAX - 3);
            let meta = e.metadata().expect("secure scheme");
            let index = meta.layout().l0_index(block);
            meta.with_block_mut(0, index, |cb| cb.relevel(COUNTER_MAX - 1))
                .expect("below the bound");
            let values: Vec<u64> = (0..4)
                .map(|_| e.on_writeback(block * BLOCK_BYTES).counter_value)
                .collect();
            assert_eq!(values, [COUNTER_MAX; 4], "{scheme:?}");
            let meta = e.metadata().expect("secure scheme");
            assert_eq!(meta.data_counter(block), COUNTER_MAX, "{scheme:?}");
            assert_eq!(e.stats().saturated_updates, 3, "{scheme:?}");
            assert_eq!(e.stats().relevels_l0, 0, "{scheme:?}");
        }
    }

    #[test]
    fn sc64_releveling_generates_overflow_traffic() {
        let mut e = MetaEngine::new(&cfg(Scheme::Sc64));
        for _ in 0..127 {
            let w = e.on_writeback(0x3000);
            assert!(!w.releveled);
        }
        let w = e.on_writeback(0x3000);
        assert!(w.releveled, "128th write overflows the 7-bit minor");
        let overflow_reqs = e
            .side()
            .iter()
            .filter(|s| s.kind == SideKind::OverflowL0)
            .count();
        assert_eq!(overflow_reqs, 2 * 64);
        assert_eq!(e.stats().relevels_l0, 1);
    }

    #[test]
    fn rmcc_conforms_writebacks_and_hits_on_read() {
        // Bootstrap: with zero-init counters and nothing memoized yet,
        // every first writeback lands on the baseline value 1.
        let mut e = MetaEngine::new(&cfg(Scheme::Rmcc));
        for i in 0..200u64 {
            let w = e.on_writeback(i * 64);
            assert_eq!(
                w.counter_value, 1,
                "unmemoized writeback increments from zero"
            );
        }
        assert_eq!(
            e.stats().memo_l0.all_group_hits,
            0,
            "nothing memoized during bootstrap"
        );
        // A memoized group changes that: writes conform and reads hit.
        let mut e = MetaEngine::new(&cfg(Scheme::Rmcc));
        e.rmcc.as_mut().unwrap().seed_group(0, 5);
        let w = e.on_writeback(0x4000);
        assert_eq!(w.counter_value, 5, "write conforms to the memoized group");
        let r = e.on_read(0x4000);
        assert!(r.l0_memo_hit, "read of a conformed counter hits the table");
        assert_eq!(e.stats().memo_l0.all_group_hits, 1);
    }

    #[test]
    fn read_triggered_update_reencrypts() {
        let mut e = MetaEngine::new(&cfg(Scheme::Rmcc));
        e.rmcc.as_mut().unwrap().seed_group(0, 50);
        let r = e.on_read(0x8000);
        assert!(!r.l0_memo_hit, "value 0 is not memoized");
        assert_eq!(
            r.counter_value, 50,
            "read-triggered update conformed the counter"
        );
        assert!(e
            .side()
            .iter()
            .any(|s| s.kind == SideKind::ReadTriggeredReencrypt && s.is_write));
        assert_eq!(e.stats().read_triggered_writes, 1);
        // Next read hits.
        let r2 = e.on_read(0x8000);
        assert!(r2.l0_memo_hit);
    }

    #[test]
    fn dirty_counter_eviction_bumps_l1_and_writes_back() {
        let mut small = cfg(Scheme::Morphable);
        small.counter_cache_bytes = 4 * 64; // 4 lines → constant thrashing
        small.counter_cache_ways = 2;
        let mut e = MetaEngine::new(&small);
        // Dirty a counter block, then thrash the cache with distant reads.
        e.on_writeback(0);
        let mut saw_writeback = false;
        for i in 1..200u64 {
            e.on_read(i * 128 * 64 * 7);
            if e.side()
                .iter()
                .any(|s| s.kind == SideKind::CounterWriteback)
            {
                saw_writeback = true;
                break;
            }
        }
        assert!(saw_writeback, "dirty counter block never written back");
        assert!(e.stats().counter_writebacks > 0);
    }

    #[test]
    fn telemetry_snapshots_at_epoch_boundaries() {
        let mut c = cfg(Scheme::Rmcc);
        c.telemetry = true;
        c.rmcc.epoch_accesses = 64;
        let mut e = MetaEngine::new(&c);
        for i in 0..200u64 {
            e.on_writeback(i * 64);
            e.on_read(i * 64);
        }
        let jsonl = e.finish_telemetry().expect("telemetry on");
        let rows = rmcc_telemetry::parse_jsonl(&jsonl).expect("self-emitted JSONL parses");
        assert!(rows.len() >= 2, "several epochs elapsed");
        // Epoch ordinals count up from 1; accesses are cumulative and land
        // exactly on the boundary for all but a trailing partial epoch.
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.get("epoch").and_then(JsonValue::as_f64),
                Some((i + 1) as f64)
            );
        }
        let accesses = |i: usize| {
            rows[i]
                .get("accesses")
                .and_then(JsonValue::as_f64)
                .expect("accesses column")
        };
        assert_eq!(accesses(0), 64.0);
        assert_eq!(accesses(1), 128.0);
        // Counters are cumulative (non-decreasing) across epochs.
        for w in rows.windows(2) {
            let a = w[0].get("mac_verifies").and_then(JsonValue::as_f64);
            let b = w[1].get("mac_verifies").and_then(JsonValue::as_f64);
            assert!(a <= b, "cumulative counters never decrease");
        }
        let last = rows.last().expect("non-empty");
        let val = |k: &str| last.get(k).and_then(JsonValue::as_f64).unwrap_or(-1.0);
        assert!(val("data_reads") >= 200.0);
        assert!(val("aes_paid") > 0.0, "crypto model charged");
        assert!(val("mac_verifies") > 0.0);
        assert!(val("osm") >= 0.0, "osm column present");
        let conf = val("conformance_ratio");
        assert!((0.0..=1.0).contains(&conf), "conformance in [0,1]");
    }

    #[test]
    fn telemetry_off_is_inert() {
        let mut e = MetaEngine::new(&cfg(Scheme::Rmcc));
        e.on_writeback(0);
        assert!(!e.telemetry().is_on());
        assert!(e.finish_telemetry().is_none());
        assert_eq!(e.crypto_stats(), CryptoStats::default());
    }

    #[test]
    fn stats_rates() {
        let mut e = MetaEngine::new(&cfg(Scheme::Morphable));
        e.on_read(0);
        e.on_read(64);
        let s = e.stats();
        assert!((s.counter_miss_rate() - 0.5).abs() < 1e-12);
        assert_eq!(MetaStats::default().counter_miss_rate(), 0.0);
        assert_eq!(MetaStats::default().accelerated_rate(), 0.0);
    }
}
