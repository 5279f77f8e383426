//! Service-backed sustained-load dynamics: a serving-corpus traffic stream
//! driven through the sharded [`SecureMemoryService`] in batches, with
//! shard-labeled telemetry folded into one deterministic registry.
//!
//! This is [`crate::dynamics`]'s sibling for the concurrent stack: where
//! `run_dynamics` drives a single-owner [`crate::meta_engine::MetaEngine`],
//! `run_service` builds a sharded service whose shards each own a memo
//! table and budget ledger (`rmcc_core::shard`), routes a
//! [`rmcc_workloads::corpus`] scenario stream through the batched `submit`
//! API, and snapshots both global and per-shard counters into one
//! `MetricsRegistry` — shard order = registration order = export column
//! order, so the JSONL schema is stable.
//!
//! The traffic itself comes from the workload corpus: a
//! [`ServingScenario`] selects key-value serving, a phase-change stream, or
//! the adversarial-locality sweep, and [`ServingScenario::corpus_scenario`]
//! maps it onto the corpus generator. Every other parameter of the run
//! (shard count, seed, keyspace, batch shape, memo epoch and budget) is a
//! module constant. Because the generator is a plain [`TraceSource`], the
//! same run can be driven from a *recorded* trace instead via
//! [`run_service_from`] — replaying a file recorded with
//! [`rmcc_workloads::codec::TraceWriter`] produces byte-identical telemetry
//! and checksums to the live stream.
//!
//! Everything is a pure function of the [`ServingScenario`].

use rmcc_core::shard::{aggregate_stats, memo_policy, MemoHandle, ShardMemoConfig, ShardMemoStats};
use rmcc_secmem::service::{
    digest_results, Access, AccessResult, SecureMemoryService, ServiceConfig, SHARD_ORG,
};
use rmcc_telemetry::{CounterId, MetricsRegistry, Telemetry};
use rmcc_workloads::corpus::{
    splitmix64, AdversarialLocalityConfig, KvServingConfig, PhaseChangeConfig, Scenario,
    BLOCK_BYTES,
};
use rmcc_workloads::trace::{TraceEvent, TraceSink, TraceSource};

/// Shard count of the service every run builds.
const SHARDS: usize = 4;
/// Seed for the scenario's deterministic access-stream generator.
pub const SEED: u64 = 0x00D1_5EA5_ED00_0006;
/// Distinct tenants; tenant/key popularity is zipfian (octave-sampled), so
/// a handful of tenants carry most of the traffic.
const TENANTS: u64 = 64;
/// Keyed regions per tenant; each region is one counter-coverage group.
const REGIONS_PER_TENANT: u64 = 16;
/// Batches submitted per run.
const BATCHES: u64 = 24;
/// Accesses per batch.
const BATCH_SIZE: usize = 512;
/// Total events one run submits.
pub const EVENTS: u64 = BATCHES * BATCH_SIZE as u64;
/// Probability, in per-mille, that an access is a write.
const WRITE_PERMILLE: u32 = 600;
/// Events per tenant-churn epoch for the key-value scenario.
const CHURN_PERIOD: u64 = 4_096;
/// Protected-region capacity in bytes (covers every tenant region).
const DATA_BYTES: u64 = 1 << 28;
/// Telemetry epoch length, in batches.
const EPOCH_BATCHES: u64 = 6;
/// Per-shard memo/budget epoch length, in that shard's accesses.
const MEMO_EPOCH_ACCESSES: u64 = 512;
/// Per-shard overhead-traffic budget fraction.
const BUDGET_FRACTION: f64 = 0.25;
/// Each shard's memo table starts with one group at this value.
const LADDER_SEED: u64 = 4;

/// Which corpus generator drives a service run — a few thousand accesses
/// over a 4-shard service, sized for tests and CI smoke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingScenario {
    /// Multi-tenant key-value serving: zipfian tenant/key popularity with
    /// tenant churn.
    KvServing,
    /// A hot working set that relocates to a disjoint window every phase —
    /// the re-learning case for memoization.
    PhaseChange,
    /// A locality-hostile round-robin sweep sized to defeat the memo table.
    AdversarialLocality,
}

impl ServingScenario {
    /// Every scenario, in reporting order.
    pub const ALL: [ServingScenario; 3] = [
        ServingScenario::KvServing,
        ServingScenario::PhaseChange,
        ServingScenario::AdversarialLocality,
    ];

    /// The corpus generator this scenario selects, sized so each keyed
    /// region is exactly one counter-coverage group of the service the run
    /// builds.
    ///
    /// This is the run's live traffic: recording this scenario with
    /// [`rmcc_workloads::codec::TraceWriter`] and replaying the file through
    /// [`run_service_from`] reproduces [`run_service`] byte for byte.
    #[must_use]
    pub fn corpus_scenario(self) -> Scenario {
        let blocks_per_region = SHARD_ORG.coverage() as u64;
        let regions = TENANTS * REGIONS_PER_TENANT;
        match self {
            ServingScenario::KvServing => Scenario::KvServing(KvServingConfig {
                tenants: TENANTS,
                regions_per_tenant: REGIONS_PER_TENANT,
                blocks_per_region,
                hot_blocks_per_region: 8,
                events: EVENTS,
                write_permille: WRITE_PERMILLE,
                churn_period: CHURN_PERIOD,
                seed: SEED,
            }),
            ServingScenario::PhaseChange => Scenario::PhaseChange(PhaseChangeConfig {
                regions,
                blocks_per_region,
                hot_regions: (regions / 32).max(1),
                phase_len: (EVENTS / 6).max(1),
                events: EVENTS,
                write_permille: WRITE_PERMILLE,
                seed: SEED,
            }),
            ServingScenario::AdversarialLocality => {
                Scenario::AdversarialLocality(AdversarialLocalityConfig {
                    // Size the cycle past the per-shard memo tables so
                    // entries age out between revisits, but keep it inside
                    // the keyspace.
                    regions: regions.min(SHARDS as u64 * 192),
                    blocks_per_region,
                    burst: 2,
                    events: EVENTS,
                    write_permille: WRITE_PERMILLE,
                    seed: SEED,
                })
            }
        }
    }
}

/// What a service run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRunResult {
    /// Epoch-resolved telemetry (global + `shard{i}_*` columns), as JSONL.
    pub jsonl: String,
    /// Order-sensitive checksum over every batch's results.
    pub checksum: u64,
    /// Total accesses submitted.
    pub accesses: u64,
    /// Accesses routed to each shard, in shard order.
    pub shard_accesses: Vec<u64>,
    /// Service-wide memoization tallies, folded in shard order.
    pub aggregate: ShardMemoStats,
}

/// Maps one trace event onto a service access. The write fill byte is a
/// pure function of `(addr, seq)`, so a replayed trace produces exactly the
/// payloads the live stream produced without the fill having to be encoded.
#[must_use]
pub fn access_for_event(ev: &TraceEvent, seq: u64) -> Access {
    let block = ev.addr / BLOCK_BYTES;
    if ev.is_write {
        let fill = (splitmix64(ev.addr ^ seq) & 0xFF) as u8;
        Access::Write {
            block,
            data: [fill; 64],
        }
    } else {
        Access::Read { block }
    }
}

/// Per-shard telemetry handles, registered in shard order.
struct ShardIds {
    accesses: Vec<CounterId>,
    conformed: Vec<CounterId>,
    budget_spent: Vec<CounterId>,
    table_hits: Vec<CounterId>,
    fallbacks: Vec<CounterId>,
}

/// Global telemetry handles shared by every run.
struct GlobalIds {
    reads: CounterId,
    writes: CounterId,
    read_errors: CounterId,
    write_errors: CounterId,
    shard_faults: CounterId,
    conformed: CounterId,
    baseline: CounterId,
    budget: CounterId,
}

/// The push-based run driver: a [`TraceSink`] that folds events into
/// batches, submits each full batch, and mirrors the results into the
/// telemetry registry — so live generators and recorded traces drive the
/// identical accounting path.
struct ServiceDriver<'a> {
    service: &'a SecureMemoryService,
    handles: &'a [MemoHandle],
    tele: &'a mut Telemetry,
    ids: &'a ShardIds,
    global: GlobalIds,
    batch: Vec<Access>,
    seq: u64,
    batches_done: u64,
    epoch: u64,
    checksum: u64,
    accesses: u64,
    shard_accesses: Vec<u64>,
}

impl ServiceDriver<'_> {
    /// Submits the pending batch (if any) and folds its results into the
    /// checksum and telemetry. Epoch boundaries are counted in batches, so
    /// a trailing partial batch still resolves into the run's last epoch.
    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let results = self.service.submit(&self.batch);
        self.checksum = self.checksum.rotate_left(9) ^ digest_results(&results);
        self.accesses += results.len() as u64;
        self.batches_done += 1;
        if let Some(active) = self.tele.active_mut() {
            let reg = &mut active.registry;
            let snap = self.service.snapshot();
            for (access, result) in self.batch.iter().zip(results.iter()) {
                let shard = snap.shard_of(access.block());
                if let Some(n) = self.shard_accesses.get_mut(shard) {
                    *n += 1;
                }
                if let Some(&id) = self.ids.accesses.get(shard) {
                    reg.incr(id, 1);
                }
                match result {
                    AccessResult::Data(_) => reg.incr(self.global.reads, 1),
                    AccessResult::Written { .. } => reg.incr(self.global.writes, 1),
                    AccessResult::ReadFailed(_) => {
                        reg.incr(self.global.reads, 1);
                        reg.incr(self.global.read_errors, 1);
                    }
                    AccessResult::WriteFailed(_) => {
                        reg.incr(self.global.writes, 1);
                        reg.incr(self.global.write_errors, 1);
                    }
                    AccessResult::ShardFault { .. } => reg.incr(self.global.shard_faults, 1),
                }
            }
            // Mirror per-shard policy tallies absolutely (cumulative
            // counters, like MetaEngine's epoch snapshot).
            for (shard, handle) in self.handles.iter().enumerate() {
                let s = handle.stats();
                if let Some(&id) = self.ids.conformed.get(shard) {
                    reg.set_counter(id, s.conformed_writes);
                }
                if let Some(&id) = self.ids.budget_spent.get(shard) {
                    reg.set_counter(id, s.budget_spent);
                }
                if let Some(&id) = self.ids.table_hits.get(shard) {
                    reg.set_counter(id, s.table.group_hits + s.table.mru_hits);
                }
                if let Some(&id) = self.ids.fallbacks.get(shard) {
                    reg.set_counter(id, s.table.fallbacks);
                }
            }
            let agg = aggregate_stats(self.handles);
            reg.set_counter(self.global.conformed, agg.conformed_writes);
            reg.set_counter(self.global.baseline, agg.baseline_writes);
            reg.set_counter(self.global.budget, agg.budget_spent);
            if self.batches_done.is_multiple_of(EPOCH_BATCHES) {
                active.snapshot(self.epoch, self.accesses);
                self.epoch += 1;
            }
        }
        self.batch.clear();
    }
}

impl TraceSink for ServiceDriver<'_> {
    fn emit(&mut self, event: TraceEvent) {
        let seq = self.seq;
        self.seq += 1;
        self.batch.push(access_for_event(&event, seq));
        if self.batch.len() >= BATCH_SIZE {
            self.flush();
        }
    }
}

/// Runs the scenario's corpus stream through the service and returns
/// telemetry plus tallies.
pub fn run_service(scenario: ServingScenario) -> ServiceRunResult {
    run_service_from(&mut scenario.corpus_scenario())
}

/// Runs the sustained-load stream from an arbitrary [`TraceSource`] —
/// the live generator or a recorded trace file — and returns telemetry
/// plus tallies. Replaying a trace recorded from
/// [`ServingScenario::corpus_scenario`] reproduces [`run_service`]'s
/// result byte for byte.
pub fn run_service_from(source: &mut dyn TraceSource) -> ServiceRunResult {
    let memo_cfg = {
        let mut m = ShardMemoConfig::paper().with_epoch(MEMO_EPOCH_ACCESSES);
        m.budget_fraction = BUDGET_FRACTION;
        m
    };
    let mut handles: Vec<MemoHandle> = Vec::with_capacity(SHARDS);
    let service =
        SecureMemoryService::with_policies(&ServiceConfig::new(SHARDS, DATA_BYTES), |_| {
            let (policy, handle) = memo_policy(&memo_cfg);
            handle.seed_groups([LADDER_SEED]);
            handles.push(handle);
            policy
        });

    // The exporter renders `epoch` and `accesses` as built-in leading
    // columns of every snapshot, so the registry holds only the columns
    // beyond those two.
    let mut registry = MetricsRegistry::new();
    let global = GlobalIds {
        reads: registry.counter("reads"),
        writes: registry.counter("writes"),
        read_errors: registry.counter("read_errors"),
        write_errors: registry.counter("write_errors"),
        shard_faults: registry.counter("shard_faults"),
        conformed: registry.counter("conformed_writes"),
        baseline: registry.counter("baseline_writes"),
        budget: registry.counter("budget_spent"),
    };
    let ids = ShardIds {
        accesses: registry.shard_counters("accesses", SHARDS),
        conformed: registry.shard_counters("conformed", SHARDS),
        budget_spent: registry.shard_counters("budget_spent", SHARDS),
        table_hits: registry.shard_counters("table_hits", SHARDS),
        fallbacks: registry.shard_counters("fallbacks", SHARDS),
    };
    let mut tele = Telemetry::on(registry);

    let mut driver = ServiceDriver {
        service: &service,
        handles: &handles,
        tele: &mut tele,
        ids: &ids,
        global,
        batch: Vec::with_capacity(BATCH_SIZE),
        seq: 0,
        batches_done: 0,
        epoch: 0,
        checksum: 0,
        accesses: 0,
        shard_accesses: vec![0u64; SHARDS],
    };
    source.stream(&mut driver);
    driver.flush();
    let checksum = driver.checksum;
    let accesses = driver.accesses;
    let shard_accesses = std::mem::take(&mut driver.shard_accesses);
    drop(driver);

    ServiceRunResult {
        jsonl: tele.to_jsonl().unwrap_or_default(),
        checksum,
        accesses,
        shard_accesses,
        aggregate: aggregate_stats(&handles),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmcc_workloads::codec::{TraceReader, TraceWriter};
    use std::io::Cursor;

    #[test]
    fn every_scenario_runs_deterministically() {
        for scenario in ServingScenario::ALL {
            let a = run_service(scenario);
            let b = run_service(scenario);
            assert_eq!(a, b, "{scenario:?} not deterministic");
            assert_eq!(a.accesses, EVENTS);
            assert!(!a.jsonl.is_empty());
        }
    }

    #[test]
    fn scenarios_produce_distinct_streams() {
        let [kv, phase, adv] = ServingScenario::ALL.map(run_service);
        assert_ne!(kv.checksum, phase.checksum);
        assert_ne!(kv.checksum, adv.checksum);
        assert_ne!(phase.checksum, adv.checksum);
    }

    #[test]
    fn recorded_trace_replays_byte_identically() {
        for scenario in ServingScenario::ALL {
            let live = run_service(scenario);
            let mut writer = TraceWriter::new(Cursor::new(Vec::new())).expect("writer");
            scenario.corpus_scenario().stream(&mut writer);
            let (summary, cursor) = writer.finish_into_inner().expect("finish");
            assert_eq!(summary.events, EVENTS);
            let mut reader = TraceReader::new(Cursor::new(cursor.into_inner())).expect("reader");
            let replayed = run_service_from(&mut reader);
            assert!(reader.error().is_none(), "replay hit a codec error");
            assert_eq!(
                live, replayed,
                "{scenario:?}: replay diverged from live stream"
            );
        }
    }

    #[test]
    fn shard_columns_partition_the_traffic() {
        let r = run_service(ServingScenario::KvServing);
        assert_eq!(r.shard_accesses.iter().sum::<u64>(), r.accesses);
        assert!(
            r.shard_accesses.iter().filter(|&&n| n > 0).count() > 1,
            "zipfian tenants still spread across shards: {:?}",
            r.shard_accesses
        );
        let rows = rmcc_telemetry::parse_jsonl(&r.jsonl).expect("valid JSONL");
        assert!(rows.len() >= 3, "several epochs resolved");
        let last = rows.last().expect("nonempty");
        let col = |k: &str| {
            last.get(k)
                .and_then(rmcc_telemetry::JsonValue::as_f64)
                .unwrap_or(-1.0)
        };
        // Shard-labeled columns exist and sum to the global access count.
        let shard_sum: f64 = (0..SHARDS)
            .map(|i| col(&format!("shard{i}_accesses")))
            .sum();
        assert!((shard_sum - col("accesses")).abs() < 0.5);
        assert!(col("shard_faults") == 0.0);
    }

    #[test]
    fn memoization_conforms_under_sustained_load() {
        let r = run_service(ServingScenario::KvServing);
        assert!(
            r.aggregate.conformed_writes > 0,
            "seeded ladders steer some writes: {:?}",
            r.aggregate
        );
        assert!(r.aggregate.budget_ok, "every shard ledger invariant holds");
        assert!(r.aggregate.budget_epochs > 0, "per-shard epochs ticked");
    }

    #[test]
    fn kv_addresses_fit_the_configured_keyspace() {
        let Scenario::KvServing(kv) = ServingScenario::KvServing.corpus_scenario() else {
            panic!("KvServing selects the key-value generator");
        };
        let span = kv.tenants * kv.regions_per_tenant * kv.blocks_per_region * BLOCK_BYTES;
        assert!(
            span <= DATA_BYTES,
            "keyspace {span} exceeds DATA_BYTES {DATA_BYTES}"
        );
    }
}
