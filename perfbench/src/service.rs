//! The serving workloads (`kv_read`, `kv_write`, `sweep_hardened`) on the
//! sharded [`SecureMemoryService`].
//!
//! **Load model.** Closed loop: one client submits a batch through
//! `submit_with_jobs(batch, 1)` and waits for its results before it sends
//! the next, cycling over a pre-generated stream until the measured phase
//! ends. Set-up generates the stream from the seed, loads it through the
//! trace codec, builds the service (paper memo table, seeded ladder, 8
//! shards) and pre-writes every block the stream touches, so every
//! measured read is legal and all metadata exists before timing starts.
//!
//! **Correctness.** A reference model tracks each block's last written
//! payload and counter: every read must return the payload last written
//! and every write must raise the block's counter. The first pass over
//! the stream is folded into a `digest_results` digest that must match a
//! width-2 twin, repeated set-ups, and the traced replay.
//!
//! **Traced run.** The same stream is replayed through
//! [`SecureMemoryService::with_shard`] and direct engine calls, partitioned
//! with [`ServiceSnapshot::shard_of`](rmcc_secmem::service::ServiceSnapshot::shard_of)
//! exactly as `submit` partitions it, with a span around every call into
//! the engine and the counter-update policy.

use std::collections::HashMap;
use std::ops::AddAssign;
use std::time::{Duration, Instant};

use rmcc_core::shard::{aggregate_stats, memo_policy, MemoHandle, ShardMemoConfig, ShardMemoStats};
use rmcc_crypto::aes::Backend;
use rmcc_crypto::stats::CryptoStats;
use rmcc_secmem::counters::CounterOrg;
use rmcc_secmem::engine::{CounterUpdatePolicy, SecureMemory};
use rmcc_secmem::service::{
    digest_results, Access, AccessResult, SecureMemoryService, ServiceConfig, ShardFaultCause,
};
use rmcc_sim::service_run::access_for_event;
use rmcc_workloads::corpus::{splitmix64, AdversarialLocalityConfig, KvServingConfig, Scenario};
use rmcc_workloads::workload::Scale;

use crate::stream::{generate_and_replay, Replayed};
use crate::{crypto_bench, host, spans, stats, Options, Outcome, Workload};

/// Shards in every service (as in the repository's service bench).
const SHARDS: usize = 8;
/// Protected capacity: every tenant's regions, sparse.
const DATA_BYTES: u64 = 1 << 33;
/// Pool width of the measured `submit` calls. One worker: on a shared VM
/// a batch split over both vCPUs waits for the slower of them and for
/// waking the idle one, and over six alternating 30 s runs of `kv_read` the
/// fastest-pass throughput ranged 10% at width 2 against 3.5% at width 1.
const MEASURED_WIDTH: usize = 1;
/// Pool width of the twin pass that checks the measured one and of the
/// traced run's `pool_speedup` loop (the host's 2 CPUs).
const POOL_WIDTH: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Time budget of each crypto microbenchmark row.
const CRYPTO_BUDGET: Duration = Duration::from_millis(150);

/// One serving workload's inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// The corpus generator and its seeded configuration.
    pub scenario: Scenario,
    /// Accesses per submitted batch.
    pub batch: usize,
    /// AES backend of every shard.
    pub backend: Backend,
}

/// The inputs of serving workload `w` at `scale` for `seed`.
pub fn geometry(w: Workload, scale: Scale, seed: u64) -> Geometry {
    let tiny = scale == Scale::Tiny;
    let coverage = CounterOrg::Morphable128.coverage() as u64;
    // The corpus seeds its generator with `seed | 1`; mixing first keeps
    // neighbouring benchmark seeds apart.
    let seed = splitmix64(seed);
    let batch = if tiny { 128 } else { 512 };
    let kv = |write_permille: u32, churn: bool| {
        let events = if tiny { 4_096 } else { 262_144 };
        Scenario::KvServing(KvServingConfig {
            tenants: if tiny { 64 } else { 256 },
            regions_per_tenant: if tiny { 16 } else { 32 },
            blocks_per_region: coverage,
            hot_blocks_per_region: 8,
            events,
            write_permille,
            churn_period: if churn { events / 8 } else { 0 },
            seed,
        })
    };
    match w {
        Workload::KvRead => Geometry {
            scenario: kv(50, false),
            batch,
            backend: Backend::Fast,
        },
        Workload::KvWrite => Geometry {
            scenario: kv(800, true),
            batch,
            backend: Backend::Fast,
        },
        _ => {
            // One pass is one sweep cycle: 32 blocks in each of `regions`
            // regions, 16K blocks per shard at small scale against each
            // shard pipeline's direct-mapped 16K-slot pad memo.
            let regions = if tiny { 64 } else { 4_096 };
            Geometry {
                scenario: Scenario::AdversarialLocality(AdversarialLocalityConfig {
                    regions,
                    blocks_per_region: coverage,
                    burst: 32,
                    events: regions * 32,
                    write_permille: 50,
                    seed,
                }),
                batch,
                backend: Backend::Hardened,
            }
        }
    }
}

/// A stream ready to submit.
struct Stream {
    replayed: Replayed,
    batches: Vec<Vec<Access>>,
    /// Every block the stream touches, ascending.
    blocks: Vec<u64>,
}

impl Stream {
    fn build(geo: &Geometry) -> Result<Stream, String> {
        let replayed = generate_and_replay(|| geo.scenario.events().collect())?;
        let batches: Vec<Vec<Access>> = replayed
            .events
            .chunks(geo.batch)
            .enumerate()
            .map(|(b, chunk)| {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(i, ev)| access_for_event(ev, (b * geo.batch + i) as u64))
                    .collect()
            })
            .collect();
        let mut blocks: Vec<u64> = batches.iter().flatten().map(Access::block).collect();
        blocks.sort_unstable();
        blocks.dedup();
        Ok(Stream {
            replayed,
            batches,
            blocks,
        })
    }

    fn accesses(&self) -> u64 {
        self.replayed.events.len() as u64
    }
}

/// Failures and reference-model mismatches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Verdict {
    /// Results other than `Data` / `Written`.
    failed: u64,
    /// Successful results the reference model disagrees with.
    mismatches: u64,
}

impl AddAssign for Verdict {
    fn add_assign(&mut self, other: Verdict) {
        self.failed += other.failed;
        self.mismatches += other.mismatches;
    }
}

/// The reference model: each block's last written fill byte and counter.
#[derive(Debug, Default)]
struct Oracle {
    blocks: HashMap<u64, (u8, u64)>,
}

impl Oracle {
    fn check(&mut self, batch: &[Access], results: &[AccessResult]) -> Verdict {
        let mut v = Verdict {
            failed: 0,
            mismatches: u64::from(batch.len() != results.len()),
        };
        for (access, result) in batch.iter().zip(results) {
            match (*access, *result) {
                (Access::Read { block }, AccessResult::Data(data)) => {
                    let expected = self.blocks.get(&block).map(|&(fill, _)| fill);
                    if expected.is_none_or(|fill| data.iter().any(|&b| b != fill)) {
                        v.mismatches += 1;
                    }
                }
                (Access::Write { block, data }, AccessResult::Written { counter }) => {
                    let entry = self.blocks.entry(block).or_insert((0, 0));
                    if counter <= entry.1 {
                        v.mismatches += 1;
                    }
                    *entry = (data[0], counter);
                }
                _ => v.failed += 1,
            }
        }
        v
    }
}

fn fold(digest: u64, results: &[AccessResult]) -> u64 {
    digest.rotate_left(9) ^ digest_results(results)
}

fn aes_paid(svc: &SecureMemoryService) -> u64 {
    svc.crypto_stats().iter().map(|c| c.aes_paid).sum()
}

/// Times every `bump` of the wrapped policy as a `core.shard.bump` span
/// (a no-op outside a traced replay).
struct TimedPolicy(Box<dyn CounterUpdatePolicy>);

impl CounterUpdatePolicy for TimedPolicy {
    fn bump(&mut self, current: u64) -> u64 {
        spans::span("core.shard.bump", || self.0.bump(current))
    }

    fn relevel_target(&mut self, min_target: u64) -> u64 {
        self.0.relevel_target(min_target)
    }

    fn reset(&mut self) {
        self.0.reset();
    }

    fn scrub(&mut self) -> u64 {
        self.0.scrub()
    }
}

/// A built service whose every stream block has been written once.
struct Prepared {
    svc: SecureMemoryService,
    handles: Vec<MemoHandle>,
    oracle: Oracle,
    /// Digest of the pre-write results.
    digest: u64,
    verdict: Verdict,
}

/// The byte a block is pre-written with.
fn prewrite_fill(block: u64) -> u8 {
    (splitmix64(block ^ 0xF111) & 0xFF) as u8
}

fn prepare(geo: &Geometry, stream: &Stream, timed_bump: bool) -> Prepared {
    let mut memo_cfg = ShardMemoConfig::paper().with_epoch(4_096);
    memo_cfg.budget_fraction = 0.05;
    let cfg = ServiceConfig::new(SHARDS, DATA_BYTES).with_backend(geo.backend);
    let mut handles = Vec::with_capacity(SHARDS);
    let svc = SecureMemoryService::with_policies(&cfg, |_| {
        let (policy, handle) = memo_policy(&memo_cfg);
        handle.seed_groups([4]);
        handles.push(handle);
        if timed_bump {
            Box::new(TimedPolicy(policy))
        } else {
            policy
        }
    });
    let mut prepared = Prepared {
        svc,
        handles,
        oracle: Oracle::default(),
        digest: 0,
        verdict: Verdict::default(),
    };
    for chunk in stream.blocks.chunks(geo.batch) {
        let batch: Vec<Access> = chunk
            .iter()
            .map(|&block| Access::Write {
                block,
                data: [prewrite_fill(block); 64],
            })
            .collect();
        let results = prepared.svc.submit_with_jobs(&batch, POOL_WIDTH);
        prepared.verdict += prepared.oracle.check(&batch, &results);
        prepared.digest = fold(prepared.digest, &results);
    }
    prepared
}

/// One closed-loop measured phase.
#[derive(Debug, Default)]
struct LoopRun {
    /// Submit ns per batch, in order (pass after pass).
    batch_ns: Vec<u64>,
    attempted: u64,
    verdict: Verdict,
    /// Complete passes over the stream.
    passes: u64,
    /// Digest, submit time and modeled AES of the first pass.
    pass0_digest: u64,
    pass0_ns: u64,
    pass0_aes: u64,
}

impl LoopRun {
    /// Each batch of the stream at its fastest pass: every pass submits
    /// the same batches, and after the first the service's state repeats
    /// too (warm memo, every block written), so the passes are repeats of
    /// the same work.
    fn fastest(&self, stream: &Stream) -> stats::Fastest {
        stats::Fastest::new(self.batch_ns.chunks(stream.batches.len().max(1)))
    }

    /// Accesses per second of one pass with every batch at its fastest.
    fn per_s(&self, stream: &Stream) -> f64 {
        stats::ratio(
            stream.accesses() as f64 * 1e9,
            self.fastest(stream).total_ns() as f64,
        )
    }
}

/// Submits the stream's batches in order, waiting for each result, until
/// `seconds` have passed and at least one full pass is done.
fn closed_loop(p: &mut Prepared, stream: &Stream, jobs: usize, seconds: f64) -> LoopRun {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let aes_before = aes_paid(&p.svc);
    let mut run = LoopRun::default();
    'passes: loop {
        for batch in &stream.batches {
            let t = Instant::now();
            let results = p.svc.submit_with_jobs(batch, jobs);
            let ns = t.elapsed().as_nanos() as u64;
            run.batch_ns.push(ns);
            run.attempted += batch.len() as u64;
            run.verdict += p.oracle.check(batch, &results);
            if run.passes == 0 {
                run.pass0_digest = fold(run.pass0_digest, &results);
                run.pass0_ns += ns;
            } else if start.elapsed() >= budget {
                break 'passes;
            }
        }
        if run.passes == 0 {
            run.pass0_aes = aes_paid(&p.svc) - aes_before;
        }
        run.passes += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    run
}

/// Runs serving workload `w`.
///
/// # Errors
///
/// A set-up failure, as text.
pub fn run(w: Workload, opts: &Options) -> Result<Outcome, String> {
    let geo = geometry(w, opts.scale, opts.seed);
    if opts.trace {
        run_traced(&geo, opts)
    } else {
        run_untraced(&geo, opts)
    }
}

fn run_untraced(geo: &Geometry, opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome {
        backend: geo.backend.name(),
        ..Outcome::default()
    };
    // One service is alive at a time. The first set-up serves the measured
    // phase, so the peak resident set is read before any service has been
    // freed (what the allocator keeps of a freed one varies run to run);
    // the second serves the width-2 twin pass.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut first: Option<(Stream, u64)> = None;
    let (mut timed, mut reference, mut peak_rss) = (LoopRun::default(), LoopRun::default(), 0);
    let (mut same_stream, mut same_prewrite, mut prewrite) = (true, true, Verdict::default());
    for rep in 0..SETUP_REPEATS {
        let t = Instant::now();
        let s = Stream::build(geo)?;
        let mut p = prepare(geo, &s, false);
        setup_s.push(t.elapsed().as_secs_f64());
        prewrite += p.verdict;
        match rep {
            0 => {
                timed = closed_loop(&mut p, &s, MEASURED_WIDTH, opts.seconds);
                peak_rss = host::peak_rss_bytes().unwrap_or(0);
            }
            1 => reference = closed_loop(&mut p, &s, POOL_WIDTH, 0.0),
            _ => {}
        }
        match &first {
            Some((s0, digest0)) => {
                same_stream &= s0.batches == s.batches;
                same_prewrite &= *digest0 == p.digest;
            }
            None => first = Some((s, p.digest)),
        }
    }
    let Some((stream, prewrite_digest)) = first else {
        return Err("no set-up ran".to_string());
    };

    out.attempted = timed.attempted;
    out.failed = timed.verdict.failed;
    out.check(
        "codec_replay_matches_generated_stream",
        stream.replayed.matches,
        format!("checksum {:#018x}", stream.replayed.checksum),
    );
    out.check(
        "repeated_setups_generate_the_same_stream",
        same_stream,
        String::new(),
    );
    out.check(
        "repeated_setups_prewrite_identically",
        same_prewrite && prewrite == Verdict::default(),
        format!("{prewrite:?}"),
    );
    out.check(
        "first_pass_digest_width2_equals_width1",
        timed.pass0_digest == reference.pass0_digest,
        format!(
            "width 1 {:#018x}, width 2 {:#018x}",
            timed.pass0_digest, reference.pass0_digest
        ),
    );
    out.check(
        "first_pass_modeled_aes_width2_equals_width1",
        timed.pass0_aes == reference.pass0_aes,
        format!("{} vs {}", timed.pass0_aes, reference.pass0_aes),
    );
    out.check(
        "reads_return_last_write_and_counters_rise",
        timed.verdict.mismatches == 0 && reference.verdict == Verdict::default(),
        format!(
            "measured {:?}, width-2 twin {:?}",
            timed.verdict, reference.verdict
        ),
    );

    let fastest = timed.fastest(&stream);
    let whole = stats::ratio(
        timed.attempted as f64 * 1e9,
        timed.batch_ns.iter().sum::<u64>() as f64,
    );
    let tail = fastest.tail();
    let m = &mut out.metrics;
    m.push_note(
        "accesses_per_s",
        timed.per_s(&stream),
        "1/s",
        format!(
            "one pass, {}; whole phase {whole:.0}",
            fastest.describe("batches", "passes")
        ),
    );
    m.push_note(
        "batch_p50_us",
        fastest.p50_ns() as f64 / 1e3,
        "us",
        format!(
            "median over {}; {} batches submitted",
            fastest.describe("batches", "passes"),
            timed.batch_ns.len()
        ),
    );
    m.push_note(
        "batch_tail_us",
        tail.value as f64 / 1e3,
        "us",
        tail.describe(),
    );
    m.push_note(
        "aes_per_access",
        stats::ratio(timed.pass0_aes as f64, stream.accesses() as f64),
        "aes/access",
        "modeled CryptoStats.aes_paid over the first pass".to_string(),
    );
    m.push_note(
        "setup_s",
        stats::median(&setup_s),
        "s",
        format!("median of {SETUP_REPEATS} set-ups"),
    );
    m.push_note(
        "peak_rss_mib",
        peak_rss as f64 / (1u64 << 20) as f64,
        "MiB",
        "at the end of the measured phase".to_string(),
    );
    m.push(
        "failed_fraction",
        stats::ratio(timed.verdict.failed as f64, timed.attempted as f64),
        "frac",
    );
    m.push("passes", timed.passes as f64, "count");
    m.push("touched_blocks", stream.blocks.len() as f64, "count");

    out.pin("first_pass_digest", format!("{:#018x}", timed.pass0_digest));
    out.pin("first_pass_aes_paid", timed.pass0_aes);
    out.pin("prewrite_digest", format!("{prewrite_digest:#018x}"));
    out.pin("codec_bytes_per_event", stream.replayed.bytes_per_event);
    Ok(out)
}

/// How a traced replay drives the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Replay {
    /// As `submit` does: batch pad prefetch, policy writes.
    Submit,
    /// Without the `prefetch_pads` call.
    NoPrefetch,
    /// Writes through `write_baseline` (the degraded-mode path).
    BaselineWrites,
}

/// Everything one traced replay of the first pass recorded.
#[derive(Debug, Default)]
struct TracedPass {
    spans: Vec<spans::Span>,
    digest: u64,
    verdict: Verdict,
    reads: u64,
    writes: u64,
    read_crypto: CryptoStats,
    write_crypto: CryptoStats,
    reencrypts: u64,
    covered_reads: u64,
    memo: ShardMemoStats,
    imbalance_sum: f64,
    batches: u64,
    pairs: Vec<(u64, u64)>,
    walk_depth: usize,
}

fn add_delta(acc: &mut CryptoStats, before: CryptoStats, after: CryptoStats) {
    acc.aes_paid += after.aes_paid - before.aes_paid;
    acc.mac_verifies += after.mac_verifies - before.mac_verifies;
    acc.clmul_ops += after.clmul_ops - before.clmul_ops;
}

/// Memo tallies accumulated between two snapshots.
fn memo_delta(before: ShardMemoStats, after: ShardMemoStats) -> ShardMemoStats {
    let t = |a: u64, b: u64| a - b;
    let mut d = after;
    d.table.group_hits = t(after.table.group_hits, before.table.group_hits);
    d.table.mru_hits = t(after.table.mru_hits, before.table.mru_hits);
    d.table.misses = t(after.table.misses, before.table.misses);
    d.table.fallbacks = t(after.table.fallbacks, before.table.fallbacks);
    d.budget_spent = t(after.budget_spent, before.budget_spent);
    d.budget_accesses = t(after.budget_accesses, before.budget_accesses);
    d.conformed_writes = t(after.conformed_writes, before.conformed_writes);
    d.baseline_writes = t(after.baseline_writes, before.baseline_writes);
    d
}

/// One access through direct engine calls, mapped to the result `submit`
/// would have produced.
fn replay_one(
    mem: &mut SecureMemory,
    access: Access,
    mode: Replay,
    handle: &MemoHandle,
    tp: &mut TracedPass,
) -> AccessResult {
    match access {
        Access::Read { block } => {
            let ctr = mem.counter_of(block);
            tp.covered_reads += u64::from(handle.probe(ctr));
            if tp.pairs.len() < 4 * crypto_bench::MAX_PAIRS {
                tp.pairs.push((block, ctr));
            }
            let before = mem.crypto_stats();
            let read = spans::span("secmem.engine.read", || mem.read(block));
            add_delta(&mut tp.read_crypto, before, mem.crypto_stats());
            tp.reads += 1;
            match read {
                Ok(data) => AccessResult::Data(data),
                Err(e) => AccessResult::ReadFailed(e),
            }
        }
        Access::Write { block, data } => {
            let before = mem.crypto_stats();
            let reencrypts = mem.overflow_reencryptions();
            let written = if mode == Replay::BaselineWrites {
                spans::span("secmem.engine.write_baseline", || {
                    mem.write_baseline(block, data)
                })
            } else {
                spans::span("secmem.engine.write", || mem.write(block, data))
            };
            add_delta(&mut tp.write_crypto, before, mem.crypto_stats());
            tp.reencrypts += mem.overflow_reencryptions() - reencrypts;
            tp.writes += 1;
            match written {
                Ok(()) => AccessResult::Written {
                    counter: mem.counter_of(block),
                },
                Err(e) => AccessResult::WriteFailed(e),
            }
        }
    }
}

/// Replays the first pass of the stream on a fresh set-up through
/// `with_shard` and engine calls, recording spans.
fn traced_pass(geo: &Geometry, stream: &Stream, mode: Replay) -> TracedPass {
    let mut p = prepare(geo, stream, true);
    let memo_before = aggregate_stats(&p.handles);
    let mut tp = TracedPass::default();
    spans::start();
    for (b, batch) in stream.batches.iter().enumerate() {
        spans::set_batch(b as u32);
        let submit = spans::begin("secmem.service.submit");
        let parts = spans::span("secmem.service.route", || {
            let snap = p.svc.snapshot();
            let mut parts: Vec<Vec<usize>> = vec![Vec::new(); SHARDS];
            for (i, access) in batch.iter().enumerate() {
                if let Some(part) = parts.get_mut(snap.shard_of(access.block())) {
                    part.push(i);
                }
            }
            parts
        });
        let mut results: Vec<AccessResult> = vec![
            AccessResult::ShardFault {
                shard: 0,
                cause: ShardFaultCause::Internal,
            };
            batch.len()
        ];
        for (shard, indices) in parts.iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            let handle = &p.handles[shard];
            let served = p.svc.with_shard(shard, |mem| {
                let shard_span = spans::begin("secmem.service.with_shard");
                if mode != Replay::NoPrefetch {
                    let reads: Vec<u64> = indices
                        .iter()
                        .filter_map(|&i| match batch[i] {
                            Access::Read { block } => Some(block),
                            Access::Write { .. } => None,
                        })
                        .collect();
                    spans::span("secmem.engine.prefetch_pads", || {
                        mem.prefetch_pads(reads.iter().copied())
                    });
                }
                for &i in indices {
                    results[i] = replay_one(mem, batch[i], mode, handle, &mut tp);
                }
                tp.walk_depth = mem.layout().depth();
                spans::end(shard_span);
            });
            if served.is_none() {
                tp.verdict.failed += indices.len() as u64;
            }
        }
        spans::end(submit);
        let largest = parts.iter().map(Vec::len).max().unwrap_or(0);
        tp.imbalance_sum += stats::ratio(largest as f64, batch.len() as f64 / SHARDS as f64);
        tp.batches += 1;
        tp.verdict += p.oracle.check(batch, &results);
        tp.digest = fold(tp.digest, &results);
    }
    tp.spans = spans::stop();
    tp.memo = memo_delta(memo_before, aggregate_stats(&p.handles));
    tp
}

fn run_traced(geo: &Geometry, opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome {
        backend: geo.backend.name(),
        ..Outcome::default()
    };
    let stream = Stream::build(geo)?;
    let accesses = stream.accesses() as f64;
    let half = opts.seconds / 2.0;

    // Untraced references: pool width 2 and width 1, each on a fresh set-up.
    let mut p = prepare(geo, &stream, false);
    let wide = closed_loop(&mut p, &stream, POOL_WIDTH, half);
    drop(p);
    let rss_before = host::rss_bytes().unwrap_or(0);
    let mut p = prepare(geo, &stream, false);
    let rss_after = host::rss_bytes().unwrap_or(0);
    let narrow = closed_loop(&mut p, &stream, 1, half);
    drop(p);

    // Traced replays of the first pass.
    let traced = traced_pass(geo, &stream, Replay::Submit);
    let no_prefetch = traced_pass(geo, &stream, Replay::NoPrefetch);
    let baseline = traced_pass(geo, &stream, Replay::BaselineWrites);

    let spans = &traced.spans;
    let path = host::out_dir().join(format!("spans-{}-{}.tsv", opts.workload.name(), opts.seed));
    spans::write_tsv(&path, spans).map_err(|e| format!("writing {}: {e}", path.display()))?;

    out.attempted = wide.attempted + narrow.attempted + 3 * stream.accesses();
    out.failed = wide.verdict.failed
        + narrow.verdict.failed
        + traced.verdict.failed
        + no_prefetch.verdict.failed
        + baseline.verdict.failed;
    out.check(
        "codec_replay_matches_generated_stream",
        stream.replayed.matches,
        format!("checksum {:#018x}", stream.replayed.checksum),
    );
    out.check(
        "traced_digest_equals_untraced",
        traced.digest == narrow.pass0_digest,
        format!(
            "traced {:#018x}, untraced {:#018x}",
            traced.digest, narrow.pass0_digest
        ),
    );
    out.check(
        "first_pass_digest_width2_equals_width1",
        wide.pass0_digest == narrow.pass0_digest,
        format!(
            "width 2 {:#018x}, width 1 {:#018x}",
            wide.pass0_digest, narrow.pass0_digest
        ),
    );
    out.check(
        "prefetch_leaves_results_unchanged",
        no_prefetch.digest == traced.digest,
        String::new(),
    );
    let mismatches = [&wide.verdict, &narrow.verdict, &traced.verdict]
        .into_iter()
        .chain([&no_prefetch.verdict, &baseline.verdict])
        .map(|v| v.mismatches)
        .sum::<u64>();
    out.check(
        "reads_return_last_write_and_counters_rise",
        mismatches == 0,
        format!("{mismatches} mismatches"),
    );

    let read_ns = spans::durations(spans, "secmem.engine.read");
    let write_ns = spans::durations(spans, "secmem.engine.write");
    let baseline_ns = spans::durations(&baseline.spans, "secmem.engine.write_baseline");
    let bump_ns = spans::durations(spans, "core.shard.bump");
    let sum = |v: &[u64]| v.iter().sum::<u64>() as f64;
    let prefetch_total = spans::total_ns(spans, "secmem.engine.prefetch_pads") as f64;
    let engine_total = sum(&read_ns) + sum(&write_ns) + prefetch_total;
    // Engine time net of what recording its spans (nested bumps included)
    // added to it.
    let span_ns = spans::empty_span_ns();
    let engine_spans = read_ns.len()
        + write_ns.len()
        + bump_ns.len()
        + spans::durations(spans, "secmem.engine.prefetch_pads").len();
    let engine_net = (engine_total - engine_spans as f64 * span_ns).max(0.0);
    let submit_total = spans::total_ns(spans, "secmem.service.submit") as f64;
    let untraced_pass = narrow.pass0_ns as f64;
    let reads = traced.reads as f64;
    let writes = traced.writes as f64;
    let read_tail = stats::tail(&read_ns);
    let write_tail = stats::tail(&write_ns);

    let m = &mut out.metrics;
    m.push_note(
        "trace.overhead_frac",
        stats::ratio(submit_total, untraced_pass) - 1.0,
        "frac",
        "traced first pass vs untraced width-1 first pass".to_string(),
    );
    m.push("trace.span_ns", span_ns, "ns");
    stream.replayed.push_rows(m, "workloads.corpus.gen_s");
    m.push(
        "secmem.service.route_ns_per_access",
        stats::ratio(
            spans::total_ns(spans, "secmem.service.route") as f64,
            accesses,
        ),
        "ns",
    );
    m.push_note(
        "secmem.service.overhead_frac",
        stats::ratio(untraced_pass - engine_net, untraced_pass),
        "frac",
        "width-1 submit time not spent in engine calls (traced, net of span cost)".to_string(),
    );
    m.push_note(
        "secmem.service.pool_speedup",
        stats::ratio(wide.per_s(&stream), narrow.per_s(&stream)),
        "x",
        format!(
            "width {POOL_WIDTH} vs 1 on {} CPUs",
            host::available_parallelism()
        ),
    );
    m.push(
        "secmem.service.shard_imbalance",
        stats::ratio(traced.imbalance_sum, traced.batches as f64),
        "x",
    );
    m.push(
        "secmem.engine.read_ns_p50",
        stats::percentile(&read_ns, 50.0) as f64,
        "ns",
    );
    m.push_note(
        "secmem.engine.read_ns_tail",
        read_tail.value as f64,
        "ns",
        read_tail.describe(),
    );
    m.push(
        "secmem.engine.write_ns_p50",
        stats::percentile(&write_ns, 50.0) as f64,
        "ns",
    );
    m.push_note(
        "secmem.engine.write_ns_tail",
        write_tail.value as f64,
        "ns",
        write_tail.describe(),
    );
    m.push(
        "secmem.engine.write_baseline_ns_p50",
        stats::percentile(&baseline_ns, 50.0) as f64,
        "ns",
    );
    m.push(
        "secmem.engine.prefetch_ns_per_read",
        stats::ratio(prefetch_total, reads),
        "ns",
    );
    for (name, part) in [
        ("secmem.engine.read_time_frac", sum(&read_ns)),
        ("secmem.engine.write_time_frac", sum(&write_ns)),
        ("secmem.engine.prefetch_time_frac", prefetch_total),
    ] {
        m.push(name, stats::ratio(part, engine_total), "frac");
    }
    let no_prefetch_reads = spans::total_ns(&no_prefetch.spans, "secmem.engine.read") as f64;
    m.push_note(
        "secmem.engine.prefetch_saving_ns_per_read",
        stats::ratio(no_prefetch_reads - sum(&read_ns) - prefetch_total, reads),
        "ns",
        "read time without prefetch minus read+prefetch time with it".to_string(),
    );
    m.push(
        "secmem.engine.mac_verifies_per_read",
        stats::ratio(traced.read_crypto.mac_verifies as f64, reads),
        "count",
    );
    m.push(
        "secmem.engine.aes_per_read",
        stats::ratio(traced.read_crypto.aes_paid as f64, reads),
        "aes",
    );
    m.push(
        "secmem.engine.aes_per_write",
        stats::ratio(traced.write_crypto.aes_paid as f64, writes),
        "aes",
    );
    m.push(
        "secmem.engine.walk_depth",
        traced.walk_depth as f64,
        "levels",
    );
    m.push(
        "secmem.engine.relevel_reencrypts_per_write",
        stats::ratio(traced.reencrypts as f64, writes),
        "count",
    );
    // The same writes through the degraded-mode path, for comparison.
    let baseline_writes = baseline.writes as f64;
    m.push(
        "secmem.engine.aes_per_write_baseline",
        stats::ratio(baseline.write_crypto.aes_paid as f64, baseline_writes),
        "aes",
    );
    m.push(
        "secmem.engine.relevel_reencrypts_per_write_baseline",
        stats::ratio(baseline.reencrypts as f64, baseline_writes),
        "count",
    );
    m.push(
        "secmem.engine.rss_bytes_per_touched_block",
        stats::ratio(
            rss_after.saturating_sub(rss_before) as f64,
            stream.blocks.len() as f64,
        ),
        "B",
    );
    m.push(
        "core.shard.bump_ns",
        stats::percentile(&bump_ns, 50.0) as f64,
        "ns",
    );
    m.push(
        "core.shard.bump_busy_frac",
        stats::ratio(sum(&bump_ns), sum(&write_ns)),
        "frac",
    );
    let memo = traced.memo;
    m.push(
        "core.shard.conformed_write_frac",
        stats::ratio(memo.conformed_writes as f64, writes),
        "frac",
    );
    m.push(
        "core.shard.budget_spent_frac",
        stats::ratio(memo.budget_spent as f64, memo.budget_accesses as f64),
        "frac",
    );
    m.push(
        "core.shard.read_coverage",
        stats::ratio(traced.covered_reads as f64, reads),
        "frac",
    );
    m.push("core.table.hit_rate", memo.table.hit_rate(), "frac");
    m.push("core.table.fallbacks", memo.table.fallbacks as f64, "count");

    crypto_bench::run(m, &traced.pairs, geo.backend, CRYPTO_BUDGET);
    let aes_per_access = stats::ratio(
        (traced.read_crypto.aes_paid + traced.write_crypto.aes_paid) as f64,
        accesses,
    );
    let aes_ns = crypto_bench::batch8_ns_per_block(m, geo.backend).unwrap_or(0.0);
    m.push_note(
        "crypto.aes_time_frac",
        stats::ratio(aes_per_access * aes_ns, stats::ratio(engine_net, accesses)),
        "frac",
        format!(
            "{aes_per_access:.2} modeled AES/access x {aes_ns:.1} ns/block ({} 8-lane) over {:.0} engine ns/access",
            geo.backend.name(),
            stats::ratio(engine_net, accesses)
        ),
    );

    out.pin("first_pass_digest", format!("{:#018x}", traced.digest));
    out.pin(
        "traced_aes_paid",
        traced.read_crypto.aes_paid + traced.write_crypto.aes_paid,
    );
    out.pin("codec_bytes_per_event", stream.replayed.bytes_per_event);
    Ok(out)
}
