//! `sim_canneal`: the detailed timing model ([`CoreModel`]) driven by the
//! canneal kernel under Morphable Counters and under RMCC.
//!
//! Set-up generates the kernel's trace from the seed and loads it through
//! the trace codec. The measured phase runs one Morphable pass (the
//! simulated baseline) and then RMCC passes over the same trace until
//! `--seconds` have passed, feeding events in fixed chunks whose host time
//! is the "batch" latency. Simulated statistics are a pure function of the
//! trace, so every RMCC pass must reproduce the first exactly, and the
//! traced run must reproduce the untraced one. The timing metrics take
//! each chunk of the RMCC passes at its fastest pass ([`stats::Fastest`]):
//! repeating one scheme gives each chunk twice the repeats that
//! alternating the two schemes would.

use std::time::{Duration, Instant};

use rmcc_crypto::aes::Backend;
use rmcc_sim::{CoreModel, DetailedReport, PageMap, Scheme, SystemConfig};
use rmcc_workloads::corpus::splitmix64;
use rmcc_workloads::kernels::spec::{canneal, CannealParams};
use rmcc_workloads::trace::{Recorder, TraceEvent, TraceSink, VecSink};
use rmcc_workloads::workload::Scale;

use crate::stream::{generate_and_replay, Replayed};
use crate::{crypto_bench, host, spans, stats, Options, Outcome};

/// Trace events fed to the model per timed chunk (one "batch").
const CHUNK: usize = 8_192;
/// Physical-placement seed (as `run_detailed` uses).
const PLACEMENT_SEED: u64 = 0x9a9e;
/// Set-ups per untraced run; `setup_s` is their median (five: generating
/// the 4.58M-event trace varies more from one set-up to the next than the
/// service's set-up does).
const SETUP_REPEATS: usize = 5;
/// Time budget of each crypto microbenchmark row.
const CRYPTO_BUDGET: Duration = Duration::from_millis(150);
/// The paper's canneal speedup of RMCC over Morphable (Fig. 13).
const PAPER_CANNEAL_SPEEDUP: f64 = 1.128;

/// The canneal kernel's parameters at `scale` for `seed`.
pub fn params(scale: Scale, seed: u64) -> CannealParams {
    let (elements, swaps) = match scale {
        Scale::Tiny => (1 << 12, 5_000),
        _ => (1 << 21, 700_000),
    };
    CannealParams {
        elements,
        swaps,
        seed: splitmix64(seed),
    }
}

/// The detailed-mode configuration the repository's experiments use, with
/// the metadata engine's crypto tally switched on (it is kept only while
/// telemetry records).
fn config(scheme: Scheme) -> SystemConfig {
    let mut cfg = SystemConfig::detailed_scaled(scheme);
    cfg.telemetry = true;
    cfg
}

fn build_trace(scale: Scale, seed: u64) -> Result<Replayed, String> {
    generate_and_replay(|| {
        let mut sink = VecSink::default();
        canneal(params(scale, seed), &mut Recorder::new(&mut sink));
        sink.events
    })
}

/// One pass of one scheme over the trace.
struct Pass {
    report: DetailedReport,
    aes_paid: u64,
    /// Host ns per chunk.
    chunk_ns: Vec<u64>,
    host_ns: u64,
    /// `(physical block, counter)` of the first read misses' blocks.
    pairs: Vec<(u64, u64)>,
}

fn run_pass(scheme: Scheme, events: &[TraceEvent], want_pairs: bool) -> Pass {
    let cfg = config(scheme);
    let mut core = CoreModel::new(&cfg, PLACEMENT_SEED);
    let name = match scheme {
        Scheme::Rmcc => "sim.pass.rmcc",
        _ => "sim.pass.morphable",
    };
    let pass = spans::begin(name);
    let start = Instant::now();
    let mut chunk_ns = Vec::with_capacity(events.len() / CHUNK + 1);
    for (c, chunk) in events.chunks(CHUNK).enumerate() {
        spans::set_batch(c as u32);
        let t = Instant::now();
        spans::span("sim.core_model.emit", || {
            for &ev in chunk {
                core.emit(ev);
            }
        });
        chunk_ns.push(t.elapsed().as_nanos() as u64);
    }
    let host_ns = start.elapsed().as_nanos() as u64;
    spans::end(pass);
    let report = core.report();
    let aes_paid = core.mc().engine().crypto_stats().aes_paid;
    let mut pairs = Vec::new();
    if want_pairs {
        let map = PageMap::new(cfg.page_size, PLACEMENT_SEED, cfg.data_bytes);
        if let Some(meta) = core.mc().engine().metadata() {
            for ev in events.iter().filter(|e| !e.is_write) {
                let block = map.translate(ev.addr) / 64;
                pairs.push((block, meta.data_counter(block)));
                if pairs.len() >= 4 * crypto_bench::MAX_PAIRS {
                    break;
                }
            }
        }
    }
    Pass {
        report,
        aes_paid,
        chunk_ns,
        host_ns,
        pairs,
    }
}

/// The simulated quantities that must repeat exactly.
fn fingerprint(p: &Pass) -> String {
    let r = &p.report;
    format!(
        "{} elapsed_ps={} llc_misses={} instrs={} ctr_misses={} accelerated={} requests={} latency_ns={} aes_paid={}",
        r.scheme,
        r.elapsed_ps,
        r.llc_misses,
        r.instrs,
        r.meta.counter_misses,
        r.meta.accelerated_counter_misses,
        r.meta.total_requests,
        r.mean_miss_latency_ns,
        p.aes_paid
    )
}

/// Runs `sim_canneal`.
///
/// # Errors
///
/// A set-up failure, as text.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome {
        backend: "n/a",
        ..Outcome::default()
    };
    let mut setup_s = Vec::new();
    let mut trace: Option<Replayed> = None;
    let mut same_trace = true;
    for _ in 0..if opts.trace { 1 } else { SETUP_REPEATS } {
        let t = Instant::now();
        let r = build_trace(opts.scale, opts.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        match &trace {
            Some(first) => same_trace &= first.checksum == r.checksum && first.events == r.events,
            None => trace = Some(r),
        }
    }
    let trace = trace.ok_or("no set-up ran")?;
    let events = &trace.events;
    out.check(
        "codec_replay_matches_generated_trace",
        trace.matches,
        format!("checksum {:#018x}", trace.checksum),
    );
    out.check(
        "repeated_setups_generate_the_same_trace",
        same_trace,
        String::new(),
    );

    // Measured phase: the Morphable baseline once, then RMCC passes until
    // the time is up.
    let budget = Duration::from_secs_f64(if opts.trace { 0.0 } else { opts.seconds });
    let start = Instant::now();
    let morph = run_pass(Scheme::Morphable, events, false);
    let mut passes = vec![run_pass(Scheme::Rmcc, events, false)];
    while start.elapsed() < budget {
        passes.push(run_pass(Scheme::Rmcc, events, false));
    }
    let rmcc = &passes[0];
    out.check(
        "repeated_passes_reproduce_simulated_stats",
        passes.iter().all(|p| fingerprint(p) == fingerprint(rmcc)),
        format!("{} RMCC passes", passes.len()),
    );
    out.attempted = (1 + passes.len() as u64) * events.len() as u64;
    out.pin("morphable", fingerprint(&morph));
    out.pin("rmcc", fingerprint(rmcc));
    out.pin("codec_bytes_per_event", trace.bytes_per_event);

    let speedup = stats::ratio(
        morph.report.elapsed_ps as f64,
        rmcc.report.elapsed_ps as f64,
    );
    let accesses = (rmcc.report.meta.data_reads + rmcc.report.meta.data_writes) as f64;
    if !opts.trace {
        let fastest = stats::Fastest::new(passes.iter().map(|p| p.chunk_ns.as_slice()));
        let rate = stats::ratio(events.len() as f64 * 1e9, fastest.total_ns() as f64);
        let rates: Vec<f64> = passes
            .iter()
            .map(|p| stats::ratio(events.len() as f64 * 1e9, p.host_ns as f64))
            .collect();
        let tail = fastest.tail();
        let m = &mut out.metrics;
        m.push_note(
            "accesses_per_s",
            rate,
            "1/s",
            format!(
                "RMCC trace events simulated per host second, {}; median pass {:.0}",
                fastest.describe("chunks", "passes"),
                stats::median(&rates)
            ),
        );
        m.push_note(
            "batch_p50_us",
            fastest.p50_ns() as f64 / 1e3,
            "us",
            format!(
                "RMCC chunks of {CHUNK} events, median over {}",
                fastest.describe("chunks", "passes")
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
            stats::ratio(rmcc.aes_paid as f64, accesses),
            "aes/access",
            "RMCC modeled AES per LLC read/writeback".to_string(),
        );
        m.push_note(
            "setup_s",
            stats::median(&setup_s),
            "s",
            format!("median of {SETUP_REPEATS} set-ups"),
        );
        m.push(
            "peak_rss_mib",
            host::peak_rss_bytes().unwrap_or(0) as f64 / (1u64 << 20) as f64,
            "MiB",
        );
        m.push("sim_events_per_s", rate, "1/s");
        m.push_note(
            "sim_speedup_vs_morphable",
            speedup,
            "x",
            format!("simulated; paper canneal {PAPER_CANNEAL_SPEEDUP}"),
        );
        m.push(
            "sim_accelerated_fraction",
            rmcc.report.meta.accelerated_rate(),
            "frac",
        );
        return Ok(out);
    }

    // Traced run: the untraced pair above is the reference; replay a pair
    // with spans, then time the crypto layer on the trace's own pairs.
    spans::start();
    let traced = [
        run_pass(Scheme::Morphable, events, false),
        run_pass(Scheme::Rmcc, events, true),
    ];
    let spans = spans::stop();
    let path = host::out_dir().join(format!("spans-{}-{}.tsv", opts.workload.name(), opts.seed));
    spans::write_tsv(&path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.attempted += 2 * events.len() as u64;
    out.check(
        "traced_stats_equal_untraced",
        fingerprint(&traced[0]) == fingerprint(&morph)
            && fingerprint(&traced[1]) == fingerprint(rmcc),
        String::new(),
    );
    let untraced_ns = (morph.host_ns + rmcc.host_ns) as f64;
    let traced_ns = (traced[0].host_ns + traced[1].host_ns) as f64;
    let m = &mut out.metrics;
    m.push_note(
        "trace.overhead_frac",
        stats::ratio(traced_ns, untraced_ns) - 1.0,
        "frac",
        "traced pair vs untraced pair".to_string(),
    );
    trace.push_rows(m, "workloads.kernel.gen_s");
    m.push("sim.morphable_host_s", traced[0].host_ns as f64 / 1e9, "s");
    m.push("sim.rmcc_host_s", traced[1].host_ns as f64 / 1e9, "s");
    m.push(
        "sim.counter_miss_rate",
        rmcc.report.meta.counter_miss_rate(),
        "frac",
    );
    m.push(
        "sim.memo_hit_rate",
        rmcc.report.meta.memo_l0.all_hit_rate(),
        "frac",
    );
    m.push(
        "sim.mean_miss_latency_ns",
        rmcc.report.mean_miss_latency_ns,
        "ns",
    );
    m.push(
        "sim.morphable_mean_miss_latency_ns",
        morph.report.mean_miss_latency_ns,
        "ns",
    );
    m.push("sim.speedup_vs_morphable", speedup, "x");
    m.push(
        "sim.accelerated_fraction",
        rmcc.report.meta.accelerated_rate(),
        "frac",
    );
    m.push(
        "core.table.hit_rate",
        rmcc.report.meta.memo_l0.all_hit_rate(),
        "frac",
    );
    crypto_bench::run(m, &traced[1].pairs, Backend::Fast, CRYPTO_BUDGET);
    Ok(out)
}
