//! The repository benchmark: closed-loop serving workloads on the sharded
//! [`rmcc_secmem::service::SecureMemoryService`] and the detailed timing
//! simulator on canneal, with end-to-end metrics from an untraced run and a
//! per-layer ledger from a separate traced run.
//!
//! Nothing inside the measured program is instrumented. The traced run
//! records spans around the calls this benchmark makes into each layer's
//! public functions (engine `read`/`write`/`write_baseline`/`prefetch_pads`,
//! the counter-update policy's `bump`, `ServiceSnapshot::shard_of`, the
//! crypto primitives, the corpus/kernel generators and the trace codec).
//! See `NOTES.md` for the workloads, the metrics and how to run it.

#![forbid(unsafe_code)]

mod crypto_bench;
pub mod host;
mod service;
mod sim;
mod spans;
mod stats;
mod stream;

use rmcc_workloads::workload::Scale;

/// End-to-end metrics every workload reports from its untraced run, with
/// their units (`--trace 0`). Mirrors `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("accesses_per_s", "1/s"),
    ("batch_p50_us", "us"),
    ("batch_tail_us", "us"),
    ("aes_per_access", "aes/access"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics every workload reports from its traced run
/// (`--trace 1`). Mirrors `per_layer` in `BENCHMARK.json`; the traced run
/// prints its workload-specific layers (`secmem.*`, `core.shard.*`,
/// `sim.*`, ...) on `layer` lines besides these.
pub const PER_LAYER: [(&str, &str); 16] = [
    ("trace.overhead_frac", "frac"),
    ("workloads.gen_s", "s"),
    ("workloads.codec.encode_s", "s"),
    ("workloads.codec.decode_s", "s"),
    ("workloads.codec.bytes_per_event", "B/event"),
    ("crypto.aes.fast_scalar_blocks_per_s", "1/s"),
    ("crypto.aes.fast_batch8_blocks_per_s", "1/s"),
    ("crypto.aes.hardened_scalar_blocks_per_s", "1/s"),
    ("crypto.aes.hardened_batch8_blocks_per_s", "1/s"),
    ("crypto.otp.block_pads_ns", "ns"),
    ("crypto.otp.block_pads_hit_ns", "ns"),
    ("crypto.otp.mac_pad_ns", "ns"),
    ("crypto.otp.batch8_ns_per_block", "ns"),
    ("crypto.mac.compute_ns", "ns"),
    ("crypto.mac.verify_ns", "ns"),
    ("core.table.hit_rate", "frac"),
];

/// A seed kept out of tuning: claims made with the tuning seeds should be
/// re-checked on this one before they are believed.
pub const HELD_OUT_SEED: u64 = 9_001;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Key-value serving, ~5% writes, fast backend: the read path.
    KvRead,
    /// The same keyspace, mostly writes, tenant churn on: the write path.
    KvWrite,
    /// Cyclic sweep far past the pad memo on the hardened backend:
    /// crypto-bound.
    SweepHardened,
    /// The detailed timing model on canneal, Morphable vs RMCC.
    SimCanneal,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::KvRead,
        Workload::KvWrite,
        Workload::SweepHardened,
        Workload::SimCanneal,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvRead => "kv_read",
            Workload::KvWrite => "kv_write",
            Workload::SweepHardened => "sweep_hardened",
            Workload::SimCanneal => "sim_canneal",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed: the same seed generates the same inputs.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// `false`: untraced run, end-to-end metrics. `true`: traced run,
    /// per-layer ledger.
    pub trace: bool,
    /// Input size (`small` for measurements, `tiny` for tests).
    pub scale: Scale,
}

/// One named measurement with its unit and an optional remark.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Context printed beside the value (percentile, sample count, ...).
    pub note: String,
}

/// An ordered list of measurements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    rows: Vec<Row>,
}

impl Ledger {
    /// Appends a row without a remark.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push_note(name, value, unit, String::new());
    }

    /// Appends a row with a remark.
    pub fn push_note(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.rows.push(Row {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    /// The value of the first row named `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.row(name).map(|r| r.value)
    }

    /// The first row named `name`.
    pub fn row(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Every row, in insertion order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }
}

/// One correctness check and its verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub passed: bool,
    /// The compared values, for the failure message.
    pub detail: String,
}

/// Everything one invocation measured and checked.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// AES backend the measured program used (`n/a` for the simulator).
    pub backend: &'static str,
    /// Operations the measured phase attempted (accesses or trace events).
    pub attempted: u64,
    /// Attempted operations whose result was anything but success.
    pub failed: u64,
    /// Correctness gate verdicts.
    pub checks: Vec<Check>,
    /// End-to-end metrics (untraced run) or the per-layer ledger (traced
    /// run), plus informational rows.
    pub metrics: Ledger,
    /// Quantities that must repeat exactly for a given seed (digests,
    /// modeled counts, simulated statistics), rendered exactly.
    pub deterministic: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records a check.
    pub fn check(&mut self, name: &'static str, passed: bool, detail: String) {
        self.checks.push(Check {
            name,
            passed,
            detail,
        });
    }

    /// Records a quantity that must repeat exactly for this seed.
    pub fn pin(&mut self, name: &'static str, value: impl std::fmt::Display) {
        self.deterministic.push((name, value.to_string()));
    }

    /// Whether every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.passed)
    }
}

/// Runs one invocation.
///
/// # Errors
///
/// Returns a message when the workload could not be set up or run at all
/// (as opposed to running and failing a check, which the outcome records).
pub fn run(opts: &Options) -> Result<Outcome, String> {
    match opts.workload {
        Workload::SimCanneal => sim::run(opts),
        w => service::run(w, opts),
    }
}
