//! Per-figure experiment harnesses.
//!
//! One function per table/figure of the paper's evaluation; each returns a
//! [`Series`] whose rows are the paper's x-axis (the eleven workloads) and
//! whose columns are the figure's bars/lines. The `rmcc-bench` crate turns
//! these into runnable targets; EXPERIMENTS.md records paper-vs-measured.
//!
//! Every per-workload figure fans its independent (workload, scheme) cells
//! across a scoped-thread worker pool (the internals of the private
//! `Experiments::per_workload`): simulations for different workloads share
//! nothing, so they run concurrently, while rows are committed in
//! `Workload::ALL` order — output is byte-identical to a serial run. The
//! pool width defaults to the host's available parallelism and can be
//! pinned with the `RMCC_JOBS` environment variable (or
//! [`Experiments::with_jobs`]).
//!
//! Each cell runs under `catch_unwind`, so a panicking workload poisons only
//! its own row: the [`Series`] records it as a [`CellFailure`] (the row
//! prints as `FAILED` and is excluded from the mean) and every other cell
//! still completes and commits in order.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rmcc_cache::tlb::PageSize;
use rmcc_dram::channel::TrafficClass;
use rmcc_dram::config::ns;
use rmcc_telemetry::PhaseProfiler;
use rmcc_workloads::graph::Csr;
use rmcc_workloads::workload::{graph_for, Scale, Workload};

use crate::config::{Scheme, SystemConfig};
use crate::detailed::{run_detailed, DetailedReport};
use crate::lifetime::{run_lifetime, LifetimeReport, LifetimeRunner};
use crate::runner::Runner;

/// One experiment cell whose workload panicked. The harness isolates the
/// panic: the cell is reported failed, every other cell completes normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// The workload whose cell panicked.
    pub workload: String,
    /// The panic message.
    pub message: String,
}

/// A labeled table of results: one row per workload, one column per series.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Figure/table title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// `(row label, one value per column)`. Failed rows hold NaN.
    pub rows: Vec<(String, Vec<f64>)>,
    /// `(row label, panic message)` for every failed cell.
    pub failures: Vec<(String, String)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Series {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count differs from the column count.
    pub fn push(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        self.rows.push((label.into(), values));
    }

    /// Appends a failed row (all NaN) and records the panic message.
    pub fn push_failed(&mut self, label: impl Into<String>, message: impl Into<String>) {
        let label = label.into();
        self.rows
            .push((label.clone(), vec![f64::NAN; self.columns.len()]));
        self.failures.push((label, message.into()));
    }

    /// Appends an arithmetic-mean row labeled `mean` (the paper's final
    /// bar in every per-workload figure). Failed (NaN) rows are excluded
    /// from the mean; with no finite rows at all, no mean row is added.
    pub fn with_mean(mut self) -> Self {
        let finite: Vec<&Vec<f64>> = self
            .rows
            .iter()
            .filter(|(_, v)| v.iter().all(|x| x.is_finite()))
            .map(|(_, v)| v)
            .collect();
        if finite.is_empty() {
            return self;
        }
        let n = finite.len() as f64;
        let means: Vec<f64> = (0..self.columns.len())
            .map(|c| finite.iter().map(|v| v[c]).sum::<f64>() / n)
            .collect();
        self.rows.push(("mean".to_string(), means));
        self
    }

    /// The values of the row labeled `label`, if present.
    pub fn row(&self, label: &str) -> Option<&[f64]> {
        self.rows
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, v)| v.as_slice())
    }
}

impl std::fmt::Display for Series {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(8))
            .max()
            .unwrap_or(8);
        write!(f, "{:label_w$}", "")?;
        for c in &self.columns {
            write!(f, "  {c:>14}")?;
        }
        writeln!(f)?;
        for (label, values) in &self.rows {
            write!(f, "{label:label_w$}")?;
            for v in values {
                if v.is_nan() {
                    write!(f, "  {:>14}", "FAILED")?;
                } else {
                    write!(f, "  {v:>14.4}")?;
                }
            }
            writeln!(f)?;
        }
        for (label, message) in &self.failures {
            writeln!(f, "!! {label}: cell panicked: {message}")?;
        }
        Ok(())
    }
}

/// Result of [`Experiments::telemetry_sweep`]: one epoch-resolved JSONL
/// series per workload, plus a wall-time profile of the sweep.
///
/// The `cells` are deterministic — byte-identical whether the sweep ran
/// serially or through the worker pool, and across same-seed reruns. The
/// [`PhaseProfiler`] records real wall time and is explicitly *outside*
/// that contract.
#[derive(Debug)]
pub struct TelemetrySweep {
    /// `(workload name, JSONL series)` in `Workload::ALL` order; a
    /// panicking cell carries its [`CellFailure`] instead.
    pub cells: Vec<(String, Result<String, CellFailure>)>,
    /// Wall-time phases of the sweep (not part of the determinism
    /// contract).
    pub profile: PhaseProfiler,
}

impl TelemetrySweep {
    /// The JSONL series for `workload`, if that cell succeeded.
    pub fn jsonl(&self, workload: &str) -> Option<&str> {
        self.cells
            .iter()
            .find(|(name, _)| name == workload)
            .and_then(|(_, r)| r.as_deref().ok())
    }

    /// Writes each successful cell to `dir/telemetry_<workload>.jsonl`
    /// (creating `dir` if needed) and returns the paths written, in
    /// `Workload::ALL` order. Failed cells are skipped.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from creating the directory or writing a
    /// file.
    pub fn write_to_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut paths = Vec::new();
        for (name, cell) in &self.cells {
            if let Ok(jsonl) = cell {
                let path = dir.join(format!("telemetry_{name}.jsonl"));
                std::fs::write(&path, jsonl)?;
                paths.push(path);
            }
        }
        Ok(paths)
    }
}

/// Renders a caught panic payload as text (panics carry `&str` or `String`
/// payloads in practice).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Worker count for the harness: `RMCC_JOBS` if set (and ≥ 1), else the
/// host's available parallelism.
fn default_jobs() -> usize {
    match std::env::var("RMCC_JOBS") {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&j| j >= 1)
            .unwrap_or(1),
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Shared context: the scale, the (expensive to build) input graph, and the
/// worker-pool width.
#[derive(Debug, Clone)]
pub struct Experiments {
    scale: Scale,
    graph: Csr,
    jobs: usize,
}

impl Experiments {
    /// Builds the context, generating the R-MAT graph once. The worker-pool
    /// width comes from `RMCC_JOBS`, defaulting to the host parallelism.
    pub fn new(scale: Scale) -> Self {
        Self::with_jobs(scale, default_jobs())
    }

    /// Like [`Experiments::new`] but with an explicit worker count
    /// (`jobs == 1` runs strictly serially on the calling thread).
    pub fn with_jobs(scale: Scale, jobs: usize) -> Self {
        Experiments {
            scale,
            graph: graph_for(scale),
            jobs: jobs.max(1),
        }
    }

    /// The scale in use.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The worker-pool width in use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Maps every workload through `f`, fanning the calls across a
    /// scoped-thread pool of [`Self::jobs`] workers. Results come back in
    /// `Workload::ALL` order no matter which worker computed them, and
    /// each `f(w)` is deterministic, so output is identical to a serial
    /// map.
    ///
    /// Every cell runs under `catch_unwind`: a panic in `f(w)` becomes an
    /// `Err(CellFailure)` for that cell alone — it never poisons a slot
    /// lock, kills a worker, or aborts the rest of the sweep.
    fn per_workload<T, F>(&self, f: F) -> Vec<Result<T, CellFailure>>
    where
        T: Send,
        F: Fn(Workload) -> T + Sync,
    {
        let cell = |w: Workload| {
            catch_unwind(AssertUnwindSafe(|| f(w))).map_err(|payload| CellFailure {
                workload: w.name().to_string(),
                message: panic_message(payload),
            })
        };
        let jobs = self.jobs.min(Workload::ALL.len());
        if jobs <= 1 {
            return Workload::ALL.iter().map(|&w| cell(w)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<T, CellFailure>>>> =
            Workload::ALL.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&w) = Workload::ALL.get(i) else {
                        break;
                    };
                    let row = cell(w);
                    *slots[i].lock().expect("slot lock poisoned") = Some(row);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("slot lock poisoned")
                    .expect("every slot filled")
            })
            .collect()
    }

    /// Builds a per-workload series: runs `f` through the pool, then
    /// commits one row per workload in `Workload::ALL` order plus the
    /// mean row. Panicking cells become `FAILED` rows.
    fn series_of<F>(&self, title: &str, columns: &[&str], f: F) -> Series
    where
        F: Fn(Workload) -> Vec<f64> + Sync,
    {
        let mut s = Series::new(title, columns);
        for (w, row) in Workload::ALL.iter().zip(self.per_workload(f)) {
            match row {
                Ok(values) => s.push(w.name(), values),
                Err(e) => s.push_failed(w.name(), e.message),
            }
        }
        s.with_mean()
    }

    fn lifetime(&self, w: Workload, cfg: &SystemConfig) -> LifetimeReport {
        let graph = w.uses_graph().then_some(&self.graph);
        // The shared graph is always passed for graph kernels, so the typed
        // error is unreachable; if it ever fires, the panic is caught by
        // the cell isolation and reported as a FAILED row.
        run_lifetime(w, self.scale, graph, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    fn detailed(&self, w: Workload, cfg: &SystemConfig) -> DetailedReport {
        let graph = w.uses_graph().then_some(&self.graph);
        run_detailed(w, self.scale, graph, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Figure 3: counter-cache misses per LLC miss under Morphable
    /// Counters, lifetime methodology (32 KB counter cache).
    pub fn fig03_counter_miss(&self) -> Series {
        let cfg = SystemConfig::lifetime(Scheme::Morphable);
        self.series_of(
            "Figure 3: counter misses per LLC miss (Morphable, lifetime)",
            &["ctr miss rate"],
            |w| vec![self.lifetime(w, &cfg).counter_miss_rate()],
        )
    }

    /// Figure 4: TLB misses per LLC miss under 4 KB and 2 MB pages.
    pub fn fig04_tlb(&self) -> Series {
        let cfg = SystemConfig::lifetime(Scheme::NonSecure);
        self.series_of(
            "Figure 4: TLB misses per LLC miss",
            &["4KB pages", "2MB pages"],
            |w| {
                let r = self.lifetime(w, &cfg);
                vec![
                    r.tlb_per_llc_miss(PageSize::Small4K),
                    r.tlb_per_llc_miss(PageSize::Huge2M),
                ]
            },
        )
    }

    /// Figure 10: memoization hit rate for counter misses, split into hits
    /// from live groups and hits from MRU single values.
    pub fn fig10_hit_breakdown(&self) -> Series {
        let cfg = SystemConfig::lifetime(Scheme::Rmcc);
        self.series_of(
            "Figure 10: memoization hits on counter misses",
            &["group hits", "MRU hits", "total"],
            |w| {
                let r = self.lifetime(w, &cfg);
                let t = &r.meta.memo_l0;
                let n = (t.miss_group_hits + t.miss_mru_hits + t.miss_misses).max(1) as f64;
                let g = t.miss_group_hits as f64 / n;
                let m = t.miss_mru_hits as f64 / n;
                vec![g, m, g + m]
            },
        )
    }

    /// Figure 12: bandwidth utilization breakdown under Morphable Counters
    /// (detailed mode).
    pub fn fig12_bandwidth(&self) -> Series {
        let cfg = SystemConfig::detailed_scaled(Scheme::Morphable);
        self.series_of(
            "Figure 12: bandwidth utilization under Morphable",
            &["data", "counters", "L0 overflow", "L1+ overflow"],
            |w| {
                let r = self.detailed(w, &cfg);
                TrafficClass::ALL
                    .iter()
                    .map(|&c| r.utilization(c))
                    .collect()
            },
        )
    }

    /// Figures 13 and 14 share their runs: performance normalized to
    /// non-secure, and mean LLC-miss latency, for SC-64 / Morphable / RMCC
    /// (+ non-secure latency).
    pub fn fig13_fig14(&self) -> (Series, Series) {
        let mut perf = Series::new(
            "Figure 13: performance normalized to non-secure",
            &["SC-64", "Morphable", "RMCC"],
        );
        let mut lat = Series::new(
            "Figure 14: average LLC miss latency (ns)",
            &["SC-64", "Morphable", "RMCC", "Non-secure"],
        );
        let rows = self.per_workload(|w| {
            let non = self.detailed(w, &SystemConfig::detailed_scaled(Scheme::NonSecure));
            let sc = self.detailed(w, &SystemConfig::detailed_scaled(Scheme::Sc64));
            let mo = self.detailed(w, &SystemConfig::detailed_scaled(Scheme::Morphable));
            let rm = self.detailed(w, &SystemConfig::detailed_scaled(Scheme::Rmcc));
            (
                vec![
                    sc.normalized_perf(&non),
                    mo.normalized_perf(&non),
                    rm.normalized_perf(&non),
                ],
                vec![
                    sc.mean_miss_latency_ns,
                    mo.mean_miss_latency_ns,
                    rm.mean_miss_latency_ns,
                    non.mean_miss_latency_ns,
                ],
            )
        });
        for (w, cell) in Workload::ALL.iter().zip(rows) {
            match cell {
                Ok((prow, lrow)) => {
                    perf.push(w.name(), prow);
                    lat.push(w.name(), lrow);
                }
                Err(e) => {
                    perf.push_failed(w.name(), e.message.clone());
                    lat.push_failed(w.name(), e.message);
                }
            }
        }
        (perf.with_mean(), lat.with_mean())
    }

    /// Figure 15: average data blocks covered per memoized L0 counter
    /// value at the end of each workload.
    pub fn fig15_coverage(&self) -> Series {
        let cfg = SystemConfig::lifetime(Scheme::Rmcc);
        self.series_of(
            "Figure 15: avg blocks covered per memoized counter value",
            &["blocks"],
            |w| vec![self.lifetime(w, &cfg).avg_value_coverage],
        )
    }

    /// Figure 16: memory traffic overhead of RMCC over Morphable, split by
    /// the L0 and L1 budgets.
    pub fn fig16_traffic(&self) -> Series {
        let base_cfg = SystemConfig::lifetime(Scheme::Morphable);
        let rmcc_cfg = SystemConfig::lifetime(Scheme::Rmcc);
        self.series_of(
            "Figure 16: traffic overhead of RMCC vs Morphable",
            &["L0 share", "L1 share", "total overhead"],
            |w| {
                let base = self.lifetime(w, &base_cfg);
                let rmcc = self.lifetime(w, &rmcc_cfg);
                let bt = base.total_requests().max(1) as f64;
                let total = (rmcc.total_requests() as f64 - bt) / bt;
                let l0 = rmcc.rmcc_spent_l0 as f64 / bt;
                let l1 = rmcc.rmcc_spent_l1 as f64 / bt;
                vec![l0, l1, total.max(0.0)]
            },
        )
    }

    /// Figure 17: RMCC performance normalized to Morphable under 15 ns and
    /// 22 ns AES latencies.
    pub fn fig17_aes_latency(&self) -> Series {
        self.series_of(
            "Figure 17: RMCC vs Morphable under AES latency",
            &["15ns AES", "22ns AES"],
            |w| {
                let mut vals = Vec::new();
                for aes_ns in [15.0, 22.0] {
                    let mut base = SystemConfig::detailed_scaled(Scheme::Morphable);
                    base.aes_latency = ns(aes_ns);
                    let mut rmcc = SystemConfig::detailed_scaled(Scheme::Rmcc);
                    rmcc.aes_latency = ns(aes_ns);
                    let b = self.detailed(w, &base);
                    let r = self.detailed(w, &rmcc);
                    vals.push(r.normalized_perf(&b));
                }
                vals
            },
        )
    }

    /// Figure 18: RMCC performance normalized to Morphable under 128 KB,
    /// 256 KB, and 512 KB counter caches.
    pub fn fig18_counter_cache(&self) -> Series {
        self.series_of(
            "Figure 18: RMCC vs Morphable under counter cache size",
            &["128KB", "256KB", "512KB"],
            |w| {
                let mut vals = Vec::new();
                // The paper sweeps 128/256/512 KB; scaled 4x alongside the
                // footprints (see SystemConfig::detailed_scaled).
                for kb in [32usize, 64, 128] {
                    let mut base = SystemConfig::detailed_scaled(Scheme::Morphable);
                    base.counter_cache_bytes = kb << 10;
                    let mut rmcc = SystemConfig::detailed_scaled(Scheme::Rmcc);
                    rmcc.counter_cache_bytes = kb << 10;
                    let b = self.detailed(w, &base);
                    let r = self.detailed(w, &rmcc);
                    vals.push(r.normalized_perf(&b));
                }
                vals
            },
        )
    }

    /// Figures 19 and 20: memoization hit rate (all lookups) and traffic
    /// overhead under 1% / 2% / 8% per-level budgets.
    pub fn fig19_fig20(&self) -> (Series, Series) {
        let mut hits = Series::new(
            "Figure 19: memoization hit rate vs budget",
            &["1% budget", "2% budget", "8% budget"],
        );
        let mut traffic = Series::new(
            "Figure 20: traffic overhead vs budget",
            &["1% budget", "2% budget", "8% budget"],
        );
        let base_cfg = SystemConfig::lifetime(Scheme::Morphable);
        let rows = self.per_workload(|w| {
            let base = self.lifetime(w, &base_cfg);
            let bt = base.total_requests().max(1) as f64;
            let mut hrow = Vec::new();
            let mut trow = Vec::new();
            for frac in [0.01, 0.02, 0.08] {
                let mut cfg = SystemConfig::lifetime(Scheme::Rmcc);
                cfg.rmcc = rmcc_core::rmcc::RmccConfig::with_budget(frac);
                let r = self.lifetime(w, &cfg);
                hrow.push(r.meta.memo_l0.all_hit_rate());
                trow.push(((r.total_requests() as f64 - bt) / bt).max(0.0));
            }
            (hrow, trow)
        });
        for (w, cell) in Workload::ALL.iter().zip(rows) {
            match cell {
                Ok((hrow, trow)) => {
                    hits.push(w.name(), hrow);
                    traffic.push(w.name(), trow);
                }
                Err(e) => {
                    hits.push_failed(w.name(), e.message.clone());
                    traffic.push_failed(w.name(), e.message);
                }
            }
        }
        (hits.with_mean(), traffic.with_mean())
    }

    /// Figures 21 and 22: memoization hit rate and traffic overhead under
    /// Memoized Counter Value Group sizes 4 / 8 / 16 (total entries fixed
    /// at 128).
    pub fn fig21_fig22(&self) -> (Series, Series) {
        let mut hits = Series::new(
            "Figure 21: memoization hit rate vs group size",
            &["group 4", "group 8", "group 16"],
        );
        let mut traffic = Series::new(
            "Figure 22: traffic overhead vs group size",
            &["group 4", "group 8", "group 16"],
        );
        let base_cfg = SystemConfig::lifetime(Scheme::Morphable);
        let rows = self.per_workload(|w| {
            let base = self.lifetime(w, &base_cfg);
            let bt = base.total_requests().max(1) as f64;
            let mut hrow = Vec::new();
            let mut trow = Vec::new();
            for size in [4u64, 8, 16] {
                let mut cfg = SystemConfig::lifetime(Scheme::Rmcc);
                cfg.rmcc = rmcc_core::rmcc::RmccConfig::with_group_size(size);
                let r = self.lifetime(w, &cfg);
                hrow.push(r.meta.memo_l0.all_hit_rate());
                trow.push(((r.total_requests() as f64 - bt) / bt).max(0.0));
            }
            (hrow, trow)
        });
        for (w, cell) in Workload::ALL.iter().zip(rows) {
            match cell {
                Ok((hrow, trow)) => {
                    hits.push(w.name(), hrow);
                    traffic.push(w.name(), trow);
                }
                Err(e) => {
                    hits.push_failed(w.name(), e.message.clone());
                    traffic.push_failed(w.name(), e.message);
                }
            }
        }
        (hits.with_mean(), traffic.with_mean())
    }

    /// §IV-D2: growth of the maximum counter value, RMCC vs Morphable.
    pub fn max_counter_growth(&self) -> Series {
        let base_cfg = SystemConfig::lifetime(Scheme::Morphable);
        let rmcc_cfg = SystemConfig::lifetime(Scheme::Rmcc);
        self.series_of(
            "Max counter value: RMCC vs Morphable (§IV-D2)",
            &["Morphable", "RMCC", "ratio"],
            |w| {
                let b = self.lifetime(w, &base_cfg);
                let r = self.lifetime(w, &rmcc_cfg);
                let ratio = if b.max_counter == 0 {
                    0.0
                } else {
                    r.max_counter as f64 / b.max_counter as f64
                };
                vec![b.max_counter as f64, r.max_counter as f64, ratio]
            },
        )
    }

    /// Extension (§III discussion): Morphable's counter-miss rate under
    /// 4 KB pages vs 2 MB huge pages. A Morphable counter block covers two
    /// *physically adjacent* 4 KB pages; small-page placement scatters
    /// virtually adjacent pages, so coverage halves and misses rise.
    pub fn page_size_sensitivity(&self) -> Series {
        self.series_of(
            "Extension: counter miss rate, 2MB vs 4KB pages (Morphable)",
            &["2MB pages", "4KB pages"],
            |w| {
                let mut huge = SystemConfig::lifetime(Scheme::Morphable);
                huge.page_size = PageSize::Huge2M;
                let mut small = SystemConfig::lifetime(Scheme::Morphable);
                small.page_size = PageSize::Small4K;
                let rh = self.lifetime(w, &huge);
                let rs = self.lifetime(w, &small);
                vec![rh.counter_miss_rate(), rs.counter_miss_rate()]
            },
        )
    }

    /// Ablation (§IV-C1): memoization hit rate with and without
    /// read-triggered counter updates for read-mostly blocks.
    pub fn ablation_read_triggered(&self) -> Series {
        self.series_of(
            "Ablation: memoization hit rate with/without read-triggered updates",
            &["with", "without"],
            |w| {
                let on = SystemConfig::lifetime(Scheme::Rmcc);
                let mut off = SystemConfig::lifetime(Scheme::Rmcc);
                off.rmcc.read_triggered = false;
                let r_on = self.lifetime(w, &on);
                let r_off = self.lifetime(w, &off);
                vec![
                    r_on.meta.memo_l0.all_hit_rate(),
                    r_off.meta.memo_l0.all_hit_rate(),
                ]
            },
        )
    }

    /// Related-work comparison (§VII): PoisonIvy-style speculative
    /// verification vs RMCC, both over Morphable, normalized to non-secure.
    /// Speculation hides tree-verification latency only; RMCC also hides
    /// the decryption AES, which dominates after counter misses.
    pub fn related_work_speculation(&self) -> Series {
        self.series_of(
            "Related work: speculative verification vs RMCC (norm. to non-secure)",
            &["Morphable", "Morphable+spec", "RMCC"],
            |w| {
                let non = self.detailed(w, &SystemConfig::detailed_scaled(Scheme::NonSecure));
                let mo = self.detailed(w, &SystemConfig::detailed_scaled(Scheme::Morphable));
                let mut spec_cfg = SystemConfig::detailed_scaled(Scheme::Morphable);
                spec_cfg.speculative_verify = true;
                let spec = self.detailed(w, &spec_cfg);
                let rm = self.detailed(w, &SystemConfig::detailed_scaled(Scheme::Rmcc));
                vec![
                    mo.normalized_perf(&non),
                    spec.normalized_perf(&non),
                    rm.normalized_perf(&non),
                ]
            },
        )
    }

    /// Epoch-resolved telemetry sweep: runs every workload under `scheme`
    /// (lifetime methodology) with telemetry recording on and the epoch
    /// shortened to `epoch_accesses` memory requests, and returns each
    /// cell's JSONL series. Any trailing partial epoch is flushed, so a
    /// cell that issued at least one memory request produces at least one
    /// row.
    ///
    /// Cells fan across the same worker pool as every other harness; the
    /// JSONL is byte-identical to a serial sweep. The returned
    /// [`PhaseProfiler`] reports where the wall time went and is excluded
    /// from that determinism contract.
    pub fn telemetry_sweep(&self, scheme: Scheme, epoch_accesses: u64) -> TelemetrySweep {
        let mut profile = PhaseProfiler::new();
        profile.start("configure");
        let mut cfg = SystemConfig::lifetime(scheme);
        cfg.telemetry = true;
        cfg.rmcc.epoch_accesses = epoch_accesses.max(1);
        profile.start("simulate");
        let rows = self.per_workload(|w| {
            let graph = w.uses_graph().then_some(&self.graph);
            let mut runner = LifetimeRunner::new(&cfg);
            let _report = match graph {
                Some(_) => runner.run(&mut w.source_on(graph, self.scale)),
                None => runner.run(&mut w.source(self.scale)),
            };
            runner.engine().finish_telemetry().unwrap_or_default()
        });
        profile.finish();
        let cells = Workload::ALL
            .iter()
            .zip(rows)
            .map(|(w, r)| (w.name().to_string(), r))
            .collect();
        TelemetrySweep { cells, profile }
    }

    /// The paper's 92% headline: fraction of counter misses whose
    /// decryption/verification is accelerated.
    pub fn accelerated_misses(&self) -> Series {
        let cfg = SystemConfig::lifetime(Scheme::Rmcc);
        self.series_of(
            "Accelerated counter misses (paper: 92% mean)",
            &["accelerated"],
            |w| vec![self.lifetime(w, &cfg).meta.accelerated_rate()],
        )
    }
}

/// Renders Table I (the full system configuration).
pub fn table1() -> String {
    SystemConfig::table1(Scheme::Rmcc).to_string()
}

/// The serving-corpus sweep: one small service run per corpus scenario,
/// reporting how self-reinforcement fares under each traffic shape — write
/// conformance, memoization hit rate on lookups, the fallback share, and
/// the per-shard budget actually spent.
pub fn serving_scenarios() -> Series {
    use crate::service_run::{run_service, ServingScenario};
    let mut s = Series::new(
        "Serving scenarios (small 4-shard service runs)",
        &[
            "conformance",
            "memo hit rate",
            "fallback share",
            "budget spent",
        ],
    );
    for scenario in ServingScenario::ALL {
        let name = scenario.corpus_scenario().name();
        let r = run_service(scenario);
        let a = &r.aggregate;
        let writes = (a.conformed_writes + a.baseline_writes).max(1) as f64;
        let hits = a.table.group_hits + a.table.mru_hits;
        let lookups = (hits + a.table.fallbacks).max(1) as f64;
        s.push(
            name,
            vec![
                a.conformed_writes as f64 / writes,
                hits as f64 / lookups,
                a.table.fallbacks as f64 / lookups,
                a.budget_spent as f64,
            ],
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_push_mean_and_display() {
        let mut s = Series::new("t", &["a", "b"]);
        s.push("x", vec![1.0, 3.0]);
        s.push("y", vec![3.0, 5.0]);
        let s = s.with_mean();
        assert_eq!(s.row("mean"), Some(&[2.0, 4.0][..]));
        let text = s.to_string();
        assert!(text.contains("== t =="));
        assert!(text.contains("mean"));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn series_width_checked() {
        let mut s = Series::new("t", &["a"]);
        s.push("x", vec![1.0, 2.0]);
    }

    #[test]
    fn table1_text() {
        let t = table1();
        assert!(t.contains("RMCC"));
        assert!(t.contains("128 GB"));
    }

    #[test]
    fn serving_scenarios_covers_every_corpus_stream() {
        let s = serving_scenarios();
        assert!(s.failures.is_empty(), "{:?}", s.failures);
        let labels: Vec<&str> = s.rows.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            ["kv_serving", "phase_change", "adversarial_locality"]
        );
        for (label, values) in &s.rows {
            assert!(
                values.iter().all(|v| v.is_finite() && *v >= 0.0),
                "{label}: {values:?}"
            );
            // The first three columns are rates.
            assert!(values[..3].iter().all(|v| *v <= 1.0), "{label}: {values:?}");
        }
        // Every scenario steers a real share of writes, spends budget doing
        // it, and the phase-change stream — which keeps re-learning a moved
        // hot set — conforms less than steady key-value serving.
        for (label, values) in &s.rows {
            assert!(
                values[0] > 0.2,
                "{label}: conformance collapsed: {values:?}"
            );
            assert!(values[3] > 0.0, "{label}: no budget spent: {values:?}");
        }
        let kv = s.row("kv_serving").expect("kv row")[0];
        let phase = s.row("phase_change").expect("phase row")[0];
        assert!(
            phase < kv,
            "phase-change conformance {phase} not below kv serving {kv}"
        );
    }

    #[test]
    fn tiny_fig03_has_all_workloads_plus_mean() {
        let ex = Experiments::new(Scale::Tiny);
        let s = ex.fig03_counter_miss();
        assert_eq!(s.rows.len(), 12);
        for (_, v) in &s.rows {
            assert!((0.0..=1.0).contains(&v[0]));
        }
    }

    #[test]
    fn tiny_fig13_14_shapes() {
        // One workload's worth of runs at tiny scale to keep tests quick:
        // use the full harness but verify only structure.
        let ex = Experiments::new(Scale::Tiny);
        let (perf, lat) = ex.fig13_fig14();
        assert_eq!(perf.columns.len(), 3);
        assert_eq!(lat.columns.len(), 4);
        assert_eq!(perf.rows.len(), 12);
        // Normalized perf is at most ~1.
        for (_, v) in &perf.rows {
            for &x in v {
                assert!(x > 0.1 && x <= 1.05, "normalized perf {x}");
            }
        }
    }

    #[test]
    fn jobs_default_respects_env_override() {
        // `with_jobs` clamps to ≥ 1 and reports what it was given.
        assert_eq!(Experiments::with_jobs(Scale::Tiny, 0).jobs(), 1);
        assert_eq!(Experiments::with_jobs(Scale::Tiny, 3).jobs(), 3);
    }

    #[test]
    fn parallel_rows_match_serial_rows() {
        let serial = Experiments::with_jobs(Scale::Tiny, 1);
        let pooled = Experiments::with_jobs(Scale::Tiny, 4);
        assert_eq!(serial.fig03_counter_miss(), pooled.fig03_counter_miss());
    }

    #[test]
    fn series_mean_skips_failed_rows_and_display_marks_them() {
        let mut s = Series::new("t", &["a"]);
        s.push("x", vec![1.0]);
        s.push_failed("y", "boom");
        s.push("z", vec![3.0]);
        let s = s.with_mean();
        assert_eq!(s.row("mean"), Some(&[2.0][..]));
        assert!(s.row("y").unwrap()[0].is_nan());
        let text = s.to_string();
        assert!(text.contains("FAILED"));
        assert!(text.contains("!! y: cell panicked: boom"));
    }

    #[test]
    fn telemetry_sweep_is_deterministic_and_parses() {
        let serial = Experiments::with_jobs(Scale::Tiny, 1).telemetry_sweep(Scheme::Rmcc, 2_000);
        let pooled = Experiments::with_jobs(Scale::Tiny, 4).telemetry_sweep(Scheme::Rmcc, 2_000);
        assert_eq!(serial.cells, pooled.cells, "pool order must not leak");
        assert_eq!(serial.cells.len(), Workload::ALL.len());
        for (name, cell) in &serial.cells {
            let jsonl = cell.as_ref().unwrap_or_else(|e| panic!("{name}: {e:?}"));
            let rows = rmcc_telemetry::parse_jsonl(jsonl).expect("valid JSONL");
            assert!(!rows.is_empty(), "{name}: no epochs resolved");
            let first = &rows[0];
            for key in ["table_hit_rate", "aes_saved", "conformance_ratio"] {
                assert!(first.get(key).is_some(), "{name}: missing column {key}");
            }
        }
        // The profiler saw real phases (wall times themselves are not
        // part of the contract).
        assert!(serial.profile.phases().len() >= 2);
    }

    #[test]
    fn telemetry_sweep_writes_files() {
        let sweep =
            Experiments::with_jobs(Scale::Tiny, 2).telemetry_sweep(Scheme::Morphable, 5_000);
        let dir = std::env::temp_dir().join(format!("rmcc-telemetry-sweep-{}", std::process::id()));
        let paths = sweep.write_to_dir(&dir).expect("write telemetry files");
        assert_eq!(paths.len(), Workload::ALL.len());
        for (path, (name, cell)) in paths.iter().zip(&sweep.cells) {
            let on_disk = std::fs::read_to_string(path).expect("readable file");
            assert_eq!(&on_disk, cell.as_ref().expect("cell succeeded"), "{name}");
            assert_eq!(sweep.jsonl(name), Some(on_disk.as_str()));
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn panicking_cell_is_isolated_and_other_rows_match_serial() {
        // Fault-free serial reference: exactly what fig03 computes.
        let clean = Experiments::with_jobs(Scale::Tiny, 1).fig03_counter_miss();

        // Same sweep through the pool, with one cell rigged to panic.
        let pooled = Experiments::with_jobs(Scale::Tiny, 4);
        let cfg = SystemConfig::lifetime(Scheme::Morphable);
        let faulty = pooled.series_of("fig03 with a poisoned cell", &["ctr miss rate"], |w| {
            if w == Workload::Mcf {
                panic!("injected workload panic");
            }
            vec![pooled.lifetime(w, &cfg).counter_miss_rate()]
        });

        // Every surviving row is byte-identical to the serial fault-free
        // run; the panicking cell neither aborted the sweep nor perturbed
        // its neighbours.
        for (label, values) in &clean.rows {
            if label == "mcf" || label == "mean" {
                continue;
            }
            assert_eq!(faulty.row(label), Some(values.as_slice()), "row {label}");
        }
        assert!(faulty.row("mcf").unwrap().iter().all(|v| v.is_nan()));
        assert_eq!(
            faulty.failures,
            vec![("mcf".to_string(), "injected workload panic".to_string())]
        );
        // The mean is computed over the surviving rows only.
        assert!(faulty.row("mean").unwrap().iter().all(|v| v.is_finite()));
    }
}
