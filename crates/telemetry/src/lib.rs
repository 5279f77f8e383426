//! Deterministic, epoch-resolved telemetry for the RMCC stack.
//!
//! The paper's central claim is *self-reinforcing* convergence: over epochs,
//! nearly all live counters conform to the ~128 memoized values, paced by the
//! 1%-per-epoch update budget with carry-over (§IV-B/§IV-C). End-of-run
//! aggregates cannot show that trajectory, so this crate provides the
//! time-series layer the simulator and the test suite share:
//!
//! * [`registry`] — typed counters, gauges, and fixed-bucket histograms
//!   registered once in a [`MetricsRegistry`]; registration order defines
//!   the (stable) export column order.
//! * [`series`] — per-epoch [`EpochSnapshot`]s appended to an
//!   [`EpochSeries`].
//! * [`export`] — a JSONL renderer and a strict parser for the JSONL
//!   dialect this crate emits, so tests and tools can validate output
//!   without external dependencies.
//! * [`profile`] — wall-clock phase timers for the experiment harness.
//!   **Excluded from the determinism contract** (see below).
//!
//! # Determinism contract
//!
//! Everything except [`profile`] is a pure function of the metric updates
//! applied to it: no clocks, no host randomness, no iteration over unordered
//! maps. Two runs that apply the same updates in the same order produce
//! byte-identical JSONL — across reruns and across serial vs. parallel
//! experiment harnesses. Tests treat telemetry as a correctness oracle, so
//! any nondeterminism here is a bug, not noise.
//!
//! # One branch when off
//!
//! Engines hold a [`Telemetry`] handle. When telemetry is disabled it is the
//! [`Telemetry::Off`] variant and every hot-path update is a single
//! discriminant test; no registry, series, or string data is allocated.
//!
//! ```
//! use rmcc_telemetry::{MetricsRegistry, Telemetry};
//!
//! let mut reg = MetricsRegistry::new();
//! let hits = reg.counter("table_hits");
//! let conf = reg.gauge("conformance");
//! let mut tele = Telemetry::on(reg);
//!
//! if let Some(active) = tele.active_mut() {
//!     active.registry.incr(hits, 3);
//!     active.registry.set_gauge(conf, 0.5);
//!     active.snapshot(0, 1_000); // epoch 0 spanned 1 000 accesses
//! }
//! let jsonl = tele.to_jsonl().unwrap();
//! assert!(jsonl.starts_with("{\"epoch\":0,\"accesses\":1000,\"table_hits\":3"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod export;
pub mod profile;
pub mod registry;
pub mod series;

pub use export::{parse_json_line, parse_jsonl, to_jsonl, JsonError, JsonValue};
pub use profile::PhaseProfiler;
pub use registry::{CounterId, GaugeId, HistogramId, MetricsRegistry};
pub use series::{EpochSeries, EpochSnapshot};

/// A telemetry handle an engine can embed: either fully off (one branch on
/// the hot path, nothing allocated) or an [`Active`] registry + series pair.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Telemetry {
    /// Telemetry disabled; all operations are no-ops.
    #[default]
    Off,
    /// Telemetry enabled; boxed so the off variant stays pointer-sized.
    On(Box<Active>),
}

/// The live state behind [`Telemetry::On`]: the registry holding current
/// metric values and the epoch series they are snapshotted into.
#[derive(Debug, Clone, PartialEq)]
pub struct Active {
    /// Current metric values; mutated on the hot path.
    pub registry: MetricsRegistry,
    /// Append-only record of per-epoch snapshots.
    pub series: EpochSeries,
}

impl Active {
    /// Snapshots the registry's current values as epoch `epoch`, which
    /// spanned `accesses` memory accesses, and appends it to the series.
    pub fn snapshot(&mut self, epoch: u64, accesses: u64) {
        self.series.push(self.registry.snapshot(epoch, accesses));
    }

    /// The values a counter took across all recorded epochs, by name.
    pub fn counter_column(&self, name: &str) -> Option<Vec<u64>> {
        let idx = self.registry.counter_index(name)?;
        Some(
            self.series
                .snapshots()
                .iter()
                .filter_map(|s| s.counters.get(idx).copied())
                .collect(),
        )
    }

    /// The values a gauge took across all recorded epochs, by name.
    pub fn gauge_column(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.registry.gauge_index(name)?;
        Some(
            self.series
                .snapshots()
                .iter()
                .filter_map(|s| s.gauges.get(idx).copied())
                .collect(),
        )
    }
}

impl Telemetry {
    /// An enabled handle wrapping `registry` with an empty series.
    pub fn on(registry: MetricsRegistry) -> Self {
        Telemetry::On(Box::new(Active {
            registry,
            series: EpochSeries::new(),
        }))
    }

    /// A disabled handle (same as `Telemetry::default()`).
    pub fn off() -> Self {
        Telemetry::Off
    }

    /// Whether telemetry is collecting.
    pub fn is_on(&self) -> bool {
        matches!(self, Telemetry::On(_))
    }

    /// Mutable access to the live state, `None` when off. This is the one
    /// branch hot paths pay: `if let Some(a) = tele.active_mut() { … }`.
    #[inline]
    pub fn active_mut(&mut self) -> Option<&mut Active> {
        match self {
            Telemetry::Off => None,
            Telemetry::On(a) => Some(a),
        }
    }

    /// Shared access to the live state, `None` when off.
    #[inline]
    pub fn active(&self) -> Option<&Active> {
        match self {
            Telemetry::Off => None,
            Telemetry::On(a) => Some(a),
        }
    }

    /// Renders the recorded series as JSONL, `None` when off.
    pub fn to_jsonl(&self) -> Option<String> {
        self.active().map(|a| to_jsonl(&a.registry, &a.series))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_is_inert() {
        let mut t = Telemetry::off();
        assert!(!t.is_on());
        assert!(t.active_mut().is_none());
        assert!(t.to_jsonl().is_none());
    }

    #[test]
    fn columns_track_snapshots() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("c");
        let g = reg.gauge("g");
        let mut t = Telemetry::on(reg);
        for epoch in 0..3u64 {
            let a = t.active_mut().expect("on");
            a.registry.incr(c, 10);
            a.registry.set_gauge(g, epoch as f64 / 2.0);
            a.snapshot(epoch, 100);
        }
        let a = t.active().expect("on");
        assert_eq!(a.counter_column("c").as_deref(), Some(&[10, 20, 30][..]));
        assert_eq!(a.gauge_column("g").as_deref(), Some(&[0.0, 0.5, 1.0][..]));
        assert!(a.counter_column("missing").is_none());
    }
}
