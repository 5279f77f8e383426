//! The metric registry: typed handles, deterministic column order.
//!
//! Metrics are registered once at engine construction; registration order is
//! the export column order, so two engines built the same way emit the same
//! schema. Handles are plain indices (`Copy`, no lifetimes) so engines can
//! store them in a plain struct and update metrics from the hot path without
//! string lookups.

/// Handle to a monotonically written `u64` counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to an `f64` gauge (last-write-wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a fixed-bucket histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A fixed-bucket histogram: `bounds` are inclusive upper bounds in
/// ascending order, plus one implicit overflow bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive upper bounds, ascending.
    bounds: Vec<u64>,
    /// One count per bound, plus the trailing overflow bucket.
    counts: Vec<u64>,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len().saturating_add(1)],
        }
    }

    /// Records one observation of `value`.
    pub fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        if let Some(c) = self.counts.get_mut(idx) {
            *c = c.saturating_add(1);
        }
    }

    /// The inclusive upper bounds (the overflow bucket is implicit).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; last entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().fold(0u64, |a, &c| a.saturating_add(c))
    }
}

/// The set of metrics an engine exposes, with their current values.
///
/// All mutation is through typed handles returned at registration, so the
/// hot path never hashes a name. [`MetricsRegistry::snapshot`] copies the
/// current values into an [`crate::EpochSnapshot`] without resetting them:
/// counters are cumulative across epochs, gauges are sampled.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsRegistry {
    counter_names: Vec<String>,
    counters: Vec<u64>,
    gauge_names: Vec<String>,
    gauges: Vec<f64>,
    hist_names: Vec<String>,
    hists: Vec<Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a counter named `name`, starting at zero.
    pub fn counter(&mut self, name: &str) -> CounterId {
        debug_assert!(
            !self.counter_names.iter().any(|n| n == name),
            "duplicate counter {name}"
        );
        self.counter_names.push(name.to_string());
        self.counters.push(0);
        CounterId(self.counters.len() - 1)
    }

    /// Registers one counter per shard, named `shard{i}_{name}` in shard
    /// order, and returns the handles in that same order. This is how a
    /// sharded engine folds per-shard series into *one* registry while
    /// keeping the export schema deterministic: shard order is registration
    /// order is column order, independent of how shards were scheduled.
    pub fn shard_counters(&mut self, name: &str, shards: usize) -> Vec<CounterId> {
        (0..shards)
            .map(|i| self.counter(&format!("shard{i}_{name}")))
            .collect()
    }

    /// Registers a gauge named `name`, starting at zero.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        debug_assert!(
            !self.gauge_names.iter().any(|n| n == name),
            "duplicate gauge {name}"
        );
        self.gauge_names.push(name.to_string());
        self.gauges.push(0.0);
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers a histogram named `name` with inclusive upper `bounds`
    /// (ascending) plus an implicit overflow bucket.
    pub fn histogram(&mut self, name: &str, bounds: &[u64]) -> HistogramId {
        debug_assert!(
            !self.hist_names.iter().any(|n| n == name),
            "duplicate histogram {name}"
        );
        self.hist_names.push(name.to_string());
        self.hists.push(Histogram::new(bounds));
        HistogramId(self.hists.len() - 1)
    }

    /// Adds `by` to a counter (saturating; counters never wrap).
    #[inline]
    pub fn incr(&mut self, id: CounterId, by: u64) {
        if let Some(c) = self.counters.get_mut(id.0) {
            *c = c.saturating_add(by);
        }
    }

    /// Sets a counter to an absolute value (for mirroring an engine-side
    /// cumulative count, e.g. the OSM register).
    #[inline]
    pub fn set_counter(&mut self, id: CounterId, value: u64) {
        if let Some(c) = self.counters.get_mut(id.0) {
            *c = value;
        }
    }

    /// Sets a gauge.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, value: f64) {
        if let Some(g) = self.gauges.get_mut(id.0) {
            *g = value;
        }
    }

    /// Records one histogram observation.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        if let Some(h) = self.hists.get_mut(id.0) {
            h.observe(value);
        }
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters.get(id.0).copied().unwrap_or(0)
    }

    /// Registered counter names, in registration (= export) order.
    pub fn counter_names(&self) -> &[String] {
        &self.counter_names
    }

    /// Registered gauge names, in registration (= export) order.
    pub fn gauge_names(&self) -> &[String] {
        &self.gauge_names
    }

    /// Registered histogram names, in registration (= export) order.
    pub fn hist_names(&self) -> &[String] {
        &self.hist_names
    }

    /// The registered histograms, parallel to [`Self::hist_names`].
    pub fn hists(&self) -> &[Histogram] {
        &self.hists
    }

    /// Index of a counter by name, if registered.
    pub fn counter_index(&self, name: &str) -> Option<usize> {
        self.counter_names.iter().position(|n| n == name)
    }

    /// Index of a gauge by name, if registered.
    pub fn gauge_index(&self, name: &str) -> Option<usize> {
        self.gauge_names.iter().position(|n| n == name)
    }

    /// Copies current values into a snapshot for epoch `epoch` spanning
    /// `accesses` memory accesses. Values are not reset: counters read as
    /// cumulative series, deltas are the consumer's derivative.
    pub fn snapshot(&self, epoch: u64, accesses: u64) -> crate::EpochSnapshot {
        crate::EpochSnapshot {
            epoch,
            accesses,
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            hist_counts: self.hists.iter().map(|h| h.counts.clone()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_saturate() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("c");
        r.incr(c, 5);
        r.incr(c, u64::MAX);
        assert_eq!(r.counter_value(c), u64::MAX);
        r.set_counter(c, 7);
        assert_eq!(r.counter_value(c), 7);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[1, 4, 16]);
        for v in [0, 1, 2, 4, 5, 16, 17, 1000] {
            h.observe(v);
        }
        assert_eq!(h.counts(), &[2, 2, 2, 2]);
        assert_eq!(h.total(), 8);
    }

    #[test]
    fn snapshot_copies_without_reset() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("hits");
        let g = r.gauge("ratio");
        let h = r.histogram("depth", &[1, 2]);
        r.incr(c, 3);
        r.set_gauge(g, 0.25);
        r.observe(h, 2);
        let s = r.snapshot(4, 999);
        assert_eq!(s.epoch, 4);
        assert_eq!(s.accesses, 999);
        assert_eq!(s.counters, vec![3]);
        assert_eq!(s.gauges, vec![0.25]);
        assert_eq!(s.hist_counts, vec![vec![0, 1, 0]]);
        // Not reset by snapshotting.
        assert_eq!(r.counter_value(c), 3);
    }

    #[test]
    fn name_lookup_matches_registration_order() {
        let mut r = MetricsRegistry::new();
        r.counter("a");
        r.counter("b");
        r.gauge("x");
        assert_eq!(r.counter_index("b"), Some(1));
        assert_eq!(r.gauge_index("x"), Some(0));
        assert_eq!(r.counter_index("x"), None);
        assert_eq!(r.counter_names(), &["a".to_string(), "b".to_string()]);
    }
}
