//! Epoch snapshots and the append-only series they are recorded in.

/// One epoch's worth of metric values, copied out of the registry at the
/// epoch boundary. Counters are cumulative (not per-epoch deltas); gauges
/// are point samples; histogram counts are cumulative per bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSnapshot {
    /// Zero-based epoch index.
    pub epoch: u64,
    /// Memory accesses spanned by this epoch (the final epoch of a run may
    /// be partial).
    pub accesses: u64,
    /// Counter values, parallel to `MetricsRegistry::counter_names`.
    pub counters: Vec<u64>,
    /// Gauge values, parallel to `MetricsRegistry::gauge_names`.
    pub gauges: Vec<f64>,
    /// Histogram bucket counts (incl. overflow), parallel to
    /// `MetricsRegistry::hist_names`.
    pub hist_counts: Vec<Vec<u64>>,
}

/// An append-only, in-order record of epoch snapshots.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EpochSeries {
    snapshots: Vec<EpochSnapshot>,
}

impl EpochSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a snapshot.
    pub fn push(&mut self, snapshot: EpochSnapshot) {
        self.snapshots.push(snapshot);
    }

    /// All recorded snapshots in append order.
    pub fn snapshots(&self) -> &[EpochSnapshot] {
        &self.snapshots
    }

    /// Number of recorded epochs.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether no epoch has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// The most recent snapshot, if any.
    pub fn last(&self) -> Option<&EpochSnapshot> {
        self.snapshots.last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(epoch: u64) -> EpochSnapshot {
        EpochSnapshot {
            epoch,
            accesses: 10,
            counters: vec![epoch],
            gauges: vec![],
            hist_counts: vec![],
        }
    }

    #[test]
    fn series_appends_in_order() {
        let mut s = EpochSeries::new();
        assert!(s.is_empty());
        for e in 0..4 {
            s.push(snap(e));
        }
        assert_eq!(s.len(), 4);
        let epochs: Vec<u64> = s.snapshots().iter().map(|x| x.epoch).collect();
        assert_eq!(epochs, vec![0, 1, 2, 3]);
        assert_eq!(s.last().map(|x| x.epoch), Some(3));
    }
}
