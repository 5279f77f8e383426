//! Order statistics for timings.

/// Percentiles tried for a tail, highest first. The ladder stops at p99:
/// a run's sample count varies with its speed, and a rung that some runs
/// reach and others miss would make the reported tail jump between runs.
const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 50.0];

/// Samples a tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (0 when empty).
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    match rank(sorted.len(), pct) {
        0 => 0,
        r => sorted[r - 1],
    }
}

/// 1-based nearest rank of `pct` among `n` samples (0 when `n == 0`).
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(n.min(1), n)
}

/// A tail latency: the highest ladder percentile with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile chosen.
    pub pct: f64,
    /// Its value.
    pub value: u64,
    /// Samples above it.
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

impl Tail {
    /// "p99 of 4812 samples, 49 beyond" — printed beside the value.
    pub fn describe(&self) -> String {
        format!(
            "p{} of {} samples, {} beyond",
            self.pct, self.samples, self.beyond
        )
    }
}

/// The tail of an ascending-sorted slice. With too few samples for any
/// ladder rung, the maximum is reported (with nothing beyond it).
pub fn tail(sorted: &[u64]) -> Tail {
    let n = sorted.len();
    for pct in TAIL_LADDER {
        let r = rank(n, pct);
        if r > 0 && n - r >= TAIL_MIN_BEYOND {
            return Tail {
                pct,
                value: sorted[r - 1],
                beyond: n - r,
                samples: n,
            };
        }
    }
    Tail {
        pct: 100.0,
        value: sorted.last().copied().unwrap_or(0),
        beyond: 0,
        samples: n,
    }
}

/// Median of unsorted values (mean of the middle two for an even count; 0
/// when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Timing of work that is repeated identically (the batches of a pass over
/// a service stream, the chunks of a simulator pass), with each position
/// at its fastest repeat. Other tenants of a shared host only ever add time
/// to a position, so its fastest repeat follows the program's own speed
/// however many repeats they disturb; a change to the program slows every
/// repeat and so shows.
#[derive(Debug, Clone, PartialEq)]
pub struct Fastest {
    /// Each position's fastest time, ns, ascending.
    pub sorted_ns: Vec<u64>,
    /// Repeats seen by the least-repeated position.
    pub repeats: usize,
}

impl Fastest {
    /// Takes the ns of each position per repeat, in order; a repeat cut
    /// short covers a prefix of the positions.
    pub fn new<'a>(repeats: impl IntoIterator<Item = &'a [u64]>) -> Self {
        let (mut best, mut seen) = (Vec::<u64>::new(), Vec::<usize>::new());
        for repeat in repeats {
            for (i, &ns) in repeat.iter().enumerate() {
                if i == best.len() {
                    best.push(ns);
                    seen.push(1);
                } else {
                    best[i] = best[i].min(ns);
                    seen[i] += 1;
                }
            }
        }
        best.sort_unstable();
        Fastest {
            sorted_ns: best,
            repeats: seen.into_iter().min().unwrap_or(0),
        }
    }

    /// One repeat with every position at its fastest, ns.
    pub fn total_ns(&self) -> u64 {
        self.sorted_ns.iter().sum()
    }

    /// Median position, ns.
    pub fn p50_ns(&self) -> u64 {
        percentile(&self.sorted_ns, 50.0)
    }

    /// Tail over positions.
    pub fn tail(&self) -> Tail {
        tail(&self.sorted_ns)
    }

    /// "each of 512 batches at its fastest of >= 180 passes".
    pub fn describe(&self, positions: &str, repeats: &str) -> String {
        format!(
            "each of {} {positions} at its fastest of >= {} {repeats}",
            self.sorted_ns.len(),
            self.repeats
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        let t = tail(&v);
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990, 10));
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(tail(&v).pct, 95.0);
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!((tail(&v).pct, tail(&v).beyond), (95.0, 10));
        let small: Vec<u64> = (1..=20).collect();
        assert_eq!(tail(&small).pct, 50.0);
        assert_eq!((tail(&[3, 4]).pct, tail(&[3, 4]).value), (100.0, 4));
    }

    #[test]
    fn fastest_takes_each_position_at_its_best_repeat() {
        let runs: [&[u64]; 3] = [&[5, 9, 4], &[7, 3, 6], &[2]];
        let f = Fastest::new(runs);
        assert_eq!((f.sorted_ns.clone(), f.repeats), (vec![2, 3, 4], 2));
        assert_eq!((f.total_ns(), f.p50_ns()), (9, 3));
        assert!((median(&[3.0, 1.0, 2.0, 10.0]) - 2.5).abs() < 1e-12);
        assert_eq!(Fastest::new([]).total_ns(), 0);
    }
}
