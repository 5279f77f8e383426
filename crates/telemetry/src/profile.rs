//! Wall-clock phase profiling for the experiment harness.
//!
//! **Not covered by the determinism contract**: these timers read the host
//! clock, so their values vary run to run. They exist for the harness's
//! human-facing progress report (`--profile` style output) and must never
//! feed the JSONL series that tests compare byte-for-byte. Keeping them
//! in a separate module makes that boundary auditable.

use std::time::{Duration, Instant};

/// One named, finished phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// Phase label (e.g. `"simulate"`, `"write"`).
    pub name: String,
    /// Wall-clock time the phase took.
    pub wall: Duration,
}

/// Accumulates named wall-clock phases; at most one phase runs at a time.
#[derive(Debug, Default)]
pub struct PhaseProfiler {
    phases: Vec<Phase>,
    current: Option<(String, Instant)>,
}

impl PhaseProfiler {
    /// A profiler with no phases recorded.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts phase `name`, finishing any phase already running.
    pub fn start(&mut self, name: &str) {
        self.finish();
        self.current = Some((name.to_string(), Instant::now()));
    }

    /// Finishes the running phase, if any.
    pub fn finish(&mut self) {
        if let Some((name, started)) = self.current.take() {
            self.phases.push(Phase {
                name,
                wall: started.elapsed(),
            });
        }
    }

    /// Finished phases in start order (the running phase is excluded until
    /// [`Self::finish`] or the next [`Self::start`]).
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total wall time across finished phases.
    pub fn total(&self) -> Duration {
        self.phases.iter().map(|p| p.wall).sum()
    }

    /// A human-readable multi-line report, one `name: seconds` line per
    /// phase plus a total.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for p in &self.phases {
            let _ = writeln!(out, "{:>12}: {:.3}s", p.name, p.wall.as_secs_f64());
        }
        let _ = writeln!(out, "{:>12}: {:.3}s", "total", self.total().as_secs_f64());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_record_in_order_and_total_sums() {
        let mut p = PhaseProfiler::new();
        p.start("a");
        p.start("b"); // implicitly finishes "a"
        p.finish();
        p.finish(); // idempotent
        let names: Vec<&str> = p.phases().iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(p.total() >= p.phases()[0].wall);
        let report = p.report();
        assert!(report.contains("a:"));
        assert!(report.contains("total:"));
    }
}
