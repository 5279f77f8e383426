//! In-memory span recorder for the traced run.
//!
//! A span is one call the benchmark makes into a layer: its name, start
//! and end (ns since tracing started), the span that was open around it,
//! and the batch it served. Spans stay in memory while the traced run
//! drives the program and are written out once it ends. The recorder is
//! thread-local: the traced run drives every layer from one thread,
//! including the counter-update policy the engine calls back into.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer function name (`secmem.engine.read`, ...).
    pub name: &'static str,
    /// Start, ns since tracing started.
    pub start_ns: u64,
    /// End, ns since tracing started (0 while open).
    pub end_ns: u64,
    /// 1-based index of the enclosing span, 0 for a root span.
    pub parent: u32,
    /// The batch (or simulator chunk) this call served.
    pub batch: u32,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    epoch: Instant,
    on: bool,
    batch: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        on: false,
        batch: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Handle to an open span (`None` while tracing is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct SpanId(Option<u32>);

/// Discards any recorded spans and starts recording on this thread.
pub fn start() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.epoch = Instant::now();
        r.on = true;
        r.batch = 0;
        r.spans.clear();
        r.open.clear();
    });
}

/// Stops recording and hands back every span recorded since [`start`].
pub fn stop() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.on = false;
        r.open.clear();
        std::mem::take(&mut r.spans)
    })
}

/// Tags the spans that follow with batch `batch`.
pub fn set_batch(batch: u32) {
    RECORDER.with(|r| r.borrow_mut().batch = batch);
}

/// Opens a span; close it with [`end`].
pub fn begin(name: &'static str) -> SpanId {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return SpanId(None);
        }
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied().unwrap_or(0);
        let batch = r.batch;
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            batch,
        });
        let id = r.spans.len() as u32;
        r.open.push(id);
        SpanId(Some(id))
    })
}

/// Closes a span opened by [`begin`] (and any left open inside it).
pub fn end(id: SpanId) {
    let Some(id) = id.0 else {
        return;
    };
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let now = r.epoch.elapsed().as_nanos() as u64;
        if let Some(span) = r.spans.get_mut(id as usize - 1) {
            span.end_ns = now;
        }
        while let Some(top) = r.open.pop() {
            if top == id {
                break;
            }
        }
    });
}

/// Runs `f` inside a span.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = begin(name);
    let out = f();
    end(id);
    out
}

/// The cost (ns) of recording one empty span, measured on this thread:
/// what each span adds to the call it wraps.
pub fn empty_span_ns() -> f64 {
    const N: u32 = 100_000;
    start();
    let t = Instant::now();
    for _ in 0..N {
        span("calibration", || ());
    }
    let ns = t.elapsed().as_nanos() as f64 / f64::from(N);
    stop();
    ns
}

/// Durations (ns, ascending) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    let mut v: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ns)
        .collect();
    v.sort_unstable();
    v
}

/// Total duration (ns) of every span named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(Span::ns).sum()
}

/// Writes spans as tab-separated records: `id parent batch name start_ns
/// end_ns`, ids 1-based in recording order.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tbatch\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            i + 1,
            s.parent,
            s.batch,
            s.name,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_stop_when_off() {
        assert_eq!(begin("off"), SpanId(None));
        start();
        set_batch(3);
        let outer = begin("outer");
        span("inner", || ());
        end(outer);
        let spans = stop();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", 0));
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].batch),
            ("inner", 1, 3)
        );
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(stop().is_empty());
    }
}
