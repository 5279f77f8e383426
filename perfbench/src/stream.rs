//! Loading a generated stream through the trace codec: every workload
//! records its pre-generated events with the compact codec and replays
//! them back, so set-up exercises (and times) the record/replay path and
//! the measured program only ever sees replayed events.

use std::io::Cursor;
use std::time::Instant;

use rmcc_workloads::codec::{TraceReader, TraceWriter};
use rmcc_workloads::trace::{TraceEvent, TraceSink, VecSink};

use crate::Ledger;

/// A stream after its codec round trip.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// The replayed events (what the workload drives).
    pub events: Vec<TraceEvent>,
    /// Seconds generating the stream took.
    pub gen_s: f64,
    /// Seconds encoding took.
    pub encode_s: f64,
    /// Seconds decoding took.
    pub decode_s: f64,
    /// Encoded bytes per event, header included.
    pub bytes_per_event: f64,
    /// The codec's order-sensitive stream checksum.
    pub checksum: u64,
    /// Whether the replay reproduced the generated events exactly.
    pub matches: bool,
}

impl Replayed {
    /// Appends the generator and codec rows every workload reports; the
    /// generation time also goes under the generator's own name.
    pub fn push_rows(&self, m: &mut Ledger, generator: &str) {
        m.push("workloads.gen_s", self.gen_s, "s");
        m.push(generator, self.gen_s, "s");
        m.push("workloads.codec.encode_s", self.encode_s, "s");
        m.push("workloads.codec.decode_s", self.decode_s, "s");
        m.push(
            "workloads.codec.bytes_per_event",
            self.bytes_per_event,
            "B/event",
        );
    }
}

/// Generates a stream with `generate` (timed), encodes it to memory and
/// decodes it back (each timed).
///
/// # Errors
///
/// A codec failure, as text.
pub fn generate_and_replay(generate: impl FnOnce() -> Vec<TraceEvent>) -> Result<Replayed, String> {
    let t = Instant::now();
    let events = generate();
    let gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut writer =
        TraceWriter::new(Cursor::new(Vec::new())).map_err(|e| format!("trace encode: {e}"))?;
    for &ev in &events {
        writer.emit(ev);
    }
    let (summary, cursor) = writer
        .finish_into_inner()
        .map_err(|e| format!("trace encode: {e}"))?;
    let encode_s = t.elapsed().as_secs_f64();
    let bytes = cursor.into_inner();

    let t = Instant::now();
    let mut reader =
        TraceReader::new(bytes.as_slice()).map_err(|e| format!("trace decode: {e}"))?;
    let mut sink = VecSink::default();
    reader
        .read_to(&mut sink)
        .map_err(|e| format!("trace decode: {e}"))?;
    let decode_s = t.elapsed().as_secs_f64();

    Ok(Replayed {
        matches: sink.events == events,
        events: sink.events,
        gen_s,
        encode_s,
        decode_s,
        bytes_per_event: summary.bytes_per_event(),
        checksum: summary.checksum,
    })
}
