//! Compact on-disk trace format: delta+varint encoding with a versioned
//! header, event count, and checksum, streamed through the
//! [`TraceSink`]/[`TraceSource`] pipeline so billion-access traces record
//! and replay in O(1) memory.
//!
//! # Wire format (version 1)
//!
//! A trace file is a 28-byte header followed by one variable-length record
//! per event. All multi-byte header integers are little-endian; payloads
//! use LEB128 varints (7 data bits per byte, continuation in bit 7).
//!
//! ```text
//! header:  magic "RMCCTRC\0" (8) | version u16 | reserved u16
//!          | event count u64 | checksum u64
//! ```
//!
//! The header is written as a placeholder up front and backpatched by
//! [`TraceWriter::finish`], so recording is single-pass. Each event record
//! starts with a lead byte in one of two forms:
//!
//! ```text
//! MRU hit  0 w d i i i i i   exact repeat of a recent address:
//!                            i = index into a 32-entry move-to-front
//!                            table of recently seen addresses; implies
//!                            work = 0. One byte total.
//! escape   1 f w d k s s s   f: 0 = payload is zigzag(delta from the
//!                            previous address), 1 = payload is the
//!                            absolute address; s: payload pre-shift
//!                            (0-7, recovers trailing zeros of aligned
//!                            addresses); k: a work varint follows.
//! ```
//!
//! `w`/`d` are the event's `is_write` and `dep_on_prev_load` flags. The
//! escape payload is `varint(value >> s)` followed by `varint(work)` when
//! `k` is set; the encoder picks whichever of the delta and absolute forms
//! varints shorter. Encoder and decoder update the move-to-front table and
//! previous-address register identically per event, so the decoder needs
//! no side tables in the file.
//!
//! The checksum folds every decoded event through SplitMix64 in order;
//! [`TraceReader`] verifies it after the last event, so truncation and
//! payload corruption surface as typed [`CodecError`]s, never as a
//! silently wrong replay.

use std::io::{Read, Seek, SeekFrom, Write};

use crate::corpus::splitmix64;
use crate::trace::{TraceEvent, TraceSink, TraceSource};

/// File magic: the first 8 bytes of every trace file.
pub const MAGIC: [u8; 8] = *b"RMCCTRC\0";
/// Wire-format version this build reads and writes.
pub const VERSION: u16 = 1;
/// Header size in bytes (magic + version + reserved + count + checksum).
pub const HEADER_BYTES: u64 = 28;

const MRU_SLOTS: usize = 32;

/// Why encoding or decoding a trace failed.
#[derive(Debug)]
pub enum CodecError {
    /// The underlying reader or writer failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's wire-format version is newer than this build understands.
    UnsupportedVersion(u16),
    /// The file ended before the header-declared event count was decoded.
    Truncated,
    /// A record violated the wire format (bad lead byte or overlong varint).
    Corrupt(&'static str),
    /// Every event decoded, but the running checksum disagrees with the
    /// header — the payload bytes were altered.
    ChecksumMismatch {
        /// Checksum the header declared.
        expected: u64,
        /// Checksum the decoded events produced.
        actual: u64,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "trace i/o failed: {e}"),
            CodecError::BadMagic => write!(f, "not a trace file (bad magic)"),
            CodecError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (this build reads {VERSION})"
                )
            }
            CodecError::Truncated => write!(f, "trace file truncated mid-stream"),
            CodecError::Corrupt(what) => write!(f, "corrupt trace record: {what}"),
            CodecError::ChecksumMismatch { expected, actual } => write!(
                f,
                "trace checksum mismatch: header {expected:#018x}, decoded {actual:#018x}"
            ),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// What one finished recording contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Events encoded.
    pub events: u64,
    /// Encoded payload bytes (excluding the header).
    pub payload_bytes: u64,
    /// SplitMix64 fold over the event stream, as written to the header.
    pub checksum: u64,
}

impl TraceSummary {
    /// Total file size: header plus payload.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        HEADER_BYTES + self.payload_bytes
    }

    /// Average encoded payload bytes per event (0 for an empty trace).
    #[must_use]
    pub fn bytes_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            // Both counts are far below 2^53, so the division is exact
            // enough for a report row.
            self.payload_bytes as f64 / self.events as f64
        }
    }
}

/// Move-to-front table of recently seen addresses, kept in lockstep by the
/// encoder and decoder.
#[derive(Debug, Clone)]
struct Mru {
    slots: [u64; MRU_SLOTS],
    len: usize,
}

impl Mru {
    fn new() -> Self {
        Mru {
            slots: [0; MRU_SLOTS],
            len: 0,
        }
    }

    fn find(&self, addr: u64) -> Option<usize> {
        self.slots[..self.len].iter().position(|&a| a == addr)
    }

    fn get(&self, idx: usize) -> Option<u64> {
        self.slots[..self.len].get(idx).copied()
    }

    /// Moves `addr` to the front, inserting it (and evicting the oldest
    /// slot) if absent.
    fn touch(&mut self, addr: u64) {
        let upto = match self.find(addr) {
            Some(i) => i,
            None => {
                if self.len < MRU_SLOTS {
                    self.len += 1;
                }
                self.len - 1
            }
        };
        self.slots.copy_within(0..upto, 1);
        self.slots[0] = addr;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v as u64) << 1) ^ ((v >> 63) as u64)
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

fn varint_len(mut v: u64) -> u64 {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v & 0x7F) as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Folds one event into the running stream checksum.
fn fold_checksum(acc: u64, ev: &TraceEvent) -> u64 {
    let word = ev.addr
        ^ (u64::from(ev.work) << 24)
        ^ (u64::from(ev.is_write) << 62)
        ^ (u64::from(ev.dep_on_prev_load) << 63);
    splitmix64(acc.rotate_left(1) ^ word)
}

fn header_bytes(events: u64, checksum: u64) -> [u8; HEADER_BYTES as usize] {
    let mut h = [0u8; HEADER_BYTES as usize];
    h[..8].copy_from_slice(&MAGIC);
    h[8..10].copy_from_slice(&VERSION.to_le_bytes());
    // h[10..12] reserved, zero.
    h[12..20].copy_from_slice(&events.to_le_bytes());
    h[20..28].copy_from_slice(&checksum.to_le_bytes());
    h
}

/// Streaming trace encoder: a [`TraceSink`] that writes the wire format as
/// events arrive, then backpatches the header on [`TraceWriter::finish`].
///
/// The [`TraceSink`] trait is infallible, so I/O errors during `emit` are
/// stashed and reported by `finish` — a recording is only trustworthy once
/// `finish` returns `Ok`.
#[derive(Debug)]
pub struct TraceWriter<W: Write + Seek> {
    out: W,
    prev: u64,
    mru: Mru,
    events: u64,
    payload_bytes: u64,
    checksum: u64,
    scratch: Vec<u8>,
    error: Option<std::io::Error>,
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Starts a recording by writing a placeholder header.
    pub fn new(mut out: W) -> Result<Self, CodecError> {
        out.write_all(&header_bytes(0, 0))?;
        Ok(TraceWriter {
            out,
            prev: 0,
            mru: Mru::new(),
            events: 0,
            payload_bytes: 0,
            checksum: 0,
            scratch: Vec::with_capacity(24),
            error: None,
        })
    }

    /// Events encoded so far.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Backpatches the header with the final event count and checksum,
    /// flushes, and returns the recording summary — or the first error the
    /// stream hit.
    pub fn finish(self) -> Result<TraceSummary, CodecError> {
        self.finish_into_inner().map(|(summary, _)| summary)
    }

    /// Like [`TraceWriter::finish`], but also hands back the underlying
    /// writer (useful for in-memory recordings).
    pub fn finish_into_inner(mut self) -> Result<(TraceSummary, W), CodecError> {
        if let Some(e) = self.error.take() {
            return Err(CodecError::Io(e));
        }
        self.out.seek(SeekFrom::Start(0))?;
        self.out
            .write_all(&header_bytes(self.events, self.checksum))?;
        self.out.flush()?;
        Ok((
            TraceSummary {
                events: self.events,
                payload_bytes: self.payload_bytes,
                checksum: self.checksum,
            },
            self.out,
        ))
    }

    fn encode(&mut self, ev: TraceEvent) {
        self.scratch.clear();
        let flags_w = u8::from(ev.is_write);
        let flags_d = u8::from(ev.dep_on_prev_load);
        if ev.work == 0 {
            if let Some(idx) = self.mru.find(ev.addr) {
                self.scratch
                    .push((idx as u8) | (flags_w << 6) | (flags_d << 5));
            }
        }
        if self.scratch.is_empty() {
            // Escape form: pick whichever of delta/absolute varints shorter.
            let delta = ev.addr.wrapping_sub(self.prev) as i64;
            let d_shift = (delta as u64).trailing_zeros().min(7);
            let d_payload = zigzag(delta >> d_shift);
            let a_shift = ev.addr.trailing_zeros().min(7);
            let a_payload = ev.addr >> a_shift;
            let (form, shift, payload) = if varint_len(a_payload) < varint_len(d_payload) {
                (1u8, a_shift as u8, a_payload)
            } else {
                (0u8, d_shift as u8, d_payload)
            };
            let has_work = u8::from(ev.work > 0);
            self.scratch.push(
                0x80 | (form << 6) | (flags_w << 5) | (flags_d << 4) | (has_work << 3) | shift,
            );
            push_varint(&mut self.scratch, payload);
            if ev.work > 0 {
                push_varint(&mut self.scratch, u64::from(ev.work));
            }
        }
        if let Err(e) = self.out.write_all(&self.scratch) {
            self.error = Some(e);
            return;
        }
        self.payload_bytes += self.scratch.len() as u64;
        self.events += 1;
        self.checksum = fold_checksum(self.checksum, &ev);
        self.prev = ev.addr;
        self.mru.touch(ev.addr);
    }
}

impl<W: Write + Seek> TraceSink for TraceWriter<W> {
    fn emit(&mut self, event: TraceEvent) {
        if self.error.is_some() {
            return;
        }
        self.encode(event);
    }
}

/// Streaming trace decoder: validates the header up front, then yields
/// events one at a time in O(1) memory and verifies the checksum after the
/// last one.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    inp: R,
    prev: u64,
    mru: Mru,
    remaining: u64,
    total: u64,
    expected_checksum: u64,
    checksum: u64,
    error: Option<CodecError>,
}

impl<R: Read> TraceReader<R> {
    /// Reads and validates the header.
    pub fn new(mut inp: R) -> Result<Self, CodecError> {
        let mut h = [0u8; HEADER_BYTES as usize];
        inp.read_exact(&mut h).map_err(eof_is_truncated)?;
        if h[..8] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = u16::from_le_bytes([h[8], h[9]]);
        if version != VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let total = u64::from_le_bytes([h[12], h[13], h[14], h[15], h[16], h[17], h[18], h[19]]);
        let expected_checksum =
            u64::from_le_bytes([h[20], h[21], h[22], h[23], h[24], h[25], h[26], h[27]]);
        Ok(TraceReader {
            inp,
            prev: 0,
            mru: Mru::new(),
            remaining: total,
            total,
            expected_checksum,
            checksum: 0,
            error: None,
        })
    }

    /// Events the header declared.
    #[must_use]
    pub fn event_count(&self) -> u64 {
        self.total
    }

    /// Events not yet decoded.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// The error the infallible [`TraceSource::stream`] path swallowed, if
    /// any. Fallible callers should prefer [`TraceReader::read_to`].
    #[must_use]
    pub fn error(&self) -> Option<&CodecError> {
        self.error.as_ref()
    }

    /// Decodes the next event, or returns `Ok(None)` once the declared
    /// count is exhausted *and* the checksum verified.
    pub fn next_event(&mut self) -> Result<Option<TraceEvent>, CodecError> {
        if self.remaining == 0 {
            if self.checksum != self.expected_checksum && self.total > 0 {
                return Err(CodecError::ChecksumMismatch {
                    expected: self.expected_checksum,
                    actual: self.checksum,
                });
            }
            return Ok(None);
        }
        let lead = self.read_byte()?;
        let ev = if lead & 0x80 == 0 {
            let idx = (lead & 0x1F) as usize;
            let addr = self
                .mru
                .get(idx)
                .ok_or(CodecError::Corrupt("MRU index past table fill"))?;
            TraceEvent {
                addr,
                is_write: lead & 0x40 != 0,
                work: 0,
                dep_on_prev_load: lead & 0x20 != 0,
            }
        } else {
            let shift = u32::from(lead & 0x07);
            let payload = self.read_varint()?;
            let addr = if lead & 0x40 != 0 {
                payload.wrapping_shl(shift)
            } else {
                self.prev
                    .wrapping_add((unzigzag(payload).wrapping_shl(shift)) as u64)
            };
            let work = if lead & 0x08 != 0 {
                let w = self.read_varint()?;
                u16::try_from(w).map_err(|_| CodecError::Corrupt("work exceeds u16"))?
            } else {
                0
            };
            TraceEvent {
                addr,
                is_write: lead & 0x20 != 0,
                work,
                dep_on_prev_load: lead & 0x10 != 0,
            }
        };
        self.remaining -= 1;
        self.checksum = fold_checksum(self.checksum, &ev);
        self.prev = ev.addr;
        self.mru.touch(ev.addr);
        Ok(Some(ev))
    }

    /// Drains every remaining event into `sink`, verifying the checksum at
    /// the end. Returns the number of events replayed.
    pub fn read_to(&mut self, sink: &mut dyn TraceSink) -> Result<u64, CodecError> {
        let mut n = 0u64;
        while let Some(ev) = self.next_event()? {
            sink.emit(ev);
            n += 1;
        }
        Ok(n)
    }

    fn read_byte(&mut self) -> Result<u8, CodecError> {
        let mut b = [0u8; 1];
        self.inp.read_exact(&mut b).map_err(eof_is_truncated)?;
        Ok(b[0])
    }

    fn read_varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        for i in 0..10 {
            let b = self.read_byte()?;
            // The tenth byte holds only bit 63; any higher bit would be lost.
            if i == 9 && b > 1 {
                break;
            }
            v |= u64::from(b & 0x7F) << (7 * i);
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::Corrupt("overlong varint"))
    }
}

fn eof_is_truncated(e: std::io::Error) -> CodecError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        CodecError::Truncated
    } else {
        CodecError::Io(e)
    }
}

impl<R: Read> TraceSource for TraceReader<R> {
    /// Replays the remaining events. The trait is infallible, so a decode
    /// error stops the stream early and is stashed on
    /// [`TraceReader::error`]; fallible callers should use
    /// [`TraceReader::read_to`] instead.
    fn stream(&mut self, sink: &mut dyn TraceSink) {
        if let Err(e) = self.read_to(sink) {
            self.error = Some(e);
        }
    }
}

/// Records one full pass of `source` into the file at `path` (created or
/// truncated), buffered, returning the recording summary.
pub fn record_to_path(
    path: &std::path::Path,
    source: &mut dyn TraceSource,
) -> Result<TraceSummary, CodecError> {
    let file = std::fs::File::create(path)?;
    let mut writer = TraceWriter::new(std::io::BufWriter::new(file))?;
    source.stream(&mut writer);
    writer.finish()
}

/// Opens the trace file at `path` for streaming replay, buffered.
pub fn reader_from_path(
    path: &std::path::Path,
) -> Result<TraceReader<std::io::BufReader<std::fs::File>>, CodecError> {
    let file = std::fs::File::open(path)?;
    TraceReader::new(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn encode(events: &[TraceEvent]) -> (Vec<u8>, TraceSummary) {
        let mut writer = TraceWriter::new(Cursor::new(Vec::new())).expect("writer");
        for &ev in events {
            writer.emit(ev);
        }
        let (summary, cursor) = writer.finish_into_inner().expect("finish");
        (cursor.into_inner(), summary)
    }

    fn decode(bytes: &[u8]) -> Result<Vec<TraceEvent>, CodecError> {
        let mut reader = TraceReader::new(Cursor::new(bytes))?;
        let mut out: Vec<TraceEvent> = Vec::new();
        reader.read_to(&mut out)?;
        Ok(out)
    }

    fn ev(addr: u64, is_write: bool, work: u16, dep: bool) -> TraceEvent {
        TraceEvent {
            addr,
            is_write,
            work,
            dep_on_prev_load: dep,
        }
    }

    #[test]
    fn roundtrips_a_mixed_stream() {
        let events = vec![
            ev(0, false, 0, false),
            ev(64, true, 3, false),
            ev(64, false, 0, true),
            ev(1 << 40, false, 0, false),
            ev(64, true, 0, false),
            ev(u64::MAX, false, u16::MAX, true),
            ev(0, true, 1, false),
            ev(12_345, false, 0, false),
        ];
        let (bytes, summary) = encode(&events);
        assert_eq!(summary.events, events.len() as u64);
        assert_eq!(summary.total_bytes(), bytes.len() as u64);
        assert_eq!(decode(&bytes).expect("decode"), events);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let (bytes, summary) = encode(&[]);
        assert_eq!(summary.events, 0);
        assert_eq!(bytes.len() as u64, HEADER_BYTES);
        assert_eq!(summary.bytes_per_event(), 0.0);
        assert!(decode(&bytes).expect("decode").is_empty());
    }

    #[test]
    fn exact_repeats_cost_one_byte() {
        // 1 escape + 63 MRU hits over a 4-address working set.
        let mut events = Vec::new();
        for i in 0u64..64 {
            events.push(ev((i % 4) * 64, i % 3 == 0, 0, false));
        }
        let (bytes, summary) = encode(&events);
        assert!(
            summary.payload_bytes < 4 + 2 * 4 + 60,
            "MRU hits not 1 byte: {} payload bytes for {} events",
            summary.payload_bytes,
            summary.events
        );
        assert_eq!(decode(&bytes).expect("decode"), events);
    }

    #[test]
    fn replays_through_the_trace_source_trait() {
        let events: Vec<TraceEvent> = (0..100u64)
            .map(|i| ev(i * 192, i % 5 == 0, 0, false))
            .collect();
        let (bytes, _) = encode(&events);
        let mut reader = TraceReader::new(Cursor::new(&bytes)).expect("header");
        assert_eq!(reader.event_count(), 100);
        let mut replayed: Vec<TraceEvent> = Vec::new();
        reader.stream(&mut replayed);
        assert!(reader.error().is_none());
        assert_eq!(replayed, events);
        assert_eq!(reader.remaining(), 0);
    }

    #[test]
    fn truncated_file_is_a_typed_error() {
        let events: Vec<TraceEvent> = (0..50u64).map(|i| ev(i * 4096, false, 0, false)).collect();
        let (bytes, _) = encode(&events);
        for cut in [5, HEADER_BYTES as usize, bytes.len() - 1] {
            let err = decode(&bytes[..cut]).expect_err("truncation must error");
            assert!(matches!(err, CodecError::Truncated), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn corrupted_payload_is_a_typed_error() {
        let events: Vec<TraceEvent> = (0..50u64).map(|i| ev(i * 4096, false, 0, false)).collect();
        let (mut bytes, _) = encode(&events);
        // Flip a payload bit past the header: either the stream checksum
        // catches it, or the record structure itself does.
        let mid = HEADER_BYTES as usize + (bytes.len() - HEADER_BYTES as usize) / 2;
        bytes[mid] ^= 0x41;
        let err = decode(&bytes).expect_err("corruption must error");
        assert!(
            matches!(
                err,
                CodecError::ChecksumMismatch { .. }
                    | CodecError::Corrupt(_)
                    | CodecError::Truncated
            ),
            "unexpected error class: {err}"
        );
    }

    #[test]
    fn varint_past_64_bits_is_corrupt() {
        // One absolute-address escape record (lead 0xC0) whose payload
        // varint has a tenth byte of 0x02: bit 64, which a u64 cannot hold.
        let (mut bytes, _) = encode(&[ev(0, false, 0, false)]);
        bytes.truncate(HEADER_BYTES as usize);
        bytes.push(0xC0);
        bytes.extend([0xFF; 9]);
        bytes.push(0x02);
        let err = decode(&bytes).expect_err("overlong varint must error");
        assert!(
            matches!(err, CodecError::Corrupt("overlong varint")),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        let (mut bytes, _) = encode(&[ev(64, false, 0, false)]);
        bytes[0] ^= 0xFF;
        assert!(matches!(
            decode(&bytes).expect_err("magic"),
            CodecError::BadMagic
        ));
        bytes[0] ^= 0xFF;
        bytes[8] = 0xEE;
        assert!(matches!(
            decode(&bytes).expect_err("version"),
            CodecError::UnsupportedVersion(_)
        ));
    }

    #[test]
    fn work_saturation_edge_survives() {
        let events = vec![
            ev(0, false, u16::MAX, false),
            ev(0, false, u16::MAX, false),
            ev(1, true, u16::MAX, true),
        ];
        let (bytes, _) = encode(&events);
        assert_eq!(decode(&bytes).expect("decode"), events);
    }

    #[test]
    fn file_paths_record_and_replay() {
        use crate::corpus::{KvServingConfig, Scenario};

        let dir = std::env::temp_dir();
        let path = dir.join(format!("rmcc-codec-test-{}.rmt", std::process::id()));
        let strided: Vec<TraceEvent> = (0..200u64)
            .map(|i| ev(i * 64, i % 4 == 0, 0, false))
            .collect();
        // The key-value serving corpus: 64 tenants x 16 keyed regions of
        // one 128-block counter-coverage group each, 25% writes. Real
        // serving streams must stay within the 4 bytes/event budget.
        let kv: Vec<TraceEvent> = Scenario::KvServing(KvServingConfig {
            tenants: 64,
            regions_per_tenant: 16,
            blocks_per_region: 128,
            hot_blocks_per_region: 8,
            events: 3_072,
            write_permille: 250,
            churn_period: 0,
            seed: 0x5EC5_7AFF_0000_0001,
        })
        .events()
        .collect();
        for mut source in [strided, kv] {
            let summary = record_to_path(&path, &mut source).expect("record");
            assert_eq!(summary.events, source.len() as u64);
            assert!(
                summary.bytes_per_event() <= 4.0,
                "encoding regressed past 4 bytes/event: {:.2}",
                summary.bytes_per_event()
            );
            let mut reader = reader_from_path(&path).expect("open");
            let mut replayed: Vec<TraceEvent> = Vec::new();
            reader.read_to(&mut replayed).expect("replay");
            assert_eq!(replayed, source);
            let on_disk = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            assert_eq!(on_disk, summary.total_bytes());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn errors_display_and_chain() {
        let io = CodecError::from(std::io::Error::other("boom"));
        assert!(io.to_string().contains("boom"));
        assert!(std::error::Error::source(&io).is_some());
        let mismatch = CodecError::ChecksumMismatch {
            expected: 1,
            actual: 2,
        };
        assert!(mismatch.to_string().contains("mismatch"));
        assert!(std::error::Error::source(&mismatch).is_none());
    }
}
