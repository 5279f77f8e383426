//! JSONL rendering of an epoch series, plus a strict parser for the
//! emitted JSONL dialect so tests and tools can validate output offline.
//!
//! Rendering is deterministic: key order is `epoch`, `accesses`, then the
//! registry's counters, gauges, and histograms in registration order.
//! Floats use Rust's shortest round-trip formatting; non-finite gauge values
//! (which well-behaved engines never produce) render as `null`.

use crate::registry::MetricsRegistry;
use crate::series::EpochSeries;
use std::fmt::Write as _;

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
        // Bare integers like `1` are valid JSON numbers; keep them as-is.
    } else {
        out.push_str("null");
    }
}

/// Renders the series as JSON Lines: one object per epoch, keys in
/// registration order, no whitespace. Ends with a trailing newline when the
/// series is non-empty.
pub fn to_jsonl(registry: &MetricsRegistry, series: &EpochSeries) -> String {
    let mut out = String::new();
    for snap in series.snapshots() {
        let _ = write!(
            out,
            "{{\"epoch\":{},\"accesses\":{}",
            snap.epoch, snap.accesses
        );
        for (name, value) in registry.counter_names().iter().zip(&snap.counters) {
            out.push(',');
            push_json_str(&mut out, name);
            let _ = write!(out, ":{value}");
        }
        for (name, value) in registry.gauge_names().iter().zip(&snap.gauges) {
            out.push(',');
            push_json_str(&mut out, name);
            out.push(':');
            push_f64(&mut out, *value);
        }
        for ((name, hist), counts) in registry
            .hist_names()
            .iter()
            .zip(registry.hists())
            .zip(&snap.hist_counts)
        {
            out.push(',');
            push_json_str(&mut out, name);
            out.push_str(":{\"le\":[");
            for (i, b) in hist.bounds().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("],\"counts\":[");
            for (i, c) in counts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            out.push_str("]}");
        }
        out.push_str("}\n");
    }
    out
}

/// A parsed JSON value. Numbers are `f64` — exact for every value this
/// crate emits below 2^53, which covers validation and report rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; key order preserved as written.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key when this value is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The object's keys in written order, if this is an object.
    pub fn keys(&self) -> Option<Vec<&str>> {
        match self {
            JsonValue::Obj(fields) => Some(fields.iter().map(|(k, _)| k.as_str()).collect()),
            _ => None,
        }
    }
}

/// A parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: &str) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            message: message.to_string(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            self.err(&format!("expected `{}`", b as char))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(&format!("expected `{word}`"))
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return self.err("unterminated string"),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'b') => s.push('\u{0008}'),
                    Some(b'f') => s.push('\u{000c}'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'u') => {
                        let hex = self
                            .bytes
                            .get(self.pos..self.pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok());
                        match hex.and_then(char::from_u32) {
                            Some(c) => {
                                self.pos += 4;
                                s.push(c);
                            }
                            None => return self.err("bad \\u escape"),
                        }
                    }
                    _ => return self.err("bad escape"),
                },
                Some(b) if b < 0x20 => return self.err("raw control char in string"),
                Some(b) => {
                    // Re-decode multi-byte UTF-8 starting at the byte we consumed.
                    if b < 0x80 {
                        s.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let width = match b {
                            0xc0..=0xdf => 2,
                            0xe0..=0xef => 3,
                            0xf0..=0xf7 => 4,
                            _ => return self.err("invalid UTF-8"),
                        };
                        match self
                            .bytes
                            .get(start..start + width)
                            .and_then(|chunk| std::str::from_utf8(chunk).ok())
                        {
                            Some(chunk) => {
                                s.push_str(chunk);
                                self.pos = start + width;
                            }
                            None => return self.err("invalid UTF-8"),
                        }
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(JsonValue::Num(n)),
            _ => {
                self.pos = start;
                self.err("invalid number")
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.value()?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b'}') => return Ok(JsonValue::Obj(fields)),
                        _ => {
                            self.pos = self.pos.saturating_sub(1);
                            return self.err("expected `,` or `}`");
                        }
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(JsonValue::Arr(items)),
                        _ => {
                            self.pos = self.pos.saturating_sub(1);
                            return self.err("expected `,` or `]`");
                        }
                    }
                }
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(_) => self.number(),
        }
    }
}

/// Parses one JSON document (e.g. one JSONL line). Trailing whitespace is
/// allowed; trailing garbage is an error.
pub fn parse_json_line(line: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing garbage");
    }
    Ok(v)
}

/// Parses a whole JSONL document into one value per non-empty line.
pub fn parse_jsonl(text: &str) -> Result<Vec<JsonValue>, JsonError> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse_json_line)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample() -> (MetricsRegistry, EpochSeries) {
        let mut reg = MetricsRegistry::new();
        let hits = reg.counter("hits");
        let conf = reg.gauge("conformance");
        let depth = reg.histogram("depth", &[1, 2]);
        let mut series = EpochSeries::new();
        reg.incr(hits, 12);
        reg.set_gauge(conf, 0.75);
        reg.observe(depth, 2);
        reg.observe(depth, 9);
        series.push(reg.snapshot(0, 1000));
        reg.incr(hits, 3);
        series.push(reg.snapshot(1, 1000));
        (reg, series)
    }

    #[test]
    fn jsonl_is_exactly_pinned() {
        let (reg, series) = sample();
        let jsonl = to_jsonl(&reg, &series);
        let expected = "{\"epoch\":0,\"accesses\":1000,\"hits\":12,\"conformance\":0.75,\
                        \"depth\":{\"le\":[1,2],\"counts\":[0,1,1]}}\n\
                        {\"epoch\":1,\"accesses\":1000,\"hits\":15,\"conformance\":0.75,\
                        \"depth\":{\"le\":[1,2],\"counts\":[0,1,1]}}\n";
        assert_eq!(jsonl, expected);
    }

    #[test]
    fn emitted_jsonl_round_trips_through_the_parser() {
        let (reg, series) = sample();
        let docs = parse_jsonl(&to_jsonl(&reg, &series)).expect("parses");
        assert_eq!(docs.len(), 2);
        let first = &docs[0];
        assert_eq!(first.get("epoch").and_then(JsonValue::as_f64), Some(0.0));
        assert_eq!(first.get("hits").and_then(JsonValue::as_f64), Some(12.0));
        assert_eq!(
            first.get("conformance").and_then(JsonValue::as_f64),
            Some(0.75)
        );
        let keys = first.keys().expect("object");
        assert_eq!(
            keys,
            vec!["epoch", "accesses", "hits", "conformance", "depth"]
        );
        let depth = first.get("depth").expect("hist");
        assert_eq!(
            depth.get("counts"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Num(0.0),
                JsonValue::Num(1.0),
                JsonValue::Num(1.0)
            ]))
        );
    }

    #[test]
    fn parser_accepts_standard_json_shapes() {
        let v =
            parse_json_line(r#"{"a":[1,-2.5,true,false,null,"s\"x\n"],"b":{}}"#).expect("parses");
        assert_eq!(
            v.get("a"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Num(1.0),
                JsonValue::Num(-2.5),
                JsonValue::Bool(true),
                JsonValue::Bool(false),
                JsonValue::Null,
                JsonValue::Str("s\"x\n".to_string()),
            ]))
        );
        assert_eq!(v.get("b"), Some(&JsonValue::Obj(vec![])));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json_line("{\"a\":}").is_err());
        assert!(parse_json_line("{\"a\":1} extra").is_err());
        assert!(parse_json_line("[1,]").is_err());
        assert!(parse_json_line("nul").is_err());
        assert!(parse_json_line("").is_err());
    }

    #[test]
    fn non_finite_gauges_render_as_null() {
        let mut reg = MetricsRegistry::new();
        let g = reg.gauge("g");
        reg.set_gauge(g, f64::NAN);
        let mut series = EpochSeries::new();
        series.push(reg.snapshot(0, 1));
        assert_eq!(
            to_jsonl(&reg, &series),
            "{\"epoch\":0,\"accesses\":1,\"g\":null}\n"
        );
    }
}
