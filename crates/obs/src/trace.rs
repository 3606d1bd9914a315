//! Chrome trace-event export and validation.
//!
//! [`write_chrome_trace`] renders collected [`TraceEvent`]s as the JSON
//! object form (`{"traceEvents": [...]}`) of the Chrome trace-event
//! format, loadable in Perfetto / `chrome://tracing`. Timestamps convert
//! from the collector's nanoseconds to the format's microseconds with
//! fractional precision preserved (`ts: 12.345`).
//!
//! [`validate_chrome_trace`] is the consumer-side check used by tests and
//! `scripts/ci.sh`: a minimal recursive-descent JSON parser (no external
//! deps) that walks an emitted file and verifies every event carries the
//! required keys with sane types, returning a [`TraceSummary`] of what
//! the trace covers.

use crate::span::{Arg, Phase, TraceEvent};
use std::collections::BTreeSet;

/// Escape a string for a JSON literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Nanoseconds → the format's microseconds, keeping ns precision as a
/// fraction and avoiding float formatting surprises.
fn us(ns: u64) -> String {
    let whole = ns / 1000;
    let frac = ns % 1000;
    if frac == 0 {
        format!("{whole}")
    } else {
        format!("{whole}.{frac:03}")
    }
}

fn arg_json(a: &Arg) -> String {
    match a {
        Arg::U(v) => format!("{v}"),
        Arg::I(v) => format!("{v}"),
        Arg::F(v) => {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        }
        Arg::S(v) => format!("\"{}\"", json_escape(v)),
    }
}

fn event_json(ev: &TraceEvent) -> String {
    let ph = match ev.ph {
        Phase::Complete => "X",
        Phase::Instant => "i",
        Phase::Metadata => "M",
    };
    let mut out = format!(
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}",
        json_escape(&ev.name),
        json_escape(ev.cat),
        ph,
        us(ev.ts_ns),
        ev.pid,
        ev.tid
    );
    if ev.ph == Phase::Complete {
        out.push_str(&format!(",\"dur\":{}", us(ev.dur_ns)));
    }
    if ev.ph == Phase::Instant {
        // Thread-scoped instants; sim-rank instants have tid 0 anyway.
        out.push_str(",\"s\":\"t\"");
    }
    if !ev.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in ev.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(k), arg_json(v)));
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// Render events as a Chrome trace-event JSON document.
pub fn write_chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&event_json(ev));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// What a validated trace file covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total number of trace events.
    pub events: usize,
    /// Distinct `cat` values (instrumented layers), sorted.
    pub cats: BTreeSet<String>,
    /// Distinct pseudo-pids (process timelines), sorted.
    pub pids: BTreeSet<u64>,
}

// ---------------------------------------------------------------------
// Minimal JSON value model + recursive-descent parser for validation.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum JsonVal {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonVal>),
    Obj(Vec<(String, JsonVal)>),
}

impl JsonVal {
    fn get(&self, key: &str) -> Option<&JsonVal> {
        match self {
            JsonVal::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            JsonVal::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            JsonVal::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonVal, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonVal::Str(self.string()?)),
            Some(b't') => self.lit("true", JsonVal::Bool(true)),
            Some(b'f') => self.lit("false", JsonVal::Bool(false)),
            Some(b'n') => self.lit("null", JsonVal::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn lit(&mut self, word: &str, val: JsonVal) -> Result<JsonVal, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(val)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<JsonVal, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| self.err("utf8"))?;
        s.parse::<f64>()
            .map(JsonVal::Num)
            .map_err(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("utf8 in \\u"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(b) => {
                    // Consume one multi-byte UTF-8 scalar. Validate only
                    // its own bytes — validating the whole remaining
                    // document per character is quadratic in input size.
                    let width = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.err("utf8")),
                    };
                    let end = (self.pos + width).min(self.bytes.len());
                    let s = std::str::from_utf8(&self.bytes[self.pos..end])
                        .map_err(|_| self.err("utf8"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("utf8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonVal, String> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonVal::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonVal::Arr(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonVal, String> {
        self.eat(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonVal::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            out.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonVal::Obj(out));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn parse(mut self) -> Result<JsonVal, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing content"));
        }
        Ok(v)
    }
}

/// Parse `text` as a Chrome trace-event JSON document and verify every
/// event is well-formed: required keys (`name`, `ph`, `ts`, `pid`,
/// `tid`) with the right types, a known phase, `dur` present and
/// non-negative on `"X"` events, and timestamps non-negative.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let root = Parser::new(text).parse()?;
    let events = root
        .get("traceEvents")
        .ok_or("missing \"traceEvents\" key")?;
    let list = match events {
        JsonVal::Arr(list) => list,
        _ => return Err("\"traceEvents\" is not an array".to_string()),
    };
    let mut summary = TraceSummary {
        events: 0,
        cats: BTreeSet::new(),
        pids: BTreeSet::new(),
    };
    for (i, ev) in list.iter().enumerate() {
        let ctx = |field: &str| format!("event {i}: {field}");
        let name = ev
            .get("name")
            .and_then(JsonVal::as_str)
            .ok_or_else(|| ctx("missing string \"name\""))?;
        let ph = ev
            .get("ph")
            .and_then(JsonVal::as_str)
            .ok_or_else(|| ctx("missing string \"ph\""))?;
        if !matches!(ph, "X" | "i" | "I" | "M" | "B" | "E" | "C") {
            return Err(ctx(&format!("unknown phase {ph:?} (name {name:?})")));
        }
        let ts = ev
            .get("ts")
            .and_then(JsonVal::as_num)
            .ok_or_else(|| ctx("missing numeric \"ts\""))?;
        if ts < 0.0 {
            return Err(ctx("negative \"ts\""));
        }
        let pid = ev
            .get("pid")
            .and_then(JsonVal::as_num)
            .ok_or_else(|| ctx("missing numeric \"pid\""))?;
        ev.get("tid")
            .and_then(JsonVal::as_num)
            .ok_or_else(|| ctx("missing numeric \"tid\""))?;
        if ph == "X" {
            let dur = ev
                .get("dur")
                .and_then(JsonVal::as_num)
                .ok_or_else(|| ctx("\"X\" event missing numeric \"dur\""))?;
            if dur < 0.0 {
                return Err(ctx("negative \"dur\""));
            }
        }
        summary.events += 1;
        if let Some(cat) = ev.get("cat").and_then(JsonVal::as_str) {
            summary.cats.insert(cat.to_string());
        }
        summary.pids.insert(pid as u64);
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn ev(name: &'static str, cat: &'static str, ph: Phase, pid: u64) -> TraceEvent {
        TraceEvent {
            name: Cow::Borrowed(name),
            cat,
            ph,
            ts_ns: 1_234_567,
            dur_ns: 2_500,
            pid,
            tid: 3,
            args: vec![("rank", Arg::U(2)), ("tag", Arg::S("a\"b".into()))],
        }
    }

    #[test]
    fn roundtrip_write_then_validate() {
        let events = vec![
            ev("build", "core", Phase::Complete, 1),
            ev("crash", "mpisim", Phase::Instant, 7),
            ev("process_name", "__metadata", Phase::Metadata, 7),
        ];
        let text = write_chrome_trace(&events);
        let summary = validate_chrome_trace(&text).expect("emitted trace must validate");
        assert_eq!(summary.events, 3);
        assert!(summary.cats.contains("core") && summary.cats.contains("mpisim"));
        assert_eq!(summary.pids, [1u64, 7].into_iter().collect());
    }

    #[test]
    fn ns_to_us_keeps_precision() {
        assert_eq!(us(0), "0");
        assert_eq!(us(1000), "1");
        assert_eq!(us(1234), "1.234");
        assert_eq!(us(1_234_005), "1234.005");
    }

    #[test]
    fn validator_rejects_malformed() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": 3}").is_err());
        // Missing dur on an X event.
        let bad = "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":1,\"pid\":1,\"tid\":1}]}";
        assert!(validate_chrome_trace(bad).is_err());
        // Unknown phase.
        let bad = "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"Z\",\"ts\":1,\"pid\":1,\"tid\":1}]}";
        assert!(validate_chrome_trace(bad).is_err());
    }

    #[test]
    fn validator_accepts_escapes_and_empty() {
        let ok = "{\"traceEvents\":[]}";
        assert_eq!(validate_chrome_trace(ok).unwrap().events, 0);
        let esc = "{\"traceEvents\":[{\"name\":\"a\\u0041\\n\",\"ph\":\"i\",\"ts\":0.5,\"pid\":2,\"tid\":0}]}";
        let s = validate_chrome_trace(esc).unwrap();
        assert_eq!(s.events, 1);
    }
}
