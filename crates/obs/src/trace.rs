//! Chrome trace-event export and validation.
//!
//! [`write_chrome_trace`] renders collected [`TraceEvent`]s as the JSON
//! object form (`{"traceEvents": [...]}`) of the Chrome trace-event
//! format, loadable in Perfetto / `chrome://tracing`. Timestamps convert
//! from the collector's nanoseconds to the format's microseconds with
//! fractional precision preserved (`ts: 12.345`).
//!
//! [`validate_chrome_trace`] is the consumer-side check used by tests and
//! `scripts/ci.sh`: it reads a file with [`Json::parse`] and verifies
//! every event carries the required keys with sane types, returning a
//! [`TraceSummary`] of what the trace covers.

use crate::json::{Escaped, Json};
use crate::span::{Arg, Phase, TraceEvent};
use std::collections::BTreeSet;

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

/// An argument value renders as the JSON scalar it is.
fn arg_json(a: &Arg) -> String {
    match a {
        Arg::U(v) => Json::U64(*v),
        Arg::I(v) => Json::I64(*v),
        Arg::F(v) => Json::F64(*v),
        Arg::S(v) => Json::from(v.as_str()),
    }
    .pretty()
}

fn event_json(ev: &TraceEvent) -> String {
    let ph = match ev.ph {
        Phase::Complete => "X",
        Phase::Instant => "i",
        Phase::Metadata => "M",
    };
    let mut out = format!(
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}",
        Escaped(&ev.name),
        Escaped(ev.cat),
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
            out.push_str(&format!("\"{}\":{}", Escaped(k), arg_json(v)));
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

/// Parse `text` as a Chrome trace-event JSON document and verify every
/// event is well-formed: required keys (`name`, `ph`, `ts`, `pid`,
/// `tid`) with the right types, a known phase, `dur` present and
/// non-negative on `"X"` events, and timestamps non-negative.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let root = Json::parse(text)?;
    let list = root
        .get("traceEvents")
        .ok_or("missing \"traceEvents\" key")?
        .as_array()
        .ok_or("\"traceEvents\" is not an array")?;
    let mut summary = TraceSummary {
        events: 0,
        cats: BTreeSet::new(),
        pids: BTreeSet::new(),
    };
    for (i, ev) in list.iter().enumerate() {
        let ctx = |field: &str| format!("event {i}: {field}");
        let string = |key| ev.get(key).and_then(Json::as_str);
        let number = |key| ev.get(key).and_then(Json::as_f64);
        let name = string("name").ok_or_else(|| ctx("missing string \"name\""))?;
        let ph = string("ph").ok_or_else(|| ctx("missing string \"ph\""))?;
        if !matches!(ph, "X" | "i" | "I" | "M" | "B" | "E" | "C") {
            return Err(ctx(&format!("unknown phase {ph:?} (name {name:?})")));
        }
        let ts = number("ts").ok_or_else(|| ctx("missing numeric \"ts\""))?;
        if ts < 0.0 {
            return Err(ctx("negative \"ts\""));
        }
        let pid = number("pid").ok_or_else(|| ctx("missing numeric \"pid\""))?;
        number("tid").ok_or_else(|| ctx("missing numeric \"tid\""))?;
        if ph == "X" {
            let dur = number("dur").ok_or_else(|| ctx("\"X\" event missing numeric \"dur\""))?;
            if dur < 0.0 {
                return Err(ctx("negative \"dur\""));
            }
        }
        summary.events += 1;
        if let Some(cat) = string("cat") {
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
