//! Talking to a running service: `get` (one path), `slo` (the
//! `/metricsz` SLO summary) and `cluster` (operate a fleet through any
//! member node). All three exit 1 when the service cannot be reached or
//! answers anything but 200.

use std::net::SocketAddr;

use crate::cli::{Flag, Parsed};

pub(super) const ADDR: Flag =
    Flag::new("--addr", "HOST:PORT", "", "the analysis service to talk to");
pub(super) const PATH: Flag = Flag::new("--path", "P", "", "request path to fetch");
pub(super) const RAW: Flag = Flag::new(
    "--raw",
    "FILE",
    "",
    "also write the raw /metricsz text here",
);

/// GET `path` from `addr`, following a redirecting fleet's 307s to the
/// owner (at most `cluster::MAX_HOPS` of them): the body of a 200.
/// Anything else is reported on stderr (`what` names the request) and is
/// the caller's exit 1.
fn fetch(addr: SocketAddr, path: &str, what: &str) -> Option<String> {
    match serve::get_redirecting(&addr.to_string(), path, cluster::MAX_HOPS) {
        Ok((r, _)) if r.status == 200 => Some(r.body_text()),
        Ok((r, _)) => {
            let body = r.body_text();
            let sep = if body.trim().is_empty() { "" } else { ": " };
            eprintln!("error: {what} returned {}{sep}{}", r.status, body.trim());
            None
        }
        Err(e) => {
            eprintln!("error: cannot reach {addr}: {e}");
            None
        }
    }
}

/// Print a fetched body; the exit code.
fn print_body(body: Option<String>) -> i32 {
    match body {
        Some(text) => {
            print!("{text}");
            0
        }
        None => 1,
    }
}

pub(super) fn get(p: &Parsed) -> Result<i32, String> {
    let addr = p.get(&ADDR)?;
    let path: String = p.get(&PATH)?;
    Ok(print_body(fetch(addr, &path, &path)))
}

/// `join` and `decommission` bump the epoch only after a verified handoff.
pub(super) fn cluster(p: &Parsed) -> Result<i32, String> {
    let addr = p.get(&ADDR)?;
    let verb = p
        .operand()
        .map_err(|_| "cluster requires a verb: status, join, or decommission".to_string())?;
    let path = match verb {
        "status" => "/v1/cluster/status?format=table",
        "join" => "/v1/cluster/join",
        "decommission" => "/v1/cluster/decommission",
        other => {
            return Err(format!(
                "unknown cluster verb {other:?} (expected status, join, or decommission)"
            ))
        }
    };
    Ok(print_body(fetch(addr, path, &format!("cluster {verb}"))))
}

/// Fetch `/metricsz`, validate the exposition with the from-scratch
/// parser, and render the summary. Exit 1 on connect or parse failure —
/// this doubles as the exposition-format gate.
pub(super) fn slo(p: &Parsed) -> Result<i32, String> {
    let addr = p.get(&ADDR)?;
    let raw: Option<String> = p.opt(&RAW)?;
    let Some(text) = fetch(addr, "/metricsz", "/metricsz") else {
        return Ok(1);
    };
    if let Some(raw) = &raw {
        if let Err(e) = std::fs::write(raw, &text) {
            eprintln!("error: cannot write {raw}: {e}");
            return Ok(1);
        }
    }
    match obs::parse_exposition(&text) {
        Ok(samples) => {
            print!("{}", slo_table(&samples));
            Ok(0)
        }
        Err(e) => {
            eprintln!("error: /metricsz is not a valid exposition: {e}");
            Ok(1)
        }
    }
}

/// Render the per-endpoint SLO summary from parsed `/metricsz` samples:
/// windowed request counts by response class, windowed latency quantiles,
/// and the error-budget burn, with the service-level lines underneath.
fn slo_table(samples: &[obs::Sample]) -> String {
    use std::fmt::Write as _;

    #[derive(Default)]
    struct Row {
        window: [u64; 3],
        total: u64,
        p50: Option<f64>,
        p99: Option<f64>,
        burned: u64,
    }
    let mut rows: std::collections::BTreeMap<String, Row> = std::collections::BTreeMap::new();
    let mut budget_remaining = None;
    let mut uptime_ms = None;
    let mut flightrec_depth = None;
    for s in samples {
        let endpoint = s.label("endpoint").unwrap_or("").to_string();
        match s.name.as_str() {
            "serve_window_requests" => {
                let k = match s.label("class") {
                    Some("2xx") => 0,
                    Some("4xx") => 1,
                    _ => 2,
                };
                rows.entry(endpoint).or_default().window[k] += s.value as u64;
            }
            "serve_requests_total" => {
                rows.entry(endpoint).or_default().total += s.value as u64;
            }
            "serve_window_latency_ns" => {
                let row = rows.entry(endpoint).or_default();
                match s.label("quantile") {
                    Some("0.5") => row.p50 = Some(s.value),
                    Some("0.99") => row.p99 = Some(s.value),
                    _ => {}
                }
            }
            "serve_error_budget_burned" => {
                rows.entry(endpoint).or_default().burned = s.value as u64;
            }
            "serve_error_budget_remaining" => budget_remaining = Some(s.value),
            "serve_uptime_ms" => uptime_ms = Some(s.value as u64),
            "serve_flightrec_depth" => flightrec_depth = Some(s.value as u64),
            _ => {}
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>6} {:>6} {:>10} {:>11} {:>11} {:>7}",
        "endpoint", "win-2xx", "4xx", "5xx", "total", "p50", "p99", "burned"
    );
    let fmt_ns = |v: Option<f64>| match v {
        Some(ns) if ns >= 1e6 => format!("{:.1} ms", ns / 1e6),
        Some(ns) if ns >= 1e3 => format!("{:.1} us", ns / 1e3),
        Some(ns) => format!("{ns:.0} ns"),
        None => "-".to_string(),
    };
    for (endpoint, r) in &rows {
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>6} {:>6} {:>10} {:>11} {:>11} {:>7}",
            endpoint,
            r.window[0],
            r.window[1],
            r.window[2],
            r.total,
            fmt_ns(r.p50),
            fmt_ns(r.p99),
            r.burned,
        );
    }
    if let Some(b) = budget_remaining {
        let _ = writeln!(out, "error budget remaining: {b:.0}");
    }
    if let (Some(up), Some(depth)) = (uptime_ms, flightrec_depth) {
        let _ = writeln!(out, "uptime: {up} ms, flight-recorder depth: {depth}");
    }
    out
}
