//! SLO telemetry — sliding-window latency/outcome accounting, plus a
//! from-scratch Prometheus text-exposition parser for validating what
//! the serving tier publishes.
//!
//! ## The window
//!
//! [`SloWindow`] is one `Mutex` around a ring of `epochs` fixed-duration
//! epoch slots and the per-label totals, all plain counters. An
//! observation lands in slot `epoch % epochs` where
//! `epoch = now_ns / epoch_ns`: a slot whose tag is older than the
//! incoming epoch is zeroed and retagged, and an observation older than
//! its slot's epoch predates the whole ring, so the window drops it (the
//! totals still count it). A snapshot merges every slot whose epoch
//! falls inside the last `epochs` epochs, so the window slides in whole
//! epochs — deterministic under a test-supplied clock, since *every*
//! entry point takes `now_ns` as an argument rather than reading a
//! clock itself.
//!
//! Two kinds of numbers live here, with different contracts:
//!
//! * **Cumulative per-endpoint/per-class totals** — exact, deterministic
//!   event counts (the byte-identity tests may compare them).
//! * **Windowed counts and log2 latency histograms** — wall-clock data
//!   for the `/metricsz` exposition and `report slo`: which epoch a
//!   request lands in depends on when it finished, so they are outside
//!   the determinism contract.
//!
//! Quantiles follow the metrics registry's histogram convention, with
//! its bucket rule: the inclusive upper bound of the log2 bucket
//! containing the requested rank — conservative, never under-reporting.

use crate::lock;
use crate::metrics::{bucket_bound, bucket_index, BUCKETS};
use std::sync::Mutex;

/// Outcome classes tracked per endpoint, indexed by [`class_of`].
pub const CLASSES: [&str; 3] = ["2xx", "4xx", "5xx"];

/// Map an HTTP status to a class index (anything not 2xx/4xx is 5xx).
pub fn class_of(status: u16) -> usize {
    match status / 100 {
        2 => 0,
        4 => 1,
        _ => 2,
    }
}

/// Per-(epoch, endpoint) accumulator.
#[derive(Clone, Copy)]
struct Cell {
    classes: [u64; 3],
    lat_sum: u64,
    lat_count: u64,
    buckets: [u64; BUCKETS],
}

impl Cell {
    const EMPTY: Cell = Cell {
        classes: [0; 3],
        lat_sum: 0,
        lat_count: 0,
        buckets: [0; BUCKETS],
    };

    fn merge(&mut self, other: &Cell) {
        for (acc, n) in self.classes.iter_mut().zip(other.classes) {
            *acc += n;
        }
        self.lat_sum += other.lat_sum;
        self.lat_count += other.lat_count;
        for (acc, n) in self.buckets.iter_mut().zip(other.buckets) {
            *acc += n;
        }
    }
}

/// One epoch slot: `tag` is `epoch + 1` (0 = never used).
struct EpochSlot {
    tag: u64,
    cells: Vec<Cell>,
}

/// What the lock guards: the epoch ring and the per-label totals.
struct Window {
    slots: Vec<EpochSlot>,
    totals: Vec<[u64; 3]>,
}

/// Aggregated per-endpoint numbers from a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloRow {
    pub label: &'static str,
    /// Windowed request counts by class.
    pub window: [u64; 3],
    /// Cumulative (process-lifetime) counts by class — deterministic.
    pub total: [u64; 3],
    /// Windowed latency quantiles (inclusive bucket upper bounds); 0
    /// when the window is empty.
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub lat_count: u64,
    pub lat_sum: u64,
}

/// The sliding window. Constructed with a fixed label set; labels index
/// cells, so `observe` is a few additions under the lock, with no hashing.
pub struct SloWindow {
    labels: &'static [&'static str],
    epoch_ns: u64,
    window: Mutex<Window>,
}

impl SloWindow {
    /// A window of `epochs` slots of `epoch_ns` each over `labels`.
    pub fn new(labels: &'static [&'static str], epoch_ns: u64, epochs: usize) -> SloWindow {
        assert!(epoch_ns > 0 && epochs >= 2 && !labels.is_empty());
        SloWindow {
            labels,
            epoch_ns,
            window: Mutex::new(Window {
                slots: (0..epochs)
                    .map(|_| EpochSlot {
                        tag: 0,
                        cells: vec![Cell::EMPTY; labels.len()],
                    })
                    .collect(),
                totals: vec![[0; 3]; labels.len()],
            }),
        }
    }

    /// The label set, in index order.
    pub fn labels(&self) -> &'static [&'static str] {
        self.labels
    }

    /// Record one request outcome at `now_ns` (caller supplies the
    /// clock — tests pass a synthetic one).
    pub fn observe(&self, label: usize, status: u16, lat_ns: u64, now_ns: u64) {
        let class = class_of(status);
        let epoch = now_ns / self.epoch_ns;
        let tag = epoch + 1;
        let mut w = lock(&self.window);
        w.totals[label][class] += 1;
        let n = w.slots.len();
        let slot = &mut w.slots[(epoch as usize) % n];
        if slot.tag < tag {
            slot.tag = tag;
            slot.cells.fill(Cell::EMPTY);
        } else if slot.tag > tag {
            // The slot already belongs to a *newer* epoch: this
            // observation predates the whole ring. Totals above
            // already counted it; the window drops it.
            return;
        }
        let cell = &mut slot.cells[label];
        cell.classes[class] += 1;
        cell.lat_sum += lat_ns;
        cell.lat_count += 1;
        cell.buckets[bucket_index(lat_ns)] += 1;
    }

    /// Merge every live epoch (the last `epochs` epochs as of `now_ns`)
    /// into one row per label.
    pub fn snapshot(&self, now_ns: u64) -> Vec<SloRow> {
        let now_epoch = now_ns / self.epoch_ns;
        let mut merged = vec![Cell::EMPTY; self.labels.len()];
        let w = lock(&self.window);
        let span = w.slots.len() as u64;
        for slot in &w.slots {
            let Some(epoch) = slot.tag.checked_sub(1) else {
                continue; // never used
            };
            if epoch > now_epoch || now_epoch - epoch >= span {
                continue; // newer than `now_ns`, or expired
            }
            for (acc, cell) in merged.iter_mut().zip(&slot.cells) {
                acc.merge(cell);
            }
        }
        self.labels
            .iter()
            .zip(merged)
            .zip(&w.totals)
            .map(|((label, m), total)| SloRow {
                label,
                window: m.classes,
                total: *total,
                p50_ns: quantile(&m.buckets, m.lat_count, 0.50),
                p99_ns: quantile(&m.buckets, m.lat_count, 0.99),
                lat_count: m.lat_count,
                lat_sum: m.lat_sum,
            })
            .collect()
    }
}

fn quantile(buckets: &[u64; BUCKETS], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    let i = buckets.iter().position(|&n| {
        seen += n;
        seen >= rank
    });
    bucket_bound(i.unwrap_or(BUCKETS - 1))
}

// ---------------------------------------------------------------------
// Prometheus text-exposition parser (from scratch, for validation)
// ---------------------------------------------------------------------

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl Sample {
    /// The value of a label, if present.
    pub fn label(&self, name: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

fn is_name_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':'
}

fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit()
}

/// Parse a Prometheus text-format exposition (version 0.0.4): `# HELP`
/// / `# TYPE` comments, sample lines `name{label="v",...} value [ts]`.
/// Returns every sample, or a message naming the first offending line.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if comment.starts_with("TYPE ") {
                let mut parts = comment.split_whitespace();
                parts.next(); // TYPE
                let name = parts
                    .next()
                    .ok_or_else(|| format!("line {}: TYPE without a metric name", lineno + 1))?;
                validate_name(name, lineno)?;
                let kind = parts
                    .next()
                    .ok_or_else(|| format!("line {}: TYPE without a kind", lineno + 1))?;
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {}: unknown TYPE kind {kind:?}", lineno + 1));
                }
            }
            continue; // HELP and free comments: content unconstrained
        }
        samples.push(parse_sample(line, lineno)?);
    }
    Ok(samples)
}

fn validate_name(name: &str, lineno: usize) -> Result<(), String> {
    let mut chars = name.chars();
    let ok = chars.next().map(is_name_start).unwrap_or(false) && chars.all(is_name_char);
    if ok {
        Ok(())
    } else {
        Err(format!("line {}: invalid metric name {name:?}", lineno + 1))
    }
}

fn parse_sample(line: &str, lineno: usize) -> Result<Sample, String> {
    let err = |msg: &str| format!("line {}: {msg}: {line:?}", lineno + 1);
    let name_end = line
        .char_indices()
        .find(|&(_, c)| !is_name_char(c))
        .map(|(i, _)| i)
        .unwrap_or(line.len());
    let name = &line[..name_end];
    validate_name(name, lineno)?;
    let mut rest = &line[name_end..];
    let mut labels = Vec::new();
    if let Some(inner) = rest.strip_prefix('{') {
        let close = inner
            .find('}')
            .ok_or_else(|| err("unterminated label set"))?;
        let (body, after) = inner.split_at(close);
        rest = &after[1..];
        let mut cursor = body;
        while !cursor.is_empty() {
            let eq = cursor.find('=').ok_or_else(|| err("label without '='"))?;
            let lname = cursor[..eq].trim();
            let mut lchars = lname.chars();
            if !(lchars
                .next()
                .map(|c| c.is_ascii_alphabetic() || c == '_')
                .unwrap_or(false)
                && lchars.all(|c| c.is_ascii_alphanumeric() || c == '_'))
            {
                return Err(err("invalid label name"));
            }
            let after_eq = cursor[eq + 1..].trim_start();
            let quoted = after_eq
                .strip_prefix('"')
                .ok_or_else(|| err("label value is not quoted"))?;
            // Scan the escaped value for the closing quote.
            let mut value = String::new();
            let mut chars = quoted.char_indices();
            let mut consumed = None;
            while let Some((i, c)) = chars.next() {
                match c {
                    '"' => {
                        consumed = Some(i + 1);
                        break;
                    }
                    '\\' => match chars.next() {
                        Some((_, 'n')) => value.push('\n'),
                        Some((_, '"')) => value.push('"'),
                        Some((_, '\\')) => value.push('\\'),
                        _ => return Err(err("bad escape in label value")),
                    },
                    c => value.push(c),
                }
            }
            let consumed = consumed.ok_or_else(|| err("unterminated label value"))?;
            labels.push((lname.to_string(), value));
            cursor = quoted[consumed..].trim_start();
            if let Some(next) = cursor.strip_prefix(',') {
                cursor = next.trim_start();
            } else if !cursor.is_empty() {
                return Err(err("expected ',' between labels"));
            }
        }
    }
    let mut fields = rest.split_whitespace();
    let value_str = fields.next().ok_or_else(|| err("missing sample value"))?;
    let value = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v.parse().map_err(|_| err("unparseable sample value"))?,
    };
    if let Some(ts) = fields.next() {
        ts.parse::<i64>()
            .map_err(|_| err("unparseable timestamp"))?;
    }
    if fields.next().is_some() {
        return Err(err("trailing tokens after sample"));
    }
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    static LABELS: [&str; 2] = ["verdict", "healthz"];

    fn window() -> SloWindow {
        // 2-unit epochs, 4 slots → an 8 ns window under the test clock.
        SloWindow::new(&LABELS, 2, 4)
    }

    #[test]
    fn window_slides_in_whole_epochs_deterministically() {
        let w = window();
        w.observe(0, 200, 10, 0); // epoch 0
        w.observe(0, 200, 20, 2); // epoch 1
        w.observe(0, 404, 30, 5); // epoch 2
        let rows = w.snapshot(5);
        assert_eq!(rows[0].window, [2, 1, 0]);
        assert_eq!(rows[0].total, [2, 1, 0]);
        assert_eq!(rows[0].lat_count, 3);
        assert_eq!(rows[0].lat_sum, 60);
        // Advance past epoch 0's slot lifetime: epoch 4 reuses slot 0.
        w.observe(0, 500, 40, 8); // epoch 4 → evicts epoch 0's entry
        let rows = w.snapshot(8);
        assert_eq!(rows[0].window, [1, 1, 1], "epoch 0 expired from window");
        assert_eq!(rows[0].total, [2, 1, 1], "totals never expire");
        // A snapshot far in the future sees an empty window, full totals.
        let rows = w.snapshot(1_000);
        assert_eq!(rows[0].window, [0, 0, 0]);
        assert_eq!(rows[0].total, [2, 1, 1]);
        assert_eq!(rows[0].p50_ns, 0);
    }

    #[test]
    fn stale_observations_hit_totals_but_not_window() {
        let w = window();
        w.observe(1, 200, 5, 20); // epoch 10 occupies slot 2
        w.observe(1, 200, 5, 4); // epoch 2 maps to slot 2 — too old
        let rows = w.snapshot(20);
        assert_eq!(rows[1].window, [1, 0, 0]);
        assert_eq!(rows[1].total, [2, 0, 0]);
    }

    #[test]
    fn quantiles_are_conservative_bucket_bounds() {
        let w = window();
        for lat in [100u64, 200, 300, 5_000] {
            w.observe(0, 200, lat, 0);
        }
        let rows = w.snapshot(0);
        // p50 rank 2 → 200 lands in bucket [128,255].
        assert_eq!(rows[0].p50_ns, 255);
        // p99 rank 4 → 5000 lands in bucket [4096,8191].
        assert_eq!(rows[0].p99_ns, 8191);
    }

    #[test]
    fn concurrent_observers_lose_no_count() {
        let w = window();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let w = &w;
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        let status = if i % 4 == 0 { 404 } else { 200 };
                        w.observe((t % 2) as usize, status, 100 + i, 1);
                    }
                });
            }
        });
        let rows = w.snapshot(1);
        for row in &rows {
            assert_eq!(row.total, [1_500, 500, 0], "{}", row.label);
            assert_eq!(row.window, [1_500, 500, 0], "{}", row.label);
            assert_eq!(row.lat_count, 2_000, "{}", row.label);
            assert_eq!(row.lat_sum, 2 * (1_000 * 100 + 999 * 1_000 / 2));
        }
    }

    #[test]
    fn class_mapping() {
        assert_eq!(class_of(200), 0);
        assert_eq!(class_of(404), 1);
        assert_eq!(class_of(422), 1);
        assert_eq!(class_of(500), 2);
        assert_eq!(class_of(503), 2);
    }

    #[test]
    fn parser_accepts_wellformed_exposition() {
        let text = "\
# HELP serve_requests_total Requests by endpoint.
# TYPE serve_requests_total counter
serve_requests_total{endpoint=\"verdict\",class=\"2xx\"} 42
serve_requests_total{endpoint=\"weird \\\"one\\\"\",class=\"5xx\"} 0
serve_uptime_ms 1234
serve_latency_ns{quantile=\"0.99\"} 8191 1700000000000
";
        let samples = parse_exposition(text).unwrap();
        assert_eq!(samples.len(), 4);
        assert_eq!(samples[0].name, "serve_requests_total");
        assert_eq!(samples[0].label("endpoint"), Some("verdict"));
        assert_eq!(samples[0].value, 42.0);
        assert_eq!(samples[1].label("endpoint"), Some("weird \"one\""));
        assert_eq!(samples[2].labels.len(), 0);
        assert_eq!(samples[3].value, 8191.0);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "1bad_name 3",
            "name{unclosed=\"x\" 3",
            "name{=\"x\"} 3",
            "name{l=unquoted} 3",
            "name{l=\"v\"} not-a-number",
            "name 1 2 3",
            "# TYPE name sideways",
        ] {
            assert!(parse_exposition(bad).is_err(), "accepted: {bad}");
        }
    }
}
