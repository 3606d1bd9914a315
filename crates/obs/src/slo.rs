//! SLO telemetry — sliding-window latency/outcome accounting, plus a
//! from-scratch Prometheus text-exposition parser for validating what
//! the serving tier publishes.
//!
//! ## The window
//!
//! [`SloWindow`] is a ring of `epochs` fixed-duration epoch slots. An
//! observation lands in slot `epoch % epochs` where
//! `epoch = now_ns / epoch_ns`; a slot whose tag is older than the
//! incoming epoch is reset (claimed with one CAS to a sentinel, zeroed,
//! then retagged) and reused. A snapshot merges every slot whose epoch
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
//!   for the `/metricsz` exposition and `report slo`; at an epoch
//!   boundary a concurrent rollover may smear an event into the
//!   adjacent epoch, which is harmless for quantiles and explicitly
//!   outside the determinism contract.
//!
//! Quantiles follow the [`crate::metrics::Histogram`] convention: the
//! inclusive upper bound of the log2 bucket containing the requested
//! rank — conservative, never under-reporting.

use std::sync::atomic::{AtomicU64, Ordering};

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

/// Log2 latency buckets: bucket 39 caps at ~2^40 ns ≈ 18 minutes.
const LAT_BUCKETS: usize = 40;

/// Slot-tag sentinel while a slot is being zeroed for reuse.
const RESETTING: u64 = u64::MAX;

fn bucket_index(v: u64) -> usize {
    if v == 0 {
        return 0;
    }
    ((63 - v.leading_zeros()) as usize).min(LAT_BUCKETS - 1)
}

fn bucket_bound(i: usize) -> u64 {
    if i >= LAT_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// Per-(epoch, endpoint) accumulator.
struct Cell {
    classes: [AtomicU64; 3],
    lat_sum: AtomicU64,
    lat_count: AtomicU64,
    buckets: [AtomicU64; LAT_BUCKETS],
}

impl Cell {
    fn new() -> Cell {
        Cell {
            classes: std::array::from_fn(|_| AtomicU64::new(0)),
            lat_sum: AtomicU64::new(0),
            lat_count: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn clear(&self) {
        for c in &self.classes {
            c.store(0, Ordering::Relaxed);
        }
        self.lat_sum.store(0, Ordering::Relaxed);
        self.lat_count.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// One epoch slot: `tag` is `epoch + 1` (0 = never used, [`RESETTING`]
/// = mid-reset), so slot reuse is detectable without a separate flag.
struct EpochSlot {
    tag: AtomicU64,
    cells: Vec<Cell>,
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
/// cells, so `observe` is a few relaxed atomic ops with no hashing.
pub struct SloWindow {
    labels: &'static [&'static str],
    epoch_ns: u64,
    slots: Vec<EpochSlot>,
    totals: Vec<[AtomicU64; 3]>,
}

impl SloWindow {
    /// A window of `epochs` slots of `epoch_ns` each over `labels`.
    pub fn new(labels: &'static [&'static str], epoch_ns: u64, epochs: usize) -> SloWindow {
        assert!(epoch_ns > 0 && epochs >= 2 && !labels.is_empty());
        SloWindow {
            labels,
            epoch_ns,
            slots: (0..epochs)
                .map(|_| EpochSlot {
                    tag: AtomicU64::new(0),
                    cells: (0..labels.len()).map(|_| Cell::new()).collect(),
                })
                .collect(),
            totals: (0..labels.len())
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
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
        self.totals[label][class].fetch_add(1, Ordering::Relaxed);
        let epoch = now_ns / self.epoch_ns;
        let tag = epoch + 1;
        let slot = &self.slots[(epoch as usize) % self.slots.len()];
        loop {
            let cur = slot.tag.load(Ordering::Acquire);
            if cur == tag {
                break;
            }
            if cur == RESETTING {
                std::hint::spin_loop();
                continue;
            }
            if cur > tag {
                // The slot already belongs to a *newer* epoch: this
                // observation predates the whole ring. Totals above
                // already counted it; the window drops it.
                return;
            }
            if slot
                .tag
                .compare_exchange(cur, RESETTING, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                for cell in &slot.cells {
                    cell.clear();
                }
                slot.tag.store(tag, Ordering::Release);
                break;
            }
        }
        let cell = &slot.cells[label];
        cell.classes[class].fetch_add(1, Ordering::Relaxed);
        cell.lat_sum.fetch_add(lat_ns, Ordering::Relaxed);
        cell.lat_count.fetch_add(1, Ordering::Relaxed);
        cell.buckets[bucket_index(lat_ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Merge every live epoch (the last `epochs` epochs as of `now_ns`)
    /// into one row per label.
    pub fn snapshot(&self, now_ns: u64) -> Vec<SloRow> {
        let now_epoch = now_ns / self.epoch_ns;
        let span = self.slots.len() as u64;
        let mut rows: Vec<SloRow> = self
            .labels
            .iter()
            .enumerate()
            .map(|(i, label)| SloRow {
                label,
                window: [0; 3],
                total: std::array::from_fn(|c| self.totals[i][c].load(Ordering::Relaxed)),
                p50_ns: 0,
                p99_ns: 0,
                lat_count: 0,
                lat_sum: 0,
            })
            .collect();
        let mut buckets = vec![[0u64; LAT_BUCKETS]; self.labels.len()];
        for slot in &self.slots {
            let tag = slot.tag.load(Ordering::Acquire);
            if tag == 0 || tag == RESETTING {
                continue;
            }
            let epoch = tag - 1;
            if epoch > now_epoch || now_epoch - epoch >= span {
                continue; // future-tagged (racing reset) or expired
            }
            for (i, cell) in slot.cells.iter().enumerate() {
                for c in 0..3 {
                    rows[i].window[c] += cell.classes[c].load(Ordering::Relaxed);
                }
                rows[i].lat_sum += cell.lat_sum.load(Ordering::Relaxed);
                rows[i].lat_count += cell.lat_count.load(Ordering::Relaxed);
                for (b, acc) in buckets[i].iter_mut().enumerate() {
                    *acc += cell.buckets[b].load(Ordering::Relaxed);
                }
            }
        }
        for (i, row) in rows.iter_mut().enumerate() {
            row.p50_ns = quantile(&buckets[i], row.lat_count, 0.50);
            row.p99_ns = quantile(&buckets[i], row.lat_count, 0.99);
        }
        rows
    }
}

fn quantile(buckets: &[u64; LAT_BUCKETS], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return bucket_bound(i);
        }
    }
    bucket_bound(LAT_BUCKETS - 1)
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
