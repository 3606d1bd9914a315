//! In-memory spans recorded by the benchmark around its calls into each
//! layer: `{name, start, end, parent, rid}`, written out once at the end.
//!
//! The traced run is one logical thread of control (the harness calls a
//! layer, the layer calls back into a wrapper the harness supplied), so
//! parenthood is an explicit stack. Work that happens in thousands of
//! tiny calls (the analyzer's `push`) is summed by the caller and added
//! as one aggregate child, so recording it costs two clock reads per
//! call and no allocation.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request id: spans of one traced request share it.
    pub rid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    rid: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            rid: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start the next request: later spans carry the new id.
    pub fn next_request(&mut self) -> u32 {
        assert!(self.stack.is_empty(), "request started inside a span");
        self.rid += 1;
        self.rid
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        self.enter_at(name, now)
    }

    fn enter_at(&mut self, name: &'static str, start_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            rid: self.rid,
        });
        self.stack.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) -> u64 {
        let now = self.now_ns();
        self.exit_at(id, now)
    }

    fn exit_at(&mut self, id: usize, end_ns: u64) -> u64 {
        assert_eq!(self.stack.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = end_ns;
        self.spans[id].dur_ns()
    }

    /// Add a child of the open span standing for `dur_ns` of work summed
    /// over many calls inside it. It is laid at the parent's start; only
    /// its length means anything.
    pub fn aggregate(&mut self, name: &'static str, dur_ns: u64) {
        let parent = *self.stack.last().expect("aggregate needs an open span");
        let start = self.spans[parent].start_ns;
        let id = self.enter_at(name, start);
        self.exit_at(id, start + dur_ns);
    }

    /// Self time: the span's duration minus the part of it its children
    /// cover (children are clipped to the span and overlaps count once).
    pub fn self_ns(&self, id: usize) -> u64 {
        let me = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = me.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        me.dur_ns() - covered
    }

    /// Total duration of spans called `name` within request `rid`.
    pub fn sum_ns(&self, name: &str, rid: u32) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.rid == rid && s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// The whole recording as a JSON array, one span per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"rid\": {}, \"self_ns\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.rid,
                self.self_ns(i),
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]\n");
        out
    }
}

/// Closure of a decomposition: the separately timed pieces as a
/// percentage of the span they are meant to add up to.
pub fn closure_pct(pieces_ns: u64, whole_ns: u64) -> f64 {
    100.0 * pieces_ns as f64 / whole_ns as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build spans at chosen times, bypassing the clock.
    fn at(
        t: &mut Tracer,
        name: &'static str,
        start: u64,
        end: u64,
        body: impl FnOnce(&mut Tracer),
    ) {
        let id = t.enter_at(name, start);
        body(t);
        t.exit_at(id, end);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Tracer::new();
        at(&mut t, "request", 0, 100, |t| {
            at(t, "parse", 0, 10, |_| {});
            at(t, "handle", 10, 90, |t| {
                at(t, "analyze", 20, 80, |_| {});
            });
            // Overlapping sibling: [85, 95) overlaps handle by 5.
            at(t, "write", 85, 95, |_| {});
        });
        assert_eq!(t.self_ns(0), 100 - (10 + 80 + 5));
        assert_eq!(t.self_ns(2), 80 - 60);
        assert_eq!(t.self_ns(3), 60);
        assert_eq!(t.spans[3].parent, Some(2));
    }

    #[test]
    fn aggregate_child_is_clipped_to_its_parent() {
        let mut t = Tracer::new();
        let run = t.enter_at("run", 1000);
        t.aggregate("push", 400);
        // Summed work may exceed the parent if the clock reads overlap.
        t.aggregate("overshoot", 5000);
        t.exit_at(run, 2000);
        assert_eq!(t.spans[1].dur_ns(), 400);
        assert_eq!(t.self_ns(run), 0);
    }

    #[test]
    fn closure_and_request_sums() {
        let mut t = Tracer::new();
        let r1 = t.next_request();
        at(&mut t, "analyze", 0, 1000, |_| {});
        let r2 = t.next_request();
        at(&mut t, "run", 2000, 2600, |_| {});
        at(&mut t, "finalize", 2600, 2950, |_| {});
        let pieces = t.sum_ns("run", r2) + t.sum_ns("finalize", r2);
        assert_eq!(pieces, 950);
        assert_eq!(closure_pct(pieces, t.sum_ns("analyze", r1)), 95.0);
        assert_eq!(t.sum_ns("run", r1), 0);
    }

    #[test]
    fn json_lists_every_span() {
        let mut t = Tracer::new();
        t.next_request();
        at(&mut t, "a", 0, 10, |t| at(t, "b", 2, 4, |_| {}));
        let json = t.to_json();
        assert_eq!(json.matches("\"name\"").count(), 2);
        assert!(json.contains("\"parent\": null"));
        assert!(json.contains("\"parent\": 0"));
        assert!(json.contains("\"self_ns\": 8"));
    }
}
