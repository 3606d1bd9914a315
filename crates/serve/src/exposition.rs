//! What the node says about itself: the `/healthz` document and the one
//! metrics exposition, `/metricsz`. Wall-clock data — explicitly outside
//! the byte-identity contract of the analysis endpoints.

use std::fmt::{Display, Write as _};

use obs::json::Json;

use crate::http::Response;
use crate::router::Router;

/// Availability target backing the error-budget exposition: 99.9%, i.e.
/// one 5xx allowed per thousand windowed requests.
const SLO_BUDGET_DENOMINATOR: u64 = 1000;

/// A Prometheus text exposition under construction — the one place a
/// family header or a sample line is spelled.
struct Exposition(String);

impl Exposition {
    /// Open a metric family: optional `# HELP`, then `# TYPE`.
    fn family(&mut self, name: &str, kind: &str, help: &str) {
        if !help.is_empty() {
            let _ = writeln!(self.0, "# HELP {name} {help}");
        }
        let _ = writeln!(self.0, "# TYPE {name} {kind}");
    }

    /// One sample line: `name{k="v",...} value`.
    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: impl Display) {
        self.0.push_str(name);
        for (i, (k, v)) in labels.iter().enumerate() {
            let _ = write!(self.0, "{}{k}=\"{v}\"", if i == 0 { '{' } else { ',' });
        }
        if !labels.is_empty() {
            self.0.push('}');
        }
        let _ = writeln!(self.0, " {value}");
    }

    /// A family of one unlabeled sample.
    fn scalar(&mut self, name: &str, kind: &str, value: impl Display) {
        self.family(name, kind, "");
        self.sample(name, &[], value);
    }
}

impl Router {
    pub(crate) fn healthz(&self) -> Response {
        let ring = obs::flight();
        let mut doc = Json::obj()
            .field("status", "ok")
            .field("build", env!("CARGO_PKG_VERSION"))
            .field("uptime_ms", self.started.elapsed().as_millis() as u64)
            .field("cache_entries", self.cache.len())
            .field("flightrec_depth", ring.depth())
            .field("flightrec_total", ring.total());
        if let Some(store) = &self.store {
            let rec = store.recovery();
            doc = doc
                .field("store_entries", store.len())
                .field("store_generation", store.generation())
                .field("store_recovered_records", rec.recovered_records())
                .field("store_quarantined_bytes", rec.quarantined_bytes);
        }
        // Cluster fields appear only when the node runs clustered, so
        // existing /healthz parsers see exactly the document they always
        // did on a standalone node.
        if let Some(cl) = &self.cluster {
            let st = cl.state();
            let (epoch, members) = st.view();
            doc = doc
                .field("cluster_id", st.node_id())
                .field("cluster_epoch", epoch)
                .field("cluster_members", members.len())
                .field("cluster_slice", st.slice_fraction(st.node_id()));
        }
        Response::json(200, doc.pretty() + "\n")
    }

    /// Prometheus-style text exposition of the SLO window, the flight
    /// recorder's vitals, and the deterministic obs counters. The format
    /// is validated by [`obs::parse_exposition`] in tests, CI, and
    /// `tracetool`.
    pub(crate) fn metricsz(&self) -> Response {
        let rows = self.slo.snapshot(obs::wall_ns());
        let mut out = Exposition(String::with_capacity(4096));
        out.family(
            "serve_requests_total",
            "counter",
            "Cumulative requests by endpoint and class.",
        );
        for row in &rows {
            for (class, n) in obs::slo::CLASSES.iter().zip(row.total) {
                let labels = [("endpoint", row.label), ("class", *class)];
                out.sample("serve_requests_total", &labels, n);
            }
        }
        out.family(
            "serve_window_requests",
            "gauge",
            "Requests in the sliding SLO window.",
        );
        for row in &rows {
            for (class, n) in obs::slo::CLASSES.iter().zip(row.window) {
                let labels = [("endpoint", row.label), ("class", *class)];
                out.sample("serve_window_requests", &labels, n);
            }
        }
        out.family(
            "serve_window_latency_ns",
            "gauge",
            "Windowed latency quantiles (inclusive log2-bucket upper bounds).",
        );
        for row in rows.iter().filter(|r| r.lat_count > 0) {
            let endpoint = ("endpoint", row.label);
            for (q, v) in [("0.5", row.p50_ns), ("0.99", row.p99_ns)] {
                out.sample("serve_window_latency_ns", &[endpoint, ("quantile", q)], v);
            }
            out.sample("serve_window_latency_sum_ns", &[endpoint], row.lat_sum);
            out.sample("serve_window_latency_count", &[endpoint], row.lat_count);
        }
        out.family(
            "serve_error_budget_remaining",
            "gauge",
            "Windowed 5xx budget left at a 99.9% availability target \
             (burned = windowed 5xx count).",
        );
        for row in &rows {
            let endpoint = [("endpoint", row.label)];
            let allowed = row.window.iter().sum::<u64>() / SLO_BUDGET_DENOMINATOR;
            let burned = row.window[2];
            out.sample(
                "serve_error_budget_remaining",
                &endpoint,
                allowed.saturating_sub(burned),
            );
            out.sample("serve_error_budget_burned", &endpoint, burned);
        }
        let ring = obs::flight();
        out.scalar("serve_flightrec_events_total", "counter", ring.total());
        out.scalar("serve_flightrec_depth", "gauge", ring.depth());
        out.scalar(
            "serve_uptime_ms",
            "gauge",
            self.started.elapsed().as_millis(),
        );
        out.scalar("serve_cache_entries", "gauge", self.cache.len());
        if let Some(cl) = &self.cluster {
            let st = cl.state();
            let (epoch, members) = st.view();
            out.scalar("serve_cluster_epoch", "gauge", epoch);
            out.scalar("serve_cluster_members", "gauge", members.len());
            let slice = st.slice_fraction(st.node_id());
            out.scalar("serve_cluster_slice", "gauge", format_args!("{slice:.6}"));
            out.family("serve_cluster_peer_alive", "gauge", "");
            for peer in st.peers() {
                out.sample(
                    "serve_cluster_peer_alive",
                    &[("peer", &peer.id.to_string())],
                    u8::from(st.is_alive(peer.id)),
                );
            }
        }
        // The deterministic registry counters, dots and all, as one
        // labeled family — so the exposition carries the same numbers
        // the byte-identity tests compare.
        out.family("obs_counter", "gauge", "");
        for (name, value) in obs::metrics().snapshot_counters() {
            out.sample("obs_counter", &[("name", &name)], value);
        }
        Response::text(200, out.0)
    }
}
