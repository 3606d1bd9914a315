//! Every metric the benchmark reports, by name: the single table that
//! `BENCHMARK.json` (`bench manifest`), the result line, the A/A
//! comparison and the README's predicted-moves column are written from.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the system sees. Every bound is the contract's ceiling:
/// the shared 2-vCPU reference box spends stretches of tens of seconds to
/// minutes running 30 % slower (README, *Noise*); ten runs of one commit
/// spread by 2-5 % in quiet hours, and a bound has to leave room for the
/// others or it refuses an unchanged program. Not listed: `fail_share` must stay 0, and a bound cannot be a
/// share of 0 — the result line carries `attempted` and `failed` instead,
/// and any failure makes the run incorrect. Percentiles past the median
/// are per-layer (`client.*`) and never gated: p90 moved by 25-31 % between
/// ten-run sets on the warm workloads, p99 by a factor.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "ops/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric and workload this one should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const CLIENT: &str = "reported, never gated: the harness's view of this workload";
const OPEN: &str = "warm_hot only; a stall shows here as lateness before throughput drops";
const WARM_HTTP: &str = "warm_hot p50/throughput; twice over in fleet_proxy; nothing cold";
const WARM_ROUTER: &str = "warm_hot p50/throughput";
const SPILL: &str = "warm_spill throughput/p50; flat on warm_hot";
const FLEET: &str = "fleet_proxy only";
const STORE_SETUP: &str =
    "setup_s on warm_spill; <= one put per cold request, predicted invisible on cold_*";
const COLD_SIM: &str =
    "cold_paper throughput by <= iolibs.run_share; paper_batch; zero on warm/fleet";
const COLD_SCALE: &str = "cold_scale throughput/p90 (superlinear terms)";
const COLD_PUSH: &str = "cold_paper and cold_scale throughput; predicted no change on paper_batch";
const COLD_HB: &str = "cold_paper/cold_scale/paper_batch p90 via FLASH-fbs";
const VALIDITY: &str = "validity of the attribution itself";

pub const PER_LAYER: [PerLayer; 74] = [
    layer(
        "process.peak_rss_mib",
        "MiB",
        "lower",
        "reported, never gated: VmHWM after the workload; large only on cold_scale",
    ),
    layer("client.samples", "count", "higher", CLIENT),
    layer(
        "client.latency_p90_us",
        "us",
        "lower",
        "reported, never gated: lower decile over slices of the slice's p90; the largest configurations on cold_*, the forwarded requests on fleet_proxy",
    ),
    layer("client.latency_p99_us", "us", "lower", CLIENT),
    layer("client.latency_p999_us", "us", "lower", CLIENT),
    layer("client.open_20k.p50_us", "us", "lower", OPEN),
    layer("client.open_20k.p99_us", "us", "lower", OPEN),
    layer("client.open_40k.p50_us", "us", "lower", OPEN),
    layer("client.open_40k.p99_us", "us", "lower", OPEN),
    layer("client.open_80k.p50_us", "us", "lower", OPEN),
    layer("client.open_80k.p99_us", "us", "lower", OPEN),
    layer("client.open_max_lateness_us", "us", "lower", OPEN),
    layer("client.max_rate_in_slo_ops_s", "ops/s", "higher", OPEN),
    layer("serve.http.parse_ns", "ns", "lower", WARM_HTTP),
    layer("serve.http.write_ns", "ns", "lower", WARM_HTTP),
    layer(
        "serve.http.writes_per_response",
        "count",
        "lower",
        WARM_HTTP,
    ),
    layer("serve.http.response_bytes", "bytes", "lower", WARM_HTTP),
    layer("serve.router.handle_warm_ns", "ns", "lower", WARM_ROUTER),
    layer("serve.router.handle_store_hit_ns", "ns", "lower", SPILL),
    layer(
        "serve.router.cold_self_us",
        "us",
        "lower",
        "bounds what router work can ever save on cold_paper",
    ),
    layer(
        "serve.router.encode_views_ns",
        "ns",
        "lower",
        "cold_* (once per miss), setup_s on warm_spill",
    ),
    layer("serve.router.decode_views_ns", "ns", "lower", SPILL),
    layer(
        "serve.server.loopback_gap_us",
        "us",
        "lower",
        "warm_hot p50 minus parse, handle and write: the kernel share the program does not own",
    ),
    layer("serve.cache.get_hit_ns", "ns", "lower", WARM_ROUTER),
    layer("serve.cache.get_miss_ns", "ns", "lower", SPILL),
    layer("serve.cache.insert_evict_ns", "ns", "lower", SPILL),
    layer(
        "serve.cache.hit_ratio",
        "ratio",
        "higher",
        "1.0 on warm_hot, ~0.25 on warm_spill; moving it moves warm_spill throughput",
    ),
    layer("cluster.ring.owner_ns", "ns", "lower", FLEET),
    layer(
        "cluster.ring.build_us",
        "us",
        "lower",
        "setup_s on fleet_proxy",
    ),
    layer("serve.fleet.forwarded_share", "ratio", "lower", FLEET),
    layer(
        "serve.fleet.hop_added_us",
        "us",
        "lower",
        "fleet_proxy p50/p90/throughput",
    ),
    layer("store.put_p50_us", "us", "lower", STORE_SETUP),
    layer("store.put_p99_us", "us", "lower", STORE_SETUP),
    layer("store.get_ns", "ns", "lower", SPILL),
    layer(
        "store.recover_ms",
        "ms",
        "lower",
        "setup_s wherever a store is reopened; none today",
    ),
    layer(
        "store.compact_ms",
        "ms",
        "lower",
        "cold_paper p90 tail (one or two compactions per run)",
    ),
    layer("store.bytes_per_record", "bytes", "lower", STORE_SETUP),
    layer("report.canonicalize_ns", "ns", "lower", WARM_ROUTER),
    layer(
        "report.analyze_ms",
        "ms",
        "lower",
        "cold_paper throughput/p50/p90 (it is the request)",
    ),
    layer(
        "report.batch_analyze_ms",
        "ms",
        "lower",
        "paper_batch throughput/p50",
    ),
    layer("report.render_tables_ms", "ms", "lower", "paper_batch only"),
    layer("iolibs.run_ms", "ms", "lower", COLD_SIM),
    layer("iolibs.run_ns_per_record", "ns", "lower", COLD_SIM),
    layer("iolibs.run_share", "ratio", "lower", COLD_SIM),
    layer("iolibs.run_scale_exp", "exp", "lower", COLD_SCALE),
    layer("recorder.records", "count", "lower", COLD_SIM),
    layer("mpisim.ops", "count", "lower", COLD_SIM),
    layer("mpisim.task_switches", "count", "lower", COLD_SIM),
    layer("mpisim.messages", "count", "lower", COLD_SIM),
    layer("mpisim.barrier_epochs", "count", "lower", COLD_SIM),
    layer("pfssim.writes", "count", "lower", COLD_SIM),
    layer("pfssim.reads", "count", "lower", COLD_SIM),
    layer("pfssim.locks_acquired", "count", "lower", COLD_SIM),
    layer("pfssim.commits", "count", "lower", COLD_SIM),
    layer("mpisim.barrier_ns_per_rank", "ns", "lower", COLD_SCALE),
    layer("pfssim.pwrite_ns", "ns", "lower", COLD_SIM),
    layer("pfssim.pread_ns", "ns", "lower", COLD_SIM),
    layer(
        "recorder.codec.encode_ns_per_record",
        "ns",
        "lower",
        "no workload: the codec is off the serving path",
    ),
    layer(
        "recorder.codec.decode_ns_per_record",
        "ns",
        "lower",
        "no workload: the codec is off the serving path",
    ),
    layer(
        "recorder.adjust_ms",
        "ms",
        "lower",
        "cold_paper/cold_scale (one post-hoc pass per request)",
    ),
    layer("core.incremental.push_ms", "ms", "lower", COLD_PUSH),
    layer(
        "core.incremental.push_ns_per_record",
        "ns",
        "lower",
        COLD_PUSH,
    ),
    layer("core.incremental.share", "ratio", "lower", COLD_PUSH),
    layer(
        "core.incremental.push_scale_exp",
        "exp",
        "lower",
        COLD_SCALE,
    ),
    layer("core.incremental.finalize_ms", "ms", "lower", COLD_PUSH),
    layer(
        "core.incremental.peak_live_intervals",
        "count",
        "lower",
        "peak_rss_mib on cold_scale",
    ),
    layer(
        "core.incremental.pairs_checked",
        "count",
        "lower",
        COLD_PUSH,
    ),
    layer("core.hb.validate_ms", "ms", "lower", COLD_HB),
    layer("core.hb.share", "ratio", "lower", COLD_HB),
    layer(
        "core.metadata.census_ms",
        "ms",
        "lower",
        "cold_paper throughput (small)",
    ),
    layer("core.cachekey.build_ns", "ns", "lower", WARM_ROUTER),
    layer("trace.closure_pct", "%", "higher", VALIDITY),
    layer("trace.closure_worst_pct", "%", "higher", VALIDITY),
    layer("trace.overhead_pct", "%", "lower", VALIDITY),
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest_json(run_seconds: u32) -> String {
    let workloads: Vec<String> = crate::workloads::Workload::GATED
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// Read one metric's value back out of a result line.
pub fn value_in(line: &str, name: &str) -> Option<f64> {
    let tag = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&tag)? + tag.len()..];
    rest[..rest.find(',')?].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(crate::workloads::Workload::ALL.iter().map(|w| w.name()))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| valid_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.unit)));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| (m.name, m.unit, m.better) == ("setup_s", "s", "lower")));
        for w in crate::workloads::Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains(['\n', '"']),
                "{}",
                w.name()
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn committed_manifest_is_the_rendered_one() {
        let path = crate::repo_root().join("BENCHMARK.json");
        let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest_json(crate::RUN_SECONDS));
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn values_read_back_from_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
                    \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
                    \"latency_p50_us\": {\"value\": 14, \"unit\": \"us\"}}}";
        assert_eq!(value_in(line, "setup_s"), Some(0.8127));
        assert_eq!(value_in(line, "latency_p50_us"), Some(14.0));
        assert_eq!(value_in(line, "cpu_us_per_op"), None);
    }
}
