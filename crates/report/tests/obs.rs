//! The observability contract, end to end:
//!
//! 1. **Byte identity** — every rendered artifact is identical with
//!    tracing + metrics fully on and fully off. Spans and counters are a
//!    write-only side channel; enabling them must never change a single
//!    output byte.
//! 2. **Coverage** — the trace collected from one full analysis run is
//!    valid Chrome trace-event JSON and spans every instrumented layer:
//!    mpisim, pfssim, iolibs, core, and report.
//! 3. **Determinism** — counter totals are identical at 1 worker thread
//!    and at 4. Counters record simulated quantities (ops, messages,
//!    bytes, retries), never wall time, so thread scheduling cannot leak
//!    into them. (Wall time goes to histograms, which this test ignores.)
//!
//! One `#[test]` fn on purpose: the obs switches and collector are
//! process-global, and `#[test]` fns in one binary run concurrently.
//! Integration-test files are separate binaries, so this file owns the
//! whole process.

use report_gen::{analyze_all_threaded, figures, tables, ReportCfg};

/// Every artifact `report all` derives from one analysis sweep, rendered
/// to the exact bytes that would land on disk.
fn render_artifacts(cfg: &ReportCfg) -> Vec<(&'static str, String)> {
    let runs = analyze_all_threaded(cfg, false, 0);
    vec![
        ("table3", tables::table3(&runs)),
        ("table4", tables::table4(&runs)),
        ("fig1", figures::fig1(&runs)),
        ("fig1.csv", figures::fig1_csv(&runs)),
        ("fig3", figures::fig3(&runs)),
        ("fig3.csv", figures::fig3_csv(&runs)),
    ]
}

#[test]
fn observability_is_invisible_and_deterministic() {
    let cfg = ReportCfg {
        nranks: 8,
        seed: 5,
        max_skew_ns: 20_000,
    };

    // --- 1. byte identity: obs fully off, then fully on ---------------
    obs::init(&obs::ObsConfig {
        tracing: false,
        metrics: false,
        level: obs::Level::Error,
    });
    let plain = render_artifacts(&cfg);

    obs::init(&obs::ObsConfig {
        tracing: true,
        metrics: true,
        level: obs::Level::Error,
    });
    let observed = render_artifacts(&cfg);

    for ((name, a), (_, b)) in plain.iter().zip(&observed) {
        assert_eq!(a, b, "{name}: artifact changed when observability was on");
    }

    // --- 1b. the live layer (flight ring + SLO window) is invisible ----
    // The flight recorder is always on; hammering the ring and an SLO
    // window mid-analysis must change nothing either.
    static LABELS: &[&str] = &["a", "b"];
    let window = obs::SloWindow::new(LABELS, 1_000_000, 4);
    for i in 0..512u64 {
        obs::flight().record_at(
            i,
            obs::FlightKind::ReqStart,
            200,
            i,
            0,
            "req-00000000000000ff",
            "/v1/verdict/x/y",
        );
        window.observe((i % 2) as usize, 200, i * 100, i * 10_000);
    }
    let live = render_artifacts(&cfg);
    for ((name, a), (_, b)) in plain.iter().zip(&live) {
        assert_eq!(a, b, "{name}: artifact changed under live flight/SLO load");
    }

    // --- 2. the collected trace is valid and covers every layer --------
    let events = obs::span::drain();
    assert!(!events.is_empty(), "instrumented run collected no events");
    let json = obs::write_chrome_trace(&events);
    let summary = obs::validate_chrome_trace(&json).expect("emitted trace must validate");
    assert_eq!(summary.events, events.len());
    for layer in ["mpisim", "pfssim", "iolibs", "core", "report"] {
        assert!(
            summary.cats.contains(layer),
            "trace is missing the {layer} layer; cats: {:?}",
            summary.cats
        );
    }
    // Sim timelines (one pseudo-pid per rank) plus the analysis timeline.
    assert!(
        summary.pids.len() > 1,
        "expected per-rank sim timelines, got pids {:?}",
        summary.pids
    );
    assert!(summary.pids.contains(&obs::ANALYSIS_PID));

    // --- 3. counter totals are thread-count invariant ------------------
    obs::set_tracing(false); // isolate: metrics only from here on
    obs::metrics().reset();
    analyze_all_threaded(&cfg, false, 1);
    let serial = obs::metrics().snapshot_counters();

    obs::metrics().reset();
    analyze_all_threaded(&cfg, false, 4);
    let threaded = obs::metrics().snapshot_counters();

    assert!(!serial.is_empty(), "metrics run recorded no counters");
    for key in [
        "mpisim.ops",
        "mpisim.worlds",
        "pfssim.writes",
        "report.configs",
    ] {
        assert!(
            serial.contains_key(key),
            "missing counter {key}: {serial:?}"
        );
    }
    assert_eq!(
        serial, threaded,
        "counter totals differ between 1 and 4 worker threads"
    );

    // Leave the process the way we found it.
    obs::init(&obs::ObsConfig::default());
    obs::metrics().reset();
    obs::span::clear();
}
