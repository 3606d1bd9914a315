//! The `report` binary: regenerate the paper's tables and figures, serve
//! them, and talk to a running service. `report --help` lists the
//! commands; the grammar is `report_gen::cmd::REPORT`.

use report_gen::cmd::{METRICS, PROFILE, QUIET, REPORT, VERBOSE};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = REPORT.parse_or_exit(&argv);
    let (profile, metrics) = (parsed.text(&PROFILE), parsed.text(&METRICS));
    let level = if parsed.switch(&QUIET) {
        obs::Level::Error
    } else if parsed.switch(&VERBOSE) {
        obs::Level::Debug
    } else {
        obs::Level::Info
    };
    obs::init(&obs::ObsConfig {
        tracing: profile.is_some(),
        metrics: metrics.is_some(),
        level,
    });
    if profile.is_some() {
        obs::process_name(
            obs::ANALYSIS_PID,
            "report (analysis, wall clock)".to_string(),
        );
    }

    let code = {
        let _cmd_span = obs::span("report", format!("cmd:{}", parsed.command.name));
        REPORT.dispatch(&parsed)
    };

    // Dump observability artifacts after the command, before exiting —
    // commands return instead of exiting so these always happen.
    if let Some(path) = profile {
        let trace = obs::write_chrome_trace(&obs::span::drain());
        match std::fs::write(path, &trace) {
            Ok(()) => obs::info!("wrote {path}"),
            Err(e) => obs::error!("cannot write profile {path}: {e}"),
        }
    }
    if let Some(path) = metrics {
        match std::fs::write(path, obs::metrics().dump_json()) {
            Ok(()) => obs::info!("wrote {path}"),
            Err(e) => obs::error!("cannot write metrics {path}: {e}"),
        }
    }
    std::process::exit(code);
}
