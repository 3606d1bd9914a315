//! The `report` binary: regenerate the paper's tables and figures.
//!
//! ```text
//! report <command> [--ranks N] [--seed S] [--out DIR] [--threads N]
//!                  [--profile FILE] [--metrics FILE] [--quiet|-v]
//!
//! commands:
//!   table1 table2 table3 table4 table5   one table
//!   fig1 fig2 fig3                       one figure (data + summary)
//!   flash-fix                            §6.3 one-line-fix study
//!   validate-hb                          §5.2 methodology validation
//!   scale-study [--small A --large B]    §6.1 scale invariance
//!   semantics-matrix                     dynamic stale-read validation
//!   fault-campaign [--camp-seeds N --camp-ops M]
//!                                        seeded fault injection sweep
//!   all                                  everything, artifacts to --out
//!
//! `--profile FILE` writes a Chrome trace-event JSON timeline (open in
//! Perfetto) covering the simulator, analysis, and report layers;
//! `--metrics FILE` dumps the metrics registry. Both are write-only side
//! channels: every table/figure artifact is byte-identical with them on
//! or off. `--keep-going` isolates per-configuration failures as
//! DEGRADED rows on every analysis command (not just `check`); whenever
//! at least one configuration was salvaged that way the process exits 2.
//! Exit codes: 0 ok, 1 paper mismatch / campaign failure, 2 degraded
//! configuration(s) salvaged by --keep-going, 64 usage error.
//! ```

use std::io::Write as _;

use hpcapps::AppId;
use report_gen::{
    analyze, analyze_all_isolated, analyze_all_threaded, faultcamp, figures, hbval, matrix, scale,
    tables, ConfigOutcome, ReportCfg,
};

/// Exit code when `--keep-going` salvaged a run with degraded
/// configurations — distinct from 1 (mismatch) and 64 (usage).
const EXIT_DEGRADED: i32 = 2;
const EXIT_USAGE: i32 = 64;

struct Args {
    command: String,
    ranks: u32,
    seed: u64,
    out: String,
    small: u32,
    large: u32,
    /// Worker threads for the per-configuration fan-out; 0 = one per core.
    threads: usize,
    /// Isolate per-configuration failures instead of aborting the run.
    keep_going: bool,
    /// Seeds per (app, fault-kind) campaign cell.
    camp_seeds: u64,
    /// Fault-site op-index ceiling for campaign plans.
    camp_ops: u64,
    /// Op-index ceiling for the FLASH crash sweep (deeper than the
    /// campaign ceiling: the flip window sits late in the program).
    sweep_ops: u64,
    /// Write a Chrome trace-event JSON profile here.
    profile: Option<String>,
    /// Write a metrics-registry dump here.
    metrics: Option<String>,
    /// Suppress progress output (errors only).
    quiet: bool,
    /// Verbose (debug-level) logging.
    verbose: bool,
    /// `serve`: TCP port on 127.0.0.1 (0 = OS-assigned, printed at start).
    port: u16,
    /// `serve`: worker threads handling connections.
    workers: usize,
    /// `serve`: verdict-cache capacity in entries.
    cache_entries: usize,
    /// `serve`: pending-connection queue bound (beyond it: 503).
    queue_cap: usize,
    /// `serve`: persistent verdict-store directory (None = in-memory only).
    store_dir: Option<String>,
    /// `serve`: flight-recorder postmortem file (appended on handler
    /// panic and on drain).
    postmortem: Option<String>,
    /// `slo`/`get`: target server address.
    addr: Option<std::net::SocketAddr>,
    /// `get`: request path on the target server.
    path: Option<String>,
    /// `slo`: also write the raw /metricsz exposition here.
    raw: Option<String>,
    /// `serve`: this node's id in the cluster seed table.
    cluster_id: Option<u32>,
    /// `serve`: the full seed table, `id=host:port,id=host:port,...`
    /// (parsed and validated up front; must include `--cluster-id`).
    peers: Option<Vec<cluster::Peer>>,
    /// `serve`: what to do with keys another node owns.
    forwarding: serve::Forwarding,
    /// `cluster <verb>`: status | join | decommission.
    cluster_verb: Option<String>,
    /// `pick-ports`: how many free localhost ports to print.
    count: usize,
}

fn usage() -> &'static str {
    "usage: report <command> [options]\n\
     commands: table1..table5, fig1..fig3, all, check, flash-fix,\n\
     \x20        validate-hb, scale-study, rank-sweep, semantics-matrix,\n\
     \x20        app-report, fault-campaign, advise, locks, meta-conflicts,\n\
     \x20        serve, slo, get, cluster {status|join|decommission},\n\
     \x20        pick-ports\n\
     options:\n\
     \x20 --ranks N        world size, 1..=65536 (default 64)\n\
     \x20 --seed S         base seed (default 2021)\n\
     \x20 --out DIR        artifact directory (default reports)\n\
     \x20 --threads N      worker threads, 0 = one per core (default 0)\n\
     \x20 --small A        scale-study small world (default 16)\n\
     \x20 --large B        scale-study large world (default 64)\n\
     \x20 --keep-going     isolate per-config failures as DEGRADED rows\n\
     \x20                  (any analysis command; salvaged runs exit 2)\n\
     \x20 --camp-seeds N   seeds per fault-campaign cell (default 8)\n\
     \x20 --camp-ops M     campaign fault-site op ceiling (default 64)\n\
     \x20 --sweep-ops M    FLASH crash-sweep op ceiling (default 300)\n\
     \x20 --profile FILE   write a Chrome trace-event JSON timeline\n\
     \x20 --metrics FILE   write a metrics-registry JSON dump\n\
     \x20 --port P         serve: port on 127.0.0.1, 0 = OS pick (default 0)\n\
     \x20 --workers N      serve: connection worker threads (default 4)\n\
     \x20 --cache-entries N  serve: verdict cache capacity (default 256)\n\
     \x20 --queue-cap N    serve: connection queue bound (default 64)\n\
     \x20 --store-dir DIR  serve: persist verdicts to DIR (crash-safe\n\
     \x20                  journal + snapshots; restart answers warm)\n\
     \x20 --postmortem FILE  serve: append flight-recorder dumps here on\n\
     \x20                  handler panic and on SIGTERM drain\n\
     \x20 --addr HOST:PORT slo/get/cluster: target analysis service\n\
     \x20 --path P         get: request path to fetch\n\
     \x20 --raw FILE       slo: also write the raw /metricsz text here\n\
     \x20 --cluster-id N   serve: this node's id in the seed table\n\
     \x20 --peers LIST     serve: seed table id=host:port,id=host:port,...\n\
     \x20                  (must include --cluster-id's own entry)\n\
     \x20 --forwarding M   serve: proxy | redirect (default proxy)\n\
     \x20 --count N        pick-ports: free ports to print (default 2)\n\
     \x20 --quiet, -q      errors only\n\
     \x20 --verbose, -v    debug-level logging\n\
     exit codes:\n\
     \x20  0   success\n\
     \x20  1   paper mismatch / fault-campaign failure\n\
     \x20  2   degraded configuration(s) salvaged by --keep-going\n\
     \x20  64  usage error\n"
}

/// The representative configuration subset shared by `scale-study` and
/// the 4096-rank leg of `rank-sweep`: one per I/O-library family and
/// checkpoint pattern, so every analysis path is exercised without
/// rerunning the full registry at the most expensive scale.
fn scale_subset(specs: &'static [hpcapps::AppSpec]) -> Vec<&'static hpcapps::AppSpec> {
    specs
        .iter()
        .filter(|s| {
            matches!(
                s.id,
                AppId::FlashFbs
                    | AppId::Enzo
                    | AppId::LammpsAdios
                    | AppId::Macsio
                    | AppId::HaccIoPosix
                    | AppId::VpicIo
            )
        })
        .collect()
}

/// Parse the value following `flag`, reporting — not panicking on — a
/// missing or malformed operand.
fn flag_value<T: std::str::FromStr>(
    argv: &[String],
    i: &mut usize,
    flag: &str,
) -> Result<T, String> {
    *i += 1;
    let val = argv
        .get(*i)
        .ok_or_else(|| format!("{flag} requires a value"))?;
    val.parse()
        .map_err(|_| format!("invalid value for {flag}: {val:?}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "all".to_string(),
        ranks: 64,
        seed: 2021,
        out: "reports".to_string(),
        small: 16,
        large: 64,
        threads: 0,
        keep_going: false,
        camp_seeds: 8,
        camp_ops: 64,
        sweep_ops: 300,
        profile: None,
        metrics: None,
        quiet: false,
        verbose: false,
        port: 0,
        workers: 4,
        cache_entries: 256,
        queue_cap: 64,
        store_dir: None,
        postmortem: None,
        addr: None,
        path: None,
        raw: None,
        cluster_id: None,
        peers: None,
        forwarding: serve::Forwarding::Proxy,
        cluster_verb: None,
        count: 2,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--ranks" => args.ranks = flag_value(argv, &mut i, "--ranks")?,
            "--seed" => args.seed = flag_value(argv, &mut i, "--seed")?,
            "--out" => args.out = flag_value(argv, &mut i, "--out")?,
            "--small" => args.small = flag_value(argv, &mut i, "--small")?,
            "--large" => args.large = flag_value(argv, &mut i, "--large")?,
            "--threads" => args.threads = flag_value(argv, &mut i, "--threads")?,
            "--camp-seeds" => args.camp_seeds = flag_value(argv, &mut i, "--camp-seeds")?,
            "--camp-ops" => args.camp_ops = flag_value(argv, &mut i, "--camp-ops")?,
            "--sweep-ops" => args.sweep_ops = flag_value(argv, &mut i, "--sweep-ops")?,
            "--profile" => args.profile = Some(flag_value(argv, &mut i, "--profile")?),
            "--metrics" => args.metrics = Some(flag_value(argv, &mut i, "--metrics")?),
            "--port" => args.port = flag_value(argv, &mut i, "--port")?,
            "--workers" => args.workers = flag_value(argv, &mut i, "--workers")?,
            "--cache-entries" => args.cache_entries = flag_value(argv, &mut i, "--cache-entries")?,
            "--queue-cap" => args.queue_cap = flag_value(argv, &mut i, "--queue-cap")?,
            "--store-dir" => args.store_dir = Some(flag_value(argv, &mut i, "--store-dir")?),
            "--postmortem" => args.postmortem = Some(flag_value(argv, &mut i, "--postmortem")?),
            "--addr" => args.addr = Some(flag_value(argv, &mut i, "--addr")?),
            "--path" => args.path = Some(flag_value(argv, &mut i, "--path")?),
            "--raw" => args.raw = Some(flag_value(argv, &mut i, "--raw")?),
            "--cluster-id" => args.cluster_id = Some(flag_value(argv, &mut i, "--cluster-id")?),
            "--peers" => {
                let spec: String = flag_value(argv, &mut i, "--peers")?;
                args.peers =
                    Some(cluster::parse_peers(&spec).map_err(|e| format!("invalid --peers: {e}"))?);
            }
            "--forwarding" => {
                let mode: String = flag_value(argv, &mut i, "--forwarding")?;
                args.forwarding = serve::Forwarding::parse(&mode)?;
            }
            "--count" => args.count = flag_value(argv, &mut i, "--count")?,
            "--config" => {
                i += 1; // consumed by the subcommand itself
            }
            "--keep-going" => args.keep_going = true,
            "--quiet" | "-q" => args.quiet = true,
            "--verbose" | "-v" => args.verbose = true,
            cmd if !cmd.starts_with('-') => {
                // `cluster` takes a verb as a second positional.
                if args.command == "cluster" && args.cluster_verb.is_none() {
                    args.cluster_verb = Some(cmd.to_string());
                } else {
                    args.command = cmd.to_string();
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if args.ranks == 0 {
        return Err("--ranks must be at least 1".to_string());
    }
    if args.ranks > mpisim::MAX_RANKS {
        return Err(format!(
            "--ranks {} exceeds the supported maximum of {} \
             (rank counts beyond it are invariably typos or unit errors)",
            args.ranks,
            mpisim::MAX_RANKS
        ));
    }
    for (flag, v) in [("--small", args.small), ("--large", args.large)] {
        if v == 0 || v > mpisim::MAX_RANKS {
            return Err(format!(
                "{flag} must be between 1 and {}, got {v}",
                mpisim::MAX_RANKS
            ));
        }
    }
    if args.workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    if args.cache_entries == 0 {
        return Err("--cache-entries must be at least 1".to_string());
    }
    if args.queue_cap == 0 {
        return Err("--queue-cap must be at least 1".to_string());
    }
    if let Some(dir) = &args.store_dir {
        validate_store_dir(dir)?;
    }
    // The client-side commands need a target up front: a missing --addr
    // (or --path for `get`) is a usage error, not a connect failure.
    if matches!(args.command.as_str(), "slo" | "get" | "cluster") && args.addr.is_none() {
        return Err(format!("{} requires --addr HOST:PORT", args.command));
    }
    if args.command == "get" && args.path.is_none() {
        return Err("get requires --path P".to_string());
    }
    if args.command == "cluster" {
        match args.cluster_verb.as_deref() {
            Some("status" | "join" | "decommission") => {}
            Some(other) => {
                return Err(format!(
                    "unknown cluster verb {other:?} (expected status, join, or decommission)"
                ))
            }
            None => {
                return Err("cluster requires a verb: status, join, or decommission".to_string())
            }
        }
    }
    // Clustered serving: both halves of the identity are required, and
    // this node must appear in its own seed table — a ring that doesn't
    // contain the node serving from it is always a config typo.
    match (&args.cluster_id, &args.peers) {
        (Some(_), None) => return Err("--cluster-id requires --peers".to_string()),
        (None, Some(_)) => return Err("--peers requires --cluster-id".to_string()),
        (Some(id), Some(peers)) => {
            if !peers.iter().any(|p| p.id == *id) {
                return Err(format!(
                    "--cluster-id {id} does not appear in --peers \
                     (the seed table must include this node's own entry)"
                ));
            }
        }
        (None, None) => {}
    }
    if args.command == "pick-ports" && (args.count == 0 || args.count > 64) {
        return Err("--count must be between 1 and 64".to_string());
    }
    Ok(args)
}

/// `--store-dir` must name a usable directory — catching a path that is
/// actually a file, cannot be created, or cannot be written is a usage
/// error (exit 64), not a crash three requests into serving.
fn validate_store_dir(dir: &str) -> Result<(), String> {
    if dir.is_empty() {
        return Err("--store-dir requires a non-empty path".to_string());
    }
    let path = std::path::Path::new(dir);
    if path.exists() && !path.is_dir() {
        return Err(format!("--store-dir {dir:?} exists and is not a directory"));
    }
    std::fs::create_dir_all(path)
        .map_err(|e| format!("--store-dir {dir:?} cannot be created: {e}"))?;
    // Probe writability now: a read-only store dir should fail loudly at
    // the door.
    let probe = path.join(format!(".probe-{}", std::process::id()));
    std::fs::write(&probe, b"probe")
        .map_err(|e| format!("--store-dir {dir:?} is not writable: {e}"))?;
    let _ = std::fs::remove_file(&probe);
    Ok(())
}

fn write_artifact(dir: &str, name: &str, content: &str) {
    std::fs::create_dir_all(dir).expect("create output dir");
    let path = format!("{dir}/{name}");
    let mut f = std::fs::File::create(&path).expect("create artifact");
    f.write_all(content.as_bytes()).expect("write artifact");
    obs::info!("wrote {path}");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprint!("{}", usage());
            std::process::exit(EXIT_USAGE);
        }
    };
    let level = if args.quiet {
        obs::Level::Error
    } else if args.verbose {
        obs::Level::Debug
    } else {
        obs::Level::Info
    };
    obs::init(&obs::ObsConfig {
        tracing: args.profile.is_some(),
        metrics: args.metrics.is_some(),
        level,
    });
    if args.profile.is_some() {
        obs::process_name(
            obs::ANALYSIS_PID,
            "report (analysis, wall clock)".to_string(),
        );
    }

    let code = run(&args);

    // Dump observability artifacts after the command, before exiting —
    // run() returns instead of exiting so these always happen.
    if let Some(path) = &args.profile {
        let trace = obs::write_chrome_trace(&obs::span::drain());
        match std::fs::write(path, &trace) {
            Ok(()) => obs::info!("wrote {path}"),
            Err(e) => obs::error!("cannot write profile {path}: {e}"),
        }
    }
    if let Some(path) = &args.metrics {
        match std::fs::write(path, obs::metrics().dump_json()) {
            Ok(()) => obs::info!("wrote {path}"),
            Err(e) => obs::error!("cannot write metrics {path}: {e}"),
        }
    }
    std::process::exit(code);
}

/// The full Table 4 suite, honoring `--keep-going`: degraded
/// configurations become DEGRADED rows on stderr instead of aborting the
/// whole command, and [`run`] exits `EXIT_DEGRADED` once the surviving
/// artifacts are rendered. Without the flag any failure propagates
/// (panics), exactly as before.
fn run_suite(cfg: &ReportCfg, args: &Args, degraded: &mut usize) -> Vec<report_gen::AnalyzedRun> {
    if !args.keep_going {
        return analyze_all_threaded(cfg, false, args.threads);
    }
    let mut runs = Vec::new();
    for outcome in analyze_all_isolated(cfg, false, args.threads) {
        match outcome {
            ConfigOutcome::Ok(run) => runs.push(*run),
            ConfigOutcome::Degraded { name, error, .. } => {
                eprintln!("DEGRADED {name:<24} {error}");
                *degraded += 1;
            }
        }
    }
    runs
}

/// One configuration under the same `--keep-going` contract as
/// [`run_suite`].
fn run_one(
    cfg: &ReportCfg,
    args: &Args,
    spec: &'static hpcapps::AppSpec,
    degraded: &mut usize,
) -> Option<report_gen::AnalyzedRun> {
    if !args.keep_going {
        return Some(analyze(cfg, spec));
    }
    match report_gen::analyze_isolated(cfg, spec, &spec.params, &iolibs::FaultPlan::none()) {
        ConfigOutcome::Ok(run) => Some(*run),
        ConfigOutcome::Degraded { name, error, .. } => {
            eprintln!("DEGRADED {name:<24} {error}");
            *degraded += 1;
            None
        }
    }
}

/// Dispatch the command; returns the process exit code. Must `return`
/// rather than `std::process::exit` so `main` can flush the profile and
/// metrics dumps afterwards.
fn run(args: &Args) -> i32 {
    let _cmd_span = obs::span("report", format!("cmd:{}", args.command));
    let cfg = ReportCfg {
        nranks: args.ranks,
        seed: args.seed,
        max_skew_ns: 20_000,
    };
    let specs = hpcapps::specs();
    // Configurations salvaged as DEGRADED by `--keep-going` anywhere in
    // the dispatch below; nonzero turns exit code 0 into EXIT_DEGRADED.
    let mut degraded_cfgs = 0usize;

    match args.command.as_str() {
        "table1" => print!("{}", tables::table1()),
        "table2" => print!("{}", tables::table2()),
        "table5" => print!("{}", tables::table5()),
        "table3" => {
            let runs = run_suite(&cfg, args, &mut degraded_cfgs);
            print!("{}", tables::table3(&runs));
        }
        "table4" => {
            let runs = run_suite(&cfg, args, &mut degraded_cfgs);
            print!("{}", tables::table4(&runs));
        }
        "fig1" => {
            let runs = run_suite(&cfg, args, &mut degraded_cfgs);
            print!("{}", figures::fig1(&runs));
        }
        "fig2" => {
            let fbs = run_one(
                &cfg,
                args,
                hpcapps::spec_ref(AppId::FlashFbs),
                &mut degraded_cfgs,
            );
            let nofbs = run_one(
                &cfg,
                args,
                hpcapps::spec_ref(AppId::FlashNofbs),
                &mut degraded_cfgs,
            );
            if let Some(fbs) = &fbs {
                print!("{}", figures::fig2_summary(fbs, "fbs / collective"));
                write_artifact(&args.out, "fig2_fbs.csv", &figures::fig2_csv(fbs, true));
            }
            if let Some(nofbs) = &nofbs {
                print!("{}", figures::fig2_summary(nofbs, "nofbs / independent"));
                write_artifact(
                    &args.out,
                    "fig2_nofbs.csv",
                    &figures::fig2_csv(nofbs, false),
                );
            }
        }
        "fig3" => {
            let runs = run_suite(&cfg, args, &mut degraded_cfgs);
            print!("{}", figures::fig3(&runs));
        }
        "flash-fix" => {
            let variants = [
                AppId::FlashFbs,
                AppId::FlashFbsCollectiveMeta,
                AppId::FlashFbsNoFlush,
            ];
            let runs: Vec<_> = variants
                .iter()
                .filter_map(|&id| run_one(&cfg, args, hpcapps::spec_ref(id), &mut degraded_cfgs))
                .collect();
            print!("{}", tables::flash_fix(&runs));
        }
        "validate-hb" => {
            if let Some(run) = run_one(
                &cfg,
                args,
                hpcapps::spec_ref(AppId::FlashFbs),
                &mut degraded_cfgs,
            ) {
                print!("{}", hbval::validate(&run));
            }
        }
        "scale-study" => {
            // A representative subset, as rerunning everything twice is
            // the expensive part of the paper's own methodology.
            let subset = scale_subset(specs);
            print!(
                "{}",
                scale::scale_study(&cfg, &subset, args.small, args.large)
            );
        }
        "rank-sweep" => {
            // §6.1 pushed past the paper's own scales, feasible on the
            // event-loop executor: the full Table 4 suite at 256 and 1024
            // ranks, then scale-study's representative subset at 4096
            // (rerunning everything at every count is the expensive part
            // of the paper's own methodology). Baseline is `--ranks`.
            let t4: Vec<_> = specs.iter().filter(|s| s.in_table4).collect();
            let rows = scale::rank_sweep(&cfg, &t4, args.ranks, &[256, 1024]);
            print!("{}", scale::rank_sweep_report(&rows, &[256, 1024]));
            let subset = scale_subset(specs);
            let rows = scale::rank_sweep(&cfg, &subset, args.ranks, &[4096]);
            print!("{}", scale::rank_sweep_report(&rows, &[4096]));
        }
        "semantics-matrix" => {
            let t4: Vec<_> = specs.iter().filter(|s| s.in_table4).collect();
            print!("{}", matrix::semantics_matrix(&cfg, &t4));
        }
        "app-report" => {
            // Detailed per-run report (the paper's §7 artifact style) for
            // every configuration — or one named via `--config`.
            let filter = std::env::args().skip_while(|a| a != "--config").nth(1);
            for spec in specs.iter().filter(|s| {
                filter
                    .as_ref()
                    .map_or(s.in_table4, |f| s.config_name().eq_ignore_ascii_case(f))
            }) {
                let Some(run) = run_one(&cfg, args, spec, &mut degraded_cfgs) else {
                    continue;
                };
                let adjusted = recorder::adjust::apply(&run.outcome.trace);
                let rep = semantics_core::apprun::build_from_resolved(&adjusted, &run.resolved);
                print!("{}", rep.render(&spec.config_name()));
            }
        }
        "check" => {
            // CI gate: every configuration must reproduce its paper-expected
            // Table 3 label and Table 4 marks. Exit code 1 on any mismatch;
            // with --keep-going, per-configuration failures become DEGRADED
            // rows and the command exits 2 instead of crashing.
            let mut failures = 0usize;
            let mut degraded = 0usize;
            let outcomes: Vec<ConfigOutcome> = if args.keep_going {
                analyze_all_isolated(&cfg, false, args.threads)
            } else {
                analyze_all_threaded(&cfg, false, args.threads)
                    .into_iter()
                    .map(|r| ConfigOutcome::Ok(Box::new(r)))
                    .collect()
            };
            for outcome in &outcomes {
                let r = match outcome {
                    ConfigOutcome::Ok(r) => r,
                    ConfigOutcome::Degraded { name, error, .. } => {
                        println!("DEGRADED {name:<24} {error}");
                        degraded += 1;
                        continue;
                    }
                };
                let t3_ok = r.highlevel.label() == r.spec.expected_table3;
                let t4_ok = r.session.table4_marks() == r.spec.expected_session.as_tuple()
                    && r.commit.table4_marks() == r.spec.expected_commit.as_tuple();
                let hb_ok = r.hb.racy == 0;
                let resolve_ok = r.resolved.seek_mismatches == 0;
                let ok = t3_ok && t4_ok && hb_ok && resolve_ok;
                println!(
                    "{} {:<24} table3:{} table4:{} race-free:{} resolution:{}",
                    if ok { "PASS" } else { "FAIL" },
                    r.name(),
                    t3_ok,
                    t4_ok,
                    hb_ok,
                    resolve_ok,
                );
                if !ok {
                    failures += 1;
                }
            }
            println!(
                "{}/{} configurations reproduce the paper ({} degraded)",
                outcomes.len() - failures - degraded,
                outcomes.len(),
                degraded
            );
            if failures > 0 {
                return 1;
            }
            if degraded > 0 {
                return EXIT_DEGRADED;
            }
        }
        "fault-campaign" => {
            // The robustness capstone: seeded fault injection swept across
            // seeds x fault kinds x applications, plus the FLASH crash
            // sweep demonstrating the commit-semantics flip. Exit 1 if any
            // combination panics or the flip fails to reproduce.
            let camp = faultcamp::CampaignCfg {
                nranks: if args.ranks == 64 { 8 } else { args.ranks },
                base_seed: args.seed + 5000,
                n_seeds: args.camp_seeds,
                max_op: args.camp_ops,
                sweep_max_op: args.sweep_ops,
                threads: args.threads,
            };
            let happy = faultcamp::happy_path_verdicts(&camp);
            let (table, stats) = faultcamp::campaign(&camp);
            let (sweep, flipped) = faultcamp::flash_crash_sweep(&camp);
            print!("{happy}{table}{sweep}");
            let artifact = format!("{happy}{table}{sweep}");
            write_artifact(&args.out, "fault_campaign.txt", &artifact);
            if stats.panics > 0 {
                obs::error!("FAIL: {} combinations panicked", stats.panics);
                return 1;
            }
            if !flipped {
                obs::error!("FAIL: no crash point flipped FLASH's commit verdict");
                return 1;
            }
        }
        "advise" => {
            // §4.1: propose and verify the fsync insertions that make each
            // configuration conflict-free under commit semantics.
            println!(
                "{:<24} {:>16} {:>12} {:>10}",
                "configuration", "commit conflicts", "insertions", "sufficient"
            );
            for spec in specs.iter().filter(|s| s.in_table4) {
                let Some(run) = run_one(&cfg, args, spec, &mut degraded_cfgs) else {
                    continue;
                };
                let advice = semantics_core::advisor::advise_commits(&run.resolved);
                println!(
                    "{:<24} {:>16} {:>12} {:>10}",
                    spec.config_name(),
                    advice.before.total(),
                    advice.insertions.len(),
                    advice.is_sufficient(),
                );
            }
        }
        "locks" => {
            // §3.1 quantified: lock-manager traffic per configuration when
            // running under strong (POSIX) semantics. Revocations are the
            // cross-client extent handoffs that make shared-file strong
            // consistency expensive — they appear exactly where Table 4
            // has cross-process overlap.
            println!(
                "{:<24} {:>9} {:>9} {:>12} {:>12}",
                "configuration", "writes", "reads", "locks", "revocations"
            );
            for spec in specs.iter().filter(|s| s.in_table4) {
                let Some(run) = run_one(&cfg, args, spec, &mut degraded_cfgs) else {
                    continue;
                };
                let stats = run.outcome.pfs.stats();
                println!(
                    "{:<24} {:>9} {:>9} {:>12} {:>12}",
                    spec.config_name(),
                    stats.writes,
                    stats.reads,
                    stats.locks_acquired,
                    stats.lock_revocations,
                );
            }
        }
        "meta-conflicts" => {
            // The future-work extension: cross-process namespace
            // dependencies per configuration.
            println!(
                "{:<24} {:>8} {:>14} {:>14} {:>14}",
                "configuration", "events", "create→observe", "create→mutate", "other"
            );
            for spec in specs.iter().filter(|s| s.in_table4) {
                let Some(run) = run_one(&cfg, args, spec, &mut degraded_cfgs) else {
                    continue;
                };
                let adjusted = recorder::adjust::apply(&run.outcome.trace);
                let m = semantics_core::meta_conflict::detect_meta_conflicts(&adjusted);
                use semantics_core::meta_conflict::MetaPairKind as K;
                println!(
                    "{:<24} {:>8} {:>14} {:>14} {:>14}",
                    spec.config_name(),
                    m.events,
                    m.count(K::CreateThenObserve),
                    m.count(K::CreateThenMutate),
                    m.count(K::RemoveThenObserve) + m.count(K::MutateThenMutate),
                );
            }
        }
        "all" => {
            print!("{}", tables::table1());
            print!("{}", tables::table2());
            print!("{}", tables::table5());
            let runs = run_suite(&cfg, args, &mut degraded_cfgs);
            let t3 = tables::table3(&runs);
            let t4 = tables::table4(&runs);
            let f1 = figures::fig1(&runs);
            let f3 = figures::fig3(&runs);
            print!("{t3}{t4}{f1}{f3}");
            write_artifact(&args.out, "table1.txt", &tables::table1());
            write_artifact(&args.out, "table2.txt", &tables::table2());
            write_artifact(&args.out, "table3.txt", &t3);
            write_artifact(&args.out, "table4.txt", &t4);
            write_artifact(&args.out, "table5.txt", &tables::table5());
            write_artifact(&args.out, "fig1.txt", &f1);
            write_artifact(&args.out, "fig1.csv", &figures::fig1_csv(&runs));
            write_artifact(&args.out, "fig3.txt", &f3);
            write_artifact(&args.out, "fig3.csv", &figures::fig3_csv(&runs));
            // Figure 2 from the two FLASH runs already in `runs`.
            for r in &runs {
                match r.spec.id {
                    AppId::FlashFbs => {
                        print!("{}", figures::fig2_summary(r, "fbs / collective"));
                        write_artifact(&args.out, "fig2_fbs.csv", &figures::fig2_csv(r, true));
                    }
                    AppId::FlashNofbs => {
                        print!("{}", figures::fig2_summary(r, "nofbs / independent"));
                        write_artifact(&args.out, "fig2_nofbs.csv", &figures::fig2_csv(r, false));
                    }
                    _ => {}
                }
            }
            // §5.2 validation on FLASH (the app with cross-process
            // conflicts).
            for r in &runs {
                if r.spec.id == AppId::FlashFbs {
                    let v = hbval::validate(r);
                    print!("{v}");
                    write_artifact(&args.out, "validate_hb.txt", &v);
                }
            }
            // Machine-readable summary.
            write_artifact(&args.out, "summary.json", &summary_json(&runs));
            // FLASH fixes.
            let fixes: Vec<_> = [AppId::FlashFbsCollectiveMeta, AppId::FlashFbsNoFlush]
                .iter()
                .filter_map(|&id| run_one(&cfg, args, hpcapps::spec_ref(id), &mut degraded_cfgs))
                .collect();
            let mut fix_runs: Vec<_> = runs
                .into_iter()
                .filter(|r| r.spec.id == AppId::FlashFbs)
                .collect();
            fix_runs.extend(fixes);
            let fx = tables::flash_fix(&fix_runs);
            print!("{fx}");
            write_artifact(&args.out, "flash_fix.txt", &fx);
        }
        "serve" => {
            // The long-lived analysis service: the fused pipeline behind a
            // zero-dependency HTTP front-end with a sharded verdict cache.
            // `--metrics` still works (the dump happens after shutdown);
            // live counters are also queryable at /metricsz, so serving
            // turns metrics on even without the flag.
            obs::set_metrics(true);
            // Open the persistent store before binding: a locked or
            // unrecoverable store dir must fail the launch, not the
            // first request.
            let store_handle = match &args.store_dir {
                None => None,
                Some(dir) => {
                    let path = std::path::Path::new(dir);
                    match store::Store::open(path, store::StoreOptions::default()) {
                        Ok(s) => {
                            let rec = s.recovery();
                            println!(
                                "serve: store {dir} recovered {} record(s) \
                                 (gen {}, {} byte(s) quarantined)",
                                rec.recovered_records(),
                                rec.generation,
                                rec.quarantined_bytes
                            );
                            Some(std::sync::Arc::new(s))
                        }
                        Err(store::StoreError::Locked { holder_pid }) => {
                            eprintln!(
                                "error: store dir {dir} is locked by live pid {holder_pid} \
                                 (one serve process per store dir)"
                            );
                            return 1;
                        }
                        Err(e) => {
                            eprintln!("error: cannot open store dir {dir}: {e}");
                            return 1;
                        }
                    }
                }
            };
            let cluster_cfg = match (&args.cluster_id, &args.peers) {
                (Some(id), Some(peers)) => Some(serve::ClusterConfig {
                    node_id: *id,
                    peers: peers.clone(),
                    forwarding: args.forwarding,
                }),
                _ => None,
            };
            if let Some(cl) = &cluster_cfg {
                println!(
                    "serve: cluster node {} of {} peer(s), {} forwarding",
                    cl.node_id,
                    cl.peers.len(),
                    match cl.forwarding {
                        serve::Forwarding::Proxy => "proxy",
                        serve::Forwarding::Redirect => "redirect",
                    }
                );
            }
            let serve_cfg = serve::ServeConfig {
                port: args.port,
                workers: args.workers,
                cache_entries: args.cache_entries,
                queue_cap: args.queue_cap,
                store: store_handle,
                postmortem: args.postmortem.clone().map(std::path::PathBuf::from),
                cluster: cluster_cfg,
                ..serve::ServeConfig::default()
            };
            serve::signal::install_handlers();
            let backend = std::sync::Arc::new(report_gen::ReportBackend::new());
            let handle = match serve::serve(serve_cfg, backend) {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("error: cannot bind 127.0.0.1:{}: {e}", args.port);
                    return 1;
                }
            };
            // The CI smoke test and `loadgen --restart` grep this exact
            // line for the OS-assigned port.
            println!("serve: listening on 127.0.0.1:{}", handle.port());
            let _ = std::io::stdout().flush();
            obs::info!(
                "serve: {} workers, {}-entry cache, queue cap {} (SIGTERM/ctrl-c to drain)",
                args.workers,
                args.cache_entries,
                args.queue_cap
            );
            while !serve::signal::shutdown_requested() {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            handle.shutdown();
            println!("serve: shutdown complete");
        }
        "get" => {
            // Fetch one path from a running service and print the body —
            // the scriptable probe the CI smoke uses for /v1/debug/flightrec.
            let addr = args.addr.expect("validated in parse_args");
            let path = args.path.as_deref().expect("validated in parse_args");
            match serve::get_once(addr, path) {
                Ok(r) if r.status == 200 => print!("{}", r.body_text()),
                Ok(r) => {
                    eprintln!("error: {path} returned {}", r.status);
                    return 1;
                }
                Err(e) => {
                    eprintln!("error: cannot reach {addr}: {e}");
                    return 1;
                }
            }
        }
        "cluster" => {
            // Operate on a running fleet through any member node:
            //   status        render the ring as a table
            //   join          this node pulls its slice, then epoch bumps
            //   decommission  peers pull this node's slice, then epoch bumps
            let addr = args.addr.expect("validated in parse_args");
            let verb = args
                .cluster_verb
                .as_deref()
                .expect("validated in parse_args");
            let path = match verb {
                "status" => "/v1/cluster/status?format=table",
                "join" => "/v1/cluster/join",
                "decommission" => "/v1/cluster/decommission",
                _ => unreachable!("verb validated in parse_args"),
            };
            match serve::get_once(addr, path) {
                Ok(r) if r.status == 200 => print!("{}", r.body_text()),
                Ok(r) => {
                    eprintln!(
                        "error: cluster {verb} returned {}: {}",
                        r.status,
                        r.body_text().trim()
                    );
                    return 1;
                }
                Err(e) => {
                    eprintln!("error: cannot reach {addr}: {e}");
                    return 1;
                }
            }
        }
        "pick-ports" => {
            // Print N free localhost ports, one per line — how ci.sh
            // gets ephemeral ports for the two-node smoke fleet without
            // races against itself (all N are held until printed).
            let mut listeners = Vec::new();
            for _ in 0..args.count {
                match std::net::TcpListener::bind(("127.0.0.1", 0)) {
                    Ok(l) => listeners.push(l),
                    Err(e) => {
                        eprintln!("error: cannot bind an ephemeral port: {e}");
                        return 1;
                    }
                }
            }
            for l in &listeners {
                println!(
                    "{}",
                    l.local_addr().expect("bound listener has addr").port()
                );
            }
        }
        "slo" => {
            // Fetch /metricsz from a running service, validate the
            // exposition with the from-scratch parser, and render the
            // per-endpoint SLO summary. Exit 1 on connect or parse
            // failure — this doubles as CI's exposition-format gate.
            let addr = args.addr.expect("validated in parse_args");
            let text = match serve::get_once(addr, "/metricsz") {
                Ok(r) if r.status == 200 => r.body_text(),
                Ok(r) => {
                    eprintln!("error: /metricsz returned {}", r.status);
                    return 1;
                }
                Err(e) => {
                    eprintln!("error: cannot reach {addr}: {e}");
                    return 1;
                }
            };
            if let Some(raw) = &args.raw {
                if let Err(e) = std::fs::write(raw, &text) {
                    eprintln!("error: cannot write {raw}: {e}");
                    return 1;
                }
            }
            let samples = match obs::parse_exposition(&text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: /metricsz is not a valid exposition: {e}");
                    return 1;
                }
            };
            print!("{}", slo_table(&samples));
        }
        other => {
            eprintln!("error: unknown command: {other}");
            eprint!("{}", usage());
            return EXIT_USAGE;
        }
    }
    if degraded_cfgs > 0 {
        return EXIT_DEGRADED;
    }
    0
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

fn summary_json(runs: &[report_gen::AnalyzedRun]) -> String {
    use report_gen::json::Json;
    let marks = |(a, b, c, d): (bool, bool, bool, bool)| {
        Json::Arr(vec![
            Json::Bool(a),
            Json::Bool(b),
            Json::Bool(c),
            Json::Bool(d),
        ])
    };
    let configs: Vec<Json> = runs
        .iter()
        .map(|r| {
            Json::obj()
                .field("config", r.name())
                .field("app", r.spec.app)
                .field("iolib", r.spec.iolib)
                .field("expected_table3", r.spec.expected_table3)
                .field("measured_table3", r.highlevel.label())
                .field(
                    "expected_session",
                    marks(r.spec.expected_session.as_tuple()),
                )
                .field("measured_session", marks(r.session.table4_marks()))
                .field("commit_conflicts", r.commit.total())
                .field("session_conflicts", r.session.total())
                .field("required_model", r.verdict.required.name())
                .field(
                    "global_random_pct",
                    r.global.pct(semantics_core::patterns::AccessClass::Random),
                )
                .field(
                    "local_random_pct",
                    r.local.pct(semantics_core::patterns::AccessClass::Random),
                )
                .field("records", r.outcome.trace.total_records())
                .field("hb_racy", r.hb.racy)
        })
        .collect();
    Json::obj()
        .field("nranks", runs.first().map_or(0, |r| r.nranks))
        .field("configs", configs)
        .pretty()
}
