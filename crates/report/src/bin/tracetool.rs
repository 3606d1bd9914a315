//! `tracetool` — work with saved binary traces (`.rtrc`) and with the
//! observability artifacts `report` writes. `tracetool --help` lists the
//! commands; the grammar is [`TRACETOOL`].
//!
//! Traces are adjusted (barrier-rebased) before analysis, exactly as the
//! paper's pipeline does. Exit codes: 0 ok, 1 unreadable or invalid
//! input, 64 usage error.

use recorder::stats::{SizeHistogram, TraceStats};
use recorder::{adjust, offset, TraceSet};
use report_gen::cli::{Cli, Command, Flag, Parsed};
use report_gen::cmd::{ranks, RANKS, SEED};
use semantics_core::conflict::{detect_conflicts, AnalysisModel};
use semantics_core::metadata::MetadataCensus;
use semantics_core::patterns::{global_pattern, highlevel, local_pattern, AccessClass};

const OUT: Flag = Flag::new("--out", "FILE", "", "trace file (default CONFIG.rtrc)");
const RANK: Flag = Flag::new("--rank", "R", "", "only this rank's records");
const LIMIT: Flag = Flag::new("--limit", "N", "", "stop after N records");
const MODEL: Flag = Flag::new("--model", "M", "session", "session | commit");

static TRACETOOL: Cli = Cli {
    prog: "tracetool",
    commands: &[
        Command::new("list", "", &[], list).about("available configurations for capture"),
        Command::new(
            "capture",
            "CONFIG",
            &[OUT, RANKS.default("16"), SEED],
            capture,
        )
        .about("run one configuration and save its trace"),
        Command::new("info", "FILE", &[], info).about("trace statistics"),
        Command::new("dump", "FILE", &[RANK, LIMIT], dump).about("records as TSV"),
        Command::new("conflicts", "FILE", &[MODEL], conflicts)
            .about("conflicting pairs under one model"),
        Command::new("patterns", "FILE", &[], patterns)
            .about("Table 3 label + Figure 1 percentages"),
        Command::new("census", "FILE", &[], census).about("metadata-operation census"),
        Command::new("report", "FILE", &[], report)
            .about("full per-run report (paper §7 artifact style)"),
        Command::new("validate-trace", "FILE", &[], validate_trace)
            .about("check a `report --profile` Chrome trace"),
        Command::new("validate-prom", "FILE", &[], validate_prom)
            .about("check a saved /metricsz exposition (`report slo --raw`)"),
    ],
    global: &[],
    default_command: "",
    epilog: "",
};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = TRACETOOL.parse_or_exit(&argv);
    std::process::exit(TRACETOOL.dispatch(&parsed));
}

/// Say why the input is unusable and exit 1.
fn fail(message: String) -> ! {
    eprintln!("{message}");
    std::process::exit(1);
}

fn read_text(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")))
}

fn load(path: &str) -> TraceSet {
    let bytes = std::fs::read(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    TraceSet::decode(&bytes).unwrap_or_else(|e| fail(format!("cannot decode {path}: {e}")))
}

/// [`load`], then re-base the trace in place (`recorder::adjust`): the
/// timestamps every analysis command reads.
fn load_rebased(path: &str) -> TraceSet {
    let mut trace = load(path);
    adjust::rebase(&mut trace);
    trace
}

fn list(_: &Parsed) -> Result<i32, String> {
    for spec in hpcapps::specs() {
        println!("{:<24} {}", spec.config_name(), spec.table5);
    }
    Ok(0)
}

fn capture(p: &Parsed) -> Result<i32, String> {
    let config = p.operand()?;
    let nranks = ranks(p, &RANKS)?;
    let seed: u64 = p.get(&SEED)?;
    let out_path = p
        .text(&OUT)
        .map_or_else(|| format!("{config}.rtrc"), str::to_string);
    let spec = hpcapps::specs()
        .iter()
        .find(|s| s.config_name().eq_ignore_ascii_case(config))
        .unwrap_or_else(|| {
            fail(format!(
                "unknown configuration {config}; try `tracetool list`"
            ))
        });
    let out = iolibs::run_app(&iolibs::RunConfig::new(nranks, seed), |ctx| spec.run(ctx));
    std::fs::write(&out_path, out.trace.encode())
        .unwrap_or_else(|e| fail(format!("cannot write {out_path}: {e}")));
    println!(
        "captured {} records from {} ({} ranks, seed {seed}) → {out_path}",
        out.trace.total_records(),
        spec.config_name(),
        nranks
    );
    Ok(0)
}

fn info(p: &Parsed) -> Result<i32, String> {
    let trace = load(p.operand()?);
    let s = TraceStats::from_trace(&trace);
    println!("ranks          : {}", trace.nranks());
    println!("records        : {}", s.total_records());
    println!("files          : {}", s.files);
    println!("bytes written  : {}", s.bytes_written);
    println!("bytes read     : {}", s.bytes_read);
    println!(
        "small writes   : {:.1}% under 4KiB",
        100.0 * s.small_write_fraction(4096)
    );
    println!("per layer      :");
    for (layer, n) in &s.per_layer {
        println!("  {:<8} {}", layer.name(), n);
    }
    if let Some(b) = s.write_sizes.mode() {
        println!("modal write sz : {}", SizeHistogram::label(b));
    }
    println!("top functions  :");
    let mut fns: Vec<_> = s.function_counters.iter().collect();
    fns.sort_by_key(|(_, &n)| std::cmp::Reverse(n));
    for (name, n) in fns.into_iter().take(12) {
        println!("  {name:<22} {n}");
    }
    Ok(0)
}

fn dump(p: &Parsed) -> Result<i32, String> {
    let path = p.operand()?;
    let limit: usize = p.opt(&LIMIT)?.unwrap_or(usize::MAX);
    let rank: Option<u32> = p.opt(&RANK)?;
    let trace = load(path);
    let tsv = match rank {
        Some(rank) if rank >= trace.nranks() => {
            return Err(format!(
                "rank {rank} out of range: trace has {} ranks",
                trace.nranks()
            ))
        }
        Some(rank) => recorder::tsv::rank_to_tsv(&trace, rank),
        None => recorder::tsv::to_tsv(&trace),
    };
    // The header row does not count against the limit.
    for line in tsv.lines().take(limit.saturating_add(1)) {
        println!("{line}");
    }
    Ok(0)
}

fn conflicts(p: &Parsed) -> Result<i32, String> {
    let path = p.operand()?;
    let model = match p.text(&MODEL) {
        Some("commit") => AnalysisModel::Commit,
        Some("session") => AnalysisModel::Session,
        other => {
            return Err(format!(
                "invalid value for --model: {:?} (expected session or commit)",
                other.unwrap_or_default()
            ))
        }
    };
    let trace = load_rebased(path);
    let resolved = offset::resolve(&trace);
    let report = detect_conflicts(&resolved, model);
    let (ws, wd, rs, rd) = report.table4_marks();
    println!(
        "{model:?} semantics: {} pairs | WAW-S:{ws} WAW-D:{wd} RAW-S:{rs} RAW-D:{rd}",
        report.total()
    );
    for p in report.pairs.iter().take(20) {
        println!(
            "  {:?}-{:?} {}: rank {} [{}..{}) t={} → rank {} [{}..{}) t={}",
            p.kind,
            p.scope,
            trace.path(p.file),
            p.first.rank,
            p.first.offset,
            p.first.end(),
            p.first.t_start,
            p.second.rank,
            p.second.offset,
            p.second.end(),
            p.second.t_start,
        );
    }
    if report.pairs.len() > 20 {
        println!("  … and {} more", report.pairs.len() - 20);
    }
    Ok(0)
}

fn patterns(p: &Parsed) -> Result<i32, String> {
    let trace = load_rebased(p.operand()?);
    let resolved = offset::resolve(&trace);
    let hl = highlevel::classify(&resolved, trace.nranks());
    let local = local_pattern(&resolved);
    let global = global_pattern(&resolved);
    println!("high-level : {}", hl.label());
    println!(
        "local      : {:.1}% consecutive, {:.1}% monotonic, {:.1}% random",
        local.pct(AccessClass::Consecutive),
        local.pct(AccessClass::Monotonic),
        local.pct(AccessClass::Random),
    );
    println!(
        "global     : {:.1}% consecutive, {:.1}% monotonic, {:.1}% random",
        global.pct(AccessClass::Consecutive),
        global.pct(AccessClass::Monotonic),
        global.pct(AccessClass::Random),
    );
    for fp in hl.per_file.iter().take(16) {
        let fit = fp
            .stride
            .map(|f| match f.cycle {
                Some(c) => format!(" offset={}·i+{} cycle={c}", f.a, f.b),
                None => format!(" offset={}·i+{}", f.a, f.b),
            })
            .unwrap_or_default();
        println!(
            "  {:<40} {:<14} {:>3} writers {:>10} bytes{fit}",
            trace.path(fp.file),
            fp.shape.name(),
            fp.writers.len(),
            fp.bytes,
        );
    }
    Ok(0)
}

fn census(p: &Parsed) -> Result<i32, String> {
    let trace = load(p.operand()?);
    let census = MetadataCensus::from_trace(&trace);
    for (op, by_layer) in &census.counts {
        let layers: Vec<String> = by_layer
            .iter()
            .map(|(l, n)| format!("{}:{n}", l.name()))
            .collect();
        println!("{:<12} {}", op.name(), layers.join(" "));
    }
    println!(
        "unused: {}",
        census
            .unused_ops()
            .iter()
            .map(|o| o.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(0)
}

fn report(p: &Parsed) -> Result<i32, String> {
    let path = p.operand()?;
    let report = semantics_core::apprun::build(&load_rebased(path));
    print!("{}", report.render(path));
    Ok(0)
}

/// Consumer-side check of a `report --profile` artifact: parse the
/// Chrome trace-event JSON and summarize its coverage. Exit 1 on a
/// malformed trace, so CI can gate on it.
fn validate_trace(p: &Parsed) -> Result<i32, String> {
    let path = p.operand()?;
    let text = read_text(path);
    match obs::validate_chrome_trace(&text) {
        Ok(summary) => {
            println!("events     : {}", summary.events);
            println!("timelines  : {} pids", summary.pids.len());
            println!(
                "categories : {}",
                summary
                    .cats
                    .iter()
                    .filter(|c| !c.starts_with("__"))
                    .cloned()
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            Ok(0)
        }
        Err(e) => fail(format!("invalid Chrome trace {path}: {e}")),
    }
}

/// Consumer-side check of a saved /metricsz exposition: parse it with
/// the from-scratch Prometheus text-format parser and summarize. Exit 1
/// on a malformed exposition, so the process tests can gate on it.
fn validate_prom(p: &Parsed) -> Result<i32, String> {
    let path = p.operand()?;
    let text = read_text(path);
    match obs::parse_exposition(&text) {
        Ok(samples) => {
            let mut series: Vec<&str> = samples.iter().map(|s| s.name.as_str()).collect();
            series.sort_unstable();
            series.dedup();
            println!("samples    : {}", samples.len());
            println!("series     : {}", series.len());
            println!("names      : {}", series.join(" "));
            Ok(0)
        }
        Err(e) => fail(format!("invalid exposition {path}: {e}")),
    }
}
