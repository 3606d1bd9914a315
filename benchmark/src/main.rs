//! `bench` — the repo's one benchmark driver. See `benchmark/README.md`.
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0|1   one run; the last
//!                                                        stdout line is the result
//! bench run W [--seed N] [--seconds S] [--smoke]         the same, end-to-end
//! bench trace [W] [--seed N] [--seconds S] [--smoke]     the same, per-layer
//! bench all [--seed N] [--seconds S] [--smoke]           all six workloads, one
//!                                                        child process each
//! bench aa [--runs R] [--seconds S] [--smoke]            two interleaved sets of the
//!                                                        gated workloads, judged by
//!                                                        the bounds
//! bench manifest                                         print BENCHMARK.json
//! bench metrics                                          print the per-layer table
//! ```

mod check;
mod client;
mod layers;
mod metrics;
mod plan;
mod spans;
mod stats;
mod sysinfo;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use workloads::{Params, Workload};

/// `run_seconds` of `BENCHMARK.json`, and the default `--seconds`.
pub const RUN_SECONDS: u32 = 40;
/// `--smoke` runs each workload for a fortieth of the time (1 s of 40).
const SMOKE_DIVISOR: f64 = 40.0;

/// The checkout this binary was built in.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits one level below the repo root")
        .to_path_buf()
}

/// `benchmark/out/`: store directories, `trace.json`, `results.jsonl`.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

struct Args {
    command: String,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: usize,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: bench --workload W --seed N --seconds S --trace 0|1\n\
         \x20      bench run W | trace [W] | all | aa | manifest | metrics\n\
         options: --seed N (2021)  --seconds S ({RUN_SECONDS})  --smoke  --runs R (3)\n\
         workloads: {}",
        names.join(" ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "run".to_string(),
        workload: None,
        seed: 2021,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
        runs: 3,
    };
    let workload = |name: &str| {
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))
    };
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek().filter(|a| !a.starts_with("--")) {
        args.command = first.to_string();
        it.next();
        if let Some(name) = it.peek().filter(|a| !a.starts_with("--")) {
            args.workload = Some(workload(name)?);
            it.next();
        }
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(workload(value("a workload")?)?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| format!("--seed: not a whole number\n{}", usage()))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 60.0)
                    .ok_or_else(|| format!("--seconds: expected 0 < S <= 60\n{}", usage()))?
            }
            "--trace" => {
                // `--trace 0|1` from the driver; bare `--trace` by hand.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--runs" => {
                args.runs = value("a count")?
                    .parse()
                    .ok()
                    .filter(|r| (2..=100).contains(r))
                    .ok_or_else(|| format!("--runs: expected 2..=100\n{}", usage()))?
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

/// The contract's result object, one line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// One workload run in this process. Prints every metric by name and
/// unit, then the result line; `false` when any check failed.
fn run_one(w: Workload, args: &Args) -> bool {
    obs::init(&obs::ObsConfig {
        tracing: false,
        // `report serve` runs with its counters on; so does the benchmark.
        metrics: true,
        // Node 2 of the fleet logs its peer as dead until node 1 binds;
        // failures that matter are reported by the checks here.
        level: obs::Level::Error,
    });
    let params = Params {
        seed: args.seed,
        seconds: if args.smoke {
            args.seconds / SMOKE_DIVISOR
        } else {
            args.seconds
        },
        trace: args.trace,
        setup_reps: if args.smoke {
            workloads::SMOKE_SETUP_REPS
        } else {
            workloads::SETUP_REPS
        },
    };
    let mut out = match workloads::run(w, &params) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("bench: {}: {e}", w.name());
            return false;
        }
    };
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    if args.trace {
        let warm_p50 = (w == Workload::WarmHot).then_some(out.p50_ns);
        match layers::run(args.seed, args.smoke, warm_p50) {
            Ok(layers) => {
                let path = out_dir().join("trace.json");
                if let Err(e) = std::fs::write(&path, &layers.trace_json) {
                    out.violations.push(format!("{}: {e}", path.display()));
                }
                eprint!("{}", layers.table);
                eprintln!("spans: {}", path.display());
                values.extend(layers.metrics);
            }
            Err(e) => out.violations.push(format!("layer drivers: {e}")),
        }
        values.extend(&out.client_view);
    } else {
        values.extend(&out.end_to_end);
    }

    // Every metric of the chosen list, in its order; one the workload
    // does not exercise reads 0.
    let listed: Vec<(&str, &str)> = if args.trace {
        metrics::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    };
    let mut rows = Vec::with_capacity(listed.len());
    for (name, unit) in listed {
        let value = values.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            out.violations.push(format!("{name} is not a number"));
        }
        rows.push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }
    if let Some(e) = &out.first_error {
        eprintln!("bench: {}: first failed operation: {e}", w.name());
    }
    for v in &out.violations {
        eprintln!("bench: {}: {v}", w.name());
    }
    println!(
        "{} seed={} seconds={}{}{}",
        w.name(),
        args.seed,
        params.seconds,
        if args.trace { " traced" } else { "" },
        if args.smoke {
            " smoke (numbers not comparable)"
        } else {
            ""
        },
    );
    for (name, value, unit) in &rows {
        println!("  {name} = {value} {unit}");
    }
    if !args.trace {
        println!("  (good-side deciles over {} slices)", out.slices);
        println!(
            "  process.peak_rss_mib = {} MiB (not gated)",
            out.client_view["process.peak_rss_mib"]
        );
    }
    println!(
        "  fail_share = {} ratio ({} of {})",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    println!(
        "{}",
        result_line(out.correct(), out.attempted, out.failed, &rows)
    );
    out.correct()
}

/// Run one workload in a child process, so `peak_rss_mib` is its own;
/// returns the child's result line when it exited 0.
fn spawn_run(w: Workload, args: &Args, seed: u64) -> Option<String> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.stderr(std::process::Stdio::inherit()).output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last()?.to_string();
    (output.status.success() && line.contains("\"correct\": true")).then_some(line)
}

/// Cells that depend on two client threads and two workers running at
/// once mean nothing on a one-core box.
fn measurable(metric: &str) -> bool {
    sysinfo::nproc() >= 2 || metric == "setup_s"
}

fn listed_names(trace: bool) -> Vec<&'static str> {
    if trace {
        metrics::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        metrics::END_TO_END.iter().map(|m| m.name).collect()
    }
}

/// `bench all`: every workload once, a table, and one record per workload
/// appended to `benchmark/out/results.jsonl`.
fn run_all(args: &Args) -> bool {
    let fingerprint = sysinfo::fingerprint_fields();
    println!("box: {fingerprint}");
    let names = listed_names(args.trace);
    let mut ok = true;
    let mut records = String::new();
    let mut table: Vec<(Workload, Option<String>)> = Vec::new();
    for w in Workload::ALL {
        let line = spawn_run(w, args, args.seed);
        ok &= line.is_some();
        if let Some(line) = &line {
            records.push_str(&format!(
                "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
                 \"traced\": {}, \"comparable\": {}, {fingerprint}, \"result\": {line}}}\n",
                w.name(),
                args.seed,
                args.seconds,
                args.trace,
                !args.smoke,
            ));
        }
        table.push((w, line));
    }
    print!("{:<36}", "metric");
    for (w, _) in &table {
        print!(" {:>14}", w.name());
    }
    println!();
    for name in names {
        print!("{name:<36}");
        for (_, line) in &table {
            let cell = match line.as_deref().and_then(|l| metrics::value_in(l, name)) {
                Some(_) if !measurable(name) => "not-measurable".to_string(),
                Some(v) => format!("{v:.3}"),
                None => "FAILED".to_string(),
            };
            print!(" {cell:>14}");
        }
        println!();
    }
    if args.smoke {
        println!("smoke run: every check ran, the numbers are not comparable");
    }
    let path = out_dir().join("results.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, records.as_bytes()));
    match appended {
        Ok(()) => println!("records: {}", path.display()),
        Err(e) => {
            eprintln!("bench: {}: {e}", path.display());
            ok = false;
        }
    }
    ok
}

/// `bench aa`: the same commit, its gated workloads measured as two
/// interleaved sets, judged
/// by the rule the driver applies — per end-to-end metric and workload,
/// the spread of each set (inter-quartile distance over median) must stay
/// within the metric's bound, `setup_s` excepted, and the second median
/// must not be worse than the first by more than the bound.
fn run_aa(args: &Args) -> bool {
    println!("box: {}", sysinfo::fingerprint_fields());
    let mut sets: [BTreeMap<(usize, &str), Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
    let mut ok = true;
    for run in 0..args.runs {
        // Another seed each run, the same seeds in both sets.
        let seed = args.seed + run as u64;
        for set in &mut sets {
            for (wi, w) in Workload::GATED.into_iter().enumerate() {
                match spawn_run(w, args, seed) {
                    Some(line) => {
                        for m in &metrics::END_TO_END {
                            if let Some(v) = metrics::value_in(&line, m.name) {
                                set.entry((wi, m.name)).or_default().push(v);
                            }
                        }
                    }
                    None => ok = false,
                }
            }
        }
        eprintln!("bench aa: run {} of {} done", run + 1, args.runs);
    }
    println!(
        "{:<12} {:<18} {:>12} {:>12} {:>9} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "spread A", "spread B", "B vs A", "bound"
    );
    let mut raw = String::new();
    for (wi, w) in Workload::GATED.into_iter().enumerate() {
        for m in &metrics::END_TO_END {
            let (Some(a), Some(b)) = (sets[0].get(&(wi, m.name)), sets[1].get(&(wi, m.name)))
            else {
                continue;
            };
            if a.len() < 2 || b.len() < 2 {
                continue;
            }
            if !measurable(m.name) {
                println!("{:<12} {:<18} not-measurable (nproc < 2)", w.name(), m.name);
                continue;
            }
            let (med_a, med_b) = (stats::median(a), stats::median(b));
            let (spread_a, spread_b) = (stats::iqr_share(a), stats::iqr_share(b));
            let worse = match m.better {
                "higher" => (med_a - med_b) / med_a,
                _ => (med_b - med_a) / med_a,
            };
            let spread_ok = m.name == "setup_s" || spread_a.max(spread_b) <= m.bound;
            let breach = !spread_ok || worse > m.bound;
            ok &= !breach;
            raw.push_str(&format!("{} {} A={a:?} B={b:?}\n", w.name(), m.name));
            println!(
                "{:<12} {:<18} {:>12.3} {:>12.3} {:>8.1}% {:>8.1}% {:>+7.1}% {:>5.0}%  {}",
                w.name(),
                m.name,
                med_a,
                med_b,
                100.0 * spread_a,
                100.0 * spread_b,
                100.0 * worse,
                100.0 * m.bound,
                if breach { "BREACH" } else { "ok" }
            );
        }
    }
    let path = out_dir().join("aa-values.txt");
    match std::fs::write(&path, raw) {
        Ok(()) => println!("every value: {}", path.display()),
        Err(e) => eprintln!("bench: {}: {e}", path.display()),
    }
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(64);
        }
    };
    let ok = match args.command.as_str() {
        "run" | "trace" => {
            args.trace |= args.command == "trace";
            let w = match (args.workload, args.trace) {
                (Some(w), _) => w,
                // The workload with the most of its own per-layer metrics.
                (None, true) => Workload::WarmHot,
                (None, false) => {
                    eprintln!("{}", usage());
                    return ExitCode::from(64);
                }
            };
            run_one(w, &args)
        }
        "all" => run_all(&args),
        "aa" => run_aa(&args),
        "manifest" => {
            print!("{}", metrics::manifest_json(RUN_SECONDS));
            true
        }
        "metrics" => {
            // The README's per-layer table: what each metric should move.
            for m in &metrics::PER_LAYER {
                println!("| `{}` | {} | {} | {} |", m.name, m.unit, m.better, m.moves);
            }
            true
        }
        _ => {
            eprintln!("{}", usage());
            return ExitCode::from(64);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
