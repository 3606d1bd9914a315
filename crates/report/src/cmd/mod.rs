//! The `report` binary's commands: [`REPORT`] is its whole grammar, and
//! each submodule holds the commands of one job next to their flags —
//! `paper` (the paper's tables and figures), `studies` (the checks and
//! extensions around them), `service` (`serve`) and `client` (talking to
//! a running service).

use hpcapps::{AppId, AppSpec};

use crate::cli::{Cli, Command, Flag, Parsed};
use crate::{
    analyze_all_isolated, analyze_isolated, analyze_with_faults, isolated, AnalyzedRun,
    ConfigOutcome, ReportCfg,
};

mod client;
mod paper;
mod service;
mod studies;

use client::{cluster, get, slo, ADDR, PATH, RAW};
use paper::render;
use service::serve;
use studies::{
    advise, app_report, check, fault_campaign, locks, meta_conflicts, rank_sweep, scale_study,
    semantics_matrix,
};

/// Exit code when `--keep-going` salvaged a run with degraded
/// configurations — distinct from 1 (mismatch) and 64 (usage).
const EXIT_DEGRADED: i32 = 2;

pub const RANKS: Flag = Flag::new("--ranks", "N", "64", "world size, 1..=65536");
pub const SEED: Flag = Flag::new("--seed", "S", "2021", "base seed");
const THREADS: Flag = Flag::new("--threads", "N", "0", "worker threads, 0 = one per core");
/// Isolate per-configuration failures as DEGRADED rows; a salvaged run
/// exits [`EXIT_DEGRADED`].
const KEEP_GOING: Flag = Flag::switch("--keep-going", "", "failures become DEGRADED rows");
const OUT: Flag = Flag::new("--out", "DIR", "reports", "where a command saves artifacts");
pub const PROFILE: Flag = Flag::new("--profile", "FILE", "", "write a Chrome trace-event JSON");
pub const METRICS: Flag = Flag::new("--metrics", "FILE", "", "write a metrics-registry dump");
pub const QUIET: Flag = Flag::switch("--quiet", "-q", "errors only");
pub const VERBOSE: Flag = Flag::switch("--verbose", "-v", "debug-level logging");

/// Flags of a command that runs the Table 4 suite.
const SUITE: &[Flag] = &[RANKS, SEED, THREADS, KEEP_GOING];
/// Flags of a command that runs named configurations one by one.
const RUNS: &[Flag] = &[RANKS, SEED, KEEP_GOING];

/// The one grammar of the `report` binary. `--profile` / `--metrics` are
/// write-only side channels: every artifact is byte-identical with them
/// on or off.
pub static REPORT: Cli = Cli {
    prog: "report",
    commands: &[
        Command::new("all", "", SUITE, render)
            .about("every table and figure, printed and saved under --out"),
        Command::new("table1", "", &[], render).about("Table 1: PFS categorization"),
        Command::new("table2", "", &[], render).about("Table 2: build configurations"),
        Command::new("table3", "", SUITE, render).about("Table 3: high-level access patterns"),
        Command::new("table4", "", SUITE, render)
            .about("Table 4: conflicts under session semantics"),
        Command::new("table5", "", &[], render).about("Table 5: application configurations"),
        Command::new("fig1", "", SUITE, render)
            .about("Figure 1: consecutive / monotonic / random access mix"),
        Command::new("fig2", "", RUNS, render)
            .about("Figure 2: FLASH access detail (summary + CSV series under --out)"),
        Command::new("fig3", "", SUITE, render).about("Figure 3: metadata-operation census"),
        Command::new("flash-fix", "", RUNS, render).about("§6.3 one-line-fix study"),
        Command::new("validate-hb", "", RUNS, render)
            .about("§5.2 happens-before validation of the timestamp method"),
        Command::new("check", "", SUITE, check)
            .about("CI gate: every configuration reproduces its Table 3 label and Table 4 marks"),
        Command::new("scale-study", "", studies::SCALE, scale_study)
            .about("§6.1 scale invariance: a representative subset at two world sizes"),
        Command::new("rank-sweep", "", &[RANKS, SEED], rank_sweep)
            .about("§6.1 past the paper's scales: Table 4 at 256/1024 ranks, a subset at 4096"),
        Command::new("semantics-matrix", "", &[RANKS, SEED], semantics_matrix)
            .about("dynamic validation: stale reads per configuration per PFS model"),
        Command::new("app-report", "", studies::APP_REPORT, app_report)
            .about("detailed per-run report (the paper's §7 artifact style)"),
        Command::new("fault-campaign", "", studies::CAMPAIGN, fault_campaign)
            .about("seeded fault injection sweep + FLASH crash sweep, saved under --out"),
        Command::new("advise", "", RUNS, advise)
            .about("§4.1: fsync insertions that clear each configuration's commit conflicts"),
        Command::new("locks", "", RUNS, locks)
            .about("§3.1 quantified: lock-manager traffic under strong (POSIX) semantics"),
        Command::new("meta-conflicts", "", RUNS, meta_conflicts)
            .about("future-work extension: cross-process namespace dependencies"),
        Command::new("serve", "", service::FLAGS, serve)
            .about("the analysis service (SIGTERM / ctrl-c drains and exits 0)"),
        Command::new("get", "", &[ADDR, PATH], get)
            .about("fetch one path from a running service and print the body"),
        Command::new("slo", "", &[ADDR, RAW], slo)
            .about("per-endpoint SLO summary from a running service's /metricsz"),
        Command::new("cluster", "<status|join|decommission>", &[ADDR], cluster)
            .about("ring table / this node pulls its slice / peers pull this node's slice"),
    ],
    global: &[OUT, PROFILE, METRICS, QUIET, VERBOSE],
    default_command: "all",
    epilog: "\nexit codes:\n\
             \x20 0   success\n\
             \x20 1   paper mismatch / fault-campaign failure / unreachable service\n\
             \x20 2   degraded configuration(s) salvaged by --keep-going\n\
             \x20 64  usage error\n",
};

/// `--ranks`, bounded: counts beyond the simulator's maximum are
/// rejected before anything is allocated for them.
pub fn ranks(p: &Parsed, flag: &Flag) -> Result<u32, String> {
    let n: u32 = p.get(flag)?;
    if n == 0 {
        return Err(format!("{} must be at least 1", flag.name));
    }
    if n > mpisim::MAX_RANKS {
        return Err(format!(
            "{} {n} exceeds the supported maximum of {} \
             (rank counts beyond it are invariably typos or unit errors)",
            flag.name,
            mpisim::MAX_RANKS
        ));
    }
    Ok(n)
}

/// How the analysis commands run configurations: the world, and whether
/// a failing configuration aborts the command or becomes a DEGRADED row.
/// Every run goes through the isolated entry points; `--keep-going`
/// decides only what a failure they report turns into.
struct RunOpts {
    cfg: ReportCfg,
    keep_going: bool,
    /// Configurations salvaged as DEGRADED so far.
    degraded: usize,
}

impl RunOpts {
    /// From `--ranks`, `--seed` and `--keep-going`.
    fn parse(p: &Parsed) -> Result<RunOpts, String> {
        Ok(RunOpts {
            cfg: report_cfg(p)?,
            keep_going: p.switch(&KEEP_GOING),
            degraded: 0,
        })
    }

    /// One configuration; `None` (and a DEGRADED row on stderr) when
    /// `--keep-going` salvaged its failure.
    fn run_one(&mut self, spec: &'static AppSpec) -> Option<AnalyzedRun> {
        let clean = iolibs::FaultPlan::none();
        self.salvage(analyze_isolated(&self.cfg, spec, &spec.params, &clean))
    }

    /// [`RunOpts::run_one`] at rest: the run keeps its trace for a reader
    /// of it ([`analyze_with_faults`]).
    fn at_rest_one(&mut self, spec: &'static AppSpec) -> Option<AnalyzedRun> {
        let clean = iolibs::FaultPlan::none();
        let cfg = self.cfg;
        self.salvage(isolated(spec, || {
            analyze_with_faults(&cfg, spec, &spec.params, &clean)
        }))
    }

    /// The full Table 4 suite under the same contract, fanned across
    /// `threads` workers; the configurations in `at_rest` are analyzed at
    /// rest and keep their traces.
    fn run_suite(&mut self, threads: usize, at_rest: &[AppId]) -> Vec<AnalyzedRun> {
        analyze_all_isolated(&self.cfg, false, threads, at_rest)
            .into_iter()
            .filter_map(|outcome| self.salvage(outcome))
            .collect()
    }

    fn salvage(&mut self, outcome: ConfigOutcome) -> Option<AnalyzedRun> {
        match outcome {
            ConfigOutcome::Ok(run) => Some(*run),
            ConfigOutcome::Degraded { name, error, .. } => {
                self.record_failure(&name, &error);
                eprintln!("DEGRADED {name:<24} {error}");
                None
            }
        }
    }

    /// A configuration failed: one more salvaged under `--keep-going`,
    /// the end of the command (a panic) without it.
    fn record_failure(&mut self, name: &str, error: &str) {
        if !self.keep_going {
            panic!("{name}: simulated run failed: {error}");
        }
        self.degraded += 1;
    }

    /// 0, or [`EXIT_DEGRADED`] once anything was salvaged.
    fn exit_code(&self) -> i32 {
        if self.degraded > 0 {
            EXIT_DEGRADED
        } else {
            0
        }
    }
}

/// The world `--ranks` / `--seed` describe.
fn report_cfg(p: &Parsed) -> Result<ReportCfg, String> {
    Ok(ReportCfg {
        nranks: ranks(p, &RANKS)?,
        seed: p.get(&SEED)?,
        ..ReportCfg::default()
    })
}

/// `--out`, created before anything is simulated: a path that cannot be
/// made a directory is a usage error at the door, not a crash once all
/// the work is done.
fn out_dir(p: &Parsed) -> Result<String, String> {
    let dir: String = p.get(&OUT)?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("--out {dir:?} cannot be created: {e}"))?;
    Ok(dir)
}

/// Save one artifact under a directory [`out_dir`] made.
fn write_artifact(dir: &str, name: &str, content: &str) -> Result<(), String> {
    let path = format!("{dir}/{name}");
    std::fs::write(&path, content).map_err(|e| format!("--out: cannot write {path}: {e}"))?;
    obs::info!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--help` is generated from the table the parser walks: every
    /// command and every flag of every command appears in it.
    #[test]
    fn help_names_every_command_and_flag() {
        let general = REPORT.usage(None);
        for c in REPORT.commands {
            assert!(general.contains(&format!("\n  {}", c.name)), "{}", c.name);
            assert!(!c.summary.is_empty(), "{} has no summary", c.name);
            let own = REPORT.usage(Some(c));
            for f in c.flags.iter().chain(REPORT.global) {
                assert!(own.contains(f.name), "{} lacks {}", c.name, f.name);
                assert!(!f.help.is_empty(), "{} has no help", f.name);
            }
        }
    }

    /// A spelling means one thing across the binary: same arity wherever
    /// it is declared (the parser resolves arity before it knows the
    /// command), and no command re-declares a global flag.
    #[test]
    fn a_flag_spelling_has_one_arity() {
        let all: Vec<&Flag> = REPORT
            .commands
            .iter()
            .flat_map(|c| c.flags)
            .chain(REPORT.global)
            .collect();
        for a in &all {
            for b in &all {
                if a.name == b.name {
                    assert_eq!(a.metavar, b.metavar, "{}", a.name);
                }
            }
        }
        for c in REPORT.commands {
            for f in c.flags {
                assert!(REPORT.global.iter().all(|g| g.name != f.name));
            }
        }
    }
}
