//! The checks and studies around the paper's artifacts: the reproduction
//! gate, the scale studies, the dynamic semantics matrix, per-run
//! reports, the fault campaign, and the per-configuration tables
//! (`advise`, `locks`, `meta-conflicts`).

use hpcapps::{AppId, AppSpec};

use super::{
    out_dir, ranks, report_cfg, write_artifact, RunOpts, KEEP_GOING, RANKS, SEED, THREADS,
};
use crate::cli::{Flag, Parsed};
use crate::{analyze_all_isolated, faultcamp, matrix, scale, AnalyzedRun, ConfigOutcome};

fn table4_specs() -> impl Iterator<Item = &'static AppSpec> {
    hpcapps::specs().iter().filter(|s| s.in_table4)
}

/// The representative configuration subset shared by `scale-study` and
/// the 4096-rank leg of `rank-sweep`: one per I/O-library family and
/// checkpoint pattern, so every analysis path is exercised without
/// rerunning the full registry at the most expensive scale.
fn scale_subset() -> Vec<&'static AppSpec> {
    hpcapps::specs()
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

/// Exit code 1 on any mismatch; with `--keep-going`, per-configuration
/// failures become DEGRADED rows and the command exits 2 instead of
/// crashing.
pub(super) fn check(p: &Parsed) -> Result<i32, String> {
    let mut opts = RunOpts::parse(p)?;
    let outcomes = analyze_all_isolated(&opts.cfg, false, p.get(&THREADS)?, &[]);
    let mut failures = 0usize;
    for outcome in &outcomes {
        let r = match outcome {
            ConfigOutcome::Ok(r) => r,
            ConfigOutcome::Degraded { name, error, .. } => {
                opts.record_failure(name, error);
                println!("DEGRADED {name:<24} {error}");
                continue;
            }
        };
        let t3_ok = r.highlevel.label() == r.spec.expected_table3;
        let t4_ok = r.session.table4_marks() == r.spec.expected_session.as_tuple()
            && r.commit.table4_marks() == r.spec.expected_commit.as_tuple();
        let hb_ok = r.hb.racy == 0;
        let resolve_ok = r.resolution.seek_mismatches == 0;
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
        outcomes.len() - failures - opts.degraded,
        outcomes.len(),
        opts.degraded
    );
    Ok(if failures > 0 { 1 } else { opts.exit_code() })
}

const SMALL: Flag = Flag::new("--small", "A", "16", "the small world");
const LARGE: Flag = Flag::new("--large", "B", "64", "the large world");

pub(super) const SCALE: &[Flag] = &[SEED, SMALL, LARGE];

pub(super) fn scale_study(p: &Parsed) -> Result<i32, String> {
    let cfg = crate::ReportCfg {
        seed: p.get(&SEED)?,
        ..crate::ReportCfg::default()
    };
    let (small, large) = (ranks(p, &SMALL)?, ranks(p, &LARGE)?);
    print!(
        "{}",
        scale::scale_study(&cfg, &scale_subset(), small, large)
    );
    Ok(0)
}

/// The full Table 4 suite at 256 and 1024 ranks, then scale-study's
/// representative subset at 4096 (rerunning everything at every count is
/// the expensive part of the paper's own methodology). Baseline is
/// `--ranks`.
pub(super) fn rank_sweep(p: &Parsed) -> Result<i32, String> {
    let cfg = report_cfg(p)?;
    let t4: Vec<_> = table4_specs().collect();
    let rows = scale::rank_sweep(&cfg, &t4, cfg.nranks, &[256, 1024]);
    print!("{}", scale::rank_sweep_report(&rows, &[256, 1024]));
    let rows = scale::rank_sweep(&cfg, &scale_subset(), cfg.nranks, &[4096]);
    print!("{}", scale::rank_sweep_report(&rows, &[4096]));
    Ok(0)
}

pub(super) fn semantics_matrix(p: &Parsed) -> Result<i32, String> {
    let t4: Vec<_> = table4_specs().collect();
    print!("{}", matrix::semantics_matrix(&report_cfg(p)?, &t4));
    Ok(0)
}

/// Run `specs` one by one through `run` (streamed or at rest) under the
/// `--keep-going` contract and hand each surviving run to `row`; returns
/// the exit code.
fn each_run(
    mut opts: RunOpts,
    specs: impl Iterator<Item = &'static AppSpec>,
    run: fn(&mut RunOpts, &'static AppSpec) -> Option<AnalyzedRun>,
    mut row: impl FnMut(&AppSpec, &AnalyzedRun),
) -> i32 {
    for spec in specs {
        if let Some(run) = run(&mut opts, spec) {
            row(spec, &run);
        }
    }
    opts.exit_code()
}

const CONFIG: Flag = Flag::new("--config", "NAME", "", "only this one (`tracetool list`)");

pub(super) const APP_REPORT: &[Flag] = &[RANKS, SEED, KEEP_GOING, CONFIG];

/// Every Table 4 configuration — or the one named via `--config`.
pub(super) fn app_report(p: &Parsed) -> Result<i32, String> {
    let specs: Vec<&'static AppSpec> = match p.opt::<String>(&CONFIG)? {
        None => table4_specs().collect(),
        Some(name) => {
            let spec = hpcapps::specs()
                .iter()
                .find(|s| s.config_name().eq_ignore_ascii_case(&name))
                .ok_or_else(|| {
                    format!(
                        "--config {name:?} names no configuration \
                         (`tracetool list` prints them)"
                    )
                })?;
            vec![spec]
        }
    };
    let opts = RunOpts::parse(p)?;
    Ok(each_run(
        opts,
        specs.into_iter(),
        RunOpts::at_rest_one,
        |spec, run| {
            let rep = semantics_core::apprun::build(run.trace());
            print!("{}", rep.render(&spec.config_name()));
        },
    ))
}

const CAMP_SEEDS: Flag = Flag::new("--camp-seeds", "N", "8", "seeds per (app, fault kind) cell");
const CAMP_OPS: Flag = Flag::new("--camp-ops", "M", "64", "campaign fault-site op ceiling");
/// Deeper than the campaign ceiling: the flip window sits late in the
/// program.
const SWEEP_OPS: Flag = Flag::new("--sweep-ops", "M", "300", "FLASH crash-sweep op ceiling");
pub(super) const CAMPAIGN: &[Flag] = &[
    RANKS.default("8"),
    SEED,
    THREADS,
    CAMP_SEEDS,
    CAMP_OPS,
    SWEEP_OPS,
];

/// The robustness capstone: seeded fault injection swept across seeds x
/// fault kinds x applications, plus the FLASH crash sweep demonstrating
/// the commit-semantics flip. Exit 1 if any combination panics or the
/// flip fails to reproduce.
pub(super) fn fault_campaign(p: &Parsed) -> Result<i32, String> {
    let camp = faultcamp::CampaignCfg {
        nranks: ranks(p, &RANKS)?,
        base_seed: p.get::<u64>(&SEED)? + 5000,
        n_seeds: p.get(&CAMP_SEEDS)?,
        max_op: p.get(&CAMP_OPS)?,
        sweep_max_op: p.get(&SWEEP_OPS)?,
        threads: p.get(&THREADS)?,
    };
    let out = out_dir(p)?;
    let happy = faultcamp::happy_path_verdicts(&camp);
    let (table, stats) = faultcamp::campaign(&camp);
    let (sweep, flipped) = faultcamp::flash_crash_sweep(&camp);
    let artifact = format!("{happy}{table}{sweep}");
    print!("{artifact}");
    write_artifact(&out, "fault_campaign.txt", &artifact)?;
    if stats.panics > 0 {
        obs::error!("FAIL: {} combinations panicked", stats.panics);
        return Ok(1);
    }
    if !flipped {
        obs::error!("FAIL: no crash point flipped FLASH's commit verdict");
        return Ok(1);
    }
    Ok(0)
}

/// Propose and verify the insertions that make each configuration
/// conflict-free under commit semantics.
pub(super) fn advise(p: &Parsed) -> Result<i32, String> {
    let opts = RunOpts::parse(p)?;
    println!(
        "{:<24} {:>16} {:>12} {:>10}",
        "configuration", "commit conflicts", "insertions", "sufficient"
    );
    Ok(each_run(
        opts,
        table4_specs(),
        RunOpts::at_rest_one,
        |spec, run| {
            let advice = semantics_core::advisor::advise_commits(&run.resolved());
            println!(
                "{:<24} {:>16} {:>12} {:>10}",
                spec.config_name(),
                advice.before.total(),
                advice.insertions.len(),
                advice.is_sufficient(),
            );
        },
    ))
}

/// Revocations are the cross-client extent handoffs that make shared-file
/// strong consistency expensive — they appear exactly where Table 4 has
/// cross-process overlap.
pub(super) fn locks(p: &Parsed) -> Result<i32, String> {
    let opts = RunOpts::parse(p)?;
    println!(
        "{:<24} {:>9} {:>9} {:>12} {:>12}",
        "configuration", "writes", "reads", "locks", "revocations"
    );
    Ok(each_run(
        opts,
        table4_specs(),
        RunOpts::run_one,
        |spec, run| {
            let stats = &run.pfs_stats;
            println!(
                "{:<24} {:>9} {:>9} {:>12} {:>12}",
                spec.config_name(),
                stats.writes,
                stats.reads,
                stats.locks_acquired,
                stats.lock_revocations,
            );
        },
    ))
}

pub(super) fn meta_conflicts(p: &Parsed) -> Result<i32, String> {
    let opts = RunOpts::parse(p)?;
    println!(
        "{:<24} {:>8} {:>14} {:>14} {:>14}",
        "configuration", "events", "create→observe", "create→mutate", "other"
    );
    Ok(each_run(
        opts,
        table4_specs(),
        RunOpts::at_rest_one,
        |spec, run| {
            use semantics_core::meta_conflict::MetaPairKind as K;
            let m = semantics_core::meta_conflict::detect_meta_conflicts(run.trace());
            println!(
                "{:<24} {:>8} {:>14} {:>14} {:>14}",
                spec.config_name(),
                m.events,
                m.count(K::CreateThenObserve),
                m.count(K::CreateThenMutate),
                m.count(K::RemoveThenObserve) + m.count(K::MutateThenMutate),
            );
        },
    ))
}
