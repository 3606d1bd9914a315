//! The paper's tables and figures. [`ARTIFACTS`] lists every one once —
//! which command prints it, which file `all` saves it to, what it
//! renders from — and both `all` and the single-artifact commands walk
//! that list, so `all` cannot drift from what each command does.

use hpcapps::AppId;

use super::{out_dir, write_artifact, RunOpts, THREADS};
use crate::cli::Parsed;
use crate::{figures, hbval, tables, AnalyzedRun};

/// What an artifact is rendered from.
enum Render {
    /// Nothing measured: the paper's own static tables.
    Static(fn() -> String),
    /// The full Table 4 suite.
    Suite(fn(&[AnalyzedRun]) -> String),
    /// The named configurations, in this order (taken from the suite
    /// when it ran, else run individually).
    Of(&'static [AppId], fn(&[&AnalyzedRun]) -> String),
    /// [`Render::Of`] for a render that reads the runs' traces: these
    /// configurations are analyzed at rest.
    Traced(&'static [AppId], fn(&[&AnalyzedRun]) -> String),
}
use Render::{Of, Static, Suite, Traced};

impl Render {
    /// The named configurations of an [`Of`] or [`Traced`] render.
    fn ids(&self) -> &'static [AppId] {
        match self {
            Of(ids, _) | Traced(ids, _) => ids,
            Static(_) | Suite(_) => &[],
        }
    }
}

struct Artifact {
    /// The command that produces exactly this artifact; `""` = `all` only.
    command: &'static str,
    /// File name under `--out`; `""` = stdout only.
    file: &'static str,
    /// Whether it goes to stdout.
    print: bool,
    render: Render,
}

const fn printed(command: &'static str, file: &'static str, render: Render) -> Artifact {
    Artifact {
        command,
        file,
        print: true,
        render,
    }
}

const fn saved(command: &'static str, file: &'static str, render: Render) -> Artifact {
    Artifact {
        command,
        file,
        print: false,
        render,
    }
}

const FBS: &[AppId] = &[AppId::FlashFbs];
const NOFBS: &[AppId] = &[AppId::FlashNofbs];
const FIXES: &[AppId] = &[
    AppId::FlashFbs,
    AppId::FlashFbsCollectiveMeta,
    AppId::FlashFbsNoFlush,
];

/// Every artifact of `report all`, in the order `all` prints them.
const ARTIFACTS: &[Artifact] = &[
    printed("table1", "table1.txt", Static(tables::table1)),
    printed("table2", "table2.txt", Static(tables::table2)),
    printed("table5", "table5.txt", Static(tables::table5)),
    printed("table3", "table3.txt", Suite(tables::table3)),
    printed("table4", "table4.txt", Suite(tables::table4)),
    printed("fig1", "fig1.txt", Suite(figures::fig1)),
    saved("", "fig1.csv", Suite(figures::fig1_csv)),
    printed("fig3", "fig3.txt", Suite(figures::fig3)),
    saved("", "fig3.csv", Suite(figures::fig3_csv)),
    printed(
        "fig2",
        "",
        Traced(FBS, |r| figures::fig2_summary(r[0], "fbs / collective")),
    ),
    saved(
        "fig2",
        "fig2_fbs.csv",
        Traced(FBS, |r| figures::fig2_csv(r[0], true)),
    ),
    printed(
        "fig2",
        "",
        Traced(NOFBS, |r| {
            figures::fig2_summary(r[0], "nofbs / independent")
        }),
    ),
    saved(
        "fig2",
        "fig2_nofbs.csv",
        Traced(NOFBS, |r| figures::fig2_csv(r[0], false)),
    ),
    // §5.2 validation on FLASH (the app with cross-process conflicts).
    printed(
        "validate-hb",
        "validate_hb.txt",
        Of(FBS, |r| hbval::validate(r[0])),
    ),
    saved("", "summary.json", Suite(summary_json)),
    printed(
        "flash-fix",
        "flash_fix.txt",
        Of(FIXES, |r| tables::flash_fix(r)),
    ),
];

/// `all`, and every command named in [`ARTIFACTS`]: run what the selected
/// artifacts render from — each configuration once — then print and save
/// them in list order.
pub(super) fn render(p: &Parsed) -> Result<i32, String> {
    let all = p.command.name == "all";
    let selected: Vec<&Artifact> = ARTIFACTS
        .iter()
        .filter(|a| all || a.command == p.command.name)
        .collect();
    // `all` saves every named file; a single command saves only what it
    // does not print.
    let saves = |a: &Artifact| !a.file.is_empty() && (all || !a.print);
    let out = if selected.iter().any(|a| saves(a)) {
        out_dir(p)?
    } else {
        String::new()
    };

    let mut pool: Vec<AnalyzedRun> = Vec::new();
    let mut suite_len = 0;
    let mut code = 0;
    if selected.iter().any(|a| !matches!(a.render, Static(_))) {
        let mut opts = RunOpts::parse(p)?;
        let at_rest: Vec<AppId> = selected
            .iter()
            .filter(|a| matches!(a.render, Traced(..)))
            .flat_map(|a| a.render.ids())
            .copied()
            .collect();
        if selected.iter().any(|a| matches!(a.render, Suite(_))) {
            pool = opts.run_suite(p.get(&THREADS)?, &at_rest);
            suite_len = pool.len();
        }
        let mut tried: Vec<AppId> = pool.iter().map(|r| r.spec.id).collect();
        for &id in selected.iter().flat_map(|a| a.render.ids()) {
            if !tried.contains(&id) {
                tried.push(id);
                let spec = hpcapps::spec_ref(id);
                pool.extend(if at_rest.contains(&id) {
                    opts.at_rest_one(spec)
                } else {
                    opts.run_one(spec)
                });
            }
        }
        code = opts.exit_code();
    }

    for a in selected {
        let text = match a.render {
            Static(f) => f(),
            Suite(f) => f(&pool[..suite_len]),
            Of(ids, f) | Traced(ids, f) => {
                let runs: Vec<&AnalyzedRun> = ids
                    .iter()
                    .filter_map(|id| pool.iter().find(|r| r.spec.id == *id))
                    .collect();
                // Every configuration it needs was salvaged as DEGRADED.
                if runs.is_empty() {
                    continue;
                }
                f(&runs)
            }
        };
        if a.print {
            print!("{text}");
        }
        if saves(a) {
            write_artifact(&out, a.file, &text)?;
        }
    }
    Ok(code)
}

/// Machine-readable summary of the suite.
fn summary_json(runs: &[AnalyzedRun]) -> String {
    use crate::json::Json;
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
                .field("records", r.records)
                .field("hb_racy", r.hb.racy)
        })
        .collect();
    Json::obj()
        .field("nranks", runs.first().map_or(0, |r| r.nranks))
        .field("configs", configs)
        .pretty()
}
