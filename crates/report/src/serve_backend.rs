//! The real [`serve::Backend`]: the analysis pipeline behind the HTTP
//! service.
//!
//! A cold request runs a simulation, so it streams like every other run
//! ([`crate::runner`]), through the entry point every `report` command
//! uses — [`analyze_isolated`], so a panicking or deadlocking
//! configuration degrades to a structured 422 instead of taking a worker
//! down — and renders all three response views (verdict, conflicts,
//! patterns) from the one [`AnalyzedRun`]. The rendered strings are what
//! the serve cache stores, so a warm hit is a byte-copy of the cold
//! response by construction.
//!
//! Canonicalization is what makes the cache key honest: the app/config
//! path segments resolve through [`hpcapps::find_config`] to one spec,
//! whose app and [`hpcapps::AppSpec::config_segment`] are the canonical
//! halves. They resolve back to that same spec, which `(app, iolib)`
//! alone does not for a configuration sharing its pair with an earlier
//! one (FLASH's four HDF5 variants, MILC-QCD's two POSIX ones). The
//! `faults` parameter is parsed ([`FaultPlan::parse`]) and re-rendered
//! (`describe()`), so `crash@r1:op5` and ` crash@r1:op5 ` land on the
//! same entry; a site naming a rank outside the world is a 400 there, not
//! a crash of some other rank.

use iolibs::FaultPlan;
use semantics_core::conflict::ConflictReport;
use semantics_core::json::Json;
use semantics_core::patterns::{AccessClass, PatternStats};
use serve::http::percent_encode;
use serve::{AnalysisQuery, AnalysisViews, ApiError, Backend};

use crate::runner::{analyze_isolated, AnalyzedRun, ConfigOutcome, ReportCfg};

/// Backend over the static application registry and the isolated runner.
/// Every service run gets [`ReportCfg::default`]'s skew ceiling.
#[derive(Default)]
pub struct ReportBackend;

impl ReportBackend {
    pub fn new() -> ReportBackend {
        ReportBackend
    }
}

impl Backend for ReportBackend {
    fn apps_json(&self) -> String {
        let apps: Vec<Json> = hpcapps::specs()
            .iter()
            .map(|s| {
                Json::obj()
                    .field("config", s.config_name())
                    .field("app", s.app)
                    .field("iolib", s.iolib)
                    .field("in_table4", s.in_table4)
                    .field(
                        "verdict_url",
                        format!(
                            "/v1/verdict/{}/{}",
                            percent_encode(s.app),
                            percent_encode(&s.config_segment())
                        ),
                    )
            })
            .collect();
        Json::obj()
            .field("count", apps.len())
            .field("apps", Json::Arr(apps))
            .pretty()
            + "\n"
    }

    fn canonicalize(&self, query: AnalysisQuery) -> Result<AnalysisQuery, ApiError> {
        let spec = hpcapps::find_config(&query.app, &query.config).ok_or_else(|| {
            ApiError::NotFound(format!(
                "no configuration {}/{} (see /v1/apps)",
                query.app, query.config
            ))
        })?;
        match query.model.as_str() {
            "session" | "commit" | "both" => {}
            other => {
                return Err(ApiError::BadRequest(format!(
                    "model must be session, commit, or both (got {other:?})"
                )))
            }
        }
        let faults = FaultPlan::parse(&query.faults).map_err(ApiError::BadRequest)?;
        faults
            .check_ranks(query.ranks)
            .map_err(|e| ApiError::BadRequest(format!("faults: {e}")))?;
        Ok(AnalysisQuery {
            // The registry's canonical halves, so aliases share a key and
            // `analyze` resolves the same spec again.
            app: spec.app.to_string(),
            config: spec.config_segment(),
            faults: faults.describe(),
            ..query
        })
    }

    fn analyze(&self, query: &AnalysisQuery) -> Result<AnalysisViews, ApiError> {
        let spec = hpcapps::find_config(&query.app, &query.config).ok_or_else(|| {
            ApiError::NotFound(format!("no configuration {}/{}", query.app, query.config))
        })?;
        let cfg = ReportCfg {
            nranks: query.ranks,
            seed: query.seed,
            ..ReportCfg::default()
        };
        // Parse cannot fail here: canonicalize already round-tripped it.
        let faults = FaultPlan::parse(&query.faults).map_err(ApiError::BadRequest)?;
        match analyze_isolated(&cfg, spec, &spec.params, &faults) {
            ConfigOutcome::Ok(run) => Ok(render_views(query, &run)),
            ConfigOutcome::Degraded { name, error, .. } => Err(ApiError::Degraded {
                config: name,
                error,
            }),
        }
    }
}

/// The query-echo header every view carries, so responses are
/// self-describing.
fn query_fields(query: &AnalysisQuery, run: &AnalyzedRun) -> Json {
    Json::obj()
        .field("config", run.name())
        .field("app", query.app.as_str())
        .field("iolib", run.spec.iolib)
        .field("ranks", query.ranks)
        .field("seed", query.seed)
        .field("model", query.model.as_str())
        .field("faults", query.faults.as_str())
}

fn marks_json(marks: (bool, bool, bool, bool)) -> Json {
    Json::Arr(vec![
        Json::Bool(marks.0),
        Json::Bool(marks.1),
        Json::Bool(marks.2),
        Json::Bool(marks.3),
    ])
}

fn conflict_json(report: &ConflictReport) -> Json {
    Json::obj()
        .field("waw_same", report.waw_same)
        .field("waw_distinct", report.waw_distinct)
        .field("raw_same", report.raw_same)
        .field("raw_distinct", report.raw_distinct)
        .field("total", report.total())
        .field("table4_marks", marks_json(report.table4_marks()))
}

fn pattern_json(stats: &PatternStats) -> Json {
    Json::obj()
        .field("consecutive", stats.consecutive)
        .field("monotonic", stats.monotonic)
        .field("random", stats.random)
        .field("random_pct", stats.pct(AccessClass::Random))
}

/// Render all three endpoint bodies from one analyzed run.
fn render_views(query: &AnalysisQuery, run: &AnalyzedRun) -> AnalysisViews {
    let verdict = query_fields(query, run)
        .field("required_model", run.verdict.required.name())
        .field("required_model_strict", run.verdict.required_strict.name())
        .field("same_process_conflicts", run.verdict.same_process_conflicts)
        .field("session_conflicts", run.session.total())
        .field("commit_conflicts", run.commit.total())
        .field("race_free", run.hb.racy == 0)
        .field("partial_trace", run.completeness.is_partial())
        .pretty()
        + "\n";

    let mut conflicts = query_fields(query, run);
    if query.model == "session" || query.model == "both" {
        conflicts = conflicts.field("session", conflict_json(&run.session));
    }
    if query.model == "commit" || query.model == "both" {
        conflicts = conflicts.field("commit", conflict_json(&run.commit));
    }
    let conflicts = conflicts.pretty() + "\n";

    let patterns = query_fields(query, run)
        .field("table3_label", run.highlevel.label())
        .field("local", pattern_json(&run.local))
        .field("global", pattern_json(&run.global))
        .field("records", run.records)
        .pretty()
        + "\n";

    AnalysisViews {
        verdict,
        conflicts,
        patterns,
    }
}
