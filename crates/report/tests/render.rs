//! Rendering tests for the report generators: every artifact renders, and
//! the rendered text carries the headline facts.

use report_gen::{
    analyze, analyze_with_faults, figures, hbval, matrix, tables, AnalyzedRun, ReportCfg,
};

fn cfg() -> ReportCfg {
    ReportCfg {
        nranks: 8,
        seed: 5,
        max_skew_ns: 20_000,
    }
}

/// FLASH-fbs analyzed at rest, so its trace is kept for the renders
/// that read it.
fn flash_at_rest() -> AnalyzedRun {
    let spec = hpcapps::spec_ref(hpcapps::AppId::FlashFbs);
    analyze_with_faults(&cfg(), spec, &spec.params, &iolibs::FaultPlan::none()).expect("clean run")
}

#[test]
fn static_tables_render() {
    let t1 = tables::table1();
    assert!(t1.contains("strong consistency"));
    assert!(t1.contains("UnifyFS"));
    assert!(t1.contains("Gfarm/BB"));
    let t2 = tables::table2();
    assert!(t2.contains("Intel MPI 2018"));
    let t5 = tables::table5();
    assert!(t5.contains("FLASH-fbs"));
    assert!(t5.contains("Sedov"));
}

#[test]
fn measured_tables_and_figures_render() {
    let runs: Vec<_> = [hpcapps::AppId::FlashFbs, hpcapps::AppId::LammpsPosix]
        .iter()
        .map(|&id| analyze(&cfg(), hpcapps::spec_ref(id)))
        .collect();

    let t3 = tables::table3(&runs);
    assert!(t3.contains("M-1 strided cyclic"));
    assert!(t3.contains("1-1 consecutive"));
    assert!(!t3.contains(" ! "), "no Table 3 mismatches: {t3}");

    let t4 = tables::table4(&runs);
    assert!(t4.contains("FLASH-fbs"));
    assert!(t4.contains("commit"), "FLASH requires commit semantics");

    let f1 = figures::fig1(&runs);
    assert!(f1.lines().count() >= 4);
    let csv = figures::fig1_csv(&runs);
    assert!(csv.starts_with("config,"));
    assert_eq!(csv.lines().count(), 3);

    let f3 = figures::fig3(&runs);
    assert!(f3.contains("mkdir"));
    assert!(f3.contains("unused by every configuration"));
}

#[test]
fn fig2_series_and_summary() {
    let run = flash_at_rest();
    let csv = figures::fig2_csv(&run, true);
    assert!(
        csv.lines().count() > 100,
        "one row per checkpoint/plot write"
    );
    assert!(csv.contains("ab_fbs"));
    assert!(csv.contains("c_fbs"), "plot-file panel present");
    let summary = figures::fig2_summary(&run, "fbs");
    assert!(summary.contains("data written by"));
}

#[test]
fn hb_validation_renders_race_free() {
    let run = analyze(&cfg(), hpcapps::spec_ref(hpcapps::AppId::FlashFbs));
    let text = hbval::validate(&run);
    assert!(text.contains("0 racy"));
    assert!(text.contains("skew"));
}

#[test]
fn matrix_row_for_a_clean_app_is_all_zeros() {
    let row = matrix::semantics_matrix_row(&cfg(), hpcapps::spec_ref(hpcapps::AppId::LammpsPosix));
    for cell in &row.cells {
        assert_eq!(cell.stale_reads, 0);
        assert_eq!(cell.diverged_files, 0);
    }
    assert_eq!(row.predicted, semantics_core::ConsistencyModel::Session);
}

#[test]
fn flash_fix_table_tells_the_story() {
    let runs: Vec<_> = [
        hpcapps::AppId::FlashFbs,
        hpcapps::AppId::FlashFbsCollectiveMeta,
        hpcapps::AppId::FlashFbsNoFlush,
    ]
    .iter()
    .map(|&id| analyze(&cfg(), hpcapps::spec_ref(id)))
    .collect();
    let text = tables::flash_fix(&runs);
    assert!(text.contains("FLASH-fbs+collmeta"));
    assert!(text.contains("FLASH-fbs+noflush"));
    assert!(
        text.contains("required: commit"),
        "shipped FLASH needs commit"
    );
    assert!(
        text.contains("required: session"),
        "fixed variants drop to session"
    );
}

/// The reproduction gate as a test: `report all` at the paper's scale
/// (64 ranks, seed 2021) writes exactly the checked-in `reports/` bytes —
/// all 14 artifacts, and its stdout (`reports/reports_all_64.txt`).
#[test]
fn paper_scale_tables_match_checked_in_reports() {
    let reports = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../reports");
    let out = std::env::temp_dir().join(format!("report_render_all_{}", std::process::id()));
    std::fs::remove_dir_all(&out).ok();
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_report"))
        .args(["all", "--quiet", "--out", out.to_str().unwrap()])
        .output()
        .expect("spawn report all");
    assert_eq!(run.status.code(), Some(0));

    let mut names: Vec<String> = std::fs::read_dir(&out)
        .expect("output dir")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "fig1.csv",
            "fig1.txt",
            "fig2_fbs.csv",
            "fig2_nofbs.csv",
            "fig3.csv",
            "fig3.txt",
            "flash_fix.txt",
            "summary.json",
            "table1.txt",
            "table2.txt",
            "table3.txt",
            "table4.txt",
            "table5.txt",
            "validate_hb.txt",
        ]
    );
    let golden = |name: &str| std::fs::read_to_string(reports.join(name)).expect("golden");
    for name in &names {
        let rendered = std::fs::read_to_string(out.join(name)).unwrap();
        assert!(
            rendered == golden(name),
            "{name} no longer matches reports/{name}; regenerate with `report all`"
        );
    }
    assert!(
        String::from_utf8_lossy(&run.stdout) == golden("reports_all_64.txt"),
        "stdout of `report all` no longer matches reports/reports_all_64.txt"
    );
    std::fs::remove_dir_all(&out).ok();
}

/// Run the `report` binary with `args` and compare its stdout with the
/// checked-in `reports/<golden>`.
fn assert_stdout_matches_report(args: &[&str], golden: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../reports")
        .join(golden);
    let want = std::fs::read_to_string(&path).expect("golden");
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("spawn report");
    assert_eq!(run.status.code(), Some(0), "report {args:?}");
    assert!(
        String::from_utf8_lossy(&run.stdout) == want,
        "stdout of `report {}` no longer matches reports/{golden}",
        args.join(" ")
    );
}

#[test]
fn locks_matches_checked_in_report() {
    assert_stdout_matches_report(&["locks", "--quiet"], "locks.txt");
}

#[test]
fn meta_conflicts_matches_checked_in_report() {
    assert_stdout_matches_report(&["meta-conflicts", "--quiet"], "meta_conflicts.txt");
}

#[test]
fn semantics_matrix_matches_checked_in_report() {
    assert_stdout_matches_report(
        &["semantics-matrix", "--ranks", "32", "--quiet"],
        "semantics_matrix.txt",
    );
}

#[test]
fn scale_study_matches_checked_in_report() {
    assert_stdout_matches_report(
        &["scale-study", "--small", "64", "--large", "128", "--quiet"],
        "scale_study.txt",
    );
}
