//! Rendering tests for the report generators: every artifact renders, and
//! the rendered text carries the headline facts.

use report_gen::{analyze, analyze_all_threaded, figures, hbval, matrix, tables, ReportCfg};

fn cfg() -> ReportCfg {
    ReportCfg {
        nranks: 8,
        seed: 5,
        max_skew_ns: 20_000,
    }
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
    let run = analyze(&cfg(), hpcapps::spec_ref(hpcapps::AppId::FlashFbs));
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

/// The reproduction gate as a test: Tables 3 and 4 rendered the way
/// `report all` renders them (64 ranks, seed 2021) are the checked-in
/// `reports/` bytes.
#[test]
fn paper_scale_tables_match_checked_in_reports() {
    let runs = analyze_all_threaded(&ReportCfg::default(), false, 0);
    let reports = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../reports");
    for (name, rendered) in [
        ("table3.txt", tables::table3(&runs)),
        ("table4.txt", tables::table4(&runs)),
    ] {
        let golden = std::fs::read_to_string(reports.join(name)).expect(name);
        assert_eq!(rendered, golden, "{name} no longer matches reports/{name}");
    }
}
