//! The streaming incremental pipeline changes nothing observable: for
//! every application configuration, every PFS semantics model, and the
//! fault campaigns, [`analyze_incremental`] produces results byte-identical
//! to the batch pipeline ([`analyze_with_faults`]) — and the rendered
//! report artifacts are byte-identical too. A streamed run keeps no
//! trace, and counts exactly the records of the trace the same run keeps
//! without a sink.

use std::sync::Arc;

use hpcapps::AppSpec;
use iolibs::{run_app_result, FaultPlan, RunConfig, RunSink, SinkHandle};
use pfssim::SemanticsModel;
use recorder::{adjust, offset, Layer, Record};
use report_gen::{analyze_incremental, analyze_with_faults, figures, tables, ReportCfg};
use semantics_core::conflict::{detect_conflicts, AnalysisModel};
use semantics_core::hb::validate_conflicts;
use semantics_core::incremental::StreamingAnalyzer;
use semantics_core::patterns::{global_pattern, highlevel, local_pattern};

struct Tee(Arc<StreamingAnalyzer>);

impl RunSink for Tee {
    fn push(&self, rank: u32, records: &[Record], frontier: u64) {
        self.0.push(rank, records, frontier);
    }
    fn rank_done(&self, rank: u32) {
        self.0.rank_done(rank);
    }
    fn epoch_released(&self, epoch: u64) {
        self.0.epoch_released(epoch);
    }
    fn assembly_remap(&self, remap: &[u32]) {
        self.0.set_remap(remap);
    }
}

fn assert_runs_equal(inc: &report_gen::AnalyzedRun, batch: &report_gen::AnalyzedRun, tag: &str) {
    assert_eq!(inc.name(), batch.name(), "{tag}");
    assert_eq!(inc.records, batch.records, "{tag}: record count");
    assert_eq!(
        inc.skew_spread_ns, batch.skew_spread_ns,
        "{tag}: skew spread"
    );
    assert_eq!(inc.resolution, batch.resolution, "{tag}: resolution");
    assert_eq!(inc.session, batch.session, "{tag}: session report");
    assert_eq!(inc.commit, batch.commit, "{tag}: commit report");
    assert_eq!(inc.local, batch.local, "{tag}: local pattern");
    assert_eq!(inc.global, batch.global, "{tag}: global pattern");
    assert_eq!(inc.census, batch.census, "{tag}: census");
    assert_eq!(inc.hb, batch.hb, "{tag}: hb validation");
    assert_eq!(
        format!("{:?}", inc.highlevel),
        format!("{:?}", batch.highlevel),
        "{tag}: Table 3 classification"
    );
    assert_eq!(inc.verdict.required, batch.verdict.required, "{tag}");
    assert_eq!(
        inc.verdict.required_strict, batch.verdict.required_strict,
        "{tag}"
    );
    assert_eq!(
        inc.completeness.is_partial(),
        batch.completeness.is_partial(),
        "{tag}"
    );
}

/// Every configuration (Table 4 plus variants — the full registry),
/// streaming vs batch, and the rendered artifacts on top.
#[test]
fn incremental_identical_all_apps() {
    let cfg = ReportCfg {
        nranks: 8,
        seed: 5,
        max_skew_ns: 20_000,
    };
    let none = FaultPlan::none();
    let mut inc_runs = Vec::new();
    let mut batch_runs = Vec::new();
    for spec in hpcapps::specs() {
        let inc = analyze_incremental(&cfg, spec, &spec.params, &none).expect("incremental run");
        let batch = analyze_with_faults(&cfg, spec, &spec.params, &none).expect("batch run");
        assert_runs_equal(&inc, &batch, spec.config_name().as_str());
        inc_runs.push(inc);
        batch_runs.push(batch);
    }
    assert_eq!(tables::table3(&inc_runs), tables::table3(&batch_runs));
    assert_eq!(tables::table4(&inc_runs), tables::table4(&batch_runs));
    assert_eq!(figures::fig1(&inc_runs), figures::fig1(&batch_runs));
    assert_eq!(figures::fig1_csv(&inc_runs), figures::fig1_csv(&batch_runs));
    assert_eq!(figures::fig3(&inc_runs), figures::fig3(&batch_runs));
    assert_eq!(figures::fig3_csv(&inc_runs), figures::fig3_csv(&batch_runs));
}

/// Run one spec with the analyzer attached as a live sink, and again
/// without a sink, and compare the stream against the batch pipeline over
/// the trace the sinkless run keeps.
fn streaming_vs_batch(spec: &'static AppSpec, semantics: SemanticsModel, faults: &FaultPlan) {
    let tag = format!(
        "{} [{semantics}] faults={}",
        spec.config_name(),
        faults.describe()
    );
    let nranks = 8;
    let run_cfg = RunConfig::new(nranks, 5)
        .with_semantics(semantics)
        .with_faults(faults.clone());
    let run = |cfg: &RunConfig| {
        run_app_result(cfg, |ctx| spec.run_with(ctx, &spec.params)).expect("run failed")
    };
    let analyzer = Arc::new(StreamingAnalyzer::new(nranks));
    let streamed = run(&run_cfg
        .clone()
        .with_sink(SinkHandle::new(Arc::new(Tee(Arc::clone(&analyzer))))));
    let inc = analyzer.finalize();
    assert_eq!(
        streamed.trace.total_records(),
        0,
        "{tag}: a streamed run keeps no trace"
    );
    let outcome = run(&run_cfg);
    assert_eq!(streamed.records, outcome.records, "{tag}: record count");
    assert_eq!(
        outcome.records,
        outcome.trace.total_records() as u64,
        "{tag}: kept trace length"
    );

    let adjusted = adjust::apply(&outcome.trace);
    let resolved = offset::resolve(&adjusted);
    let session = detect_conflicts(&resolved, AnalysisModel::Session);
    let commit = detect_conflicts(&resolved, AnalysisModel::Commit);
    assert_eq!(inc.resolution, resolved.counts(), "{tag}: resolution");
    assert_eq!(inc.session, session, "{tag}: session report");
    assert_eq!(inc.commit, commit, "{tag}: commit report");
    let hb = validate_conflicts(&adjusted, &session);
    assert_eq!(inc.hb, hb, "{tag}: happens-before validation");
    assert_eq!(inc.local, local_pattern(&resolved), "{tag}: local pattern");
    assert_eq!(
        inc.global,
        global_pattern(&resolved),
        "{tag}: global pattern"
    );
    assert_eq!(
        format!("{:?}", inc.highlevel),
        format!("{:?}", highlevel::classify(&resolved, nranks)),
        "{tag}: Table 3 classification"
    );
}

/// Every configuration under every PFS semantics engine: the engine
/// changes what the applications read (and thus the trace), so each is an
/// independent identity check.
#[test]
fn incremental_identical_all_semantics() {
    let none = FaultPlan::none();
    for spec in hpcapps::specs() {
        for semantics in [
            SemanticsModel::Strong,
            SemanticsModel::Commit,
            SemanticsModel::Session,
            SemanticsModel::Eventual,
        ] {
            streaming_vs_batch(spec, semantics, &none);
        }
    }
}

/// The CI smoke slice (`scripts/ci.sh` runs exactly this test in release
/// mode): three applications under the two paper-central semantics
/// models, streaming byte-identical to batch. The full matrix is
/// [`incremental_identical_all_semantics`].
#[test]
fn smoke_three_apps_two_models() {
    let none = FaultPlan::none();
    let specs: Vec<_> = hpcapps::specs()
        .iter()
        .filter(|s| s.in_table4)
        .take(3)
        .collect();
    for spec in specs {
        for semantics in [SemanticsModel::Session, SemanticsModel::Commit] {
            streaming_vs_batch(spec, semantics, &none);
        }
    }
}

/// The record count a run that keeps no trace reports (the served
/// `records` field) is the length of the trace the at-rest pipeline
/// keeps: for every configuration of the Table 4 suite, and for a crashed
/// run whose trace is a salvaged prefix.
#[test]
fn record_count_matches_the_recorded_trace() {
    let cfg = ReportCfg {
        nranks: 8,
        seed: 5,
        max_skew_ns: 20_000,
    };
    let count = |spec: &'static AppSpec, faults: &FaultPlan| {
        let streamed = analyze_incremental(&cfg, spec, &spec.params, faults).expect("streamed");
        let at_rest = analyze_with_faults(&cfg, spec, &spec.params, faults).expect("at rest");
        let tag = spec.config_name();
        assert_eq!(
            streamed.records,
            at_rest.trace().total_records() as u64,
            "{tag}: streamed record count"
        );
        streamed
    };
    let suite: Vec<&'static AppSpec> = hpcapps::specs()
        .iter()
        .filter(|s| s.in_table4 || s.id == hpcapps::AppId::FlashNofbs)
        .collect();
    assert_eq!(suite.len(), 24);
    for spec in suite {
        count(spec, &FaultPlan::none());
    }
    let flash = hpcapps::spec_ref(hpcapps::AppId::FlashFbs);
    let crashed = count(
        flash,
        &FaultPlan::parse("crash@r1:op40").expect("plan parses"),
    );
    assert!(crashed.completeness.is_partial(), "rank 1 crashed");
}

/// Degraded runs: crashes, transient I/O errors, lost flushes, message
/// delays. Salvaged trace prefixes must analyze identically too.
#[test]
fn incremental_identical_under_faults() {
    let cfg = ReportCfg {
        nranks: 8,
        seed: 5,
        max_skew_ns: 20_000,
    };
    let campaigns = [
        "crash@r1:op40",
        "crash@r0:op25,crash@r3:op60",
        "io-eio@r2:op15,lost-flush@r1:op30",
        "io-enospc@r4:op20,msg-delay@r1:op10:5000000ns",
    ];
    let specs: Vec<_> = hpcapps::specs()
        .iter()
        .filter(|s| s.in_table4)
        .take(6)
        .collect();
    for text in campaigns {
        let faults = FaultPlan::parse(text).expect("campaign parses");
        for spec in &specs {
            let tag = format!("{} faults={text}", spec.config_name());
            let inc = match analyze_incremental(&cfg, spec, &spec.params, &faults) {
                Ok(r) => r,
                // Deadlocks degrade identically on both paths; nothing to
                // compare beyond that.
                Err(e) => {
                    match analyze_with_faults(&cfg, spec, &spec.params, &faults) {
                        Ok(_) => panic!("{tag}: batch succeeded where streaming failed"),
                        Err(b) => assert_eq!(e.to_string(), b.to_string(), "{tag}"),
                    }
                    continue;
                }
            };
            let batch = analyze_with_faults(&cfg, spec, &spec.params, &faults).expect("batch run");
            assert_runs_equal(&inc, &batch, &tag);
        }
    }
}

/// Chunking-insensitivity property: however a rank's record stream is cut
/// into chunks (size 1, 7, 64, or the whole trace at once), the analyzer
/// produces identical results — chunk boundaries are invisible.
#[test]
fn chunking_insensitive() {
    let spec = hpcapps::find_config("flash", "hdf5").expect("flash/hdf5 registered");
    let run_cfg = RunConfig::new(8, 5);
    let outcome =
        run_app_result(&run_cfg, |ctx| spec.run_with(ctx, &spec.params)).expect("run failed");
    let adjusted = adjust::apply(&outcome.trace);
    let resolved = offset::resolve(&adjusted);
    let session = detect_conflicts(&resolved, AnalysisModel::Session);
    let commit = detect_conflicts(&resolved, AnalysisModel::Commit);

    // The per-rank POSIX streams, exactly what a run with a sink delivers.
    let posix: Vec<Vec<Record>> = adjusted
        .ranks
        .iter()
        .map(|recs| {
            recs.iter()
                .filter(|r| r.layer == Layer::Posix)
                .copied()
                .collect()
        })
        .collect();
    for chunk in [1usize, 7, 64, usize::MAX] {
        let analyzer = StreamingAnalyzer::new(adjusted.nranks());
        for (r, records) in posix.iter().enumerate() {
            if records.is_empty() {
                analyzer.rank_done(r as u32);
                continue;
            }
            for c in records.chunks(chunk.min(records.len())) {
                let frontier = c.last().expect("nonempty chunk").t_start;
                analyzer.push(r as u32, c, frontier);
            }
            analyzer.rank_done(r as u32);
        }
        let inc = analyzer.finalize();
        assert_eq!(inc.resolution, resolved.counts(), "chunk={chunk}");
        assert_eq!(inc.session, session, "chunk={chunk}");
        assert_eq!(inc.commit, commit, "chunk={chunk}");
        assert_eq!(inc.local, local_pattern(&resolved), "chunk={chunk}");
        assert_eq!(inc.global, global_pattern(&resolved), "chunk={chunk}");
    }
}
