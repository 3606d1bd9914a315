//! Cross-crate integration tests: the full paper pipeline from simulated
//! execution through analysis, including the properties the paper's
//! methodology depends on (determinism, skew robustness, scale
//! invariance) and the Table 1 ⋈ Table 4 join (which PFS can run which
//! application).

use pfs_semantics::prelude::*;

fn run_and_resolve(
    id: AppId,
    nranks: u32,
    seed: u64,
    skew_ns: u64,
) -> (RunOutcome, recorder::ResolvedTrace) {
    let spec = hpcapps::spec(id);
    let cfg = RunConfig::new(nranks, seed).with_max_skew_ns(skew_ns);
    let out = run_app(&cfg, |ctx| spec.run(ctx));
    let adjusted = recorder::adjust::apply(&out.trace);
    let resolved = recorder::offset::resolve(&adjusted);
    (out, resolved)
}

#[test]
fn whole_pipeline_is_deterministic() {
    let (a, _) = run_and_resolve(AppId::LammpsAdios, 8, 5, 20_000);
    let (b, _) = run_and_resolve(AppId::LammpsAdios, 8, 5, 20_000);
    assert_eq!(a.trace.encode(), b.trace.encode());
    let (c, _) = run_and_resolve(AppId::LammpsAdios, 8, 6, 20_000);
    assert_ne!(a.trace.encode(), c.trace.encode());
}

#[test]
fn conflicts_robust_to_clock_skew() {
    // The same program with zero skew and with the paper's 20 µs bound:
    // after barrier adjustment, conflict marks and pattern labels agree.
    for id in [AppId::FlashFbs, AppId::Nwchem, AppId::LammpsNetcdf] {
        let (_, clean) = run_and_resolve(id, 8, 11, 0);
        let (_, skewed) = run_and_resolve(id, 8, 11, 20_000);
        for model in [AnalysisModel::Session, AnalysisModel::Commit] {
            let a = detect_conflicts(&clean, model);
            let b = detect_conflicts(&skewed, model);
            assert_eq!(
                a.table4_marks(),
                b.table4_marks(),
                "{id:?}/{model:?}: skew changed the conflict marks"
            );
        }
        let ha = highlevel::classify(&clean, 8);
        let hb = highlevel::classify(&skewed, 8);
        assert_eq!(ha.label(), hb.label());
    }
}

#[test]
fn adjustment_is_what_makes_skew_harmless() {
    // With an absurd skew (5 ms, far beyond the paper's 20 µs) the *raw*
    // traces interleave wrongly, but barrier adjustment restores the
    // conflict analysis.
    let spec = hpcapps::spec(AppId::FlashFbs);
    let cfg = RunConfig::new(8, 3).with_max_skew_ns(5_000_000);
    let out = run_app(&cfg, |ctx| spec.run(ctx));

    let adjusted = recorder::adjust::apply(&out.trace);
    let resolved = detect_conflicts(
        &recorder::offset::resolve(&adjusted),
        AnalysisModel::Session,
    );
    let expected = hpcapps::spec(AppId::FlashFbs).expected_session.as_tuple();
    assert_eq!(
        resolved.table4_marks(),
        expected,
        "adjusted analysis is correct"
    );

    // Quantify the raw misordering the adjustment repaired: the global
    // merge order of the raw and adjusted traces differ.
    let raw_order: Vec<(u32, &'static str)> = out
        .trace
        .merged_by_time()
        .iter()
        .map(|r| (r.rank, r.func.name()))
        .collect();
    let adj_order: Vec<(u32, &'static str)> = adjusted
        .merged_by_time()
        .iter()
        .map(|r| (r.rank, r.func.name()))
        .collect();
    assert_ne!(
        raw_order, adj_order,
        "5 ms of skew must visibly scramble the raw order"
    );
}

#[test]
fn verdicts_join_with_the_pfs_registry() {
    let registry = PfsRegistry::default();

    // FLASH needs commit semantics: UnifyFS yes, NFS no, Lustre yes.
    let (_, resolved) = run_and_resolve(AppId::FlashFbs, 8, 2, 20_000);
    let v = required_model(
        &detect_conflicts(&resolved, AnalysisModel::Session),
        &detect_conflicts(&resolved, AnalysisModel::Commit),
    );
    assert_eq!(v.required, ConsistencyModel::Commit);
    let ok: Vec<&str> = registry
        .compatible(v.required, v.same_process_conflicts)
        .iter()
        .map(|e| e.name)
        .collect();
    assert!(ok.contains(&"UnifyFS"));
    assert!(ok.contains(&"Lustre"));
    assert!(!ok.contains(&"NFS"));

    // LAMMPS-POSIX is clean: even NFS (session) qualifies.
    let (_, resolved) = run_and_resolve(AppId::LammpsPosix, 8, 2, 20_000);
    let v = required_model(
        &detect_conflicts(&resolved, AnalysisModel::Session),
        &detect_conflicts(&resolved, AnalysisModel::Commit),
    );
    assert_eq!(v.required, ConsistencyModel::Session);
    assert!(!v.same_process_conflicts);
    let ok: Vec<&str> = registry
        .compatible(v.required, v.same_process_conflicts)
        .iter()
        .map(|e| e.name)
        .collect();
    assert!(ok.contains(&"NFS"));
    assert!(
        ok.contains(&"BurstFS"),
        "no same-process conflicts ⇒ even BurstFS works"
    );

    // NWChem has same-process conflicts: BurstFS is excluded, NFS is fine.
    let (_, resolved) = run_and_resolve(AppId::Nwchem, 8, 2, 20_000);
    let v = required_model(
        &detect_conflicts(&resolved, AnalysisModel::Session),
        &detect_conflicts(&resolved, AnalysisModel::Commit),
    );
    assert_eq!(v.required, ConsistencyModel::Session);
    assert!(v.same_process_conflicts);
    let ok: Vec<&str> = registry
        .compatible(v.required, v.same_process_conflicts)
        .iter()
        .map(|e| e.name)
        .collect();
    assert!(ok.contains(&"NFS"));
    assert!(!ok.contains(&"BurstFS"));
}

#[test]
fn scale_invariance_of_patterns_and_conflicts() {
    // §6.1: the paper ran 64 and 1024 ranks and found identical patterns;
    // we compare 16 vs 32 ranks for a representative subset. (The lower
    // bound matters: below ~2 ranks per Silo file group the N-M pattern
    // degenerates to N-N, just as it would in a real MACSio run.)
    use report_gen::{scale, ReportCfg};
    let base = ReportCfg {
        nranks: 0,
        seed: 9,
        max_skew_ns: 20_000,
    };
    let specs: Vec<_> = [
        AppId::FlashFbs,
        AppId::Enzo,
        AppId::Macsio,
        AppId::HaccIoPosix,
    ]
    .iter()
    .map(|&id| hpcapps::spec_ref(id))
    .collect();
    for row in scale::rank_sweep(&base, &specs, 16, &[32]) {
        assert!(
            row.stable(),
            "{}: pattern/conflicts differ across scales ({} vs {})",
            row.config,
            row.baseline_label,
            row.cells[0].1
        );
    }
}

#[test]
fn trace_roundtrips_through_codec_and_tsv() {
    let (out, _) = run_and_resolve(AppId::Qmcpack, 8, 21, 20_000);
    let encoded = out.trace.encode();
    let decoded = TraceSet::decode(&encoded).expect("decode");
    assert_eq!(decoded, out.trace);
    let tsv = recorder::tsv::to_tsv(&out.trace);
    assert_eq!(tsv.lines().count(), out.trace.total_records() + 1);
}

#[test]
fn app_traces_survive_codec_roundtrip_with_identical_analysis() {
    // Save/reload each representative app trace through the binary codec
    // and verify the reloaded trace yields byte-identical analysis — what
    // the tracetool capture → analyze workflow depends on.
    for id in [
        AppId::FlashFbs,
        AppId::LammpsNetcdf,
        AppId::Macsio,
        AppId::Lbann,
    ] {
        let spec = hpcapps::spec(id);
        let out = run_app(&RunConfig::new(8, 19), |ctx| spec.run(ctx));
        let decoded = TraceSet::decode(&out.trace.encode()).expect("roundtrip");
        assert_eq!(decoded, out.trace);
        let a = detect_conflicts(
            &recorder::offset::resolve(&recorder::adjust::apply(&out.trace)),
            AnalysisModel::Session,
        );
        let b = detect_conflicts(
            &recorder::offset::resolve(&recorder::adjust::apply(&decoded)),
            AnalysisModel::Session,
        );
        assert_eq!(a.table4_marks(), b.table4_marks(), "{id:?}");
        assert_eq!(a.total(), b.total());
    }
}

#[test]
fn three_seeded_schedules_reproduce_the_same_marks() {
    // The paper's real traces came from nondeterministic executions; only
    // program synchronization (not a lockstep scheduler) made the results
    // stable. What is checked here is narrower: three fixed schedules of
    // FLASH (seeds 100, 101, 102 — each seed is one reproducible
    // interleaving) give the Table 4 marks the paper reports. The test
    // that holds "marks do not depend on the interleaving" across grant
    // granularities is `sched_robustness::burst_grants_match_per_op_lockstep_oracle`.
    let expected = hpcapps::spec(AppId::FlashFbs).expected_session.as_tuple();
    for attempt in 0..3u64 {
        let spec = hpcapps::spec(AppId::FlashFbs);
        let cfg = RunConfig::new(8, 100 + attempt);
        let out = run_app(&cfg, |ctx| spec.run(ctx));
        let resolved = recorder::offset::resolve(&recorder::adjust::apply(&out.trace));
        let session = detect_conflicts(&resolved, AnalysisModel::Session);
        assert_eq!(
            session.table4_marks(),
            expected,
            "seed {}: this schedule changed the conflict marks",
            100 + attempt
        );
        assert_eq!(
            detect_conflicts(&resolved, AnalysisModel::Commit).total(),
            0
        );
    }
}
