//! The event-loop rank executor is a performance lever, not a semantics
//! change: under the deterministic scheduler modes, a world driven as
//! resumable tasks on one OS thread produces **byte-identical** output to
//! the thread-per-rank oracle — raw traces, skews, observation logs,
//! final clock, faults, and everything the analysis derives from them.
//!
//! This is a stronger claim than schedule robustness (`sched_robustness.rs`
//! allows traces to differ and only pins verdicts): the grant sequence is a
//! pure function of `(seed, program, faults)` — the RNG is only consulted
//! when every live rank has declared itself, and the pick is by rank index
//! over the requester set, not by arrival order — so swapping the executor
//! must not move a single timestamp.

use std::sync::Arc;

use hpcapps::AppSpec;
use iolibs::{run_app_result, ExecModel, FaultPlan, RunConfig, RunOutcome, RunSink, SinkHandle};
use pfssim::SemanticsModel;
use recorder::{adjust, offset, Record};
use semantics_core::conflict::{detect_conflicts, AnalysisModel};
use semantics_core::incremental::StreamingAnalyzer;
use semantics_core::patterns::highlevel;
use simerr::SimError;

// `iolibs` re-exports SimError; alias the path for clarity below.
mod simerr {
    pub use iolibs::SimError;
}

/// Run one spec under the given executor; `Err` carries the whole-run
/// failure (deadlock) which must also be identical across executors.
fn run_with(
    spec: &AppSpec,
    exec: ExecModel,
    semantics: SemanticsModel,
    faults: &FaultPlan,
    mode_per_op: bool,
) -> Result<RunOutcome, SimError> {
    let mut cfg = RunConfig::new(8, 5)
        .with_semantics(semantics)
        .with_faults(faults.clone())
        .with_label(spec.config_name());
    cfg.world.exec = exec;
    if mode_per_op {
        cfg.world = cfg.world.per_op_lockstep();
    }
    run_app_result(&cfg, |ctx| spec.run_with(ctx, &spec.params))
}

fn assert_outcomes_identical(tasks: &RunOutcome, threads: &RunOutcome, tag: &str) {
    assert_eq!(tasks.trace, threads.trace, "{tag}: raw trace");
    assert_eq!(
        tasks.observations, threads.observations,
        "{tag}: read observations"
    );
    assert_eq!(
        tasks.final_time_ns, threads.final_time_ns,
        "{tag}: final clock"
    );
    assert_eq!(tasks.faults, threads.faults, "{tag}: terminal faults");
}

fn assert_exec_equivalent(
    spec: &AppSpec,
    semantics: SemanticsModel,
    faults: &FaultPlan,
    mode_per_op: bool,
    tag: &str,
) {
    let tasks = run_with(spec, ExecModel::Tasks, semantics, faults, mode_per_op);
    let threads = run_with(spec, ExecModel::Threads, semantics, faults, mode_per_op);
    match (tasks, threads) {
        (Ok(tasks), Ok(threads)) => {
            assert_outcomes_identical(&tasks, &threads, tag);
            // And the analysis stack on top, down to the verdict inputs.
            let a = adjust::apply(&tasks.trace);
            let b = adjust::apply(&threads.trace);
            assert_eq!(a, b, "{tag}: adjusted trace");
            let ra = offset::resolve(&a);
            let rb = offset::resolve(&b);
            assert_eq!(ra, rb, "{tag}: resolved trace");
            for (model, what) in [
                (AnalysisModel::Session, "session report"),
                (AnalysisModel::Commit, "commit report"),
            ] {
                assert_eq!(
                    detect_conflicts(&ra, model),
                    detect_conflicts(&rb, model),
                    "{tag}: {what}"
                );
            }
            assert_eq!(
                format!("{:?}", highlevel::classify(&ra, 8)),
                format!("{:?}", highlevel::classify(&rb, 8)),
                "{tag}: Table 3 classification"
            );
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{tag}: whole-run failure"),
        (a, b) => panic!(
            "{tag}: executors disagree on run outcome: tasks={:?} threads={:?}",
            a.as_ref().map(|_| "ok"),
            b.as_ref().map(|_| "ok")
        ),
    }
}

/// Every registered configuration (the full registry, not just Table 4),
/// clean runs, default burst grants.
#[test]
fn tasks_identical_to_threads_all_configs() {
    for spec in hpcapps::specs() {
        assert_exec_equivalent(
            spec,
            SemanticsModel::Strong,
            &FaultPlan::none(),
            false,
            spec.config_name().as_str(),
        );
    }
}

/// The semantics engine changes what applications read (and thus the
/// trace), so each model is an independent identity check; per-op lockstep
/// doubles as the maximally-interleaved schedule.
#[test]
fn tasks_identical_to_threads_semantics_and_lockstep() {
    let specs: Vec<_> = hpcapps::specs()
        .iter()
        .filter(|s| s.in_table4)
        .take(4)
        .collect();
    for spec in specs {
        for semantics in [
            SemanticsModel::Commit,
            SemanticsModel::Session,
            SemanticsModel::Eventual,
        ] {
            let tag = format!("{} [{semantics}]", spec.config_name());
            assert_exec_equivalent(spec, semantics, &FaultPlan::none(), false, &tag);
        }
        let tag = format!("{} [per-op lockstep]", spec.config_name());
        assert_exec_equivalent(spec, SemanticsModel::Strong, &FaultPlan::none(), true, &tag);
    }
}

/// Degraded runs: crashes, transient I/O errors, lost flushes, message
/// delays. Fault handling exercises every suspension path the executors
/// implement differently (crash unwinds, receiver cascades, delayed
/// delivery, deadlock declaration) — salvaged prefixes must match byte
/// for byte, and whole-run failures must be the same failure.
#[test]
fn tasks_identical_to_threads_under_fault_campaigns() {
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
            assert_exec_equivalent(spec, SemanticsModel::Strong, &faults, false, &tag);
        }
    }
}

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

/// The live streaming sink (record chunks, epoch releases, rank stops,
/// assembly remap) sees the identical event sequence under both
/// executors: the incremental analyzer's full result set matches.
#[test]
fn tasks_identical_to_threads_with_streaming_sink() {
    let spec = hpcapps::find_config("flash", "hdf5").expect("flash/hdf5 registered");
    let nranks = 8;
    let mut results = Vec::new();
    for exec in [ExecModel::Tasks, ExecModel::Threads] {
        let analyzer = Arc::new(StreamingAnalyzer::new(nranks));
        let mut cfg = RunConfig::new(nranks, 5)
            .with_sink(SinkHandle::new(Arc::new(Tee(Arc::clone(&analyzer)))));
        cfg.world.exec = exec;
        let outcome =
            run_app_result(&cfg, |ctx| spec.run_with(ctx, &spec.params)).expect("run failed");
        results.push((outcome.trace.clone(), analyzer.finalize()));
    }
    let (trace_a, inc_a) = &results[0];
    let (trace_b, inc_b) = &results[1];
    assert_eq!(trace_a, trace_b, "streamed trace");
    assert_eq!(inc_a.resolution, inc_b.resolution, "streamed resolution");
    assert_eq!(inc_a.session, inc_b.session, "streamed session report");
    assert_eq!(inc_a.commit, inc_b.commit, "streamed commit report");
    assert_eq!(inc_a.local, inc_b.local, "streamed local pattern");
    assert_eq!(inc_a.global, inc_b.global, "streamed global pattern");
}

/// A 1024-rank synthetic N-N checkpoint: two event-loop runs with the same
/// seed produce identical bytes — determinism holds at scale, not just at
/// the paper's rank counts. (Thread-per-rank is far too slow at this size
/// to oracle here; the tests above pin equivalence exhaustively at 8
/// ranks.)
#[test]
fn event_loop_deterministic_at_1024_ranks() {
    let nranks: u32 = 1024;
    let run = || {
        let mut cfg = RunConfig::new(nranks, 7).with_label("detcheck-1024");
        cfg.world.exec = ExecModel::Tasks;
        run_app_result(&cfg, |ctx| {
            let r = ctx.rank();
            ctx.mkdir_p("/ckpt").expect("mkdir");
            ctx.barrier();
            let path = format!("/ckpt/rank{r:04}.dat");
            let fd = ctx
                .open(&path, pfssim::OpenFlags::wronly_create_trunc())
                .expect("open");
            let payload = vec![r as u8; 64];
            ctx.pwrite(fd, 0, &payload).expect("pwrite");
            ctx.fsync(fd).expect("fsync");
            ctx.close(fd).expect("close");
            ctx.barrier();
            let _sum = ctx.allreduce_sum_u64(u64::from(r));
        })
        .expect("1024-rank run failed")
    };
    let a = run();
    let b = run();
    assert_eq!(a.trace, b.trace, "1024-rank trace determinism");
    assert_eq!(a.final_time_ns, b.final_time_ns, "1024-rank final clock");
    assert_eq!(a.observations, b.observations, "1024-rank observations");
}
