//! Integration tests for the simulated MPI runtime: determinism, barrier
//! semantics, message matching, collectives, skew, deadlock detection,
//! and fault injection.

use mpisim::{
    BarrierInfo, EventKind, ExecModel, FaultKind, FaultPlan, IoFault, MpiEvent, OpClass, Rank,
    SimError, World, WorldCfg,
};

/// A fault-free run's output with the per-rank results unwrapped.
struct Ran<T> {
    results: Vec<T>,
    events: Vec<Vec<MpiEvent>>,
    final_time_ns: u64,
    skews_ns: Vec<i64>,
}

fn run_cfg<T: Send>(cfg: &WorldCfg, f: impl Fn(Rank) -> T + Sync) -> Ran<T> {
    let out = World::run(cfg, f).expect("well-formed program");
    Ran {
        results: out
            .results
            .into_iter()
            .map(|v| v.expect("fault-free rank"))
            .collect(),
        events: out.events,
        final_time_ns: out.final_time_ns,
        skews_ns: out.skews_ns,
    }
}

fn run<T: Send>(nranks: u32, seed: u64, f: impl Fn(Rank) -> T + Sync) -> Ran<T> {
    run_cfg(&WorldCfg::new(nranks, seed), f)
}

#[test]
fn single_rank_trivial_program() {
    let out = run(1, 7, |r| {
        r.compute(100);
        r.rank()
    });
    assert_eq!(out.results, vec![0]);
    assert!(out.final_time_ns >= 100);
}

#[test]
fn barrier_all_ranks_same_exit_time() {
    let out = run(8, 1, |r| {
        r.compute(10 * (r.rank() as u64 + 1));
        r.barrier()
    });
    let exit = out.results[0].t_exit;
    for info in &out.results {
        assert_eq!(info.t_exit, exit, "all participants share one exit time");
        assert!(info.t_enter < exit, "barrier entered before it completes");
        assert_eq!(info.epoch, 0);
    }
}

#[test]
fn barrier_no_rank_exits_before_all_enter() {
    // Rank i enters the barrier only after computing i*1000 ns, so the last
    // entry is at >= 7000; no exit may precede that.
    let out = run(8, 3, |r| {
        r.compute(1000 * r.rank() as u64 + 1);
        r.barrier()
    });
    let max_enter = out.results.iter().map(|b| b.t_enter).max().unwrap();
    for info in &out.results {
        assert!(info.t_exit > max_enter);
    }
}

#[test]
fn consecutive_barriers_have_increasing_epochs() {
    let out = run(4, 9, |r| {
        let a = r.barrier();
        let b = r.barrier();
        let c = r.barrier();
        (a.epoch, b.epoch, c.epoch)
    });
    for &(a, b, c) in &out.results {
        assert_eq!((a, b, c), (0, 1, 2));
    }
}

#[test]
fn exactly_one_participant_sees_each_epoch_released() {
    // The last live arrival releases an epoch, and it alone is told so,
    // whichever executor runs the ranks.
    for exec in [ExecModel::Tasks, ExecModel::Threads] {
        let out = run_cfg(&WorldCfg::new(5, 23).with_exec(exec), |r| {
            (0..4u64)
                .map(|k| {
                    r.compute(100 * ((r.rank() as u64 + k) % 5 + 1));
                    r.barrier()
                })
                .collect::<Vec<_>>()
        });
        for epoch in 0..4 {
            let infos: Vec<BarrierInfo> = out.results.iter().map(|b| b[epoch]).collect();
            let released: Vec<&BarrierInfo> = infos.iter().filter(|b| b.released).collect();
            assert_eq!(released.len(), 1, "{exec:?} epoch {epoch}: {infos:?}");
            let last_enter = infos.iter().map(|b| b.t_enter).max();
            assert_eq!(
                Some(released[0].t_enter),
                last_enter,
                "{exec:?} epoch {epoch}: the last arrival releases"
            );
        }
    }
}

#[test]
fn send_recv_delivers_payload() {
    let out = run(2, 5, |r| {
        if r.rank() == 0 {
            r.send(1, 42, vec![1, 2, 3]);
            Vec::new()
        } else {
            r.recv(0, 42).0
        }
    });
    assert_eq!(out.results[1], vec![1, 2, 3]);
}

#[test]
fn send_recv_fifo_per_channel() {
    let out = run(2, 5, |r| {
        if r.rank() == 0 {
            for i in 0..10u8 {
                r.send(1, 7, vec![i]);
            }
            Vec::new()
        } else {
            (0..10).map(|_| r.recv(0, 7).0[0]).collect()
        }
    });
    assert_eq!(out.results[1], (0..10).collect::<Vec<u8>>());
}

#[test]
fn messages_on_different_tags_do_not_cross() {
    let out = run(2, 11, |r| {
        if r.rank() == 0 {
            r.send(1, 1, vec![b'a']);
            r.send(1, 2, vec![b'b']);
            (0, 0)
        } else {
            // Receive in the opposite order of posting.
            let b = r.recv(0, 2).0[0];
            let a = r.recv(0, 1).0[0];
            (a, b)
        }
    });
    assert_eq!(out.results[1], (b'a', b'b'));
}

#[test]
fn send_happens_before_matching_recv() {
    let out = run(2, 13, |r| {
        if r.rank() == 0 {
            r.compute(500);
            r.send(1, 0, vec![0]);
        } else {
            r.recv(0, 0);
        }
    });
    let send = out.events[0]
        .iter()
        .find(|e| matches!(e.kind, EventKind::Send { .. }))
        .unwrap();
    let recv = out.events[1]
        .iter()
        .find(|e| matches!(e.kind, EventKind::Recv { .. }))
        .unwrap();
    assert_eq!(send.message_seq(), recv.message_seq());
    assert!(
        send.t_start < recv.t_end,
        "send starts before recv completes"
    );
}

#[test]
fn bcast_delivers_to_all() {
    let out = run(8, 17, |r| {
        let data = if r.rank() == 3 { vec![9, 9, 9] } else { vec![] };
        r.bcast(3, &data)
    });
    for v in &out.results {
        assert_eq!(*v, vec![9, 9, 9]);
    }
}

#[test]
fn gather_collects_in_rank_order() {
    let out = run(6, 19, |r| r.gather(2, &[r.rank() as u8]));
    for (rank, res) in out.results.iter().enumerate() {
        if rank == 2 {
            let bufs = res.as_ref().unwrap();
            for (i, b) in bufs.iter().enumerate() {
                assert_eq!(b, &vec![i as u8]);
            }
        } else {
            assert!(res.is_none());
        }
    }
}

#[test]
fn allgather_same_result_everywhere() {
    let out = run(5, 23, |r| r.allgather(&[r.rank() as u8 * 2]));
    let expected: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i * 2]).collect();
    for res in &out.results {
        assert_eq!(res.iter().collect::<Vec<_>>(), expected);
    }
}

#[test]
fn allreduce_and_exscan() {
    let out = run(8, 29, |r| {
        let sum = r.allreduce_sum_u64(r.rank() as u64 + 1);
        let max = r.allreduce_max_u64(r.rank() as u64);
        let pre = r.exscan_sum_u64(10);
        (sum, max, pre)
    });
    for (rank, &(sum, max, pre)) in out.results.iter().enumerate() {
        assert_eq!(sum, 36);
        assert_eq!(max, 7);
        assert_eq!(pre, 10 * rank as u64);
    }
}

#[test]
fn deterministic_mode_reproduces_event_log() {
    let program = |r: Rank| {
        for step in 0..5 {
            r.compute(100 + r.rank() as u64);
            if r.rank() != 0 {
                r.send(0, step, vec![r.rank() as u8]);
            } else {
                for src in 1..r.nranks() {
                    r.recv(src, step);
                }
            }
            r.barrier();
        }
    };
    let a = run(6, 77, program);
    let b = run(6, 77, program);
    assert_eq!(a.events, b.events, "same seed ⇒ identical event log");
    assert_eq!(a.final_time_ns, b.final_time_ns);

    let c = run(6, 78, program);
    // A different seed permutes the interleaving; the logs should differ in
    // timing even though the program is the same.
    assert_ne!(
        a.events, c.events,
        "different seed should yield a different interleaving"
    );
}

#[test]
fn skew_bounded_and_deterministic() {
    let cfg = WorldCfg::new(16, 99).with_max_skew_ns(20_000);
    let w1 = run_cfg(&cfg, |r| r.skew_ns());
    let w2 = run_cfg(&cfg, |r| r.skew_ns());
    assert_eq!(w1.results, w2.results);
    assert!(
        w1.results.iter().any(|&s| s != 0),
        "some rank should be skewed"
    );
    for &s in &w1.results {
        assert!(s.unsigned_abs() <= 20_000);
    }
    assert_eq!(w1.skews_ns, w1.results);
}

#[test]
fn zero_skew_option() {
    let cfg = WorldCfg::new(4, 1).with_max_skew_ns(0);
    let out = run_cfg(&cfg, |r| r.skew_ns());
    assert!(out.results.iter().all(|&s| s == 0));
}

#[test]
fn local_clock_applies_skew() {
    let cfg = WorldCfg::new(2, 5).with_max_skew_ns(1000);
    let out = run_cfg(&cfg, |r| (r.skew_ns(), r.local_clock(1_000_000)));
    for &(skew, local) in &out.results {
        assert_eq!(local as i64, 1_000_000 + skew);
    }
}

#[test]
fn deadlock_is_an_error_not_a_panic() {
    // The classic abort case: rank 0 receives from a rank that never
    // sends. `World::run` must return `Err(Deadlock)` without any panic
    // unwinding through this caller frame — no catch_unwind here.
    let res = World::run(&WorldCfg::new(2, 3), |r| {
        if r.rank() == 0 {
            r.recv(1, 0); // rank 1 never sends
        }
    });
    match res {
        Err(SimError::Deadlock { blocked }) => assert_eq!(blocked, vec![0]),
        other => panic!("expected deadlock error, got {other:?}"),
    }
}

#[test]
fn deadlock_detected_when_rank_skips_barrier() {
    let res = World::run(&WorldCfg::new(3, 3), |r| {
        if r.rank() != 2 {
            r.barrier(); // rank 2 exits without participating
        }
    });
    match res {
        Err(SimError::Deadlock { blocked }) => assert_eq!(blocked, vec![0, 1]),
        other => panic!("expected deadlock error, got {other:?}"),
    }
}

#[test]
fn timed_op_advances_clock_monotonically() {
    let out = run(2, 41, |r| {
        let (a0, a1, ()) = r.timed_op(mpisim::OpClass::FsWrite, 4096, |_| {});
        let (b0, b1, ()) = r.timed_op(mpisim::OpClass::FsRead, 0, |_| {});
        (a0, a1, b0, b1)
    });
    for &(a0, a1, b0, b1) in &out.results {
        assert!(a0 < a1);
        assert!(a1 <= b0, "ops of one rank are totally ordered");
        assert!(b0 < b1);
    }
}

#[test]
fn events_are_per_rank_and_time_ordered() {
    let out = run(4, 55, |r| {
        r.barrier();
        if r.rank() == 0 {
            r.send(1, 0, vec![1]);
        } else if r.rank() == 1 {
            r.recv(0, 0);
        }
        r.barrier();
    });
    for (rank, evs) in out.events.iter().enumerate() {
        let mut last = 0;
        for e in evs {
            assert_eq!(e.rank as usize, rank);
            assert!(e.t_start >= last, "per-rank events are time ordered");
            last = e.t_start;
        }
    }
}

#[test]
fn large_world_smoke() {
    // The scale study runs 1024 ranks; make sure the runtime handles a
    // few hundred threads with barriers and a reduction.
    let out = run(256, 4, |r| {
        r.barrier();
        r.allreduce_sum_u64(1)
    });
    for &v in &out.results {
        assert_eq!(v, 256);
    }
}

#[test]
fn scatter_delivers_each_part() {
    let out = run(6, 61, |r| {
        if r.rank() == 2 {
            let parts: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i * 3]).collect();
            r.scatter(2, Some(&parts))
        } else {
            r.scatter(2, None)
        }
    });
    for (rank, part) in out.results.iter().enumerate() {
        assert_eq!(*part, vec![rank as u8 * 3]);
    }
}

#[test]
fn sendrecv_ring_exchange_does_not_deadlock() {
    // Every rank sends to its right neighbour and receives from its left —
    // the classic pattern that deadlocks with unbuffered blocking sends.
    let out = run(8, 71, |r| {
        let n = r.nranks();
        let right = (r.rank() + 1) % n;
        let left = (r.rank() + n - 1) % n;
        r.sendrecv(right, 5, vec![r.rank() as u8], left, 5)
    });
    for (rank, got) in out.results.iter().enumerate() {
        let left = (rank + 8 - 1) % 8;
        assert_eq!(*got, vec![left as u8]);
    }
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

#[test]
fn injected_crash_is_reported_and_survivors_finish() {
    // Rank 1 crashes at its very first op; the others still complete
    // their barriers because a crashed rank counts as departed.
    let cfg = WorldCfg::new(4, 11).with_faults(FaultPlan::none().with_crash(1, 0));
    let out = World::run(&cfg, |r| {
        r.compute(50);
        r.barrier();
        r.compute(50);
        r.barrier();
        r.rank()
    })
    .expect("crashes are recoverable");
    assert!(out.results[1].is_none(), "crashed rank returns no result");
    assert!(matches!(
        out.faults[1],
        Some(SimError::RankCrashed { rank: 1, .. })
    ));
    for r in [0usize, 2, 3] {
        assert_eq!(out.results[r], Some(r as u32));
        assert!(out.faults[r].is_none());
    }
}

#[test]
#[should_panic(expected = "rank 5 out of range (world size 4)")]
fn fault_site_outside_the_world_is_rejected() {
    // A site must name a rank of the world: rank 5 of 4 is an error, not
    // a crash of the last rank.
    let cfg = WorldCfg::new(4, 11).with_faults(FaultPlan::none().with_crash(5, 0));
    let _ = World::run(&cfg, |r| r.barrier());
}

#[test]
fn recv_from_crashed_peer_cascades_not_deadlocks() {
    // Rank 0 waits for a message rank 1 will never send (it crashes
    // first). Without crash awareness this would be a deadlock; instead
    // rank 0 fail-stops with PeerCrashed and the run completes.
    let cfg = WorldCfg::new(2, 13).with_faults(FaultPlan::none().with_crash(1, 0));
    let out = World::run(&cfg, |r| {
        if r.rank() == 0 {
            r.recv(1, 9);
        } else {
            r.compute(10);
            r.send(0, 9, vec![1]);
        }
    })
    .expect("peer crash cascades, not deadlocks");
    assert!(matches!(
        out.faults[1],
        Some(SimError::RankCrashed { rank: 1, .. })
    ));
    assert!(matches!(
        out.faults[0],
        Some(SimError::PeerCrashed { rank: 0, peer: 1 })
    ));
}

#[test]
fn crash_while_peers_wait_in_barrier_releases_them() {
    // Ranks 0..3 arrive at the barrier; rank 3 crashes on its way there.
    // The three waiters must release rather than deadlock.
    let cfg = WorldCfg::new(4, 17).with_faults(FaultPlan::none().with_crash(3, 1));
    let out = World::run(&cfg, |r| {
        r.compute(10 * (r.rank() as u64 + 1));
        r.barrier();
        r.rank()
    })
    .expect("barrier releases once the crash departs");
    for r in 0..3usize {
        assert_eq!(out.results[r], Some(r as u32));
    }
    assert!(out.results[3].is_none());
}

#[test]
fn an_epoch_a_crash_releases_is_released_by_no_survivor() {
    // Ranks 0-2 each send rank 3 a message and enter the barrier of epoch 1
    // in the same burst (a holder keeps the turn from its send until it
    // parks), so once rank 3 has taken all three messages its peers are
    // all waiting there. Rank 3 then fail-stops: its departure releases
    // epoch 1, and no survivor is told it did. A streaming consumer retires
    // that epoch's state at the next released epoch, or at finalize.
    for exec in [ExecModel::Tasks, ExecModel::Threads] {
        let out = World::run(&WorldCfg::new(4, 29).with_exec(exec), |r| {
            let first = r.barrier();
            if r.rank() == 3 {
                for src in 0..3 {
                    r.recv(src, 0);
                }
                r.fail_stop("gives up".to_string());
            }
            r.send(3, 0, vec![]);
            [first, r.barrier(), r.barrier()]
        })
        .expect("a crash is recoverable");
        assert!(matches!(
            out.faults[3],
            Some(SimError::RankCrashed { rank: 3, .. })
        ));
        let survivors: Vec<[BarrierInfo; 3]> = out.results[..3]
            .iter()
            .map(|b| b.expect("survivor"))
            .collect();
        let released = |e: usize| {
            assert!(survivors.iter().all(|b| b[e].epoch == e as u64));
            survivors.iter().filter(|b| b[e].released).count()
        };
        assert_eq!(released(1), 0, "{exec:?}: the crash released epoch 1");
        assert_eq!(released(2), 1, "{exec:?}: an arrival released epoch 2");
    }
}

#[test]
fn io_fault_is_consumed_by_probe() {
    let cfg =
        WorldCfg::new(2, 19).with_faults(FaultPlan::none().with(0, 0, FaultKind::Io(IoFault::Eio)));
    let out = World::run(&cfg, |r| {
        // The fault is armed for op index >= 0; the probe consumes it once.
        let first = r.take_io_fault();
        let second = r.take_io_fault();
        r.compute(10);
        (first, second)
    })
    .expect("io faults are surfaced, not fatal");
    assert_eq!(
        out.results[0],
        Some((Some(IoFault::Eio), None)),
        "rank 0 sees the fault exactly once"
    );
    assert_eq!(out.results[1], Some((None, None)));
}

#[test]
fn delayed_message_is_received_after_its_delivery_time() {
    // The send is delayed by 5 ms: the receive that takes it starts no
    // earlier than the delivery time, and the run ends after it.
    const DELAY: u64 = 5_000_000;
    let cfg = WorldCfg::new(2, 23).with_faults(FaultPlan::none().with(
        0,
        0,
        FaultKind::MsgDelay { delay_ns: DELAY },
    ));
    let out = World::run(&cfg, |r| {
        if r.rank() == 0 {
            r.send(1, 4, vec![7]);
            0
        } else {
            let (payload, info) = r.recv(0, 4);
            assert_eq!(payload, vec![7]);
            info.t_end
        }
    })
    .expect("delayed delivery completes");
    let recv_end = out.results[1].expect("receiver result");
    assert!(
        recv_end >= DELAY,
        "receive completed at {recv_end}, before the {DELAY}ns delivery delay"
    );
    assert!(out.final_time_ns >= DELAY);
}

#[test]
fn identical_fault_plans_reproduce_identical_runs() {
    let plan =
        FaultPlan::none()
            .with_crash(2, 7)
            .with(1, 3, FaultKind::MsgDelay { delay_ns: 1000 });
    let program = |r: Rank| {
        for step in 0..4u32 {
            r.compute(100);
            let right = (r.rank() + 1) % r.nranks();
            let left = (r.rank() + r.nranks() - 1) % r.nranks();
            r.sendrecv(right, step, vec![r.rank() as u8], left, step);
            r.barrier();
        }
        r.now()
    };
    let cfg = WorldCfg::new(4, 29).with_faults(plan);
    let a = World::run(&cfg, program).expect("run a");
    let b = World::run(&cfg, program).expect("run b");
    assert_eq!(a.events, b.events, "same (seed, plan) ⇒ identical events");
    assert_eq!(a.final_time_ns, b.final_time_ns);
    assert_eq!(
        a.faults.iter().flatten().count(),
        b.faults.iter().flatten().count()
    );
}

#[test]
fn seeded_plan_campaign_smoke_never_panics() {
    // A miniature fault campaign: every (seed, kind) cell must complete
    // without a panic escaping World::run.
    let kinds = [
        FaultKind::Crash,
        FaultKind::Io(IoFault::Eintr),
        FaultKind::Io(IoFault::Enospc),
        FaultKind::MsgDelay { delay_ns: 10_000 },
    ];
    for seed in 0..4u64 {
        for kind in kinds {
            let plan = FaultPlan::seeded(seed, 4, kind, 2, 16);
            let cfg = WorldCfg::new(4, seed).with_faults(plan);
            let res = World::run(&cfg, |r| {
                for _ in 0..6 {
                    r.compute(10);
                    let _ = r.take_io_fault();
                    r.barrier();
                }
            });
            // A cascade may fail individual ranks but the run reports it.
            let out = res.expect("fault campaign cell must not deadlock");
            for (r, f) in out.faults.iter().enumerate() {
                if let Some(e) = f {
                    assert!(
                        matches!(
                            e,
                            SimError::RankCrashed { .. } | SimError::PeerCrashed { .. }
                        ),
                        "rank {r}: unexpected fault {e}"
                    );
                }
            }
        }
    }
}

#[test]
fn genuine_panic_drains_world_then_propagates() {
    // A bug (non-SimAbort panic) in one rank must not hang the other
    // ranks on the scheduler token: the world drains, then the payload
    // re-surfaces from World::run on the caller's thread.
    let cfg = WorldCfg::new(4, 99);
    let caught = std::panic::catch_unwind(|| {
        let _ = World::run(&cfg, |r| {
            r.compute(10);
            if r.rank() == 2 {
                panic!("application bug on rank 2");
            }
            for _ in 0..4 {
                r.compute(10);
                r.barrier();
            }
        });
    });
    let payload = caught.expect_err("the bug must propagate");
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .unwrap_or("<non-str>");
    assert_eq!(msg, "application bug on rank 2");
}

#[test]
fn gather_in_rank_order_completes_past_a_delayed_sender() {
    // Rank 0 receives in rank order and rank 1's send is delayed, while
    // rank 2's message already waits in rank 0's mailbox: every message
    // still arrives, and rank 0 receives rank 1's no earlier than its
    // delivery time.
    let plan = FaultPlan::none().with(
        1,
        1,
        FaultKind::MsgDelay {
            delay_ns: 5_000_000,
        },
    );
    let cfg = WorldCfg::new(4, 7).with_faults(plan);
    let out = World::run(&cfg, |r| {
        if r.rank() == 0 {
            let mut total = 0usize;
            for src in 1..4 {
                let (payload, _) = r.recv(src, 9);
                total += payload.len();
            }
            total
        } else {
            // Ranks 2 and 3 send before rank 1 gets scheduled far enough
            // for its delayed send to matter; ordering is irrelevant —
            // only rank 1's message is delayed.
            r.compute(10 * r.rank() as u64);
            r.send(0, 9, vec![r.rank() as u8; r.rank() as usize]);
            0
        }
    })
    .expect("no deadlock: the delayed message is delivered");
    assert_eq!(out.results[0], Some(1 + 2 + 3));
    assert!(out.final_time_ns >= 5_000_000, "the run outlasts the delay");
}

#[test]
fn receiver_parked_on_a_delayed_message_completes_while_peers_compute() {
    // Rank 0 parks in a receive before rank 1's delayed send; ranks 1 and
    // 2 then compute far past the delivery time before reaching the final
    // barrier. The parked receiver gets the message and joins the barrier:
    // a delayed message never turns a deliverable program into a deadlock.
    let plan = FaultPlan::none().with(
        1,
        1,
        FaultKind::MsgDelay {
            delay_ns: 1_000_000,
        },
    );
    let cfg = WorldCfg::new(3, 11).with_faults(plan);
    let out = World::run(&cfg, |r| {
        let info = if r.rank() == 0 {
            let (payload, _) = r.recv(1, 5);
            payload.len()
        } else {
            if r.rank() == 1 {
                r.send(0, 5, vec![0xAB; 4]);
            }
            // Both senders outlive the delay in simulated time.
            for _ in 0..64 {
                r.compute(100_000);
            }
            0
        };
        r.barrier();
        info
    })
    .expect("no deadlock: delivery time passes while peers still run");
    assert_eq!(out.results[0], Some(4));
    assert!(out.final_time_ns >= 1_000_000);
}

#[test]
fn delayed_then_undelayed_message_on_one_channel_arrive_in_order() {
    // Only rank 0's first send is delayed. The second, undelayed one does
    // not overtake it, and both receives start no earlier than the first
    // message's delivery time.
    const DELAY: u64 = 3_000_000;
    let cfg = WorldCfg::new(2, 5).with_faults(FaultPlan::none().with(
        0,
        0,
        FaultKind::MsgDelay { delay_ns: DELAY },
    ));
    let out = World::run(&cfg, |r| {
        if r.rank() == 0 {
            let first = r.send(1, 3, vec![1]);
            r.send(1, 3, vec![2]);
            vec![(first.t_end + DELAY, 0)]
        } else {
            (0..2)
                .map(|_| {
                    let (payload, info) = r.recv(0, 3);
                    (info.t_start, payload[0] as u64)
                })
                .collect()
        }
    })
    .expect("both messages are delivered");
    let visible_at = out.results[0].as_ref().expect("sender")[0].0;
    let got = out.results[1].as_ref().expect("receiver");
    assert_eq!(got.iter().map(|&(_, p)| p).collect::<Vec<_>>(), [1, 2]);
    for &(t_start, payload) in got {
        assert!(
            t_start >= visible_at,
            "message {payload} received at {t_start}, before {visible_at}"
        );
    }
}

#[test]
fn now_reads_the_end_of_the_last_operation() {
    // After each kind of operation, a rank reads that operation's end (a
    // barrier's common exit), whichever executor runs it.
    for exec in [ExecModel::Tasks, ExecModel::Threads] {
        let out = run_cfg(&WorldCfg::new(3, 13).with_exec(exec), |r| {
            let mut pairs = Vec::new();
            let (_, t1, ()) = r.timed_op(OpClass::Compute, 500 * (r.rank() as u64 + 1), |_| {});
            pairs.push((t1, r.now()));
            pairs.push((r.barrier().t_exit, r.now()));
            let right = (r.rank() + 1) % r.nranks();
            let left = (r.rank() + r.nranks() - 1) % r.nranks();
            pairs.push((r.send(right, 1, vec![0; 64]).t_end, r.now()));
            pairs.push((r.recv(left, 1).1.t_end, r.now()));
            pairs.push((r.barrier().t_exit, r.now()));
            pairs
        });
        for (rank, pairs) in out.results.iter().enumerate() {
            for (k, &(end, now)) in pairs.iter().enumerate() {
                assert_eq!(now, end, "{exec:?} rank {rank} after op {k}");
            }
        }
    }
}

#[test]
fn a_rank_woken_from_a_barrier_reads_a_constant_clock_while_another_bursts() {
    // Rank 1 can only reach the barrier after rank 0's message, so it is
    // always the last arrival: it keeps the turn and bursts on, under
    // threads concurrently with rank 0, which is still running between
    // operations. Rank 0's clock reads stay at the barrier exit throughout.
    let cfg = WorldCfg::new(2, 3).with_exec(ExecModel::Threads);
    let out = run_cfg(&cfg, |r| {
        if r.rank() == 0 {
            r.send(1, 0, vec![0]);
        } else {
            r.recv(0, 0);
        }
        let t_exit = r.barrier().t_exit;
        if r.rank() == 0 {
            let reads: Vec<u64> = (0..200)
                .map(|_| {
                    std::thread::yield_now();
                    r.now()
                })
                .collect();
            assert!(reads.iter().all(|&t| t == t_exit), "{reads:?} vs {t_exit}");
        } else {
            for _ in 0..2_000 {
                r.compute(10);
            }
            assert_eq!(r.now(), t_exit + 20_000);
        }
        r.barrier().t_exit
    });
    assert_eq!(out.results[0], out.results[1]);
}
