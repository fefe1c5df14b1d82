//! Fault-injection integration tests: MPI semantics and runtime recovery
//! under a hostile (but deterministic) fabric.
//!
//! The plans here are seeded, so every "the run survives" assertion is a
//! stable fact about one fixed fault pattern, not a flaky probabilistic
//! claim — the same dice roll the same way in CI.

use mtmpi::prelude::*;
use mtmpi_obs::EventKind;
use mtmpi_topology::CoreId;
use std::sync::{Mutex, PoisonError};

const N_MSGS: i32 = 30;

/// Three ranks; ranks 1 and 2 each stream `N_MSGS` tagged messages to
/// rank 0, which drains them all through wildcard `recv(None, None)` and
/// logs `(src, tag)` in arrival order.
fn wildcard_run(seed: u64, plan: Option<FaultPlan>) -> (RunOutcome, Vec<(u32, i32)>) {
    let order = Arc::new(Mutex::new(Vec::new()));
    let log = order.clone();
    let mut exp = Experiment::with_seed(3, seed);
    if let Some(p) = plan {
        exp = exp.faults(p);
    }
    let out = exp.run(
        RunConfig::new(Method::Ticket)
            .nodes(3)
            .ranks_per_node(1)
            .threads_per_rank(1),
        move |ctx| {
            let h = ctx.rank.world_comm();
            if h.rank() == 0 {
                for _ in 0..2 * N_MSGS {
                    let m = h.recv(None, None);
                    log.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((m.src, m.tag));
                }
            } else {
                for i in 0..N_MSGS {
                    h.send(0, i, MsgData::Synthetic(64));
                }
            }
        },
    );
    let v = order.lock().unwrap_or_else(PoisonError::into_inner).clone();
    (out, v)
}

/// MPI non-overtaking: messages from any one source must be received in
/// that source's send order, whatever the interleaving across sources.
fn assert_per_source_order(order: &[(u32, i32)]) {
    assert_eq!(order.len(), 2 * N_MSGS as usize, "all messages arrived");
    for src in [1u32, 2] {
        let tags: Vec<i32> = order
            .iter()
            .filter(|(s, _)| *s == src)
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(
            tags,
            (0..N_MSGS).collect::<Vec<_>>(),
            "messages from rank {src} overtook each other"
        );
    }
}

fn assert_quiescent(out: &RunOutcome) {
    for rank in 0..out.nranks {
        let l = out.stats(rank).ledger;
        assert_eq!(l.in_flight(), 0, "rank {rank} ledger not quiescent: {l:?}");
        assert_eq!(l.freed(), l.completed(), "rank {rank}: {l:?}");
        assert_eq!(l.freed() + l.cancelled(), l.issued(), "rank {rank}: {l:?}");
    }
}

#[test]
fn wildcard_recv_is_non_overtaking_on_a_clean_fabric() {
    let (out, order) = wildcard_run(21, None);
    assert_per_source_order(&order);
    assert_quiescent(&out);
}

#[test]
fn wildcard_recv_is_non_overtaking_under_reordering_faults() {
    // Hold back 25% of transmissions by 300 µs — far past the wire time,
    // so held packets genuinely arrive after their successors and the
    // receiver's sequence-number reorder buffer has to restore order.
    let plan = FaultPlan::reorder(0xD1CE, 250_000, 300_000);
    let (out, order) = wildcard_run(21, Some(plan));
    assert_per_source_order(&order);
    assert_quiescent(&out);
}

/// Two ranks bounce `N_MSGS` messages + a reply + a fin through a lossy,
/// duplicating fabric. The closing handshake keeps both ranks' progress
/// engines alive while the other side's last data packet may still need
/// retransmission (the seed fixes which packets are hit, so termination
/// is deterministic).
fn lossy_run(seed: u64, trace: bool) -> RunOutcome {
    let plan = FaultPlan {
        seed: 0xBAD_CAB1E,
        drop_ppm: 120_000,
        dup_ppm: 120_000,
        ..FaultPlan::none()
    };
    let exp = Experiment::with_seed(2, seed).trace(trace).faults(plan);
    exp.run(
        RunConfig::new(Method::Mutex)
            .nodes(2)
            .ranks_per_node(1)
            .threads_per_rank(1),
        |ctx| {
            let h = ctx.rank.world_comm();
            if h.rank() == 0 {
                for i in 0..N_MSGS {
                    h.send(1, i, MsgData::Synthetic(128));
                }
                let _ = h.recv(Some(1), Some(900)); // reply
                h.send(1, 901, MsgData::Synthetic(1)); // fin
            } else {
                for i in 0..N_MSGS {
                    let m = h.recv(Some(0), Some(i));
                    assert_eq!(m.tag, i);
                }
                h.send(0, 900, MsgData::Synthetic(1));
                let _ = h.recv(Some(0), Some(901));
            }
        },
    )
}

#[test]
fn retransmits_recover_every_message_through_drops_and_dups() {
    let out = lossy_run(22, true);
    assert_quiescent(&out);
    let tl = out.timeline.as_ref().expect("traced run");
    let injected = tl
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::FaultInjected { .. }))
        .count();
    let retransmits = tl
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Retransmit { .. }))
        .count();
    let dup_drops = tl
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::DupDrop { .. }))
        .count();
    // At 12% drop + 12% dup over 60+ transmissions this seed must inject
    // several of each; the run above completing at all proves recovery.
    assert!(injected > 0, "no faults injected — plan not wired through");
    assert!(retransmits > 0, "drops happened but nothing retransmitted");
    assert!(dup_drops > 0, "dups happened but receiver never deduped");
}

#[test]
fn faulty_runs_are_deterministic_for_a_fixed_seed_and_plan() {
    let (a, b) = (lossy_run(23, true), lossy_run(23, true));
    assert_eq!(a.end_ns, b.end_ns, "virtual end time must replay exactly");
    let (ta, tb) = (a.timeline.expect("traced"), b.timeline.expect("traced"));
    assert_eq!(
        chrome_trace(&ta),
        chrome_trace(&tb),
        "same seed + same plan => byte-identical event stream"
    );
}

#[test]
fn inert_plans_leave_the_run_byte_identical() {
    // A zero-probability plan must take the exact fault-free code path:
    // no acks, no sequence numbers, no extra events, same virtual time.
    let run = |plan: Option<FaultPlan>| {
        let mut exp = Experiment::with_seed(2, 24);
        if let Some(p) = plan {
            exp = exp.faults(p);
        }
        exp.run(
            RunConfig::new(Method::Priority)
                .nodes(2)
                .ranks_per_node(1)
                .threads_per_rank(2),
            |ctx| {
                let h = ctx.rank.world_comm();
                let tag = ctx.thread as i32;
                if h.rank() == 0 {
                    for _ in 0..20 {
                        h.send(1, tag, MsgData::Synthetic(64));
                    }
                } else {
                    for _ in 0..20 {
                        let _ = h.recv(Some(0), Some(tag));
                    }
                }
            },
        )
    };
    let plain = run(None);
    let none = run(Some(FaultPlan::none()));
    let zero = run(Some(FaultPlan::drop(99, 0)));
    assert_eq!(plain.end_ns, none.end_ns);
    assert_eq!(plain.end_ns, zero.end_ns);
    for rank in 0..2 {
        let (s, t) = (plain.stats(rank), zero.stats(rank));
        assert_eq!(s.cs_acquisitions, t.cs_acquisitions);
        assert_eq!(s.cs_wait_ns.p99(), t.cs_wait_ns.p99());
    }
}

fn bare_platform(seed: u64) -> Arc<dyn Platform> {
    Arc::new(VirtualPlatform::new(
        presets::nehalem_cluster_scaled(2),
        NetModel::qdr(),
        LockModelParams::default(),
        seed,
    ))
}

fn spawn_on(p: &Arc<dyn Platform>, name: &str, node: u32, f: impl FnOnce() + Send + 'static) {
    p.spawn(
        ThreadDesc {
            name: name.into(),
            node,
            core: CoreId(0),
        },
        Box::new(f),
    );
}

#[test]
fn timeout_surfaces_a_typed_error_and_cancels_the_posted_recv() {
    let p = bare_platform(25);
    let w = World::builder(p.clone())
        .ranks(2)
        .rank_on_node(|r| r)
        .lock(LockKind::Ticket)
        .liveness_limit_ns(3_000_000)
        .build()
        .expect("valid world");
    let (a, b) = (w.rank(0).world_comm(), w.rank(1).world_comm());
    spawn_on(&p, "idle", 0, move || {
        let _ = a; // rank 0 never sends
    });
    spawn_on(&p, "r", 1, move || {
        let req = b.irecv(Some(0), Some(0));
        match b.try_wait(req) {
            Err(MpiError::Timeout {
                rank, waited_ns, ..
            }) => {
                assert_eq!(rank, 1);
                assert!(waited_ns >= 3_000_000);
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    });
    p.run();
    // The timed-out receive was cancelled, not leaked: issued 1,
    // completed 0, cancelled 1 balances the ledger.
    let l = w.stats(1).ledger;
    l.check_quiescent()
        .unwrap_or_else(|r| panic!("leaked through timeout: {r}"));
    assert_eq!(l.cancelled(), 1);
    assert_eq!(l.completed(), 0);
}

#[test]
fn total_packet_loss_escalates_to_peer_unreachable() {
    let p = bare_platform(26);
    let w = World::builder(p.clone())
        .ranks(2)
        .rank_on_node(|r| r)
        .lock(LockKind::Mutex)
        .fault_plan(FaultPlan::drop(7, 1_000_000)) // every transmission lost
        .liveness_limit_ns(5_000_000_000) // backstop well past escalation
        .build()
        .expect("valid world");
    let (a, b) = (w.rank(0).world_comm(), w.rank(1).world_comm());
    spawn_on(&p, "s", 0, move || {
        // The eager send "completes" locally but every copy is dropped;
        // spinning in the subsequent recv drives this rank's retransmit
        // queue until the policy gives up.
        a.send(1, 0, MsgData::Synthetic(64));
        let req = a.irecv(Some(1), Some(1));
        match a.try_wait(req) {
            Err(MpiError::PeerUnreachable {
                rank,
                peer,
                attempts,
            }) => {
                assert_eq!((rank, peer), (0, 1));
                assert!(attempts > 0);
            }
            other => panic!("expected PeerUnreachable, got {other:?}"),
        }
    });
    spawn_on(&p, "idle", 1, move || {
        let _ = b; // rank 1 never hears anything and never replies
    });
    p.run();
    // Send freed, doomed recv cancelled: the ledger still balances.
    let l = w.stats(0).ledger;
    l.check_quiescent()
        .unwrap_or_else(|r| panic!("leaked through escalation: {r}"));
    assert_eq!(l.cancelled(), 1);
}
