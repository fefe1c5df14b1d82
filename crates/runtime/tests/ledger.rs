//! Negative tests: prove the request ledger's leak check actually fires.
//!
//! Each test *seeds* a leaked request and asserts the ledger reports it
//! and the check at `World` drop panics — in debug builds, the only ones
//! it runs in; a release build must drop the same `World` quietly. A
//! checker that only ever sees clean runs is untested; these are the
//! runs that must fail.

use mtmpi_net::NetModel;
use mtmpi_runtime::{MsgData, RequestLedger, VciMap, World};
use mtmpi_sim::{LockKind, LockModelParams, Platform, ThreadDesc, VirtualPlatform};
use mtmpi_topology::presets::nehalem_cluster_scaled;
use mtmpi_topology::CoreId;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn platform(nodes: u32, seed: u64) -> Arc<dyn Platform> {
    Arc::new(VirtualPlatform::new(
        nehalem_cluster_scaled(nodes),
        NetModel::qdr(),
        LockModelParams::default(),
        seed,
    ))
}

fn spawn(p: &Arc<dyn Platform>, name: &str, node: u32, f: impl FnOnce() + Send + 'static) {
    p.spawn(
        ThreadDesc {
            name: name.into(),
            node,
            core: CoreId(0),
        },
        Box::new(f),
    );
}

/// Drop `w`, and return the message of the World-drop leak check's panic
/// in a debug build. The check is compiled out of release builds, where
/// the drop must not panic and this returns `None`.
fn drop_world(w: World) -> Option<String> {
    let dropped = catch_unwind(AssertUnwindSafe(move || drop(w)));
    if !cfg!(debug_assertions) {
        assert!(dropped.is_ok(), "a release build runs no leak check");
        return None;
    }
    let panic = dropped.expect_err("World drop must panic on the leaked request");
    Some(panic.downcast_ref::<String>().cloned().unwrap_or_else(|| {
        panic
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .unwrap_or_default()
    }))
}

/// Seed a leaked posted receive (irecv dropped without wait) and assert
/// the World-drop leak check panics with the ledger report.
#[test]
fn seeded_leaked_request_is_detected_at_world_drop() {
    let p = platform(1, 7);
    let w = World::builder(p.clone())
        .ranks(1)
        .build()
        .expect("valid world");
    let r0 = w.rank(0).world_comm();
    spawn(&p, "leaker", 0, move || {
        // Post a receive that no sender will ever match, then drop the
        // handle without wait/test: Issue → Post, never Complete/Free.
        let req = r0.irecv(None, Some(99));
        drop(req);
    });
    p.run();
    let ledger = w.stats(0).ledger;
    assert_eq!(ledger.issued(), 1);
    assert_eq!(ledger.posted(), 1);
    assert!(
        ledger.check_quiescent().is_err(),
        "leak must be visible in the ledger"
    );
    if let Some(msg) = drop_world(w) {
        assert!(
            msg.contains("leaked requests") && msg.contains("never completed"),
            "unexpected panic message: {msg}"
        );
    }
}

/// Seed a leaked fan-out wildcard receive: under a multi-VCI map an
/// `ANY_SOURCE` receive cannot resolve its shard, so it is posted on
/// every shard and accounted on the process-level wildcard ledger, not
/// on any shard's. Dropping it unwaited must still panic at World drop.
#[test]
fn seeded_leaked_wildcard_request_is_detected_at_world_drop() {
    let p = platform(1, 10);
    let w = World::builder(p.clone())
        .ranks(1)
        .vci_map(VciMap::by_tag(2))
        .build()
        .expect("valid world");
    assert_eq!(w.vci_count(), 2);
    let r0 = w.rank(0).world_comm();
    spawn(&p, "leaker", 0, move || {
        let req = r0.irecv(None, Some(99));
        drop(req);
    });
    p.run();
    for vci in 0..2 {
        assert_eq!(
            w.vci_stats(0, vci).ledger.check_quiescent(),
            Ok(()),
            "a fan-out receive leaves every shard ledger balanced"
        );
    }
    if let Some(msg) = drop_world(w) {
        assert!(
            msg.contains("leaked wildcard (multi-VCI) requests") && msg.contains("never completed"),
            "unexpected panic message: {msg}"
        );
    }
}

/// Seed a completed-but-unfreed request (isend dropped without wait):
/// the eager send completes at issue time, so this leak is a dangling
/// (completed, never freed) request.
#[test]
fn seeded_unfreed_send_is_detected_at_world_drop() {
    let p = platform(2, 8);
    let w = World::builder(p.clone())
        .ranks(2)
        .rank_on_node(|r| r)
        .build()
        .expect("valid world");
    let (a, b) = (w.rank(0).world_comm(), w.rank(1).world_comm());
    spawn(&p, "s", 0, move || {
        let req = a.isend(1, 4, MsgData::Bytes(vec![9]));
        drop(req); // leak: never waited
    });
    spawn(&p, "r", 1, move || {
        let m = b.recv(Some(0), Some(4));
        assert_eq!(m.data.as_bytes(), &[9]);
    });
    p.run();
    let err = w.stats(0).ledger.check_quiescent().unwrap_err();
    assert_eq!(
        err.unfreed(),
        1,
        "the send completed eagerly but was never freed"
    );
    assert_eq!(err.uncompleted(), 0);
    if let Some(msg) = drop_world(w) {
        assert!(
            msg.contains("1 completed but never freed"),
            "unexpected panic message: {msg}"
        );
    }
}

/// The complement: a clean exchange leaves every rank's ledger quiescent
/// and the World drops without complaint.
#[test]
fn clean_exchange_is_quiescent() {
    let p = platform(2, 9);
    let w = World::builder(p.clone())
        .ranks(2)
        .rank_on_node(|r| r)
        .lock(LockKind::Ticket)
        .build()
        .expect("valid world");
    let (a, b) = (w.rank(0).world_comm(), w.rank(1).world_comm());
    spawn(&p, "s", 0, move || {
        let r = a.isend(1, 1, MsgData::Bytes(vec![1, 2]));
        let _ = a.wait(r);
    });
    spawn(&p, "r", 1, move || {
        let r = b.irecv(Some(0), Some(1));
        let m = b.wait(r);
        assert_eq!(m.data.as_bytes(), &[1, 2]);
    });
    p.run();
    for rank in 0..2 {
        let l = w.stats(rank).ledger;
        assert_eq!(l.check_quiescent(), Ok(()), "rank {rank}: {l:?}");
        assert_eq!(l.in_flight(), 0);
    }
    drop(w); // must not panic
}

/// Ledger-level seeded leak, no runtime involved: the checker fires on
/// the raw counters too.
#[test]
fn ledger_only_seeded_leak() {
    let mut l = RequestLedger::new();
    l.note_issued();
    l.note_posted();
    l.note_completed();
    // never freed
    let err = l.check_quiescent().unwrap_err();
    assert_eq!(err.unfreed(), 1);
    assert_eq!(l.dangling(), 1);
}
