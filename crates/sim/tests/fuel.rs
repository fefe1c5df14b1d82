//! The determinism contract's failure modes, typed: fuel-bounded
//! execution converting livelock into `SimError::FuelExhausted` with a
//! per-thread blocked-state snapshot, and queue-drain deadlock as
//! `SimError::Deadlock` naming every parked thread and lock.

use mtmpi_locks::PathClass;
use mtmpi_net::NetModel;
use mtmpi_sim::{
    BlockedOn, LockKind, LockModelParams, Platform, SimError, ThreadDesc, VirtualPlatform,
};
use mtmpi_topology::presets::nehalem_cluster_scaled;
use mtmpi_topology::CoreId;
use std::sync::Arc;

fn platform(seed: u64) -> Arc<VirtualPlatform> {
    Arc::new(VirtualPlatform::new(
        nehalem_cluster_scaled(2),
        NetModel::qdr(),
        LockModelParams::default(),
        seed,
    ))
}

fn desc(name: &str, core: u32) -> ThreadDesc {
    ThreadDesc {
        name: name.into(),
        node: 0,
        core: CoreId(core),
    }
}

/// Two receivers polling mailboxes that will never fill: an unbounded
/// run would spin forever. The fuel bound must stop it with a typed
/// error whose snapshot names both threads and the op each is stuck in,
/// plus the mailbox holding the packet nobody polls.
fn seed_livelock(p: &Arc<VirtualPlatform>) {
    let polled = p.register_endpoint(0);
    let ignored = p.register_endpoint(1);
    for (i, name) in ["rx0", "rx1"].iter().enumerate() {
        let p2 = p.clone();
        p.spawn(
            desc(name, i as u32),
            Box::new(move || loop {
                if !p2.net_poll(polled).is_empty() {
                    return;
                }
                p2.compute(200);
            }),
        );
    }
    let p2 = p.clone();
    p.spawn(
        desc("tx", 2),
        Box::new(move || {
            // One packet into the mailbox nobody polls: it must show up
            // in the snapshot as undelivered.
            p2.net_send(polled, ignored, 64, Box::new(1u32));
        }),
    );
}

#[test]
fn livelock_exhausts_fuel_with_blocked_state_snapshot() {
    let p = platform(11);
    seed_livelock(&p);
    p.set_fuel(Some(400));
    let err = p.try_run().expect_err("livelock must not complete");
    let SimError::FuelExhausted {
        fuel,
        executed,
        queued_events,
        threads,
        undelivered,
        ..
    } = &err
    else {
        panic!("expected FuelExhausted, got {err:?}");
    };
    assert_eq!(*fuel, 400);
    assert_eq!(*executed, 400);
    assert!(*queued_events > 0, "spinners keep events queued");
    let names: Vec<&str> = threads.iter().map(|t| t.name.as_str()).collect();
    assert!(
        names.contains(&"rx0") && names.contains(&"rx1"),
        "{names:?}"
    );
    assert!(!names.contains(&"tx"), "finished thread must not appear");
    assert!(
        threads.iter().any(|t| matches!(
            &t.on,
            BlockedOn::Op { desc } if desc.contains("NetPoll")
        )),
        "a spinner should be mid-poll: {threads:?}"
    );
    assert_eq!(*undelivered, vec![(1, 1)], "the ignored mailbox");
    let msg = err.to_string();
    assert!(msg.contains("fuel exhausted") && msg.contains("`rx0`"));
}

#[test]
fn fuel_exhaustion_is_deterministic() {
    let snapshot = |seed| {
        let p = platform(seed);
        seed_livelock(&p);
        p.set_fuel(Some(300));
        p.try_run().expect_err("livelock")
    };
    assert_eq!(snapshot(5), snapshot(5), "same seed + fuel → same error");
}

#[test]
#[should_panic(expected = "fuel exhausted")]
fn run_panics_on_fuel_exhaustion() {
    let p = platform(12);
    seed_livelock(&p);
    p.set_fuel(Some(100));
    let _ = p.run();
}

#[test]
fn abba_deadlock_is_typed_and_names_both_threads() {
    let p = platform(13);
    let l0 = p.lock_create(LockKind::Ticket);
    let l1 = p.lock_create(LockKind::Ticket);
    for (name, first, second) in [("fwd", l0, l1), ("rev", l1, l0)] {
        let p2 = p.clone();
        p.spawn(
            desc(name, if name == "fwd" { 0 } else { 1 }),
            Box::new(move || {
                p2.lock_acquire(first, PathClass::Main);
                p2.compute(1_000);
                p2.lock_acquire(second, PathClass::Main); // ABBA: never granted
                p2.lock_release(second, PathClass::Main);
                p2.lock_release(first, PathClass::Main);
            }),
        );
    }
    let err = p.try_run().expect_err("ABBA must deadlock");
    let SimError::Deadlock { threads, locks, .. } = &err else {
        panic!("expected Deadlock, got {err:?}");
    };
    let names: Vec<&str> = threads.iter().map(|t| t.name.as_str()).collect();
    assert!(
        names.contains(&"fwd") && names.contains(&"rev"),
        "{names:?}"
    );
    assert!(
        threads
            .iter()
            .all(|t| matches!(t.on, BlockedOn::Lock { .. })),
        "both parked in lock queues: {threads:?}"
    );
    assert_eq!(locks.len(), 2, "both locks non-idle: {locks:?}");
    assert!(locks.iter().all(|l| l.waiters.len() == 1));
    let msg = err.to_string();
    assert!(msg.contains("deadlock") && msg.contains("`fwd`") && msg.contains("`rev`"));
}

#[test]
fn fuel_does_not_perturb_a_completing_run() {
    let run = |fuel: Option<u64>| {
        let p = platform(21);
        if let Some(f) = fuel {
            p.set_fuel(Some(f));
        }
        let lock = p.lock_create(LockKind::Mutex);
        for i in 0..3u32 {
            let p2 = p.clone();
            p.spawn(
                desc(&format!("t{i}"), i),
                Box::new(move || {
                    for _ in 0..10 {
                        p2.lock_acquire(lock, PathClass::Main);
                        p2.compute(500);
                        p2.lock_release(lock, PathClass::Main);
                    }
                }),
            );
        }
        p.try_run().expect("bounded but sufficient fuel")
    };
    let unbounded = run(None);
    let bounded = run(Some(1_000_000));
    assert_eq!(unbounded.sched_trace_hash, bounded.sched_trace_hash);
    assert_eq!(unbounded.events, bounded.events);
    assert!(unbounded.events > 0, "events counter must be reported");
}
