//! End-to-end tests of the virtual-time platform: cooperative scheduling,
//! lock arbitration, mailbox timing, determinism.

use mtmpi_locks::PathClass;
use mtmpi_net::NetModel;
use mtmpi_sim::{LockKind, LockModelParams, Platform, ThreadDesc, VirtualPlatform};
use mtmpi_topology::presets::nehalem_cluster_scaled;
use mtmpi_topology::CoreId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

#[test]
fn compute_advances_virtual_time() {
    let p = platform(1);
    let p2 = p.clone();
    p.spawn(
        desc("t0", 0),
        Box::new(move || {
            assert_eq!(p2.now_ns(), 0);
            p2.compute(12_345);
            assert_eq!(p2.now_ns(), 12_345);
        }),
    );
    let report = p.run();
    assert_eq!(report.end_ns, 12_345);
}

#[test]
fn threads_interleave_in_time_order() {
    let p = platform(2);
    let order = Arc::new(Mutex::new(Vec::<(u64, u32)>::new()));
    let lock = p.lock_create(LockKind::Ticket);
    for i in 0..3u32 {
        let p2 = p.clone();
        let order = order.clone();
        p.spawn(
            desc(&format!("t{i}"), i),
            Box::new(move || {
                // Thread i starts working at t = i * 100.
                p2.compute(u64::from(i) * 100);
                p2.lock_acquire(lock, PathClass::Main);
                order.lock().unwrap().push((p2.now_ns(), i));
                p2.compute(1_000); // hold the lock for 1 µs
                p2.lock_release(lock, PathClass::Main);
            }),
        );
    }
    p.run();
    let order = order.lock().unwrap();
    let ids: Vec<u32> = order.iter().map(|&(_, i)| i).collect();
    assert_eq!(ids, vec![0, 1, 2], "FIFO arrival order under ticket lock");
    // Each holder entered after the previous released (1 µs holds).
    assert!(order[1].0 >= order[0].0 + 1_000);
    assert!(order[2].0 >= order[1].0 + 1_000);
}

#[test]
fn mailbox_delivers_after_network_delay() {
    let p = platform(3);
    let src = p.register_endpoint(0);
    let dst = p.register_endpoint(1);
    let got_at = Arc::new(AtomicU64::new(0));
    {
        let p2 = p.clone();
        p.spawn(
            desc("sender", 0),
            Box::new(move || {
                p2.compute(500);
                p2.net_send(src, dst, 1024, Box::new(7u32));
            }),
        );
    }
    {
        let p2 = p.clone();
        let got_at = got_at.clone();
        p.spawn(
            desc("receiver", 4),
            Box::new(move || {
                loop {
                    let pkts = p2.net_poll(dst);
                    if let Some(pkt) = pkts.into_iter().next() {
                        assert_eq!(*pkt.downcast::<u32>().expect("payload type"), 7);
                        got_at.store(p2.now_ns(), Ordering::Relaxed);
                        return;
                    }
                    p2.compute(200); // poll every 200ns
                }
            }),
        );
    }
    p.run();
    let t = got_at.load(Ordering::Relaxed);
    let wire = NetModel::qdr().timing(false, 1024).total_ns();
    assert!(
        t >= 500 + wire,
        "message visible only after the wire time: got {t}, wire {wire}"
    );
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let p = platform(42);
        let lock = p.lock_create(LockKind::Mutex);
        let owners = Arc::new(Mutex::new(Vec::new()));
        for i in 0..4u32 {
            let p2 = p.clone();
            let owners = owners.clone();
            p.spawn(
                desc(&format!("t{i}"), i * 2), // cores 0,2,4,6: both sockets
                Box::new(move || {
                    for _ in 0..200 {
                        p2.lock_acquire(lock, PathClass::Main);
                        owners.lock().unwrap().push(i);
                        p2.compute(300);
                        p2.lock_release(lock, PathClass::Main);
                        p2.compute(100);
                    }
                }),
            );
        }
        let r = p.run();
        let owners = std::mem::take(&mut *owners.lock().unwrap());
        (r.end_ns, owners)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must give bit-identical runs");
}

#[test]
fn mutex_is_biased_ticket_is_not() {
    // 8 threads one per core hammer the CS — the §4.3 experiment in
    // miniature. Think times vary per thread and per iteration (as the
    // MPI runtime's do), so no fixed alternation pattern can form.
    let run = |kind: LockKind| {
        let p = platform(7);
        let lock = p.lock_create(kind);
        for i in 0..8u32 {
            let p2 = p.clone();
            p.spawn(
                desc(&format!("t{i}"), i),
                Box::new(move || {
                    for k in 0..400u64 {
                        p2.lock_acquire(lock, PathClass::Main);
                        p2.compute(250 + (p2.rng_u64() % 200));
                        p2.lock_release(lock, PathClass::Main);
                        // Mostly quick returns; occasionally a long stall
                        // (window refill), like the throughput benchmark.
                        let think = if k % 16 == 15 {
                            5_000
                        } else {
                            100 + (p2.rng_u64() % 300)
                        };
                        p2.compute(think);
                    }
                }),
            );
        }
        let r = p.run();
        r.lock_grants[0].bias()
    };
    let mutex = run(LockKind::Mutex);
    let ticket = run(LockKind::Ticket);
    let mf = mutex.factors().expect("mutex contended");
    let tf = ticket.factors().expect("ticket contended");
    assert!(
        mf.core > 1.4,
        "mutex must re-elect the same thread more than fair: {mf:?}"
    );
    assert!(
        mf.socket > 1.05,
        "mutex must keep the lock on-socket more than fair: {mf:?}"
    );
    assert!(
        tf.core < 0.5,
        "FIFO almost never re-elects the same thread immediately: {tf:?}"
    );
    assert!(
        mf.core > 2.0 * tf.core.max(0.01),
        "mutex core bias must dominate ticket's: {mf:?} vs {tf:?}"
    );
}

#[test]
fn ticket_fairness_in_acquisition_counts() {
    let p = platform(11);
    let lock = p.lock_create(LockKind::Ticket);
    for i in 0..4u32 {
        let p2 = p.clone();
        p.spawn(
            desc(&format!("t{i}"), i),
            Box::new(move || {
                for _ in 0..300 {
                    p2.lock_acquire(lock, PathClass::Main);
                    p2.compute(200);
                    p2.lock_release(lock, PathClass::Main);
                    p2.compute(50);
                }
            }),
        );
    }
    let r = p.run();
    let grants = &r.lock_grants[0];
    assert_eq!(grants.total(), 1200);
    assert!(
        grants.jain_index() > 0.99,
        "ticket must be fair: {}",
        grants.jain_index()
    );
}

#[test]
fn every_grant_of_a_long_run_is_counted() {
    // The lock's statistics are a fold, not a log: nothing about them is
    // bounded by the length of the run.
    let p = platform(19);
    let lock = p.lock_create(LockKind::Mutex);
    for (i, iters) in [(0u32, 249_000u64), (1, 1_000)] {
        let p2 = p.clone();
        p.spawn(
            desc(&format!("t{i}"), i),
            Box::new(move || {
                for _ in 0..iters {
                    p2.lock_acquire(lock, PathClass::Main);
                    p2.compute(20);
                    p2.lock_release(lock, PathClass::Main);
                }
            }),
        );
    }
    let r = p.run();
    let grants = &r.lock_grants[0];
    assert_eq!(grants.total(), 250_000);
    let per_thread = grants.grants_per_thread();
    assert_eq!(per_thread[&0], 249_000);
    assert_eq!(per_thread[&1], 1_000);
    assert_eq!(per_thread.values().sum::<u64>(), grants.total());
}

#[test]
fn mutex_monopolizes_under_asymmetric_return() {
    // One "owner-like" thread returns to the lock immediately; others are
    // slow. The mutex should give the fast returner long runs; Jain drops.
    let run = |kind: LockKind| {
        let p = platform(13);
        let lock = p.lock_create(kind);
        for i in 0..4u32 {
            let p2 = p.clone();
            let think = if i == 0 { 50 } else { 600 };
            p.spawn(
                desc(&format!("t{i}"), i),
                Box::new(move || {
                    for _ in 0..400 {
                        p2.lock_acquire(lock, PathClass::Main);
                        p2.compute(300);
                        p2.lock_release(lock, PathClass::Main);
                        p2.compute(think);
                    }
                }),
            );
        }
        let r = p.run();
        r.lock_grants[0].longest_monopoly()
    };
    let mutex_run = run(LockKind::Mutex);
    let ticket_run = run(LockKind::Ticket);
    assert!(
        mutex_run > ticket_run,
        "mutex monopoly run {mutex_run} must exceed ticket {ticket_run}"
    );
    assert!(
        mutex_run >= 3,
        "fast returner should chain acquisitions: {mutex_run}"
    );
}

#[test]
fn priority_class_is_honored() {
    // Three progress-loop pollers keep the lock saturated; a main-path
    // worker with long think times must jump the queue under the priority
    // lock, so its mean wait is far shorter than under the plain ticket
    // lock (where it queues behind all three pollers every time).
    let run = |kind: LockKind| {
        let p = platform(17);
        let lock = p.lock_create(kind);
        for i in 0..3u32 {
            let p2 = p.clone();
            p.spawn(
                desc(&format!("poller{i}"), i + 1),
                Box::new(move || {
                    for _ in 0..2_000 {
                        p2.lock_acquire(lock, PathClass::Progress);
                        p2.compute(300);
                        p2.lock_release(lock, PathClass::Progress);
                        p2.compute(5);
                    }
                }),
            );
        }
        let p2 = p.clone();
        let waited = Arc::new(AtomicU64::new(0));
        let waited2 = waited.clone();
        p.spawn(
            desc("worker", 0),
            Box::new(move || {
                for _ in 0..300 {
                    let t_req = p2.now_ns();
                    p2.lock_acquire(lock, PathClass::Main);
                    waited2.fetch_add(p2.now_ns() - t_req, Ordering::Relaxed);
                    p2.compute(300);
                    p2.lock_release(lock, PathClass::Main);
                    p2.compute(800);
                }
            }),
        );
        let r = p.run();
        // Worker is tid 3 (spawned last).
        assert_eq!(r.lock_grants[0].grants_per_thread()[&3], 300);
        waited.load(Ordering::Relaxed) as f64 / 300.0
    };
    let prio_wait = run(LockKind::Priority);
    let ticket_wait = run(LockKind::Ticket);
    assert!(
        prio_wait * 1.5 < ticket_wait,
        "main path must wait much less under priority: {prio_wait} vs ticket {ticket_wait}"
    );
}

#[test]
#[should_panic(expected = "deadlock")]
fn deadlock_is_detected() {
    let p = platform(23);
    let lock = p.lock_create(LockKind::Ticket);
    let p2 = p.clone();
    p.spawn(
        desc("selfdead", 0),
        Box::new(move || {
            p2.lock_acquire(lock, PathClass::Main);
            // Re-acquiring a non-reentrant lock we hold: deadlock.
            p2.lock_acquire(lock, PathClass::Main);
        }),
    );
    p.run();
}

#[test]
fn nic_serializes_senders() {
    // Two senders on the same node share the NIC: 2 x 64KB back to back
    // must take at least 2 x inject time.
    let p = platform(29);
    let a = p.register_endpoint(0);
    let b = p.register_endpoint(0);
    let dst = p.register_endpoint(1);
    for (name, ep, core) in [("s0", a, 0u32), ("s1", b, 1)] {
        let p2 = p.clone();
        p.spawn(
            desc(name, core),
            Box::new(move || {
                p2.net_send(ep, dst, 65536, Box::new(0u8));
            }),
        );
    }
    let got = Arc::new(AtomicU64::new(0));
    {
        let p2 = p.clone();
        let got = got.clone();
        p.spawn(
            desc("recv", 4),
            Box::new(move || {
                let mut n = 0;
                while n < 2 {
                    n += p2.net_poll(dst).len();
                    p2.compute(500);
                }
                got.store(p2.now_ns(), Ordering::Relaxed);
            }),
        );
    }
    p.run();
    let m = NetModel::qdr();
    let t = m.timing(false, 65536);
    let both_arrived = got.load(Ordering::Relaxed);
    assert!(
        both_arrived >= 2 * t.inject_ns + t.wire_ns,
        "NIC serialization: {both_arrived} < {}",
        2 * t.inject_ns + t.wire_ns
    );
}
