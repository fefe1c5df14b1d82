//! Quantum-stepped execution ([`VirtualPlatform::start`] +
//! [`RunHandle::step`]): the serve-layer contract that any quantum
//! series replays the monolithic run byte-identically, that a parked
//! handle resumes on a different OS thread, and that dropping a handle
//! mid-run cancels cleanly — plus the hand-off accounting of the fiber
//! transport under it (`fiber.rs` tests the transport itself): the
//! deterministic hand-off count, every way a quantum can end after a
//! worker ran (budget, fuel, deadlock, panic) reaching the stepper, a
//! worker running its own next event in place replaying the queued path
//! op by op, a hand-off-heavy world pinned to literals, and every abort
//! raised on a fiber the run was handed to surfacing unchanged.

use mtmpi_locks::PathClass;
use mtmpi_net::NetModel;
use mtmpi_sim::{
    BlockedOn, BlockedThread, LockDiag, LockKind, LockModelParams, Platform, RunHandle, SimError,
    StepOutcome, ThreadDesc, VirtualPlatform,
};
use mtmpi_topology::presets::nehalem_cluster_scaled;
use mtmpi_topology::CoreId;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// Counts its drops: one rides in every worker closure, so the count
/// says how many workers have exited (or never ran) and let go of their
/// closure — i.e. were unwound.
struct Exited(Arc<AtomicUsize>);

impl Drop for Exited {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// A small lock-contending workload: enough events to cross several
/// quantum boundaries, deterministic under a fixed seed.
fn spawn_workload(p: &Arc<VirtualPlatform>) {
    spawn_counted_workload(p, &Arc::new(AtomicUsize::new(0)));
}

/// [`spawn_workload`], with `exited` counting the workers that are gone.
fn spawn_counted_workload(p: &Arc<VirtualPlatform>, exited: &Arc<AtomicUsize>) {
    let lock = p.lock_create(LockKind::Ticket);
    for i in 0..4u32 {
        let p2 = p.clone();
        let guard = Exited(exited.clone());
        p.spawn(
            desc(&format!("t{i}"), i),
            Box::new(move || {
                let _guard = guard;
                for round in 0..8u64 {
                    p2.compute(100 + u64::from(i) * 10 + round);
                    p2.lock_acquire(lock, PathClass::Main);
                    p2.compute(500);
                    p2.lock_release(lock, PathClass::Main);
                    p2.yield_now();
                }
            }),
        );
    }
}

#[test]
fn quantum_series_replays_monolithic_run() {
    let p = platform(0xA11CE);
    spawn_workload(&p);
    let reference = p.run();
    assert!(reference.events > 10, "workload too small to step");

    for quantum in [1u64, 3, 7, 64] {
        let p = platform(0xA11CE);
        spawn_workload(&p);
        let mut h = p.start();
        let mut grants = 0u64;
        while let StepOutcome::Pending = h.step(quantum).expect("no deadlock") {
            grants += 1;
        }
        // Every event resumes at most one thread and every call hands
        // control out and back once: the transport never costs more.
        let step_calls = grants + 1;
        assert!(h.handoffs() <= reference.events + 2 * step_calls);
        let report = h.finish();
        assert_eq!(report.events, reference.events, "quantum {quantum}");
        assert_eq!(report.end_ns, reference.end_ns, "quantum {quantum}");
        assert_eq!(
            report.sched_trace_hash, reference.sched_trace_hash,
            "quantum {quantum}"
        );
        // ceil(events / quantum) full-or-partial quanta minus the final
        // one, whose budget check never fires before Done.
        assert_eq!(grants, reference.events.div_ceil(quantum) - 1);
    }
}

#[test]
fn handle_resumes_on_a_different_os_thread() {
    let p = platform(0xBEE);
    spawn_workload(&p);
    let reference = p.run();

    let p = platform(0xBEE);
    spawn_workload(&p);
    let mut h = p.start();
    // Park/resume across real OS threads: each hop moves the handle to a
    // fresh thread that steps one quantum, exactly what a serve worker
    // pool does. Every hop is a different stepper for the suspended
    // workers to run on.
    let mut hops = 0;
    let report = loop {
        hops += 1;
        let (done, h2) = std::thread::spawn(move || {
            let mut h = h;
            let done = matches!(h.step(50).expect("no deadlock"), StepOutcome::Done);
            (done, h)
        })
        .join()
        .expect("stepper thread");
        h = h2;
        if done {
            break h.finish();
        }
    };
    assert!(hops >= 3, "stepped from only {hops} OS threads");
    assert_eq!(report.events, reference.events);
    assert_eq!(report.sched_trace_hash, reference.sched_trace_hash);
    assert_eq!(report.end_ns, reference.end_ns);
}

#[test]
fn drop_mid_run_cancels_workers() {
    let p = platform(0xD0);
    let exited = Arc::new(AtomicUsize::new(0));
    spawn_counted_workload(&p, &exited);
    let mut h = p.start();
    assert_eq!(h.step(5).expect("no deadlock"), StepOutcome::Pending);
    assert!(!h.is_finished());
    assert!(h.events() >= 5);
    // The budget ran out after a worker ran: control went out to it and
    // came back, and it is suspended like every other worker.
    assert!(h.handoffs() >= 2, "a worker was the last to run");
    assert_eq!(
        exited.load(Ordering::SeqCst),
        0,
        "nobody finishes in 5 events"
    );
    // Dropping the half-finished run must unwind every worker without
    // panicking the test process.
    drop(h);
    assert_eq!(exited.load(Ordering::SeqCst), 4, "every worker unwound");
}

#[test]
fn handoff_count_is_deterministic_and_reported() {
    let run = || {
        let p = platform(0xA11CE);
        spawn_workload(&p);
        p.run()
    };
    let (a, b) = (run(), run());
    assert!(a.handoffs >= 2, "out to a worker and back at least");
    assert_eq!(a.handoffs, b.handoffs, "same seed, same transfers");
    assert!(a.handoffs <= a.events + 2, "one monolithic step call");
}

#[test]
fn self_resume_costs_no_handoff() {
    // One thread, N yields: every Exec event resumes the thread that just
    // suspended, so the only transfers are the stepper's hand-out and the
    // hand-back that ends each call — whatever N is.
    for n in [1u64, 10, 1000] {
        let world = || {
            let p = platform(7);
            let p2 = p.clone();
            p.spawn(
                desc("solo", 0),
                Box::new(move || {
                    for _ in 0..n {
                        p2.yield_now();
                    }
                }),
            );
            p
        };
        let report = world().run();
        assert_eq!(report.events, n + 1, "Start + one Exec per yield");
        assert_eq!(report.handoffs, 2, "{n} yields, one step call");

        let mut h = world().start();
        let mut step_calls = 1;
        while let StepOutcome::Pending = h.step(4).expect("no deadlock") {
            step_calls += 1;
        }
        assert_eq!(step_calls, (n + 1).div_ceil(4));
        assert_eq!(h.handoffs(), 2 * step_calls, "{n} yields in quanta of 4");
    }
}

#[test]
fn worker_panic_is_reraised_on_the_stepping_thread() {
    let p = platform(0xBAD);
    let exited = Arc::new(AtomicUsize::new(0));
    spawn_counted_workload(&p, &exited);
    let p2 = p.clone();
    let guard = Exited(exited.clone());
    p.spawn(
        desc("bomb", 4),
        Box::new(move || {
            let _guard = guard;
            // A few passes first, so the panic is raised mid-run by a
            // worker that took over from another worker.
            for _ in 0..3 {
                p2.yield_now();
            }
            panic!("boom at {} ns", p2.now_ns());
        }),
    );
    let mut h = p.start();
    let payload = catch_unwind(AssertUnwindSafe(|| h.step(u64::MAX)))
        .expect_err("the worker's panic must surface from step()");
    let msg = payload
        .downcast_ref::<String>()
        .expect("formatted panic message");
    assert!(
        msg.starts_with("worker `bomb` panicked: boom at "),
        "got {msg:?}"
    );
    // step() unwound every worker before re-raising: all five closures
    // are gone while the handle is still alive.
    assert_eq!(exited.load(Ordering::SeqCst), 5);
    assert!(h.handoffs() >= 2, "the panic came back from a worker");
}

#[test]
fn deadlock_found_on_a_worker_thread_reaches_the_stepper() {
    // ABBA: the second acquire of whichever thread runs last queues
    // behind the other, the queue drains, and that worker — not the
    // stepper — is the context that ran last when it does.
    let p = platform(13);
    let l0 = p.lock_create(LockKind::Ticket);
    let l1 = p.lock_create(LockKind::Ticket);
    for (i, (first, second)) in [(l0, l1), (l1, l0)].into_iter().enumerate() {
        let p2 = p.clone();
        p.spawn(
            desc(&format!("t{i}"), i as u32),
            Box::new(move || {
                p2.lock_acquire(first, PathClass::Main);
                p2.compute(1_000);
                p2.lock_acquire(second, PathClass::Main);
                p2.lock_release(second, PathClass::Main);
                p2.lock_release(first, PathClass::Main);
            }),
        );
    }
    let mut h = p.start();
    let err = h.step(u64::MAX).expect_err("ABBA must deadlock");
    let SimError::Deadlock { threads, .. } = &err else {
        panic!("expected Deadlock, got {err:?}");
    };
    assert_eq!(threads.len(), 2, "{threads:?}");
    assert!(h.handoffs() >= 2, "detected after the stepper handed out");
}

#[test]
fn fuel_error_surfaces_through_step() {
    let p = platform(0xF0E1);
    spawn_workload(&p);
    p.set_fuel(Some(10));
    let mut h = p.start();
    let mut last = Ok(StepOutcome::Pending);
    for _ in 0..64 {
        last = h.step(4);
        if last.is_err() {
            break;
        }
    }
    match last {
        Err(SimError::FuelExhausted { fuel, executed, .. }) => {
            assert_eq!(fuel, 10);
            assert_eq!(executed, 10);
        }
        other => panic!("expected FuelExhausted, got {other:?}"),
    }
    // 10 is not a multiple of 4: the fuel ran out mid-quantum, after a
    // worker had run, so the error came with a hand-back.
    assert_eq!(h.events(), 10);
    assert!(h.handoffs() >= 6, "three calls out and back");
}

/// Compute up to virtual time `t`, then let every other thread catch up.
fn wait_until(p: &dyn Platform, t: u64) {
    p.compute(t.saturating_sub(p.now_ns()));
    p.yield_now();
}

/// A world that reaches every kind of sync point, each both when its own
/// event is the next one the loop would run and when it is not: an
/// uncontended acquire and release, an acquire that queues behind a
/// holder, a mutex re-acquire that steals a scheduled hand-off, sends,
/// polls, pending checks, yields, and two threads syncing at the same
/// instant. Every thread logs its tid each time it is resumed.
fn mixed_world(seed: u64, log: &Arc<Mutex<Vec<usize>>>) -> Arc<VirtualPlatform> {
    let p = platform(seed);
    let ticket = p.lock_create(LockKind::Ticket);
    let mutex = p.lock_create(LockKind::Mutex);
    let (e0, e1) = (p.register_endpoint(0), p.register_endpoint(1));
    let resumed = |tid: usize| {
        let log = log.clone();
        move || log.lock().expect("log").push(tid)
    };

    let (p2, mark) = (p.clone(), resumed(0));
    p.spawn(
        desc("holder", 0),
        Box::new(move || {
            mark();
            for _ in 0..3 {
                p2.lock_acquire(ticket, PathClass::Main);
                mark();
                p2.compute(50);
                p2.lock_release(ticket, PathClass::Main);
                mark();
                p2.lock_acquire(mutex, PathClass::Main);
                mark();
                // Long enough that a queued waiter falls asleep, so the
                // hand-off scheduled at release is slow and the holder's
                // quick re-acquire steals it.
                p2.compute(10_000);
                p2.lock_release(mutex, PathClass::Main);
                mark();
                p2.compute(100);
                p2.lock_acquire(mutex, PathClass::Main);
                mark();
                p2.compute(200);
                p2.lock_release(mutex, PathClass::Main);
                mark();
                p2.yield_now();
                mark();
            }
        }),
    );
    let (p2, mark) = (p.clone(), resumed(1));
    p.spawn(
        desc("waiter", 4),
        Box::new(move || {
            mark();
            for _ in 0..3 {
                p2.compute(500);
                p2.lock_acquire(mutex, PathClass::Main);
                mark();
                p2.compute(300);
                p2.lock_release(mutex, PathClass::Main);
                mark();
                p2.yield_now();
                mark();
                p2.lock_acquire(ticket, PathClass::Main);
                mark();
                p2.compute(20);
                p2.lock_release(ticket, PathClass::Main);
                mark();
            }
            // Holds the ticket lock across the sender's late acquire.
            wait_until(&*p2, 70_000);
            mark();
            p2.lock_acquire(ticket, PathClass::Main);
            mark();
            p2.compute(20_000);
            p2.lock_release(ticket, PathClass::Main);
            mark();
        }),
    );
    let (p2, mark) = (p.clone(), resumed(2));
    p.spawn(
        desc("sender", 1),
        Box::new(move || {
            mark();
            for i in 0..4u64 {
                p2.compute(400 * i);
                p2.net_send(e0, e1, 64 << i, Box::new(i));
                mark();
                let _ = p2.net_pending(e0);
                mark();
            }
            // Late, with only the tie threads' events queued, and those
            // later: a loopback send, check and poll, then an acquire
            // that queues behind the waiter.
            wait_until(&*p2, 60_000);
            mark();
            p2.net_send(e0, e0, 32, Box::new(()));
            mark();
            let _ = p2.net_pending(e0);
            mark();
            p2.compute(5_000);
            assert_eq!(p2.net_poll(e0).len(), 1);
            mark();
            wait_until(&*p2, 80_000);
            mark();
            p2.lock_acquire(ticket, PathClass::Main);
            mark();
            p2.lock_release(ticket, PathClass::Main);
            mark();
        }),
    );
    let (p2, mark) = (p.clone(), resumed(3));
    p.spawn(
        ThreadDesc {
            node: 1,
            ..desc("receiver", 0)
        },
        Box::new(move || {
            mark();
            let mut got = 0;
            while got < 4 {
                let _ = p2.net_pending(e1);
                mark();
                p2.compute(250);
                got += p2.net_poll(e1).len();
                mark();
            }
        }),
    );
    // Every 100 µs both tie threads sync at the same instant, after the
    // rest have gone quiet. `tie5` gets there from its own event 50 µs
    // earlier, so the loop is idle up to `tie4`'s queued event at that
    // very time, which has the smaller `seq` and must run first.
    for (tid, core, strides) in [(4, 2, 1), (5, 3, 2)] {
        let (p2, mark) = (p.clone(), resumed(tid));
        p.spawn(
            desc(&format!("tie{tid}"), core),
            Box::new(move || {
                mark();
                for _ in 0..4 * strides {
                    // `yield_now` adds 1 ns.
                    p2.compute(100_000 / strides - 1);
                    p2.yield_now();
                    mark();
                }
            }),
        );
    }
    p
}

/// `handoffs` as the stepping loop counts it, for events that each
/// resumed `resumed[i]` (or nobody), stepped in quanta of `quantum`.
fn expected_handoffs(resumed: &[Option<usize>], quantum: u64) -> u64 {
    let quantum = usize::try_from(quantum).unwrap_or(usize::MAX);
    resumed
        .chunks(quantum)
        .map(|step| {
            let mut on = None;
            let mut n = 0;
            for &tid in step.iter().flatten() {
                n += u64::from(on.replace(tid) != Some(tid));
            }
            n + u64::from(on.is_some())
        })
        .sum()
}

#[test]
fn running_the_next_event_in_place_replays_the_queued_path() {
    const SEED: u64 = 0x5EED;
    // Quantum 1 is the reference: the budget is spent by the event that
    // resumes a worker, so every sync point it reaches is queued. One
    // step per event also says which thread each event resumed.
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut h = mixed_world(SEED, &log).start();
    let mut resumed = Vec::new();
    loop {
        let before = log.lock().expect("log").len();
        let outcome = h.step(1).expect("no deadlock");
        let log = log.lock().expect("log");
        assert!(log.len() <= before + 1, "one event resumes one thread");
        resumed.push(log.get(before).copied());
        if outcome == StepOutcome::Done {
            break;
        }
    }
    let reference_log = std::mem::take(&mut *log.lock().expect("log"));
    let reference = h.finish();
    assert_eq!(resumed.len() as u64, reference.events);
    assert_eq!(reference.handoffs, expected_handoffs(&resumed, 1));

    for quantum in [2u64, 3, 7, u64::MAX] {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut h = mixed_world(SEED, &log).start();
        while h.step(quantum).expect("no deadlock") == StepOutcome::Pending {}
        let report = h.finish();
        assert_eq!(report.events, reference.events, "quantum {quantum}");
        assert_eq!(
            report.handoffs,
            expected_handoffs(&resumed, quantum),
            "quantum {quantum}"
        );
        assert_eq!(report.end_ns, reference.end_ns, "quantum {quantum}");
        assert_eq!(
            report.sched_trace_hash, reference.sched_trace_hash,
            "quantum {quantum}"
        );
        assert_eq!(
            format!("{:?}", report.lock_grants),
            format!("{:?}", reference.lock_grants),
            "quantum {quantum}"
        );
        assert_eq!(
            *log.lock().expect("log"),
            reference_log,
            "quantum {quantum}"
        );
    }

    // Fuel stops on the same event with the same queue either way.
    for fuel in [
        3,
        10,
        25,
        40,
        61,
        reference.events / 2,
        reference.events - 1,
    ] {
        let stop = |quantum: u64| {
            let p = mixed_world(SEED, &Arc::new(Mutex::new(Vec::new())));
            p.set_fuel(Some(fuel));
            let mut h = p.start();
            loop {
                match h.step(quantum) {
                    Ok(StepOutcome::Pending) => {}
                    Err(SimError::FuelExhausted {
                        executed,
                        now_ns,
                        queued_events,
                        ..
                    }) => break (executed, now_ns, queued_events),
                    other => panic!("fuel {fuel}: expected FuelExhausted, got {other:?}"),
                }
            }
        };
        assert_eq!(stop(1), stop(u64::MAX), "fuel {fuel}");
    }
}

/// Sixteen threads passing one barging mutex, yielding between passages:
/// more than half of all events hand the run to another thread.
fn contended_mutex_world() -> Arc<VirtualPlatform> {
    let p = platform(0x16);
    let lock = p.lock_create(LockKind::Mutex);
    for i in 0..16u32 {
        let p2 = p.clone();
        p.spawn(
            desc(&format!("t{i}"), i % 8),
            Box::new(move || {
                for round in 0..12u64 {
                    p2.lock_acquire(lock, PathClass::Main);
                    p2.compute(40 + round);
                    p2.lock_release(lock, PathClass::Main);
                    p2.compute(150 + u64::from(i) * 13);
                    p2.yield_now();
                }
            }),
        );
    }
    p
}

#[test]
fn a_handoff_heavy_world_replays_its_pinned_trace() {
    // Literals, not a reference run: how control travels between
    // simulated threads is transport, so no change to it may move the
    // events, the end time, the decision trace or the logical hand-off
    // count (which depends on the quantum: one hand-out and one
    // hand-back per `step` call).
    for (quantum, handoffs) in [(1, 1184), (3, 785), (1024, 462), (u64::MAX, 462)] {
        let mut h = contended_mutex_world().start();
        while h.step(quantum).expect("no deadlock") == StepOutcome::Pending {}
        let r = h.finish();
        assert_eq!(
            (r.events, r.end_ns, r.sched_trace_hash, r.handoffs),
            (816, 98_078, 8_172_738_309_353_957_238, handoffs),
            "quantum {quantum}"
        );
    }
}

// In one `step(u64::MAX)` call the stepping thread resumes only the
// thread of the first event; every later resume is a hand-off from the
// thread that ran before it, until one retires. The worlds below raise
// their error before any thread retires, so it is raised while the
// event loop runs on a fiber reached by such a hand-off.

/// `n` workers contending one ticket lock, each counting its drop into
/// `exited`; tids `0..n`.
fn spawn_passers(p: &Arc<VirtualPlatform>, n: u32, exited: &Arc<AtomicUsize>) {
    let lock = p.lock_create(LockKind::Ticket);
    for i in 0..n {
        let (p2, guard) = (p.clone(), Exited(exited.clone()));
        p.spawn(
            desc(&format!("t{i}"), i),
            Box::new(move || {
                let _guard = guard;
                for round in 0..40u64 {
                    p2.lock_acquire(lock, PathClass::Main);
                    p2.compute(300 + u64::from(i) * 11 + round);
                    p2.lock_release(lock, PathClass::Main);
                    p2.yield_now();
                }
            }),
        );
    }
}

#[test]
fn a_panic_on_a_handed_off_fiber_surfaces_from_step() {
    let p = platform(0xBAD);
    let exited = Arc::new(AtomicUsize::new(0));
    spawn_passers(&p, 3, &exited);
    let (p2, guard) = (p.clone(), Exited(exited.clone()));
    p.spawn(
        desc("bomb", 3),
        Box::new(move || {
            let _guard = guard;
            for _ in 0..5 {
                p2.compute(2_000);
                p2.yield_now();
            }
            panic!("boom at {} ns", p2.now_ns());
        }),
    );
    let mut h = p.start();
    let payload = catch_unwind(AssertUnwindSafe(|| h.step(u64::MAX)))
        .expect_err("the worker's panic must surface from step()");
    let msg = payload
        .downcast_ref::<String>()
        .expect("formatted panic message");
    assert_eq!(msg, "worker `bomb` panicked: boom at 10005 ns");
    assert_eq!(exited.load(Ordering::SeqCst), 4, "every closure dropped");
    assert_eq!((h.events(), h.handoffs()), (72, 30));
}

/// A live thread of node 0 in a failure snapshot.
fn blocked(tid: usize, name: &str, on: BlockedOn) -> BlockedThread {
    BlockedThread {
        tid,
        name: name.into(),
        node: 0,
        on,
    }
}

#[test]
fn typed_errors_on_a_handed_off_fiber_surface_from_step() {
    // Fuel runs out mid-run of four lock passers.
    let p = platform(0xF0E1);
    let exited = Arc::new(AtomicUsize::new(0));
    spawn_passers(&p, 4, &exited);
    p.set_fuel(Some(57));
    let mut h = p.start();
    let err = h.step(u64::MAX).expect_err("fuel runs out");
    assert_eq!(exited.load(Ordering::SeqCst), 4, "every closure dropped");
    let fence = || BlockedOn::Op {
        desc: "Fence".into(),
    };
    let on_lock = |lock| BlockedOn::Lock { lock };
    assert_eq!(
        err,
        SimError::FuelExhausted {
            fuel: 57,
            executed: 57,
            now_ns: 8629,
            queued_events: 2,
            threads: vec![
                blocked(0, "t0", fence()),
                blocked(1, "t1", on_lock(0)),
                blocked(2, "t2", on_lock(0)),
                blocked(3, "t3", on_lock(0)),
            ],
            undelivered: vec![],
        }
    );
    assert_eq!((h.events(), h.handoffs()), (57, 18));

    // recv/recv: each thread spins on its own mailbox before it sends,
    // so neither send is reached and only the fuel bound ends the run.
    let p = platform(0x2EC);
    let exited = Arc::new(AtomicUsize::new(0));
    let eps = [p.register_endpoint(0), p.register_endpoint(1)];
    for i in 0..2usize {
        let (p2, guard) = (p.clone(), Exited(exited.clone()));
        p.spawn(
            desc(&format!("r{i}"), i as u32),
            Box::new(move || {
                let _guard = guard;
                while p2.net_poll(eps[i]).is_empty() {
                    p2.compute(50);
                    p2.yield_now();
                }
                p2.net_send(eps[i], eps[1 - i], 64, Box::new(()));
            }),
        );
    }
    p.set_fuel(Some(101));
    let mut h = p.start();
    let err = h.step(u64::MAX).expect_err("recv/recv never completes");
    assert_eq!(exited.load(Ordering::SeqCst), 2, "every closure dropped");
    assert_eq!(
        err,
        SimError::FuelExhausted {
            fuel: 101,
            executed: 101,
            now_ns: 1275,
            queued_events: 2,
            threads: vec![
                blocked(
                    0,
                    "r0",
                    BlockedOn::Op {
                        desc: "NetPoll(0)".into()
                    }
                ),
                blocked(1, "r1", fence()),
            ],
            undelivered: vec![],
        }
    );
    assert_eq!((h.events(), h.handoffs()), (101, 102));

    // ABBA behind two passers: the queue drains with both stuck.
    let p = platform(13);
    let exited = Arc::new(AtomicUsize::new(0));
    let (l0, l1) = (
        p.lock_create(LockKind::Ticket),
        p.lock_create(LockKind::Ticket),
    );
    for (i, (first, second)) in [(l0, l1), (l1, l0)].into_iter().enumerate() {
        let (p2, guard) = (p.clone(), Exited(exited.clone()));
        p.spawn(
            desc(&format!("ab{i}"), i as u32),
            Box::new(move || {
                let _guard = guard;
                p2.yield_now();
                p2.lock_acquire(first, PathClass::Main);
                p2.compute(1_000);
                p2.lock_acquire(second, PathClass::Main);
                p2.lock_release(second, PathClass::Main);
                p2.lock_release(first, PathClass::Main);
            }),
        );
    }
    let mut h = p.start();
    let err = h.step(u64::MAX).expect_err("ABBA must deadlock");
    assert_eq!(exited.load(Ordering::SeqCst), 2, "every closure dropped");
    let queued_on = |lock, waiter| LockDiag {
        lock,
        pending: None,
        waiters: vec![waiter],
        queued: 1,
    };
    assert_eq!(
        err,
        SimError::Deadlock {
            threads: vec![blocked(0, "ab0", on_lock(1)), blocked(1, "ab1", on_lock(0))],
            locks: vec![queued_on(0, 1), queued_on(1, 0)],
            undelivered: vec![],
        }
    );
    assert_eq!((h.events(), h.handoffs()), (8, 7));
}

#[test]
fn dropping_a_handle_unwinds_fibers_started_by_a_hand_off() {
    // Three Start events at time 0, then one more: thread 0 is resumed
    // by the stepping thread, threads 1 and 2 are started by hand-offs
    // and suspend mid-body (handing on, or ending the quantum).
    let p = platform(0xD0);
    let exited = Arc::new(AtomicUsize::new(0));
    spawn_passers(&p, 3, &exited);
    let mut h = p.start();
    assert_eq!(h.step(4), Ok(StepOutcome::Pending));
    assert_eq!(exited.load(Ordering::SeqCst), 0, "all three mid-body");
    assert_eq!((h.events(), h.handoffs()), (4, 5));
    drop(h);
    assert_eq!(exited.load(Ordering::SeqCst), 3, "every worker unwound");
}

#[test]
fn run_handle_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<RunHandle>();
}
