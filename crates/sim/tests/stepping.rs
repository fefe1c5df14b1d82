//! Quantum-stepped execution ([`VirtualPlatform::start`] +
//! [`RunHandle::step`]): the serve-layer contract that any quantum
//! series replays the monolithic run byte-identically, that a parked
//! handle resumes on a different OS thread, and that dropping a handle
//! mid-run cancels cleanly — plus the hand-off accounting of the fiber
//! transport under it (`fiber.rs` tests the transport itself): the
//! deterministic hand-off count, and every way a quantum can end after a
//! worker ran (budget, fuel, deadlock, panic) reaching the stepper.

use mtmpi_locks::PathClass;
use mtmpi_net::NetModel;
use mtmpi_sim::{
    LockKind, LockModelParams, Platform, RunHandle, SimError, StepOutcome, ThreadDesc,
    VirtualPlatform,
};
use mtmpi_topology::presets::nehalem_cluster_scaled;
use mtmpi_topology::CoreId;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
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
                    let tok = p2.lock_acquire(lock, PathClass::Main);
                    p2.compute(500);
                    p2.lock_release(lock, PathClass::Main, tok);
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
                let t1 = p2.lock_acquire(first, PathClass::Main);
                p2.compute(1_000);
                let t2 = p2.lock_acquire(second, PathClass::Main);
                p2.lock_release(second, PathClass::Main, t2);
                p2.lock_release(first, PathClass::Main, t1);
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

#[test]
fn run_handle_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<RunHandle>();
}
