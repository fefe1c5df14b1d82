//! The fiber transport under the virtual platform: a run owns no OS
//! thread, scales to worlds no thread-per-worker design could launch,
//! keeps a simulated thread's identity (tid, placement, recorder shard)
//! with its fiber when the handle migrates between OS threads, unwinds
//! every worker exactly once on every way a run can end early, and dies
//! cleanly — by signal, not by corruption — when a worker overflows its
//! stack. `stepping.rs` pins the quantum contract above it.

use mtmpi_locks::PathClass;
use mtmpi_net::NetModel;
use mtmpi_obs::{Event, EventKind, Path, RingRecorder};
use mtmpi_sim::{
    LockKind, LockModelParams, Platform, PlatformReport, RunHandle, SimError, StepOutcome,
    ThreadDesc, VirtualPlatform,
};
use mtmpi_topology::presets::nehalem_cluster_scaled;
use mtmpi_topology::CoreId;
use std::os::unix::process::ExitStatusExt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

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

/// Re-run this test binary with only the `#[ignore]`d case `name`, on the
/// child's main thread: for cases that need a process to themselves.
fn run_child_case(name: &str) -> Output {
    Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--ignored", "--exact", name, "--test-threads=1"])
        .output()
        .expect("re-execute the test binary")
}

fn os_thread_count() -> String {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("Threads:"));
    line.expect("a Threads: line").to_owned()
}

// ------------------------------------------------ (a) zero OS threads

#[test]
fn a_run_owns_no_os_thread() {
    let out = run_child_case("child_counts_os_threads");
    assert!(
        out.status.success(),
        "{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
#[ignore = "child case of a_run_owns_no_os_thread: needs the process to itself"]
fn child_counts_os_threads() {
    let p = platform(1);
    let lock = p.lock_create(LockKind::Ticket);
    let mid_run = Arc::new(Mutex::new(Vec::new()));
    for i in 0..8u32 {
        let (p2, mid_run) = (p.clone(), mid_run.clone());
        p.spawn(
            desc(&format!("t{i}"), i),
            Box::new(move || {
                for _ in 0..4 {
                    p2.lock_acquire(lock, PathClass::Main);
                    mid_run.lock().unwrap().push(os_thread_count());
                    p2.lock_release(lock, PathClass::Main);
                }
            }),
        );
    }
    let before = os_thread_count();
    let mut h = p.start();
    assert_eq!(os_thread_count(), before, "start() spawned");
    assert_eq!(h.step(u64::MAX), Ok(StepOutcome::Done));
    h.finish();
    assert_eq!(os_thread_count(), before, "after finish()");
    let mid_run = mid_run.lock().unwrap();
    assert_eq!(mid_run.len(), 32);
    assert!(mid_run.iter().all(|l| *l == before), "{mid_run:?}");
}

// ----------------------------------------------- (b) a 10 000-thread world

#[test]
fn ten_thousand_simulated_threads() {
    const THREADS: u32 = 10_000;
    const ROUNDS: u64 = 3;
    let p = platform(2);
    let cores = p.cluster().node.total_cores();
    for i in 0..THREADS {
        let p2 = p.clone();
        p.spawn(
            desc(&format!("t{i}"), i % cores),
            Box::new(move || {
                for _ in 0..ROUNDS {
                    p2.compute(100 + u64::from(i));
                    p2.yield_now();
                }
            }),
        );
    }
    let report = p.run();
    // One Start and one Exec per yield, per thread.
    assert_eq!(report.events, u64::from(THREADS) * (1 + ROUNDS));
    // The slowest thread: ROUNDS × (compute + the yield's 1 ns).
    assert_eq!(report.end_ns, ROUNDS * (100 + u64::from(THREADS - 1) + 1));
}

// ------------------------------------------------------- (c) migration

const MIGRANTS: u32 = 6;

/// Six threads contending for one lock, each recording one event per
/// round (inside the critical section) stamped with its own view of who
/// and where it is, and noting which OS thread it is on after two of the
/// round's sync points.
fn spawn_recording_workload(
    p: &Arc<VirtualPlatform>,
    rec: &Arc<RingRecorder>,
    seen_on: &Arc<Mutex<Vec<Vec<ThreadId>>>>,
) {
    let lock = p.lock_create(LockKind::Ticket);
    for i in 0..MIGRANTS {
        let (p2, rec, seen_on) = (p.clone(), rec.clone(), seen_on.clone());
        p.spawn(
            // Core = tid: 0–3 are socket 0, 4 and 5 socket 1.
            desc(&format!("m{i}"), i),
            Box::new(move || {
                // `ThreadId` has no order, so the set is a deduplicated `Vec`.
                let note_os_thread = || {
                    let mut seen = seen_on.lock().unwrap();
                    let here = std::thread::current().id();
                    if !seen[i as usize].contains(&here) {
                        seen[i as usize].push(here);
                    }
                };
                for round in 0..12u32 {
                    p2.compute(50 + u64::from(i) * 7);
                    p2.lock_acquire(lock, PathClass::Main);
                    let (core, socket) = mtmpi_locks::current_core().expect("placement");
                    rec.record(Event::stamped(
                        p2.now_ns(),
                        p2.current_tid(),
                        core.0,
                        socket.0,
                        EventKind::PollBatch {
                            rank: i,
                            vci: round,
                            path: Path::Main,
                            packets: 0,
                        },
                    ));
                    p2.compute(200);
                    p2.lock_release(lock, PathClass::Main);
                    note_os_thread();
                    p2.yield_now();
                    note_os_thread();
                }
            }),
        );
    }
}

/// Step `h` to completion in quanta 1, 2, 3, 5, 7, 1, … alternating
/// between two OS threads, the handle sent over a channel between grants.
fn step_alternating(h: RunHandle) -> RunHandle {
    const QUANTA: [u64; 5] = [1, 2, 3, 5, 7];
    type Grant = (RunHandle, usize);
    fn stepper(rx: Receiver<Grant>, next: Sender<Grant>, done: Sender<RunHandle>) {
        for (mut h, grant) in rx {
            match h.step(QUANTA[grant % QUANTA.len()]).expect("no deadlock") {
                StepOutcome::Pending => next.send((h, grant + 1)).expect("peer is stepping"),
                // Returning drops `next`, which ends the peer's loop.
                StepOutcome::Done => return done.send(h).expect("main is waiting"),
            }
        }
    }
    let (tx_a, rx_a) = channel();
    let (tx_b, rx_b) = channel();
    let (tx_done, rx_done) = channel();
    std::thread::scope(|s| {
        let (to_a, to_b, done) = (tx_a.clone(), tx_b, tx_done.clone());
        s.spawn(move || stepper(rx_a, to_b, done));
        s.spawn(move || stepper(rx_b, to_a, tx_done));
        tx_a.send((h, 0)).expect("stepper a is waiting");
        drop(tx_a);
        rx_done.recv().expect("a stepper finishes the run")
    })
}

#[test]
fn a_migrating_run_replays_the_monolithic_one() {
    let world = || {
        let p = platform(0xF1BE);
        let rec = Arc::new(RingRecorder::with_shards(MIGRANTS as usize, 64));
        let seen_on = Arc::new(Mutex::new(vec![Vec::new(); MIGRANTS as usize]));
        spawn_recording_workload(&p, &rec, &seen_on);
        (p, rec, seen_on)
    };
    let summary = |r: &PlatformReport| (r.events, r.end_ns, r.sched_trace_hash);

    let (p, rec, _) = world();
    let reference = p.run();
    drop(p);
    let reference_timeline = Arc::into_inner(rec).expect("run is over").into_timeline();
    assert_eq!(reference_timeline.events.len(), 12 * MIGRANTS as usize);

    let (p, rec, seen_on) = world();
    let report = step_alternating(p.start()).finish();
    drop(p);
    assert_eq!(summary(&report), summary(&reference));

    // One shard per simulated thread: there are no spare shards, so a
    // thread that claimed a second one would have left another without
    // any, and its events would have been dropped. Every event is here,
    // so every thread stayed in the shard it claimed first whichever OS
    // thread ran it.
    let timeline = Arc::into_inner(rec).expect("run is over").into_timeline();
    assert_eq!(timeline.dropped, 0);
    assert_eq!(timeline.events.len(), 12 * MIGRANTS as usize);
    for ev in &timeline.events {
        assert_eq!(u32::from(ev.core), ev.tid, "placement travelled: {ev:?}");
        assert_eq!(ev.socket, u16::from(ev.tid >= 4), "{ev:?}");
    }
    assert_eq!(timeline.events, reference_timeline.events);

    // And it did migrate: every simulated thread ran on both OS threads.
    for (tid, on) in seen_on.lock().unwrap().iter().enumerate() {
        assert_eq!(on.len(), 2, "simulated thread {tid} ran on {on:?}");
    }
}

// ------------------------------------- (d) every early end unwinds once

/// Bumps its counter when dropped; one rides in each worker closure.
struct Dropped(Arc<AtomicUsize>);

impl Drop for Dropped {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Four lock-contending workers, each with its own drop counter.
fn spawn_counted(p: &Arc<VirtualPlatform>) -> Vec<Arc<AtomicUsize>> {
    let lock = p.lock_create(LockKind::Ticket);
    (0..4u32)
        .map(|i| {
            let counter = Arc::new(AtomicUsize::new(0));
            let (p2, guard) = (p.clone(), Dropped(counter.clone()));
            p.spawn(
                desc(&format!("t{i}"), i),
                Box::new(move || {
                    let _guard = guard;
                    for _ in 0..8 {
                        p2.lock_acquire(lock, PathClass::Main);
                        p2.compute(300);
                        p2.lock_release(lock, PathClass::Main);
                        p2.yield_now();
                    }
                }),
            );
            counter
        })
        .collect()
}

fn drops(counters: &[Arc<AtomicUsize>]) -> Vec<usize> {
    counters.iter().map(|c| c.load(Ordering::SeqCst)).collect()
}

#[test]
fn dropping_a_handle_unwinds_each_worker_once() {
    // Budget 2 runs two Start events: two workers are suspended at their
    // first sync point, two have not started. Budget 20 has all four
    // mid-body. Not stepping at all leaves four unstarted closures.
    for budget in [0u64, 2, 20] {
        let p = platform(0xD0);
        let counters = spawn_counted(&p);
        let mut h = p.start();
        if budget > 0 {
            assert_eq!(h.step(budget), Ok(StepOutcome::Pending));
        }
        assert_eq!(drops(&counters), [0; 4], "budget {budget}");
        drop(h);
        assert_eq!(drops(&counters), [1; 4], "budget {budget}");
    }
}

#[test]
fn fuel_and_deadlock_aborts_unwind_each_worker_once() {
    let p = platform(0xF0E1);
    let counters = spawn_counted(&p);
    p.set_fuel(Some(30));
    let mut h = p.start();
    let err = h.step(u64::MAX).expect_err("fuel runs out");
    assert!(matches!(err, SimError::FuelExhausted { .. }), "{err:?}");
    // Unwound before the error returned, not when the handle drops.
    assert_eq!(drops(&counters), [1; 4]);
    drop(h);
    assert_eq!(drops(&counters), [1; 4]);

    // ABBA over two locks, plus a bystander that finishes normally.
    let p = platform(13);
    let (l0, l1) = (
        p.lock_create(LockKind::Ticket),
        p.lock_create(LockKind::Ticket),
    );
    let counters: Vec<_> = [Some((l0, l1)), Some((l1, l0)), None]
        .into_iter()
        .enumerate()
        .map(|(i, locks)| {
            let counter = Arc::new(AtomicUsize::new(0));
            let (p2, guard) = (p.clone(), Dropped(counter.clone()));
            p.spawn(
                desc(&format!("t{i}"), i as u32),
                Box::new(move || {
                    let _guard = guard;
                    let Some((first, second)) = locks else { return };
                    p2.lock_acquire(first, PathClass::Main);
                    p2.compute(1_000);
                    p2.lock_acquire(second, PathClass::Main);
                    p2.lock_release(second, PathClass::Main);
                    p2.lock_release(first, PathClass::Main);
                }),
            );
            counter
        })
        .collect();
    let mut h = p.start();
    let err = h.step(u64::MAX).expect_err("ABBA must deadlock");
    assert!(matches!(err, SimError::Deadlock { .. }), "{err:?}");
    assert_eq!(drops(&counters), [1; 3]);
    drop(h);
    assert_eq!(drops(&counters), [1; 3]);
}

// ------------------------------------------------- (e) a worker's panic

#[test]
fn a_worker_panic_leaves_the_os_thread_usable() {
    let p = platform(0xBAD);
    let counters = spawn_counted(&p);
    let p2 = p.clone();
    p.spawn(
        desc("bomb", 4),
        Box::new(move || {
            p2.yield_now();
            panic!("boom at {} ns", p2.now_ns());
        }),
    );
    let mut h = p.start();
    let payload = catch_unwind(AssertUnwindSafe(|| h.step(u64::MAX)))
        .expect_err("the worker's panic must surface from step()");
    let msg = payload.downcast_ref::<String>().expect("formatted message");
    assert!(
        msg.starts_with("worker `bomb` panicked: boom at "),
        "{msg:?}"
    );
    assert_eq!(drops(&counters), [1; 4], "unwound before the re-raise");

    // This OS thread is a host again, not "inside the bomb": platform
    // calls see no simulated thread, and a second run works.
    assert_eq!(p.current_tid(), u64::MAX);
    assert_eq!(p.now_ns(), 0);
    assert_eq!(mtmpi_locks::current_core(), None);
    let p = platform(0xA11CE);
    let counters = spawn_counted(&p);
    let report = p.run();
    assert!(report.events > 4 * 8);
    assert_eq!(drops(&counters), [1; 4]);
}

// ------------------------------------------------------- stack overflow

#[test]
fn a_stack_overflow_kills_the_process_by_signal() {
    let out = run_child_case("child_overflows_a_fiber_stack");
    let signal = out.status.signal();
    // SIGSEGV, or SIGBUS where the kernel reports a guard hit that way.
    assert!(
        matches!(signal, Some(11 | 7)),
        "expected death by SIGSEGV/SIGBUS, got {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
#[ignore = "child case of a_stack_overflow_kills_the_process_by_signal: dies by SIGSEGV"]
fn child_overflows_a_fiber_stack() {
    #[allow(unconditional_recursion)]
    fn recurse(p: &VirtualPlatform, depth: u64) -> u64 {
        let frame = std::hint::black_box([depth; 32]);
        p.compute(1);
        recurse(p, depth + 1) + frame[0]
    }
    let p = platform(3);
    let p2 = p.clone();
    p.spawn(
        desc("deep", 0),
        Box::new(move || {
            p2.yield_now();
            std::hint::black_box(recurse(&p2, 0));
        }),
    );
    p.run();
    unreachable!("the recursion has no base case");
}
