//! Exhaustive interleaving tests for the lock protocols, run under the
//! loom model checker (`cargo test -p mtmpi-locks --features loom-check`).
//!
//! Each `loom::model` closure is executed once per schedule in a
//! depth-first enumeration of every sequentially-consistent interleaving
//! of the threads' atomic operations. An assertion failure, panic, or
//! deadlock in *any* schedule fails the test with a replayable trace.
//!
//! Invariants checked (ISSUE tier 1):
//! * mutual exclusion for `TicketLock` and `PriorityTicketLock` (mixed
//!   classes);
//! * FIFO grant order for `TicketLock` (service order == arrival order);
//! * the high-before-low grant invariant for `PriorityTicketLock`: while
//!   a high-priority burst is pending (`high_pressure() >= 2` observed by
//!   the in-CS owner), a low-priority thread cannot be granted the lock
//!   before the burst's remaining high-priority threads.

#![cfg(feature = "loom-check")]

use loom::sync::Arc;
use loom::EventLog;
use mtmpi_locks::raw::RawLock;
use mtmpi_locks::sys::{AtomicUsize, Ordering};
use mtmpi_locks::{PriorityTicketLock, TicketLock};

/// Assert single occupancy of a critical section guarded by `enter`/`exit`
/// closures: increments must never observe a nonzero occupancy.
struct Occupancy(AtomicUsize);

impl Occupancy {
    fn new() -> Self {
        Self(AtomicUsize::new(0))
    }

    fn enter(&self) {
        let prev = self.0.fetch_add(1, Ordering::SeqCst);
        assert_eq!(
            prev,
            0,
            "mutual exclusion violated: {} threads inside",
            prev + 1
        );
    }

    fn exit(&self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

#[test]
fn ticket_mutual_exclusion_two_threads() {
    loom::model(|| {
        let lock = Arc::new(TicketLock::new());
        let occ = Arc::new(Occupancy::new());
        let mut handles = Vec::new();
        for _ in 0..2 {
            let (lock, occ) = (lock.clone(), occ.clone());
            handles.push(loom::thread::spawn(move || {
                lock.lock();
                occ.enter();
                occ.exit();
                lock.unlock();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });
}

#[test]
fn ticket_fifo_grant_order() {
    // The main thread holds the lock and stages two waiters so their
    // arrival (ticket) order is known: waiter 1 is provably enqueued
    // (queue_depth reflects its ticket) before waiter 2 starts. FIFO
    // then requires grant order 1, 2 in every schedule.
    loom::model(|| {
        let lock = Arc::new(TicketLock::new());
        let grants = Arc::new(EventLog::new());
        lock.lock();
        let mut handles = Vec::new();
        for id in 1..=2u32 {
            let (lock2, grants2) = (lock.clone(), grants.clone());
            handles.push(loom::thread::spawn(move || {
                lock2.lock();
                grants2.push(id);
                lock2.unlock();
            }));
            // Holder + this waiter's ticket: depth id+1. Wait until the
            // waiter is committed to its place in the queue.
            while lock.queue_depth() < u64::from(id) + 1 {
                loom::hint::spin_loop();
            }
        }
        lock.unlock();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            grants.events(),
            vec![1, 2],
            "ticket lock granted out of FIFO order"
        );
    });
}

#[test]
fn priority_mutual_exclusion_mixed_classes() {
    loom::model(|| {
        let lock = Arc::new(PriorityTicketLock::new());
        let occ = Arc::new(Occupancy::new());
        let (l2, o2) = (lock.clone(), occ.clone());
        let high = loom::thread::spawn(move || {
            l2.lock_high();
            o2.enter();
            o2.exit();
            l2.unlock_high();
        });
        let (l3, o3) = (lock.clone(), occ.clone());
        let low = loom::thread::spawn(move || {
            l3.lock_low();
            o3.enter();
            o3.exit();
            l3.unlock_low();
        });
        high.join().unwrap();
        low.join().unwrap();
    });
}

#[test]
fn priority_high_before_low_when_burst_pending() {
    // Main acquires high and releases only after observing a second
    // high-priority thread committed to the burst (high_pressure >= 2).
    // In that situation the burst keeps `ticket_B` across main's release,
    // so the waiting low-priority thread can only be granted the lock
    // after the second high thread's critical section: grant order must
    // be H then L in every schedule where the observation held.
    use std::sync::atomic::{AtomicBool as StdBool, Ordering as StdOrdering};
    let burst_observed = std::sync::Arc::new(StdBool::new(false));
    let seen = burst_observed.clone();
    loom::model(move || {
        let lock = Arc::new(PriorityTicketLock::new());
        let grants = Arc::new(EventLog::new());
        lock.lock_high();
        let (l2, g2) = (lock.clone(), grants.clone());
        let low = loom::thread::spawn(move || {
            l2.lock_low();
            g2.push('L');
            l2.unlock_low();
        });
        let (l3, g3) = (lock.clone(), grants.clone());
        let high2 = loom::thread::spawn(move || {
            l3.lock_high();
            g3.push('H');
            l3.unlock_high();
        });
        let burst_pending = lock.high_pressure() >= 2;
        lock.unlock_high();
        low.join().unwrap();
        high2.join().unwrap();
        if burst_pending {
            seen.store(true, StdOrdering::SeqCst);
            assert_eq!(
                grants.events(),
                vec!['H', 'L'],
                "low-priority thread granted ahead of a pending high burst"
            );
        }
    });
    assert!(
        burst_observed.load(std::sync::atomic::Ordering::SeqCst),
        "no schedule ever observed the pending burst; invariant untested"
    );
}

#[test]
fn ticket_lock_reacquire_by_other_thread() {
    // Release/acquire hand-off: after thread A's unlock, thread B must be
    // able to enter (no lost-wakeup in the spin/park protocol). A
    // deadlock in any schedule would be reported by the model.
    loom::model(|| {
        let lock = Arc::new(TicketLock::new());
        let lock2 = lock.clone();
        let h = loom::thread::spawn(move || {
            lock2.lock();
            lock2.unlock();
        });
        lock.lock();
        lock.unlock();
        h.join().unwrap();
    });
}
