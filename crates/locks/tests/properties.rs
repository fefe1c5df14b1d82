//! Property-based tests of the lock implementations.
//!
//! Strategy: generate random schedules of lock/unlock operations across
//! threads and random workloads inside the critical section, then check
//! the invariants that define a correct mutual-exclusion primitive:
//! no two holders, no lost updates, ticket FIFO order, priority-class
//! safety, and clean final states.

use mtmpi_locks::{CsLock, FutexMutex, PathClass, PriorityTicketLock, TicketLock};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Run `threads` threads doing `iters` increments of a shared (non-atomic
/// in spirit) counter guarded by the lock; verify exclusion + the sum.
fn exclusion_stress<L: CsLock + 'static>(lock: L, threads: u32, iters: u32, classes: &[PathClass]) {
    let lock = Arc::new(lock);
    let counter = Arc::new(AtomicU64::new(0));
    let inside = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..threads)
        .map(|i| {
            let (lock, counter, inside) = (lock.clone(), counter.clone(), inside.clone());
            let class = classes[i as usize % classes.len()];
            std::thread::spawn(move || {
                for _ in 0..iters {
                    lock.acquire(class);
                    assert!(!inside.swap(true, Ordering::SeqCst), "two holders");
                    // Non-atomic-style read-modify-write under the lock.
                    let v = counter.load(Ordering::Relaxed);
                    std::hint::spin_loop();
                    counter.store(v + 1, Ordering::Relaxed);
                    inside.store(false, Ordering::SeqCst);
                    lock.release(class);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        counter.load(Ordering::Relaxed),
        u64::from(threads) * u64::from(iters)
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn ticket_no_lost_updates(threads in 2u32..5, iters in 1u32..400) {
        exclusion_stress(TicketLock::new(), threads, iters, &[PathClass::Main]);
    }

    #[test]
    fn mutex_no_lost_updates(threads in 2u32..5, iters in 1u32..400) {
        exclusion_stress(FutexMutex::new(), threads, iters, &[PathClass::Main]);
    }

    #[test]
    fn priority_no_lost_updates_mixed_classes(threads in 2u32..5, iters in 1u32..400) {
        exclusion_stress(
            PriorityTicketLock::new(),
            threads,
            iters,
            &[PathClass::Main, PathClass::Progress],
        );
    }

    /// Single-threaded acquire/release sequences of arbitrary length and
    /// class pattern leave every lock reusable (no leaked state).
    #[test]
    fn sequential_reuse_any_pattern(ops in proptest::collection::vec(0u8..2, 1..200)) {
        let ticket = TicketLock::new();
        let prio = PriorityTicketLock::new();
        let mutex = FutexMutex::new();
        for &op in &ops {
            let class = if op == 0 { PathClass::Main } else { PathClass::Progress };
            for lock in [&ticket as &dyn CsLock, &prio, &mutex] {
                lock.acquire(class);
                lock.release(class);
            }
        }
        // Still usable afterwards.
        for lock in [&ticket as &dyn CsLock, &prio, &mutex] {
            lock.acquire(PathClass::Main);
            lock.release(PathClass::Main);
        }
    }

    /// try_acquire never succeeds while held, and never corrupts state.
    #[test]
    fn try_acquire_consistency(n in 1usize..60) {
        let lock = TicketLock::new();
        for _ in 0..n {
            lock.acquire(PathClass::Main);
            prop_assert!(!lock.try_acquire(PathClass::Main));
            lock.release(PathClass::Main);
            prop_assert!(lock.try_acquire(PathClass::Main), "free after release");
            lock.release(PathClass::Main);
        }
    }
}

/// Deterministic FIFO-order check (not proptest: needs staged arrivals).
#[test]
fn ticket_fifo_service_order_many_waiters() {
    use mtmpi_locks::RawLock;
    let lock = Arc::new(TicketLock::new());
    let order = Arc::new(Mutex::new(Vec::new()));
    lock.lock();
    let mut handles = Vec::new();
    for id in 0..6u32 {
        let (lock, order) = (lock.clone(), order.clone());
        let started = Arc::new(AtomicBool::new(false));
        let s2 = started.clone();
        handles.push(std::thread::spawn(move || {
            s2.store(true, Ordering::Release);
            lock.lock();
            order
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(id);
            lock.unlock();
        }));
        while !started.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        // Give the thread time to reach the ticket counter before the
        // next one starts. (Arrival order is enforced by construction on
        // a single-CPU host via the sleep; the assertion tolerates an
        // inversion by checking sortedness of *positions held*.)
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    lock.unlock();
    for h in handles {
        h.join().unwrap();
    }
    let order = order.lock().unwrap_or_else(PoisonError::into_inner);
    let sorted: Vec<u32> = {
        let mut v = order.clone();
        v.sort_unstable();
        v
    };
    assert_eq!(
        *order, sorted,
        "ticket served out of arrival order: {order:?}"
    );
}

/// The priority lock must never grant Progress while a Main waiter that
/// arrived earlier is still waiting *and* a burst is open. (Structural
/// smoke test of ticket_B semantics.)
#[test]
fn priority_burst_blocks_low() {
    let lock = Arc::new(PriorityTicketLock::new());
    lock.lock_high();
    let low_entered = Arc::new(AtomicBool::new(false));
    let (l2, le2) = (lock.clone(), low_entered.clone());
    let low = std::thread::spawn(move || {
        l2.lock_low();
        le2.store(true, Ordering::SeqCst);
        l2.unlock_low();
    });
    std::thread::sleep(std::time::Duration::from_millis(10));
    assert!(
        !low_entered.load(Ordering::SeqCst),
        "low must be blocked by the burst"
    );
    lock.unlock_high();
    low.join().unwrap();
    assert!(low_entered.load(Ordering::SeqCst));
}
