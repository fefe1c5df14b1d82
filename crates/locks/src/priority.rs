//! The two-level priority ticket lock (paper §5.2, Fig 7).
//!
//! The scheme uses **three ticket locks** plus one flag:
//!
//! * `ticket_H` — serializes the high-priority threads (main path);
//! * `ticket_L` — serializes the low-priority threads (progress loop);
//! * `ticket_B` — the *blocking* lock: held by a whole **burst** of
//!   high-priority threads to keep low-priority threads out, and by each
//!   low-priority thread while it is inside the critical section;
//! * `already_blocked` — tells the next high-priority thread that the
//!   burst already holds `ticket_B` so it can go straight in.
//!
//! Why `ticket_B` must itself be a ticket lock (paper: "failing to do so
//! may generate lock monopolization in favor of low-priority threads"):
//! when a burst ends, the low-priority threads queued on `ticket_B` and
//! the next high-priority arrival are arbitrated FIFO, so neither class
//! can starve the other through hardware luck.
//!
//! Mutual-exclusion argument (also exercised by the tests):
//! a low-priority thread is inside iff it holds `ticket_B` (serialized
//! among lows by `ticket_L`); a high-priority thread is inside iff it
//! holds `ticket_H` *and* its burst holds `ticket_B`. Since `ticket_B`
//! can have only one owner, high and low threads can never be inside
//! simultaneously, and within a class `ticket_H`/`ticket_B` serialize.

use crate::path::PathClass;
use crate::raw::{CsLock, RawLock};
use crate::sys::{AtomicBool, AtomicUsize, Ordering};
use crate::ticket::TicketLock;

/// Two-level priority lock built from three ticket locks (Fig 7).
#[derive(Debug, Default)]
pub struct PriorityTicketLock {
    ticket_h: TicketLock,
    ticket_l: TicketLock,
    ticket_b: TicketLock,
    /// Set while a high-priority burst holds `ticket_b`. Only ever read or
    /// written by the current `ticket_h` owner, so it needs no stronger
    /// protocol than acquire/release through `ticket_h` itself.
    already_blocked: AtomicBool,
    /// Number of threads inside `high_acquire`..`high_release` (holders
    /// *and* waiters of `ticket_h`); the release that drops this to zero
    /// ends the burst and releases `ticket_b`.
    high_count: AtomicUsize,
}

impl PriorityTicketLock {
    /// Create an unlocked priority lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquire as a high-priority (main path) thread.
    pub fn lock_high(&self) {
        // Announce before queueing on ticket_H so the burst cannot end
        // while we are already committed to the high path.
        self.high_count.fetch_add(1, Ordering::AcqRel);
        self.ticket_h.lock();
        if !self.already_blocked.load(Ordering::Acquire) {
            // First thread of a burst: shut the door on low priority.
            self.ticket_b.lock();
            self.already_blocked.store(true, Ordering::Release);
        }
    }

    /// Release after [`Self::lock_high`].
    pub fn unlock_high(&self) {
        if self.high_count.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last high-priority thread of the burst: let low priority
            // pass. Flag first (we still own ticket_h, so the next high
            // owner sees a consistent flag), then open the door.
            self.already_blocked.store(false, Ordering::Release);
            self.ticket_b.unlock();
        }
        self.ticket_h.unlock();
    }

    /// Acquire as a low-priority (progress loop) thread.
    pub fn lock_low(&self) {
        self.ticket_l.lock();
        self.ticket_b.lock();
    }

    /// Release after [`Self::lock_low`].
    pub fn unlock_low(&self) {
        self.ticket_b.unlock();
        self.ticket_l.unlock();
    }

    /// High-priority threads currently holding or waiting (diagnostic).
    pub fn high_pressure(&self) -> usize {
        self.high_count.load(Ordering::Relaxed)
    }
}

impl CsLock for PriorityTicketLock {
    fn name(&self) -> &'static str {
        "priority"
    }

    fn acquire(&self, class: PathClass) {
        match class {
            PathClass::Main => self.lock_high(),
            PathClass::Progress => self.lock_low(),
        }
    }

    fn release(&self, class: PathClass) {
        match class {
            PathClass::Main => self.unlock_high(),
            PathClass::Progress => self.unlock_low(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool as ABool, AtomicU64};
    use std::sync::Arc;

    #[test]
    fn mutual_exclusion_mixed_classes() {
        let lock = Arc::new(PriorityTicketLock::new());
        let inside = Arc::new(ABool::new(false));
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let (lock, inside, counter) = (lock.clone(), inside.clone(), counter.clone());
                std::thread::spawn(move || {
                    for k in 0..2000u32 {
                        // Mix classes per thread and per iteration.
                        let high = (i + k) % 3 != 0;
                        if high {
                            lock.lock_high();
                        } else {
                            lock.lock_low();
                        }
                        assert!(!inside.swap(true, Ordering::SeqCst), "two threads inside");
                        counter.fetch_add(1, Ordering::Relaxed);
                        inside.store(false, Ordering::SeqCst);
                        if high {
                            lock.unlock_high();
                        } else {
                            lock.unlock_low();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 8000);
    }

    #[test]
    fn all_high_works_like_ticket() {
        let lock = Arc::new(PriorityTicketLock::new());
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (lock, counter) = (lock.clone(), counter.clone());
                std::thread::spawn(move || {
                    for _ in 0..2000 {
                        lock.lock_high();
                        counter.fetch_add(1, Ordering::Relaxed);
                        lock.unlock_high();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 8000);
        assert_eq!(
            lock.high_pressure(),
            0,
            "burst bookkeeping must return to zero"
        );
    }

    #[test]
    fn all_low_works_like_ticket() {
        let lock = Arc::new(PriorityTicketLock::new());
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (lock, counter) = (lock.clone(), counter.clone());
                std::thread::spawn(move || {
                    for _ in 0..2000 {
                        lock.lock_low();
                        counter.fetch_add(1, Ordering::Relaxed);
                        lock.unlock_low();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 8000);
    }

    #[test]
    fn high_preempts_low_under_pressure() {
        // One low-priority polling thread hammers the lock; measure how
        // long a high-priority thread waits. It should get in promptly —
        // the structural property the lock exists for. We assert it gets
        // in at all within a bounded number of low acquisitions.
        let lock = Arc::new(PriorityTicketLock::new());
        let stop = Arc::new(ABool::new(false));
        let low_acqs = Arc::new(AtomicU64::new(0));
        let (l2, s2, la2) = (lock.clone(), stop.clone(), low_acqs.clone());
        let low = std::thread::spawn(move || {
            while !s2.load(Ordering::Relaxed) {
                l2.lock_low();
                la2.fetch_add(1, Ordering::Relaxed);
                l2.unlock_low();
            }
        });
        // Give the poller a head start, then demand entry.
        std::thread::sleep(std::time::Duration::from_millis(5));
        for _ in 0..100 {
            lock.lock_high();
            lock.unlock_high();
        }
        stop.store(true, Ordering::Relaxed);
        low.join().unwrap();
        assert!(low_acqs.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn cs_lock_mapping() {
        let lock = PriorityTicketLock::new();
        CsLock::acquire(&lock, PathClass::Main);
        CsLock::release(&lock, PathClass::Main);
        CsLock::acquire(&lock, PathClass::Progress);
        CsLock::release(&lock, PathClass::Progress);
        assert_eq!(CsLock::name(&lock), "priority");
    }

    #[test]
    fn burst_holds_door_for_successive_highs() {
        // Two high threads in sequence: the second enters while the first
        // still counts as part of the burst only if timing aligns; either
        // way the flag and counter must return to a clean state.
        let lock = PriorityTicketLock::new();
        lock.lock_high();
        assert!(lock.already_blocked.load(Ordering::Acquire));
        lock.unlock_high();
        assert!(!lock.already_blocked.load(Ordering::Acquire));
        assert_eq!(lock.high_pressure(), 0);
        // Low path must be open again.
        lock.lock_low();
        lock.unlock_low();
    }
}
