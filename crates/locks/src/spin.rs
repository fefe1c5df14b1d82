//! The test-and-set spinlock and the shared backoff helper.

use crate::raw::RawLock;
use crate::sys::{AtomicBool, Ordering};

/// Bounded exponential backoff that degrades to `yield_now`, so spinning
/// code stays live on oversubscribed hosts (more runnable threads than
/// cores — always the case on the single-core CI host this reproduction
/// targets).
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// Spin budget (in `spin_loop` hints) before the first yield.
    const SPIN_LIMIT: u32 = 7;

    /// Fresh backoff state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wait a little; successive calls wait longer, then start yielding the
    /// OS thread.
    #[cfg(not(feature = "loom-check"))]
    pub fn snooze(&mut self) {
        if self.step <= Self::SPIN_LIMIT {
            for _ in 0..(1u32 << self.step) {
                crate::sys::spin_loop();
            }
            self.step += 1;
        } else {
            crate::sys::yield_now();
        }
    }

    /// Under the model checker a snooze is a single parking decision
    /// point: the exponential spin would only multiply identical states
    /// (the model parks until shared state changes anyway).
    #[cfg(feature = "loom-check")]
    pub fn snooze(&mut self) {
        self.step = self.step.saturating_add(1);
        crate::sys::spin_loop();
    }

    /// Whether the backoff has escalated to yielding.
    pub fn is_yielding(&self) -> bool {
        self.step > Self::SPIN_LIMIT
    }
}

/// Naive test-and-set spinlock: every attempt is an atomic swap, hammering
/// the cache line. Included as the classic baseline (§8).
#[derive(Debug, Default)]
pub struct TasLock {
    locked: AtomicBool,
}

impl RawLock for TasLock {
    const NAME: &'static str = "tas";

    fn lock(&self) {
        let mut backoff = Backoff::new();
        while self.locked.swap(true, Ordering::Acquire) {
            backoff.snooze();
        }
    }

    fn try_lock(&self) -> bool {
        !self.locked.swap(true, Ordering::Acquire)
    }

    fn unlock(&self) {
        self.locked.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn hammer<L: RawLock + 'static>(threads: usize, iters: u64) {
        let lock = Arc::new(L::default());
        let counter = Arc::new(AtomicU64::new(0));
        let inside = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (lock, counter, inside) = (lock.clone(), counter.clone(), inside.clone());
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        lock.lock();
                        assert!(
                            !inside.swap(true, Ordering::SeqCst),
                            "mutual exclusion violated"
                        );
                        counter.fetch_add(1, Ordering::Relaxed);
                        inside.store(false, Ordering::SeqCst);
                        lock.unlock();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), threads as u64 * iters);
    }

    #[test]
    fn tas_mutual_exclusion() {
        hammer::<TasLock>(4, 2000);
    }

    #[test]
    fn try_lock_behaviour() {
        let l = TasLock::default();
        assert!(l.try_lock());
        assert!(!l.try_lock());
        l.unlock();
        assert!(l.try_lock());
        l.unlock();
    }

    #[test]
    fn backoff_escalates_to_yield() {
        let mut b = Backoff::new();
        assert!(!b.is_yielding());
        for _ in 0..16 {
            b.snooze();
        }
        assert!(b.is_yielding());
    }
}
