//! The ticket lock (paper Fig 4) — the FCFS remedy of §5.1.

use crate::raw::RawLock;
use crate::sys::{AtomicU64, Ordering};

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

/// FIFO ticket lock.
///
/// Direct transcription of the paper's Fig 4: acquire takes a ticket with a
/// single `fetch_and_increment` and busy-waits until `now_serving` reaches
/// it; release increments `now_serving`. The arrival order *is* the service
/// order, which removes the hardware-induced bias of the NPTL mutex: "using
/// ticket keeps the number of dangling requests very low" (§5.1).
///
/// Two deviations from the 1991-textbook version, both standard practice:
///
/// * **Proportional backoff** — a waiter that is `k` tickets away from
///   being served backs off proportionally to `k`, cutting coherence
///   traffic on `now_serving` (David et al., SOSP'13, which the paper
///   cites as evidence ticket locks perform well).
/// * The counters are padded to separate cache lines so releases
///   (`now_serving`) do not contend with arrivals (`next_ticket`).
#[derive(Debug, Default)]
pub struct TicketLock {
    next_ticket: CachePadded<AtomicU64>,
    now_serving: CachePadded<AtomicU64>,
}

/// Minimal cache-line padding wrapper (64-byte alignment covers x86-64 and
/// most AArch64 parts; over-alignment is harmless elsewhere).
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct CachePadded<T>(pub T);

impl TicketLock {
    /// Create an unlocked ticket lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of threads currently waiting or holding (queue depth).
    pub fn queue_depth(&self) -> u64 {
        self.next_ticket
            .0
            .load(Ordering::Relaxed)
            // lint: allow(L002) monitoring snapshot — approximate by design, no payload read
            .saturating_sub(self.now_serving.0.load(Ordering::Relaxed))
    }
}

impl RawLock for TicketLock {
    const NAME: &'static str = "ticket";

    fn lock(&self) {
        let my_ticket = self.next_ticket.0.fetch_add(1, Ordering::Relaxed);
        let mut backoff = Backoff::new();
        loop {
            let serving = self.now_serving.0.load(Ordering::Acquire);
            if serving == my_ticket {
                return;
            }
            // Proportional backoff: the further from the head, the longer
            // we can safely wait without delaying our own turn.
            #[cfg(not(feature = "loom-check"))]
            {
                let distance = my_ticket.wrapping_sub(serving);
                for _ in 0..distance.min(16) {
                    backoff.snooze();
                }
                if distance > 1 {
                    crate::sys::yield_now();
                }
            }
            // Under the model a single park per re-check is enough: the
            // model wakes us only when shared state changed, so extra
            // snoozes would just multiply identical decision points.
            #[cfg(feature = "loom-check")]
            backoff.snooze();
        }
    }

    fn try_lock(&self) -> bool {
        // lint: allow(L002) peek only feeds the CAS expected value; success ordering is Acquire
        let serving = self.now_serving.0.load(Ordering::Relaxed);
        // Only take a ticket if it would be served immediately; otherwise
        // taking one would *obligate* us to wait (tickets can't be
        // returned).
        // CAS success implies next_ticket == now_serving at that instant
        // (now_serving can never exceed next_ticket), i.e. the lock was
        // free and our fresh ticket is served immediately.
        self.next_ticket
            .0
            .compare_exchange(serving, serving + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    fn unlock(&self) {
        // Sole writer while held, so a fetch_add (rather than a plain
        // store) is only needed for the Release ordering; use add to keep
        // the invariant now_serving <= next_ticket explicit.
        self.now_serving.0.fetch_add(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Mutex, PoisonError};

    #[test]
    fn mutual_exclusion() {
        let lock = Arc::new(TicketLock::new());
        let inside = Arc::new(AtomicBool::new(false));
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (lock, inside, counter) = (lock.clone(), inside.clone(), counter.clone());
                std::thread::spawn(move || {
                    for _ in 0..2000 {
                        lock.lock();
                        assert!(!inside.swap(true, Ordering::SeqCst));
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
        assert_eq!(counter.load(Ordering::Relaxed), 8000);
    }

    #[test]
    fn fifo_ordering_under_staged_arrival() {
        // Stage arrivals deterministically: the holder keeps the lock while
        // two waiters take tickets in a known order; they must be served in
        // that order.
        let lock = Arc::new(TicketLock::new());
        let order = Arc::new(Mutex::new(Vec::<u32>::new()));
        lock.lock();
        let mut handles = Vec::new();
        for id in 0..3u32 {
            let (lock, order) = (lock.clone(), order.clone());
            let ready = Arc::new(AtomicBool::new(false));
            let ready2 = ready.clone();
            handles.push(std::thread::spawn(move || {
                // Taking the ticket is the linearization point; signal once
                // we are certainly enqueued.
                let my = lock.next_ticket.0.fetch_add(1, Ordering::Relaxed);
                ready2.store(true, Ordering::Release);
                let mut backoff = Backoff::new();
                while lock.now_serving.0.load(Ordering::Acquire) != my {
                    backoff.snooze();
                }
                order
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(id);
                lock.unlock();
            }));
            while !ready.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }
        lock.unlock();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            *order.lock().unwrap_or_else(PoisonError::into_inner),
            vec![0, 1, 2],
            "ticket lock must serve FIFO"
        );
    }

    #[test]
    fn try_lock_contended_fails_without_queueing() {
        let lock = TicketLock::new();
        lock.lock();
        assert!(!lock.try_lock());
        assert_eq!(
            lock.queue_depth(),
            1,
            "failed try_lock must not leave a ticket behind"
        );
        lock.unlock();
        assert!(lock.try_lock());
        lock.unlock();
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

    #[test]
    fn queue_depth_tracks_waiters() {
        let lock = TicketLock::new();
        assert_eq!(lock.queue_depth(), 0);
        lock.lock();
        assert_eq!(lock.queue_depth(), 1);
        lock.unlock();
        assert_eq!(lock.queue_depth(), 0);
    }
}
