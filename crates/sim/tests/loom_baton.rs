//! Loom model of the baton slot (`Slot` in `crates/sim/src/virt/mod.rs`).
//!
//! The virtual platform's whole transport is one word per OS thread:
//!
//! * `baton` — the baton holder writes the value it hands over, then
//!   CASes `EMPTY→GO` (Release) and unparks the owner; the owner CASes
//!   `GO→EMPTY` (Acquire) and only then reads the value. `ABORT` is set
//!   by a swap, is never overwritten, and makes every `wait` return
//!   `None`;
//! * the park token — `std::thread::unpark` before `park` makes that
//!   `park` return at once, so a wake that lands between the owner's
//!   `baton` check and its `park` is not lost.
//!
//! These tests re-state that protocol on `loom` atomics — field name,
//! word values and orderings mirror `Slot` line for line, with the park
//! token made explicit — and let the model check every bounded
//! interleaving. The shim explores SC schedules (orderings are not
//! weakened); the Release/Acquire *choice* itself is what `mtmpi-lint`
//! rules L001/L002 pin in the real source.

use loom::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use loom::sync::Arc;
use std::cell::UnsafeCell;

// Mirror of mod.rs's `Slot::baton` values.
const EMPTY: u32 = 0;
const GO: u32 = 1;
const ABORT: u32 = 2;

/// Model of `Slot<u64>` plus its owner thread's park token.
struct ModelSlot {
    baton: AtomicU32,
    /// Stands in for `Slot::value`: written by the depositor before the
    /// `GO` CAS, read by the owner after it consumed `GO`.
    value: UnsafeCell<Option<u64>>,
    /// The owner's `std::thread` park token.
    token: AtomicBool,
}

// SAFETY: `value` is written only by the baton holder before its
// `EMPTY→GO` CAS and read only by the owner after its `GO→EMPTY` CAS —
// the exact contract the model verifies.
unsafe impl Send for ModelSlot {}
// SAFETY: same contract as Send — the baton word serializes all access
// to `value`.
unsafe impl Sync for ModelSlot {}

impl ModelSlot {
    fn new() -> Self {
        Self {
            baton: AtomicU32::new(EMPTY),
            value: UnsafeCell::new(None),
            token: AtomicBool::new(false),
        }
    }

    /// `Thread::unpark`: leave the token.
    fn unpark_owner(&self) {
        self.token.store(true, Ordering::Release);
    }

    /// `std::thread::park`: consume the token, blocking until there is
    /// one.
    fn park(&self) {
        while !self.token.swap(false, Ordering::Acquire) {
            loom::hint::spin_loop();
        }
    }

    /// `Slot::deposit`, verbatim orderings.
    fn deposit(&self, v: u64) {
        // SAFETY: the caller holds the baton and `baton` is not `GO`, so
        // the owner is not reading `value`.
        unsafe { *self.value.get() = Some(v) };
        if self
            .baton
            .compare_exchange(EMPTY, GO, Ordering::Release, Ordering::Acquire)
            .is_ok()
        {
            self.unpark_owner();
        }
    }

    /// `Slot::wait`, verbatim orderings.
    fn wait(&self) -> Option<u64> {
        loop {
            match self
                .baton
                .compare_exchange(GO, EMPTY, Ordering::Acquire, Ordering::Acquire)
            {
                // SAFETY: this thread just consumed `GO` — the depositor
                // is done with `value` and nobody deposits again until
                // this thread passes the baton on.
                Ok(_) => return unsafe { (*self.value.get()).take() },
                Err(ABORT) => return None,
                Err(_) => self.park(),
            }
        }
    }

    /// `Slot::abort`, verbatim ordering.
    fn abort(&self) {
        self.baton.swap(ABORT, Ordering::AcqRel);
        self.unpark_owner();
    }

    /// `Slot::is_aborted`, verbatim ordering.
    fn is_aborted(&self) -> bool {
        self.baton.load(Ordering::Acquire) == ABORT
    }
}

/// The resume edge: the reply written before the `EMPTY→GO` CAS is what
/// the owner reads after its `GO→EMPTY` CAS — in every interleaving,
/// including the ones where the whole deposit (CAS and unpark) lands
/// between the owner's failed check and its park, or before the owner
/// looks at all. A lost wake-up would show as a deadlock.
#[test]
fn deposit_publishes_the_reply_and_the_wake_is_never_lost() {
    loom::model(|| {
        let slot = Arc::new(ModelSlot::new());
        let holder = {
            let slot = Arc::clone(&slot);
            loom::thread::spawn(move || slot.deposit(42))
        };
        assert_eq!(slot.wait(), Some(42), "GO must publish the reply");
        holder.join().unwrap();
        assert_eq!(slot.baton.load(Ordering::Acquire), EMPTY);
    });
}

/// A stale token (an `unpark` whose `GO` was already consumed without
/// parking) only costs a spurious wake: the next `wait` re-checks the
/// word, parks again, and still gets the next deposit.
#[test]
fn stale_token_does_not_fake_a_resume() {
    loom::model(|| {
        let slot = Arc::new(ModelSlot::new());
        // Left over from an earlier hand-off that was consumed by the
        // check alone.
        slot.unpark_owner();
        let holder = {
            let slot = Arc::clone(&slot);
            loom::thread::spawn(move || slot.deposit(7))
        };
        assert_eq!(slot.wait(), Some(7));
        holder.join().unwrap();
    });
}

/// `ABORT` racing a resume (cancellation is only issued by the baton
/// holder in the real source; the model lets them race anyway): the
/// owner never hangs, it returns either the deposited reply or `None`,
/// and `ABORT` is sticky — the deposit's CAS cannot overwrite it, so the
/// owner's next `wait` (or its `is_aborted` guard) always sees it.
#[test]
fn abort_racing_a_resume_is_never_lost() {
    loom::model(|| {
        let slot = Arc::new(ModelSlot::new());
        let holder = {
            let slot = Arc::clone(&slot);
            loom::thread::spawn(move || slot.deposit(9))
        };
        let canceller = {
            let slot = Arc::clone(&slot);
            loom::thread::spawn(move || slot.abort())
        };
        let first = slot.wait();
        assert!(matches!(first, Some(9) | None), "got {first:?}");
        if first.is_some() {
            // Resumed just ahead of the abort: the next sync point must
            // still observe it.
            assert_eq!(slot.wait(), None, "ABORT must outlive a consumed GO");
        }
        holder.join().unwrap();
        canceller.join().unwrap();
        assert!(slot.is_aborted(), "a deposit overwrote ABORT");
    });
}

/// Scheduler state the baton protects (`Shared::sched` in the source;
/// the mutex there is never contended because only the holder takes it).
struct ModelRun {
    live: UnsafeCell<u32>,
    stepper: ModelSlot,
    worker_b: ModelSlot,
}

// SAFETY: `live` is only touched by the thread holding the baton; the
// slot words hand that exclusivity from thread to thread.
unsafe impl Send for ModelRun {}
// SAFETY: same contract as Send.
unsafe impl Sync for ModelRun {}

const PENDING: u64 = 0;
const DONE: u64 = 1;

/// The stepper hand-back racing a worker's `Done`: worker A retires and
/// ends quantum 1 (`Pending`) in one go, then exits — its `unpark` may
/// land after the stepper has already consumed `GO` and started quantum
/// 2. The stepper resumes worker B and parks again; the stale wake must
/// not be taken for B's hand-back, B's retirement must be visible when
/// `Done` arrives, and nobody may hang.
#[test]
fn stepper_handback_racing_a_worker_done() {
    loom::model(|| {
        let run = Arc::new(ModelRun {
            live: UnsafeCell::new(2),
            stepper: ModelSlot::new(),
            worker_b: ModelSlot::new(),
        });
        // Worker A holds the baton as the model starts (the stepper
        // handed it out and is about to park).
        let a = {
            let run = Arc::clone(&run);
            loom::thread::spawn(move || {
                // SAFETY: A holds the baton.
                unsafe { *run.live.get() -= 1 };
                run.stepper.deposit(PENDING);
            })
        };
        let b = {
            let run = Arc::clone(&run);
            loom::thread::spawn(move || {
                let Some(_go) = run.worker_b.wait() else {
                    return;
                };
                // SAFETY: B consumed GO — it holds the baton.
                unsafe { *run.live.get() -= 1 };
                run.stepper.deposit(DONE);
            })
        };
        // step() #1
        assert_eq!(run.stepper.wait(), Some(PENDING));
        // SAFETY: the stepper consumed GO — it holds the baton.
        assert_eq!(unsafe { *run.live.get() }, 1, "A's retirement unpublished");
        // step() #2: hand out to B, park for the hand-back.
        run.worker_b.deposit(0);
        assert_eq!(run.stepper.wait(), Some(DONE));
        // SAFETY: as above.
        assert_eq!(unsafe { *run.live.get() }, 0, "B's retirement unpublished");
        a.join().unwrap();
        b.join().unwrap();
    });
}

/// Regression guard for the model itself: replace the token with a
/// wake that only reaches an owner *already* asleep (check-then-park
/// with a condition-less sleep) and the explorer must find the schedule
/// where the deposit lands between the check and the sleep — the owner
/// then sleeps forever, which the model reports as a deadlock.
#[test]
fn model_catches_check_then_park_without_a_token() {
    let result = std::panic::catch_unwind(|| {
        loom::model(|| {
            let baton = Arc::new(AtomicU32::new(EMPTY));
            let asleep = Arc::new(AtomicBool::new(false));
            let holder = {
                let (baton, asleep) = (Arc::clone(&baton), Arc::clone(&asleep));
                loom::thread::spawn(move || {
                    baton.store(GO, Ordering::Release);
                    // Broken: no token — an owner not yet asleep gets
                    // nothing to find when it does go to sleep.
                    if asleep.load(Ordering::Acquire) {
                        asleep.store(false, Ordering::Release);
                    }
                })
            };
            if baton.load(Ordering::Acquire) != GO {
                asleep.store(true, Ordering::Release);
                while asleep.load(Ordering::Acquire) {
                    loom::hint::spin_loop();
                }
            }
            holder.join().unwrap();
        });
    });
    assert!(
        result.is_err(),
        "the model failed to catch the lost wake-up of a token-less park"
    );
}
