//! Offline shim for `loom`: a small systematic concurrency tester.
//!
//! [`model`] runs a closure under **every** sequentially-consistent
//! interleaving of its threads' shared-memory operations (up to the
//! configured bounds) and fails loudly — with a replayable schedule trace
//! — on the first interleaving that panics or deadlocks.
//!
//! # How it works
//!
//! Threads spawned with [`thread::spawn`] run as real OS threads, but the
//! scheduler serializes them: exactly one *model thread* is runnable at a
//! time, and every operation on a [`sync::atomic`] type is a *decision
//! point* where the scheduler may switch threads. The explorer performs an
//! iterative-deepening DFS over those decisions: each execution replays a
//! recorded prefix of choices and extends it; when an execution finishes,
//! the deepest not-yet-exhausted decision is advanced. Exploration
//! terminates when the whole (bounded) tree has been visited.
//!
//! Spin loops would make the tree infinite, so the scheduler coalesces
//! them: a thread that executes [`hint::spin_loop`] or
//! [`thread::yield_now`] is parked until some *other* thread performs an
//! atomic write that actually **changes a value** (a global write-epoch
//! counter tracks this). Re-running a spinner before anything changed
//! would revisit an identical state, so pruning those schedules loses no
//! behaviours for spin loops that re-read shared state each iteration —
//! the shape of every spin loop in `mtmpi-locks`. If every live thread is
//! parked and no write can ever advance the epoch, the execution is
//! reported as a **deadlock** together with each thread's state.
//!
//! # Fidelity limits (vs. real loom)
//!
//! * **Sequential consistency only.** Orderings are accepted and ignored;
//!   weak-memory reorderings (`Relaxed`/`Acquire`/`Release` distinctions)
//!   are *not* modelled. A test passing here proves the algorithm correct
//!   under SC interleavings; `xtask lint` + TSan cover ordering mistakes.
//! * No `UnsafeCell` access checking: non-atomic shared state is simply
//!   serialized by the scheduler (which is exactly the guarantee the
//!   locks under test are supposed to provide — their *atomics* are what
//!   get explored).
//! * Exploration is bounded by `LOOM_MAX_ITERATIONS` (default 200 000
//!   executions) and `LOOM_MAX_STEPS` (default 10 000 decisions per
//!   execution); exceeding either bound panics rather than silently
//!   passing.
//! * **Preemption bounding**: at most `LOOM_MAX_PREEMPTIONS` (default 2)
//!   switches away from a still-runnable thread per execution; switches
//!   at parks, blocks, and exits are unlimited. This is the CHESS
//!   result — almost all concurrency bugs manifest within two
//!   preemptions — and the same knob real loom exposes. Raise it for a
//!   deeper (slower) search.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool as StdAtomicBool, Ordering as StdOrdering};
use std::sync::{Arc as StdArc, Condvar, Mutex};

thread_local! {
    /// The scheduler of the model execution this OS thread belongs to
    /// (with its model-thread id), or `None` outside `model()`.
    static CURRENT: RefCell<Option<(StdArc<Scheduler>, usize)>> = const { RefCell::new(None) };
}

/// What a parked model thread is waiting for.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Status {
    /// Eligible to be scheduled.
    Runnable,
    /// Parked in a spin/yield; eligible once `write_epoch > epoch`.
    Yielded { epoch: u64 },
    /// Waiting for thread `target` to finish.
    BlockedJoin { target: usize },
    /// Finished (possibly by panic).
    Finished,
}

/// One scheduling decision made during an execution: which of the enabled
/// threads ran, out of how many.
#[derive(Debug, Clone, Copy)]
struct Decision {
    /// Index *within the enabled set* that was chosen.
    choice: usize,
    /// Size of the enabled set (for backtracking).
    enabled: usize,
}

#[derive(Debug)]
struct SchedState {
    status: Vec<Status>,
    /// Thread currently allowed to run.
    active: usize,
    /// Monotonic counter of value-changing atomic writes.
    write_epoch: u64,
    /// Per-thread epoch of the start of its current *observation
    /// window*: the epoch right before the first atomic op the thread
    /// performed since it last parked. Parking uses this, NOT the epoch
    /// of the thread's latest op: a window may span several loads (and
    /// several consecutive parks with no load in between), and a write
    /// landing anywhere after the window opened must re-enable the
    /// parked thread.
    iter_epoch: Vec<u64>,
    /// True while the thread has not yet performed an atomic op in its
    /// current observation window (set at registration and at parks).
    fresh: Vec<bool>,
    /// Choices to replay from the previous execution (DFS prefix).
    prefix: Vec<usize>,
    /// Decisions taken so far in this execution.
    trace: Vec<Decision>,
    /// Index of the next decision.
    cursor: usize,
    /// Abort reason (panic message or deadlock report), if any.
    failure: Option<String>,
    /// Total decision points this execution (step bound).
    steps: u64,
    max_steps: u64,
    /// Preemptive context switches taken so far this execution: choosing
    /// a different thread while the active one was still Runnable.
    /// Natural switches (park, block, finish) are not counted.
    preemptions: u64,
    max_preemptions: u64,
}

/// Serializing scheduler shared by all threads of one model execution.
struct Scheduler {
    state: Mutex<SchedState>,
    cv: Condvar,
}

/// Internal marker panic used to unwind a model thread once the execution
/// has already failed; filtered out by the thread wrapper.
struct Aborted;

impl Scheduler {
    /// Lock the scheduler state, ignoring poisoning: model threads panic
    /// on purpose (assert failures, aborts) while holding this lock, and
    /// the state stays consistent because every mutation is complete
    /// before any panic site.
    fn lock_state(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn new(prefix: Vec<usize>, max_steps: u64, max_preemptions: u64) -> Self {
        Self {
            state: Mutex::new(SchedState {
                status: vec![Status::Runnable],
                active: 0,
                write_epoch: 0,
                iter_epoch: vec![0],
                fresh: vec![true],
                prefix,
                trace: Vec::new(),
                cursor: 0,
                failure: None,
                steps: 0,
                max_steps,
                preemptions: 0,
                max_preemptions,
            }),
            cv: Condvar::new(),
        }
    }

    /// Register a newly spawned model thread; returns its id.
    fn register(&self) -> usize {
        let mut st = self.lock_state();
        st.status.push(Status::Runnable);
        let epoch = st.write_epoch;
        st.iter_epoch.push(epoch);
        st.fresh.push(true);
        st.status.len() - 1
    }

    /// The enabled set: runnable threads plus yielded threads whose parked
    /// epoch has been overtaken by a value-changing write.
    fn enabled(st: &SchedState) -> Vec<usize> {
        st.status
            .iter()
            .enumerate()
            .filter(|(_, s)| match s {
                Status::Runnable => true,
                Status::Yielded { epoch } => st.write_epoch > *epoch,
                _ => false,
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Pick and activate the next thread. Must be called with the state
    /// lock held and a decision pending. Returns the chosen thread.
    fn schedule_next(&self, st: &mut SchedState) -> usize {
        let enabled = Self::enabled(st);
        if enabled.is_empty() {
            let live: Vec<String> = st
                .status
                .iter()
                .enumerate()
                .filter(|(_, s)| **s != Status::Finished)
                .map(|(i, s)| format!("thread {i}: {s:?}"))
                .collect();
            let msg = format!(
                "deadlock: no thread can make progress\n  {}",
                live.join("\n  ")
            );
            st.failure = Some(msg);
            self.cv.notify_all();
            panic!("loom execution aborted");
        }
        st.steps += 1;
        if st.steps > st.max_steps {
            st.failure = Some(format!(
                "step bound exceeded ({} decisions); likely livelock or a \
                 spin loop not using loom-aware yields",
                st.max_steps
            ));
            self.cv.notify_all();
            panic!("loom execution aborted");
        }
        // Preemption bounding (CHESS-style): switching away from a thread
        // that is still Runnable is a preemption; once the budget is
        // spent, such a thread keeps running (forced, unrecorded).
        // Natural switch points — the active thread parked, blocked, or
        // finished — stay fully branching, so hand-off schedules are
        // always explored.
        let active_runnable =
            st.active < st.status.len() && st.status[st.active] == Status::Runnable;
        let budget_spent = st.preemptions >= st.max_preemptions;
        let choice = if enabled.len() == 1 {
            // Forced move: not a branching decision, don't record it.
            0
        } else if active_runnable && budget_spent {
            enabled
                .iter()
                .position(|&t| t == st.active)
                .expect("active Runnable thread missing from enabled set")
        } else {
            let k = st.cursor;
            let c = st.prefix.get(k).copied().unwrap_or(0);
            assert!(
                c < enabled.len(),
                "loom replay diverged (nondeterministic model?)"
            );
            st.trace.push(Decision {
                choice: c,
                enabled: enabled.len(),
            });
            st.cursor += 1;
            c
        };
        let tid = enabled[choice];
        if active_runnable && tid != st.active {
            st.preemptions += 1;
        }
        // A yielded thread that gets scheduled becomes runnable again.
        st.status[tid] = Status::Runnable;
        st.active = tid;
        self.cv.notify_all();
        tid
    }

    /// Block until it is `tid`'s turn to run (or the execution failed).
    fn wait_turn(&self, tid: usize) {
        let mut st = self.lock_state();
        while st.active != tid || st.status[tid] != Status::Runnable {
            if st.failure.is_some() {
                drop(st);
                panic!("loom execution aborted");
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// A decision point before a shared-memory operation by `tid`.
    /// `yields` marks spin/yield hints (thread parks until a change).
    fn decision_point(&self, tid: usize, yields: bool) {
        let mut st = self.lock_state();
        if st.failure.is_some() {
            drop(st);
            panic!("loom execution aborted");
        }
        debug_assert_eq!(st.active, tid, "decision point from a non-active thread");
        if yields {
            // Park with the window-start epoch; any write at or after
            // the window's first op re-enables us. The park opens a new
            // window (whose epoch is fixed by the next op we perform).
            let epoch = st.iter_epoch[tid];
            st.status[tid] = Status::Yielded { epoch };
            st.fresh[tid] = true;
        }
        let chosen = self.schedule_next(&mut st);
        if chosen != tid {
            while st.active != tid || st.status[tid] != Status::Runnable {
                if st.failure.is_some() {
                    drop(st);
                    panic!("loom execution aborted");
                }
                st = self
                    .cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        if !yields && st.fresh[tid] {
            // First atomic op of a new observation window: it executes
            // right after we return (no other thread can run before
            // then), so the current epoch bounds everything this window
            // can observe.
            st.iter_epoch[tid] = st.write_epoch;
            st.fresh[tid] = false;
        }
    }

    /// Record the outcome of an atomic operation by `tid`: bump the write
    /// epoch when a store actually changed the value, re-enabling any
    /// thread parked in an earlier iteration.
    fn note_op(&self, _tid: usize, value_changed: bool) {
        if value_changed {
            let mut st = self.lock_state();
            st.write_epoch += 1;
        }
    }

    /// Block `tid` until `target` finishes.
    fn join(&self, tid: usize, target: usize) {
        let mut st = self.lock_state();
        if st.failure.is_some() {
            drop(st);
            panic!("loom execution aborted");
        }
        if st.status[target] == Status::Finished {
            return;
        }
        st.status[tid] = Status::BlockedJoin { target };
        self.schedule_next(&mut st);
        while st.active != tid || st.status[tid] != Status::Runnable {
            if st.failure.is_some() {
                drop(st);
                panic!("loom execution aborted");
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Mark `tid` finished, wake its joiners, and schedule whoever is
    /// next (unless everything is done).
    fn finish(&self, tid: usize) {
        let mut st = self.lock_state();
        st.status[tid] = Status::Finished;
        let joiners: Vec<usize> = st
            .status
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Status::BlockedJoin { target } if *target == tid))
            .map(|(i, _)| i)
            .collect();
        for j in joiners {
            st.status[j] = Status::Runnable;
        }
        if st.status.iter().all(|s| *s == Status::Finished) {
            self.cv.notify_all();
            return;
        }
        if st.failure.is_none() {
            self.schedule_next(&mut st);
        } else {
            self.cv.notify_all();
        }
    }

    /// Record a real failure (test panic) for diagnosis.
    fn fail(&self, msg: String) {
        let mut st = self.lock_state();
        if st.failure.is_none() {
            st.failure = Some(msg);
        }
        self.cv.notify_all();
    }
}

/// Access the current model context, if any.
fn with_current<R>(f: impl FnOnce(&StdArc<Scheduler>, usize) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_ref().map(|(s, tid)| f(s, *tid)))
}

/// Decision point helper used by all shim atomics.
fn op_decision(yields: bool) {
    with_current(|s, tid| s.decision_point(tid, yields));
}

/// Post-op bookkeeping helper.
fn op_note(value_changed: bool) {
    with_current(|s, tid| s.note_op(tid, value_changed));
}

/// Explore every bounded interleaving of `f`'s threads.
///
/// Panics (with the failing schedule's decision trace) if any
/// interleaving panics, deadlocks, or exceeds the step bound.
#[expect(
    clippy::disallowed_methods,
    reason = "the shim mirrors loom's `LOOM_*` environment interface"
)]
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let f = StdArc::new(f);
    let max_iterations: u64 = std::env::var("LOOM_MAX_ITERATIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200_000);
    let max_steps: u64 = std::env::var("LOOM_MAX_STEPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let max_preemptions: u64 = std::env::var("LOOM_MAX_PREEMPTIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);

    let mut prefix: Vec<usize> = Vec::new();
    let mut iterations: u64 = 0;
    loop {
        iterations += 1;
        assert!(
            iterations <= max_iterations,
            "loom: exploration did not finish within {max_iterations} executions; \
             reduce the model size or raise LOOM_MAX_ITERATIONS"
        );
        let sched = StdArc::new(Scheduler::new(prefix.clone(), max_steps, max_preemptions));
        let (trace, failure) = run_once(&sched, &f);
        if let Some(msg) = failure {
            let schedule: Vec<usize> = trace.iter().map(|d| d.choice).collect();
            panic!(
                "loom: failing interleaving found after {iterations} execution(s)\n\
                 schedule (choice per decision): {schedule:?}\n{msg}"
            );
        }
        // Backtrack: advance the deepest decision that still has an
        // unexplored sibling; drop everything after it.
        let mut next = None;
        for (i, d) in trace.iter().enumerate().rev() {
            if d.choice + 1 < d.enabled {
                next = Some((i, d.choice + 1));
                break;
            }
        }
        match next {
            Some((i, c)) => {
                prefix = trace[..i].iter().map(|d| d.choice).collect();
                prefix.push(c);
            }
            None => break, // tree exhausted
        }
    }
}

/// Run one execution of the model; returns the decision trace and the
/// failure (if any).
fn run_once<F>(sched: &StdArc<Scheduler>, f: &StdArc<F>) -> (Vec<Decision>, Option<String>)
where
    F: Fn() + Send + Sync + 'static,
{
    let sched2 = sched.clone();
    let f2 = f.clone();
    // Root runs on a dedicated OS thread so that the CURRENT binding and
    // any leaked model threads cannot outlive-pollute the caller.
    let root = std::thread::spawn(move || {
        CURRENT.with(|c| *c.borrow_mut() = Some((sched2.clone(), 0)));
        let result = catch_unwind(AssertUnwindSafe(|| f2()));
        if let Err(payload) = result {
            if payload.downcast_ref::<Aborted>().is_none() {
                sched2.fail(panic_message(payload.as_ref()));
            }
        }
        sched2.finish(0);
        CURRENT.with(|c| *c.borrow_mut() = None);
    });
    let _ = root.join();
    let st = sched.lock_state();
    (st.trace.clone(), st.failure.clone())
}

/// Best-effort extraction of a panic payload message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

pub mod thread {
    //! Model-aware threading (subset of `loom::thread` / `std::thread`).
    use super::{
        panic_message, with_current, Aborted, AssertUnwindSafe, StdArc, StdAtomicBool, StdOrdering,
        CURRENT,
    };
    use std::panic::catch_unwind;

    /// Handle to a model thread (wraps the OS handle).
    pub struct JoinHandle<T> {
        os: std::thread::JoinHandle<Option<T>>,
        tid: usize,
        /// Set if the child panicked with a real (non-abort) payload.
        panicked: StdArc<StdAtomicBool>,
    }

    impl<T> JoinHandle<T> {
        /// Wait for the thread; `Err` if it panicked (like std).
        pub fn join(self) -> std::thread::Result<T> {
            // Block in the model first, so the scheduler can explore
            // orderings; the OS join below then cannot block long.
            if let Some((s, me)) = super::CURRENT.with(|c| c.borrow().clone()) {
                s.join(me, self.tid);
            }
            match self.os.join() {
                Ok(Some(v)) => Ok(v),
                Ok(None) => {
                    // Child aborted or panicked; surface it as a panic
                    // result like std would.
                    if self.panicked.load(StdOrdering::SeqCst) {
                        Err(Box::new("model thread panicked"))
                    } else {
                        Err(Box::new(Aborted))
                    }
                }
                Err(e) => Err(e),
            }
        }
    }

    /// Spawn a model thread. Must be called inside [`super::model`].
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let (sched, _parent) = CURRENT
            .with(|c| c.borrow().clone())
            .expect("loom::thread::spawn outside of loom::model");
        let tid = sched.register();
        let sched2 = sched.clone();
        let panicked = StdArc::new(StdAtomicBool::new(false));
        let panicked2 = panicked.clone();
        let os = std::thread::spawn(move || {
            CURRENT.with(|c| *c.borrow_mut() = Some((sched2.clone(), tid)));
            // Wait to be scheduled for the first time.
            sched2.wait_turn(tid);
            let result = catch_unwind(AssertUnwindSafe(f));
            let out = match result {
                Ok(v) => Some(v),
                Err(payload) => {
                    if payload.downcast_ref::<Aborted>().is_none() {
                        panicked2.store(true, StdOrdering::SeqCst);
                        sched2.fail(panic_message(payload.as_ref()));
                    }
                    None
                }
            };
            sched2.finish(tid);
            CURRENT.with(|c| *c.borrow_mut() = None);
            out
        });
        let _ = &sched;
        JoinHandle { os, tid, panicked }
    }

    /// Cooperative yield: parks the thread until shared state changes.
    pub fn yield_now() {
        let in_model = with_current(|_, _| ()).is_some();
        if in_model {
            super::op_decision(true);
        } else {
            std::thread::yield_now();
        }
    }
}

pub mod hint {
    //! Spin hints (subset of `loom::hint`).

    /// Model-aware `std::hint::spin_loop`: a parking decision point.
    pub fn spin_loop() {
        let in_model = super::with_current(|_, _| ()).is_some();
        if in_model {
            super::op_decision(true);
        } else {
            std::hint::spin_loop();
        }
    }
}

pub mod sync {
    //! Model-aware synchronization types (subset of `loom::sync`).

    pub use std::sync::Arc;

    pub mod atomic {
        //! Model-aware atomics. Every operation is a scheduler decision
        //! point; the memory model explored is sequential consistency
        //! (orderings are accepted for API compatibility and ignored).
        pub use std::sync::atomic::Ordering;

        macro_rules! model_atomic {
            ($name:ident, $std:ident, $t:ty) => {
                /// Model-aware atomic; see module docs.
                #[derive(Debug, Default)]
                pub struct $name {
                    inner: std::sync::atomic::$std,
                }

                impl $name {
                    /// Create a new atomic.
                    pub const fn new(v: $t) -> Self {
                        Self {
                            inner: std::sync::atomic::$std::new(v),
                        }
                    }

                    /// Atomic load (decision point).
                    pub fn load(&self, _o: Ordering) -> $t {
                        crate::op_decision(false);
                        let v = self.inner.load(Ordering::SeqCst);
                        crate::op_note(false);
                        v
                    }

                    /// Atomic store (decision point; bumps the write
                    /// epoch when the value changes).
                    pub fn store(&self, v: $t, _o: Ordering) {
                        crate::op_decision(false);
                        let old = self.inner.swap(v, Ordering::SeqCst);
                        crate::op_note(old != v);
                    }

                    /// Atomic swap.
                    pub fn swap(&self, v: $t, _o: Ordering) -> $t {
                        crate::op_decision(false);
                        let old = self.inner.swap(v, Ordering::SeqCst);
                        crate::op_note(old != v);
                        old
                    }

                    /// Atomic compare-exchange.
                    pub fn compare_exchange(
                        &self,
                        current: $t,
                        new: $t,
                        _ok: Ordering,
                        _err: Ordering,
                    ) -> Result<$t, $t> {
                        crate::op_decision(false);
                        let r = self.inner.compare_exchange(
                            current,
                            new,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        );
                        crate::op_note(r.is_ok() && current != new);
                        r
                    }

                    /// Weak CEX; never fails spuriously in this model.
                    pub fn compare_exchange_weak(
                        &self,
                        current: $t,
                        new: $t,
                        ok: Ordering,
                        err: Ordering,
                    ) -> Result<$t, $t> {
                        self.compare_exchange(current, new, ok, err)
                    }

                    /// Non-atomic read for post-join assertions.
                    pub fn into_inner(self) -> $t {
                        self.inner.into_inner()
                    }
                }
            };
        }

        model_atomic!(AtomicBool, AtomicBool, bool);
        model_atomic!(AtomicU8, AtomicU8, u8);
        model_atomic!(AtomicU32, AtomicU32, u32);
        model_atomic!(AtomicU64, AtomicU64, u64);
        model_atomic!(AtomicUsize, AtomicUsize, usize);

        macro_rules! model_atomic_arith {
            ($name:ident, $t:ty) => {
                impl $name {
                    /// Atomic add, returning the previous value.
                    pub fn fetch_add(&self, v: $t, _o: Ordering) -> $t {
                        crate::op_decision(false);
                        let old = self.inner.fetch_add(v, Ordering::SeqCst);
                        crate::op_note(v != 0);
                        old
                    }

                    /// Atomic subtract, returning the previous value.
                    pub fn fetch_sub(&self, v: $t, _o: Ordering) -> $t {
                        crate::op_decision(false);
                        let old = self.inner.fetch_sub(v, Ordering::SeqCst);
                        crate::op_note(v != 0);
                        old
                    }
                }
            };
        }

        model_atomic_arith!(AtomicU32, u32);
        model_atomic_arith!(AtomicU64, u64);
        model_atomic_arith!(AtomicUsize, usize);
    }
}

/// FIFO event log for asserting orderings across model threads. Not part
/// of real loom, but small, shared, and serialized by the scheduler, so
/// tests don't have to build one out of atomics.
#[derive(Debug, Default)]
pub struct EventLog<T> {
    events: Mutex<VecDeque<T>>,
}

impl<T: Clone> EventLog<T> {
    /// Empty log.
    pub fn new() -> Self {
        Self {
            events: Mutex::new(VecDeque::new()),
        }
    }

    /// Append an event.
    pub fn push(&self, e: T) {
        self.events.lock().unwrap().push_back(e);
    }

    /// Snapshot of all events in order.
    pub fn events(&self) -> Vec<T> {
        self.events.lock().unwrap().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use super::sync::Arc;

    #[test]
    fn explores_both_orders_of_two_writers() {
        // Two threads each store a distinct value; both final values must
        // be observed across the exploration.
        use std::sync::atomic::AtomicBool as StdBool;
        let saw_one = std::sync::Arc::new(StdBool::new(false));
        let saw_two = std::sync::Arc::new(StdBool::new(false));
        let (s1, s2) = (saw_one.clone(), saw_two.clone());
        super::model(move || {
            let x = Arc::new(AtomicUsize::new(0));
            let x2 = x.clone();
            let h = super::thread::spawn(move || x2.store(1, Ordering::SeqCst));
            x.store(2, Ordering::SeqCst);
            h.join().unwrap();
            match x.load(Ordering::SeqCst) {
                1 => s1.store(true, std::sync::atomic::Ordering::SeqCst),
                2 => s2.store(true, std::sync::atomic::Ordering::SeqCst),
                v => panic!("impossible final value {v}"),
            }
        });
        assert!(
            saw_one.load(std::sync::atomic::Ordering::SeqCst),
            "store order 2-then-1 never explored"
        );
        assert!(
            saw_two.load(std::sync::atomic::Ordering::SeqCst),
            "store order 1-then-2 never explored"
        );
    }

    #[test]
    fn finds_mutual_exclusion_bug_in_naive_lock() {
        // A check-then-set "lock" is broken; the model must find the
        // interleaving where both threads enter.
        let result = std::panic::catch_unwind(|| {
            super::model(|| {
                let locked = Arc::new(AtomicBool::new(false));
                let inside = Arc::new(AtomicUsize::new(0));
                let mut handles = Vec::new();
                for _ in 0..2 {
                    let (locked, inside) = (locked.clone(), inside.clone());
                    handles.push(super::thread::spawn(move || {
                        // Broken acquire: load then store, not a CAS.
                        while locked.load(Ordering::SeqCst) {
                            super::hint::spin_loop();
                        }
                        locked.store(true, Ordering::SeqCst);
                        let n = inside.fetch_add(1, Ordering::SeqCst);
                        assert_eq!(n, 0, "two threads inside the critical section");
                        inside.fetch_sub(1, Ordering::SeqCst);
                        locked.store(false, Ordering::SeqCst);
                    }));
                }
                for h in handles {
                    h.join().unwrap();
                }
            });
        });
        assert!(result.is_err(), "model missed the race in a broken lock");
    }

    #[test]
    fn cas_lock_passes() {
        // The correct CAS version must survive full exploration.
        super::model(|| {
            let locked = Arc::new(AtomicBool::new(false));
            let inside = Arc::new(AtomicUsize::new(0));
            let mut handles = Vec::new();
            for _ in 0..2 {
                let (locked, inside) = (locked.clone(), inside.clone());
                handles.push(super::thread::spawn(move || {
                    while locked
                        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                        .is_err()
                    {
                        super::hint::spin_loop();
                    }
                    let n = inside.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(n, 0);
                    inside.fetch_sub(1, Ordering::SeqCst);
                    locked.store(false, Ordering::SeqCst);
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    #[test]
    fn reports_deadlock() {
        // Thread A spins on a flag nobody ever sets: deadlock.
        let result = std::panic::catch_unwind(|| {
            super::model(|| {
                let flag = Arc::new(AtomicBool::new(false));
                let h = super::thread::spawn(move || {
                    while !flag.load(Ordering::SeqCst) {
                        super::hint::spin_loop();
                    }
                });
                h.join().unwrap();
            });
        });
        let msg = super::panic_message(result.expect_err("deadlock not detected").as_ref());
        assert!(
            msg.contains("deadlock"),
            "unexpected failure message: {msg}"
        );
    }

    #[test]
    fn spin_coalescing_keeps_handoff_finite() {
        // A spinning consumer plus a producing thread: exploration must
        // terminate (spin loop coalescing) and always see the handoff.
        super::model(|| {
            let flag = Arc::new(AtomicBool::new(false));
            let data = Arc::new(AtomicUsize::new(0));
            let (f2, d2) = (flag.clone(), data.clone());
            let h = super::thread::spawn(move || {
                d2.store(42, Ordering::SeqCst);
                f2.store(true, Ordering::SeqCst);
            });
            while !flag.load(Ordering::SeqCst) {
                super::hint::spin_loop();
            }
            assert_eq!(data.load(Ordering::SeqCst), 42, "handoff lost");
            h.join().unwrap();
        });
    }
}
