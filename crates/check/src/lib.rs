//! `mtmpi-check` — dynamic correctness checkers for the lock & runtime
//! layers of the PPoPP'15 reproduction.
//!
//! Three analyses, one per module:
//!
//! * [`lock_order`] — a lockdep-style acquired-while-holding graph with
//!   cycle detection. Wrap any `CsLock` in [`Ordered`] and query
//!   [`LockOrderGraph::potential_deadlocks`]; a cycle means two code
//!   paths take the same locks in opposite orders.
//! * [`invariants`] — checkers over the grant statistics kept by
//!   `mtmpi_locks::Traced`: [`fifo_violations`] proves a "FIFO" lock
//!   barged, [`check_starvation`] turns the paper's §4.3 bias analysis
//!   into a thresholded pass/fail detector.
//! * [`leaks`] — the request life-cycle ledger ([`RequestLedger`]); the
//!   runtime bumps it at every Issue/Post/Complete/Free transition and
//!   asserts quiescence when the `World` drops, so a dropped `Request`
//!   handle or a lost completion fails loudly in debug builds.
//!
//! The loom model-checking tier lives in `mtmpi-locks` itself
//! (`cargo test -p mtmpi-locks --features loom-check`); this crate covers
//! the dynamic analyses that run in ordinary debug-build test runs.

pub mod invariants;
pub mod leaks;
pub mod lock_order;

pub use invariants::{
    check_starvation, fifo_violations, FifoViolation, StarvationReport, StarvationThresholds,
};
pub use leaks::{LeakReport, RequestLedger, SharedLedger};
pub use lock_order::{LockOrderGraph, Ordered, OrderedLockId};
