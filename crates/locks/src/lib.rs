//! Synchronization primitives for multithreaded MPI runtimes.
//!
//! This crate implements, as real usable Rust locks, the synchronization
//! constructs of *MPI+Threads: Runtime Contention and Remedies* (PPoPP'15):
//!
//! * [`TicketLock`] — the FCFS lock of Fig 4 (one `fetch_add`, local-ish
//!   spinning on `now_serving`), the paper's first remedy (§5.1);
//! * [`PriorityTicketLock`] — the custom two-level scheme of Fig 7
//!   (`ticket_H`/`ticket_L`/`ticket_B` + `already_blocked`), the paper's
//!   second remedy (§5.2), which favours threads on the *main path* over
//!   threads polling in the *progress loop*;
//! * [`FutexMutex`] — a barging sleep/wake mutex modelling the NPTL default
//!   mutex the paper analyses (§2.2): user-space CAS fast path, parked
//!   waiters, and *no* fairness guarantee — a woken waiter races new
//!   arrivals, so the fastest (cache-closest) thread wins.
//!
//! The runtime consumes locks through the [`CsLock`] trait, which carries
//! the paper's *path class* ([`PathClass::Main`] vs [`PathClass::Progress`])
//! so that priority-aware locks can discriminate while flat locks ignore
//! it. [`Traced`] wraps any `CsLock` and records an acquisition trace in
//! the [`mtmpi_metrics`] format for the §4.3 fairness analysis.

pub mod cell;
pub mod futex;
pub mod path;
pub mod priority;
pub mod raw;
pub mod sys;
pub mod ticket;
pub mod traced;

pub use cell::LockCell;
pub use futex::FutexMutex;
pub use path::PathClass;
pub use priority::PriorityTicketLock;
pub use raw::{CsLock, RawLock};
pub use ticket::{Backoff, TicketLock};
pub use traced::{current_core, set_current_core, swap_current_core, Traced};
