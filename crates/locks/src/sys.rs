//! Sync-primitive shim: the single point where lock implementations bind
//! to either the real platform primitives or the `loom` model checker.
//!
//! Every lock in this crate imports its atomics, spin hints, and yields
//! from `crate::sys` instead of `std`. In a normal build this module is a
//! zero-cost re-export of `std::sync::atomic` / `std::hint` /
//! `std::thread`. With `--features loom-check` it re-exports the loom
//! equivalents, so `tests/loom.rs` can exhaustively explore every
//! interleaving of the lock protocols (see that file for the invariants
//! checked).
//!
//! Rules for lock code using this module:
//!
//! * All shared mutable state crossed by the protocol must be one of the
//!   atomic types exported here — plain fields are invisible to the model.
//! * Spin loops must call [`spin_loop`] or [`yield_now`] on every
//!   iteration; under the model these park the thread until another
//!   thread changes shared state (which both bounds exploration and turns
//!   lost-wakeup bugs into reported deadlocks).
//! * No `std::thread::sleep` or OS blocking on the protocol paths.

#[cfg(not(feature = "loom-check"))]
pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

#[cfg(feature = "loom-check")]
pub use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Spin-wait hint; a parking decision point under the model.
#[inline]
pub fn spin_loop() {
    #[cfg(not(feature = "loom-check"))]
    std::hint::spin_loop();
    #[cfg(feature = "loom-check")]
    loom::hint::spin_loop();
}

/// Yield the thread; a parking decision point under the model.
#[inline]
pub fn yield_now() {
    #[cfg(not(feature = "loom-check"))]
    std::thread::yield_now();
    #[cfg(feature = "loom-check")]
    loom::thread::yield_now();
}
