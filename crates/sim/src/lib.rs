//! Execution platforms.
//!
//! The MPI-subset runtime in `mtmpi-runtime` is written against the
//! [`Platform`] trait, which abstracts *time*, *threads*, *critical
//! sections*, and the *network mailbox*. Two implementations:
//!
//! * [`VirtualPlatform`] — a deterministic discrete-event executor.
//!   Worker closures run as fibers on the thread that steps the run (no
//!   OS thread per simulated thread), exactly one at a time, scheduled in
//!   virtual-time order. Critical sections are *arbitration
//!   models* rather than real locks: the biased NPTL-mutex model (user
//!   space CAS race won by cache proximity + futex sleep/wake), the FIFO
//!   ticket model, and the two-level priority model. This is how the
//!   paper's NUMA phenomena are reproduced bit-for-bit on any host —
//!   including the single-core container this project targets.
//! * [`NativePlatform`] — real `std::thread`s, real locks from
//!   `mtmpi-locks`, wall-clock time. The same runtime and application code
//!   runs unmodified; used by examples and cross-validation tests.
//!
//! Worker code obtains the platform through an `Arc<dyn Platform>` and
//! calls [`Platform::compute`] to account for local work,
//! [`Platform::lock_acquire`]/[`Platform::lock_release`] around shared
//! state, and [`Platform::net_send`]/[`Platform::net_poll`] for
//! communication. On the virtual platform, `compute` merely advances a
//! per-worker clock — threads only synchronize with the scheduler at
//! lock and network operations, which keeps simulation overhead
//! proportional to synchronization, not to work.

pub mod errors;
pub mod native;
pub mod platform;
pub mod sync;
pub mod virt;

pub use errors::{BlockedOn, BlockedThread, LockDiag, SimError};
pub use native::NativePlatform;
pub use platform::{
    LockId, LockKind, LockModelParams, Payload, Platform, PlatformReport, ThreadDesc,
};
pub use sync::SpinBarrier;
pub use virt::arena::Arena;
pub use virt::calendar::{CalendarQueue, Keyed};
pub use virt::{RunHandle, StepOutcome, VirtualPlatform};
