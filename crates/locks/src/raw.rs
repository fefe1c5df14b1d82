//! Lock traits.
//!
//! Two layers:
//!
//! * [`RawLock`] — a flat mutual-exclusion primitive (`lock`/`unlock`),
//!   implemented by the simple locks (ticket, futex mutex).
//! * [`CsLock`] — what the MPI runtime's *global critical section* needs:
//!   class-aware acquisition, so priority locks can distinguish main-path
//!   from progress-loop entries. Every `RawLock` is a `CsLock` that
//!   ignores the class.

use crate::path::PathClass;

/// A flat blocking mutual-exclusion lock.
///
/// # Safety contract
/// `unlock` must only be called by the thread that currently owns the lock
/// (enforced by the callers in this workspace, which always release in the
/// same scope that acquired).
pub trait RawLock: Send + Sync + Default {
    /// Lock name used in tables and traces ("mutex", "ticket", …).
    const NAME: &'static str;

    /// Block until the lock is held.
    fn lock(&self);

    /// Try to take the lock without blocking.
    fn try_lock(&self) -> bool;

    /// Release the lock. Caller must own it.
    fn unlock(&self);
}

/// A critical-section lock as used by the MPI runtime: class-aware.
/// Object-safe so the runtime can hold `Arc<dyn CsLock>`.
pub trait CsLock: Send + Sync {
    /// Name used in tables.
    fn name(&self) -> &'static str;

    /// Acquire the critical section from the given runtime path.
    fn acquire(&self, class: PathClass);

    /// Release the critical section. `class` must be the value from the
    /// matching `acquire`.
    fn release(&self, class: PathClass);

    /// Try to acquire without blocking; `false` if contended.
    ///
    /// The default conservatively fails, which is always correct: callers
    /// fall back to the blocking path.
    fn try_acquire(&self, _class: PathClass) -> bool {
        false
    }
}

impl CsLock for Box<dyn CsLock> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn acquire(&self, class: PathClass) {
        (**self).acquire(class);
    }

    fn release(&self, class: PathClass) {
        (**self).release(class);
    }

    fn try_acquire(&self, class: PathClass) -> bool {
        (**self).try_acquire(class)
    }
}

impl<L: RawLock> CsLock for L {
    fn name(&self) -> &'static str {
        L::NAME
    }

    fn acquire(&self, _class: PathClass) {
        self.lock();
    }

    fn release(&self, _class: PathClass) {
        self.unlock();
    }

    fn try_acquire(&self, _class: PathClass) -> bool {
        self.try_lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket::TicketLock;

    #[test]
    fn raw_lock_is_cs_lock() {
        let l = TicketLock::default();
        CsLock::acquire(&l, PathClass::Main);
        assert!(!CsLock::try_acquire(&l, PathClass::Progress));
        CsLock::release(&l, PathClass::Main);
        assert!(CsLock::try_acquire(&l, PathClass::Progress), "uncontended");
        CsLock::release(&l, PathClass::Progress);
    }
}
