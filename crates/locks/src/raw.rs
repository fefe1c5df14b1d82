//! Lock traits.
//!
//! Two layers:
//!
//! * [`RawLock`] — a flat mutual-exclusion primitive (`lock`/`unlock`),
//!   implemented by the simple locks (TAS, ticket, futex mutex).
//! * [`CsLock`] — what the MPI runtime's *global critical section* needs:
//!   class-aware acquisition (so priority locks can distinguish main-path
//!   from progress-loop entries) and a token threading through to release
//!   (so the cohort lock can carry the acquirer's socket without
//!   thread-local state). Every `RawLock` is a `CsLock` that ignores the
//!   class and uses a zero token.

use crate::path::PathClass;

/// Opaque per-acquisition token returned by [`CsLock::acquire`] and given
/// back to [`CsLock::release`]. Flat locks use [`CsToken::NONE`]; the
/// cohort lock carries the socket whose local lock it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsToken(pub usize);

impl CsToken {
    /// Token for locks that need no per-acquisition state.
    pub const NONE: CsToken = CsToken(0);
}

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

/// A critical-section lock as used by the MPI runtime: class-aware and
/// token-carrying. Object-safe so the runtime can hold `Arc<dyn CsLock>`.
pub trait CsLock: Send + Sync {
    /// Name used in tables.
    fn name(&self) -> &'static str;

    /// Acquire the critical section from the given runtime path.
    fn acquire(&self, class: PathClass) -> CsToken;

    /// Release the critical section. `class` and `token` must be the values
    /// from the matching `acquire`.
    fn release(&self, class: PathClass, token: CsToken);

    /// Try to acquire without blocking; `None` if contended.
    ///
    /// The default conservatively fails, which is always correct: callers
    /// fall back to the blocking path.
    fn try_acquire(&self, _class: PathClass) -> Option<CsToken> {
        None
    }
}

impl CsLock for Box<dyn CsLock> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn acquire(&self, class: PathClass) -> CsToken {
        (**self).acquire(class)
    }

    fn release(&self, class: PathClass, token: CsToken) {
        (**self).release(class, token);
    }

    fn try_acquire(&self, class: PathClass) -> Option<CsToken> {
        (**self).try_acquire(class)
    }
}

impl<L: RawLock> CsLock for L {
    fn name(&self) -> &'static str {
        L::NAME
    }

    fn acquire(&self, _class: PathClass) -> CsToken {
        self.lock();
        CsToken::NONE
    }

    fn release(&self, _class: PathClass, _token: CsToken) {
        self.unlock();
    }

    fn try_acquire(&self, _class: PathClass) -> Option<CsToken> {
        self.try_lock().then_some(CsToken::NONE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket::TicketLock;

    #[test]
    fn raw_lock_is_cs_lock() {
        let l = TicketLock::default();
        let t = CsLock::acquire(&l, PathClass::Main);
        assert_eq!(t, CsToken::NONE);
        assert!(CsLock::try_acquire(&l, PathClass::Progress).is_none());
        CsLock::release(&l, PathClass::Main, t);
        let t2 = CsLock::try_acquire(&l, PathClass::Progress).expect("uncontended");
        CsLock::release(&l, PathClass::Progress, t2);
    }
}
