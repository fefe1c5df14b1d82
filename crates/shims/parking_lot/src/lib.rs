//! Offline shim for `parking_lot` 0.12.
//!
//! A thin non-poisoning wrapper over `std::sync::Mutex` exposing the
//! parking_lot calling convention (`lock()` returns the guard directly) —
//! `Mutex` is all the workspace uses of the crate. Poisoning is
//! deliberately swallowed: parking_lot has no poisoning, and the workspace
//! relies on that (locks held across asserting test threads).

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::TryLockError;

/// Mutual exclusion primitive (parking_lot-flavoured `std::sync::Mutex`).
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Create a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the data.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the mutex, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.inner.lock() {
            Ok(g) => MutexGuard { inner: g },
            Err(p) => MutexGuard {
                inner: p.into_inner(),
            },
        }
    }

    /// Attempt to acquire without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: g }),
            Err(TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: p.into_inner(),
            }),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Exclusive access through `&mut self` (no locking needed).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn try_lock_contended() {
        let m = Mutex::new(());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }
}
