//! A data cell protected by any [`CsLock`].

use crate::path::PathClass;
use crate::raw::CsLock;
use std::cell::UnsafeCell;

/// Mutex-like container pairing a [`CsLock`] with the data it protects.
///
/// Access is closure-scoped (`with` / `with_main` / `with_progress`) rather
/// than guard-based so the lock's class bookkeeping cannot be
/// mismatched by callers.
#[derive(Debug)]
pub struct LockCell<L, T> {
    lock: L,
    data: UnsafeCell<T>,
}

// SAFETY: the CsLock serializes all access to `data`, so shared
// references can only touch it one thread at a time; `T: Send` lets the
// protected value cross between those threads.
unsafe impl<L: CsLock, T: Send> Sync for LockCell<L, T> {}
// SAFETY: moving the cell moves the lock and the data together; both are
// Send by bound.
unsafe impl<L: CsLock + Send, T: Send> Send for LockCell<L, T> {}

impl<L: CsLock, T> LockCell<L, T> {
    /// Wrap `data` under `lock`.
    pub fn new(lock: L, data: T) -> Self {
        Self {
            lock,
            data: UnsafeCell::new(data),
        }
    }

    /// Run `f` with exclusive access, entering from the given path class.
    pub fn with<R>(&self, class: PathClass, f: impl FnOnce(&mut T) -> R) -> R {
        self.lock.acquire(class);
        // SAFETY: we hold the lock; the lock serializes all access.
        let r = f(unsafe { &mut *self.data.get() });
        self.lock.release(class);
        r
    }

    /// [`Self::with`] from the main path.
    pub fn with_main<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        self.with(PathClass::Main, f)
    }

    /// [`Self::with`] from the progress loop.
    pub fn with_progress<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        self.with(PathClass::Progress, f)
    }

    /// The underlying lock (for instrumentation queries).
    pub fn lock(&self) -> &L {
        &self.lock
    }

    /// Consume the cell, returning the data.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }

    /// Exclusive access through `&mut self` (no locking needed).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::PriorityTicketLock;
    use crate::ticket::TicketLock;
    use std::sync::Arc;

    #[test]
    fn counter_under_ticket() {
        let cell = Arc::new(LockCell::new(TicketLock::new(), 0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cell = cell.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        cell.with_main(|v| *v += 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cell.with_main(|v| *v), 4000);
    }

    #[test]
    fn mixed_classes_under_priority() {
        let cell = Arc::new(LockCell::new(PriorityTicketLock::new(), Vec::<u32>::new()));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let cell = cell.clone();
                std::thread::spawn(move || {
                    for k in 0..500 {
                        if (i + k) % 2 == 0 {
                            cell.with_main(|v| v.push(i));
                        } else {
                            cell.with_progress(|v| v.push(i));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cell.with_main(|v| v.len()), 2000);
    }

    #[test]
    fn into_inner_and_get_mut() {
        let mut cell = LockCell::new(TicketLock::new(), 7u32);
        *cell.get_mut() += 1;
        assert_eq!(cell.into_inner(), 8);
    }
}
