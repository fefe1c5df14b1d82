//! The paper's arbitration methods as a closed enum.

use mtmpi_sim::LockKind;

/// Legend entries of the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// NPTL-style mutex (the baseline whose bias the paper analyses).
    Mutex,
    /// FCFS ticket lock (remedy 1).
    Ticket,
    /// Two-level priority ticket lock (remedy 2).
    Priority,
    /// Single-threaded execution (`MPI_THREAD_SINGLE` comparison): the
    /// harness forces one thread per rank; the lock is an uncontended
    /// mutex.
    Single,
}

impl Method {
    /// The three methods every figure of the paper compares.
    pub const PAPER_TRIO: [Method; 3] = [Method::Mutex, Method::Ticket, Method::Priority];

    /// The trio plus the single-threaded reference (Fig 8).
    pub const PAPER_QUARTET: [Method; 4] = [
        Method::Single,
        Method::Mutex,
        Method::Ticket,
        Method::Priority,
    ];

    /// Platform lock kind implementing this method.
    pub fn lock_kind(self) -> LockKind {
        match self {
            Method::Mutex | Method::Single => LockKind::Mutex,
            Method::Ticket => LockKind::Ticket,
            Method::Priority => LockKind::Priority,
        }
    }

    /// Figure-legend label.
    pub fn label(self) -> &'static str {
        match self {
            Method::Mutex => "Mutex",
            Method::Ticket => "Ticket",
            Method::Priority => "Priority",
            Method::Single => "Single",
        }
    }

    /// Whether the harness must force one thread per rank.
    pub fn forces_single_thread(self) -> bool {
        matches!(self, Method::Single)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trio_and_labels() {
        assert_eq!(Method::PAPER_TRIO.len(), 3);
        assert_eq!(Method::Mutex.label(), "Mutex");
        assert_eq!(Method::Ticket.lock_kind(), LockKind::Ticket);
        assert!(Method::Single.forces_single_thread());
        assert!(!Method::Priority.forces_single_thread());
    }
}
