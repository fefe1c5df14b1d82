//! Request life-cycle ledger and the leak check at `World` drop.
//!
//! The paper's request life cycle (Fig 3b) is Issue → (Post) → Complete →
//! Free: every request that a thread issues must eventually be completed
//! by the progress engine and freed by a wait/test. A request that is
//! still unfreed when the `World` is torn down is a leak — either an
//! application bug (a `Request` handle was dropped without `wait`/`test`)
//! or a runtime bug (a completion was lost).
//!
//! [`RequestLedger`] is a set of plain counters bumped at each life-cycle
//! transition. The runtime keeps one per shard inside the
//! critical-section-guarded `SharedState`, so no extra synchronization is
//! needed, and checks [`RequestLedger::check_quiescent`] when the `World`
//! is dropped (debug builds only).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Life-cycle counters for the requests of one MPI process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestLedger {
    issued: u64,
    posted: u64,
    completed: u64,
    freed: u64,
    cancelled: u64,
}

impl RequestLedger {
    /// Fresh ledger, all counters zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// A request was issued (`isend`/`irecv`).
    pub fn note_issued(&mut self) {
        self.issued += 1;
    }

    /// A receive found no unexpected match and was posted.
    pub fn note_posted(&mut self) {
        self.posted += 1;
    }

    /// A request was completed (eagerly at issue, or by the progress
    /// engine matching a posted receive).
    pub fn note_completed(&mut self) {
        self.completed += 1;
    }

    /// A completed request was freed by `wait`/`test`/`waitall`.
    pub fn note_freed(&mut self) {
        self.freed += 1;
    }

    /// A still-active request was cancelled (e.g. a posted receive
    /// withdrawn on a wait timeout). The request leaves the life cycle
    /// without completing, so cancellations balance against `issued`
    /// separately from `freed`.
    pub fn note_cancelled(&mut self) {
        self.cancelled += 1;
    }

    /// Requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Receives posted (issued minus eager matches).
    pub fn posted(&self) -> u64 {
        self.posted
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Requests freed so far.
    pub fn freed(&self) -> u64 {
        self.freed
    }

    /// Requests cancelled before completion (timeout path).
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Requests issued but not yet freed or cancelled (live handles).
    pub fn in_flight(&self) -> u64 {
        self.issued.saturating_sub(self.freed + self.cancelled)
    }

    /// Requests completed but not yet freed — the instantaneous §4.4
    /// *dangling requests* count, from the ledger's point of view.
    pub fn dangling(&self) -> u64 {
        self.completed.saturating_sub(self.freed)
    }

    /// Fold another ledger into this one (e.g. to aggregate ranks).
    pub fn merge(&mut self, other: &Self) {
        self.issued += other.issued;
        self.posted += other.posted;
        self.completed += other.completed;
        self.freed += other.freed;
        self.cancelled += other.cancelled;
    }

    /// Check the ledger at quiescence (no operation in progress): every
    /// issued request must have been completed and freed — or explicitly
    /// cancelled — and the counters must be mutually consistent. Returns
    /// a [`LeakReport`] describing what leaked otherwise.
    pub fn check_quiescent(&self) -> Result<(), LeakReport> {
        let consistent = self.posted <= self.issued
            && self.completed <= self.issued
            && self.freed <= self.completed
            && self.cancelled <= self.issued;
        // Every completed request must be freed, and every issued request
        // must end freed or cancelled — a cancel cannot stand in for the
        // free of a completed request.
        if consistent && self.freed == self.completed && self.freed + self.cancelled == self.issued
        {
            Ok(())
        } else {
            Err(LeakReport { ledger: *self })
        }
    }
}

/// Lock-free [`RequestLedger`]: the same life-cycle counters, but with
/// `&self` mutators so several threads can account concurrently without
/// sharing a critical section.
///
/// The sharded runtime needs this for *multi-shard* wildcard receives:
/// such a request is posted to every VCI, and the shard that completes
/// it does so under *its own* lock — there is no single lock that could
/// guard a plain ledger for them. Counters use `Relaxed` ordering: they
/// are statistics folded into a [`RequestLedger`] snapshot at quiescence
/// (after `Platform::run` joins every thread), never a synchronization
/// hand-off.
#[derive(Debug, Default)]
pub(crate) struct SharedLedger {
    issued: AtomicU64,
    posted: AtomicU64,
    completed: AtomicU64,
    freed: AtomicU64,
    cancelled: AtomicU64,
}

impl SharedLedger {
    /// Fresh ledger, all counters zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// A request was issued (`isend`/`irecv`).
    pub fn note_issued(&self) {
        self.issued.fetch_add(1, Ordering::Relaxed);
    }

    /// A receive was posted (counted once per request, not per shard).
    pub fn note_posted(&self) {
        self.posted.fetch_add(1, Ordering::Relaxed);
    }

    /// A request was completed by whichever shard won the claim.
    pub fn note_completed(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// A completed request was freed by its owner.
    pub fn note_freed(&self) {
        self.freed.fetch_add(1, Ordering::Relaxed);
    }

    /// A still-unclaimed request was cancelled by its owner.
    pub fn note_cancelled(&self) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the counters into a plain [`RequestLedger`] for merging
    /// and quiescence checks.
    pub fn snapshot(&self) -> RequestLedger {
        RequestLedger {
            issued: self.issued.load(Ordering::Relaxed),
            posted: self.posted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            freed: self.freed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
        }
    }
}

/// Failure description from [`RequestLedger::check_quiescent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeakReport {
    /// The offending counters.
    pub ledger: RequestLedger,
}

impl LeakReport {
    /// Requests never completed nor cancelled (issued − completed −
    /// cancelled): lost messages or receives whose sender never existed.
    pub fn uncompleted(&self) -> u64 {
        self.ledger
            .issued
            .saturating_sub(self.ledger.completed + self.ledger.cancelled)
    }

    /// Requests completed but never freed (dropped `Request` handles).
    pub fn unfreed(&self) -> u64 {
        self.ledger.dangling()
    }
}

impl fmt::Display for LeakReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let l = &self.ledger;
        write!(
            f,
            "request ledger not quiescent: issued={} posted={} completed={} freed={} \
             cancelled={} ({} never completed, {} completed but never freed)",
            l.issued,
            l.posted,
            l.completed,
            l.freed,
            l.cancelled,
            self.uncompleted(),
            self.unfreed()
        )
    }
}

impl std::error::Error for LeakReport {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_ledger_is_quiescent() {
        let mut l = RequestLedger::new();
        // One eager send: issue + complete at issue time, freed by wait.
        l.note_issued();
        l.note_completed();
        l.note_freed();
        // One posted receive: issue + post, completed by progress, freed.
        l.note_issued();
        l.note_posted();
        l.note_completed();
        l.note_freed();
        assert_eq!(l.check_quiescent(), Ok(()));
        assert_eq!(l.in_flight(), 0);
        assert_eq!(l.dangling(), 0);
    }

    #[test]
    fn leaked_posted_receive_is_reported() {
        let mut l = RequestLedger::new();
        l.note_issued();
        l.note_posted();
        let err = l.check_quiescent().unwrap_err();
        assert_eq!(err.uncompleted(), 1);
        assert_eq!(err.unfreed(), 0);
        assert!(err.to_string().contains("1 never completed"), "{err}");
    }

    #[test]
    fn completed_but_unfreed_is_reported() {
        let mut l = RequestLedger::new();
        l.note_issued();
        l.note_completed();
        let err = l.check_quiescent().unwrap_err();
        assert_eq!(err.uncompleted(), 0);
        assert_eq!(err.unfreed(), 1);
    }

    #[test]
    fn cancelled_receive_balances_the_ledger() {
        let mut l = RequestLedger::new();
        // A posted receive whose sender never shows up, withdrawn by a
        // wait timeout: issue + post + cancel, no complete, no free.
        l.note_issued();
        l.note_posted();
        l.note_cancelled();
        assert_eq!(l.check_quiescent(), Ok(()));
        assert_eq!(l.in_flight(), 0);
        assert_eq!(l.cancelled(), 1);
        // A cancel cannot stand in for a free of a *completed* request.
        let mut m = RequestLedger::new();
        m.note_issued();
        m.note_completed();
        m.note_cancelled();
        let err = m.check_quiescent().unwrap_err();
        assert_eq!(err.unfreed(), 1);
    }

    #[test]
    fn inconsistent_counters_are_reported() {
        let mut l = RequestLedger::new();
        // Freed without issue/completion: a runtime accounting bug.
        l.note_freed();
        assert!(l.check_quiescent().is_err());
    }

    #[test]
    fn shared_ledger_accounts_concurrently_and_snapshots_quiescent() {
        use std::sync::Arc;
        let l = Arc::new(SharedLedger::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let l = l.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        // A multi-shard wildcard receive's life cycle:
                        // issued and posted by the owner, completed by
                        // whichever shard wins the claim, freed by the
                        // owner.
                        l.note_issued();
                        l.note_posted();
                        l.note_completed();
                        l.note_freed();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = l.snapshot();
        assert_eq!(snap.issued(), 400);
        assert_eq!(snap.posted(), 400);
        assert_eq!(snap.check_quiescent(), Ok(()));
        // Snapshots merge like any plain ledger.
        let mut sum = RequestLedger::new();
        sum.merge(&snap);
        sum.merge(&snap);
        assert_eq!(sum.issued(), 800);
    }

    #[test]
    fn merge_aggregates() {
        let mut a = RequestLedger::new();
        a.note_issued();
        a.note_completed();
        a.note_freed();
        let mut b = RequestLedger::new();
        b.note_issued();
        let mut sum = RequestLedger::new();
        sum.merge(&a);
        sum.merge(&b);
        assert_eq!(sum.issued(), 2);
        assert_eq!(sum.freed(), 1);
        assert!(sum.check_quiescent().is_err());
    }
}
