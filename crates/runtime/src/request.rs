//! Request objects and their life cycle (paper Fig 3b).
//!
//! A request is *issued* by `isend`/`irecv`, possibly *posted* (recvs that
//! found no unexpected match), *completed* (by any thread running the
//! progress engine — not necessarily the owner), and finally *freed* by
//! the one thread that waits or tests on it. The window between
//! completion and freeing is what the §4.4 *dangling requests* metric
//! measures: only the owner can free, so a starving owner strands its
//! completed requests and stalls its window.
//!
//! With VCI sharding, most requests live on exactly one shard (`vci`)
//! and keep the classic discipline: state is guarded by that shard's
//! critical section. Wildcard receives that cannot be routed to a single
//! shard become *multi* requests: one `ReqInner` is posted to **every**
//! shard, and since no thread may hold two shard locks at once, the
//! cross-shard "exactly one completer" guarantee comes from an atomic
//! claim token instead of a lock.

use crate::types::Msg;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

/// Request direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReqKind {
    /// Send request (completes at issue time under the eager model).
    Send,
    /// Receive request.
    Recv,
}

/// Request state, guarded by the owning shard's critical section (or,
/// for multi requests, by the claim protocol — see [`ReqInner::claim`]).
#[derive(Debug)]
pub(crate) enum ReqState {
    /// Issued/posted, not yet matched.
    Active,
    /// Matched and completed; the payload awaits the owner's wait/test.
    Completed(Msg),
    /// Freed; any further wait/test is a caller bug.
    Freed,
}

/// Claim-token values for multi-shard requests.
const CLAIM_NONE: u8 = 0;
const CLAIM_COMPLETER: u8 = 1;
const CLAIM_CANCELLER: u8 = 2;

/// Shared request object.
#[derive(Debug)]
pub(crate) struct ReqInner {
    /// Rank whose critical section(s) guard this request.
    pub(crate) owner_rank: u32,
    pub(crate) kind: ReqKind,
    /// Home shard. For single-shard requests this is the VCI whose lock
    /// guards `state`; for multi requests it is the issuing key's hash
    /// shard (reporting only — every shard carries a posted entry).
    pub(crate) vci: u32,
    /// Whether this request was fanned out to every shard (wildcard that
    /// no single VCI could serve).
    pub(crate) multi: bool,
    /// Cross-shard claim token (multi requests only). A matcher on any
    /// shard CASes `CLAIM_NONE → CLAIM_COMPLETER` before touching
    /// `state`; a cancelling owner CASes `CLAIM_NONE → CLAIM_CANCELLER`.
    /// Exactly one transition ever succeeds, which is what makes the
    /// fan-out safe without ever holding two shard locks.
    claim: AtomicU8,
    /// Publication flag for multi completions: the winning matcher writes
    /// `state` (it holds only *its* shard's lock, not the owner's home
    /// shard) and then stores `ready` with Release; the owner reads it
    /// with Acquire before touching `state` lock-free.
    ready: AtomicBool,
    /// State cell; all access happens under the owner shard's CS, except
    /// the multi-request hand-off described on `claim`/`ready`.
    state: UnsafeCell<ReqState>,
}

// SAFETY: `state` is only accessed while holding the owning shard's
// critical section (single-shard requests), or — for multi requests —
// under the claim/ready protocol: the unique CAS winner writes, and the
// owner reads only after an Acquire load of `ready` observes the
// winner's Release store.
unsafe impl Send for ReqInner {}
// SAFETY: same contract as Send — the owning shard's CS (or the
// claim/ready hand-off) serializes all shared access to `state`.
unsafe impl Sync for ReqInner {}

impl ReqInner {
    pub(crate) fn new(owner_rank: u32, kind: ReqKind, vci: u32) -> Arc<Self> {
        Arc::new(Self {
            owner_rank,
            kind,
            vci,
            multi: false,
            claim: AtomicU8::new(CLAIM_NONE),
            ready: AtomicBool::new(false),
            state: UnsafeCell::new(ReqState::Active),
        })
    }

    pub(crate) fn new_completed(owner_rank: u32, kind: ReqKind, vci: u32, msg: Msg) -> Arc<Self> {
        Arc::new(Self {
            owner_rank,
            kind,
            vci,
            multi: false,
            claim: AtomicU8::new(CLAIM_NONE),
            ready: AtomicBool::new(false),
            state: UnsafeCell::new(ReqState::Completed(msg)),
        })
    }

    /// A multi-shard wildcard receive, to be posted to every shard.
    pub(crate) fn new_multi(owner_rank: u32, home_vci: u32) -> Arc<Self> {
        Arc::new(Self {
            owner_rank,
            kind: ReqKind::Recv,
            vci: home_vci,
            multi: true,
            claim: AtomicU8::new(CLAIM_NONE),
            ready: AtomicBool::new(false),
            state: UnsafeCell::new(ReqState::Active),
        })
    }

    /// Mutate the state. Caller must hold the owner shard's CS (and, for
    /// multi requests, have won the completion claim or observed `ready`).
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn state_mut(&self) -> &mut ReqState {
        // SAFETY: the caller holds the owning shard's critical section or
        // has exclusive access via the claim/ready protocol (this
        // function's contract), so no other reference to the cell's
        // contents can exist concurrently.
        unsafe { &mut *self.state.get() }
    }

    /// Complete with `msg`. Caller must hold the owner shard's CS.
    /// Single-shard requests only — multi requests go through
    /// [`Self::claim_complete`] + [`Self::multi_complete`].
    pub(crate) unsafe fn complete(&self, msg: Msg) {
        debug_assert!(!self.multi, "single-shard completion on a multi request");
        // SAFETY: forwarding our own contract — the caller holds the CS.
        let st = unsafe { self.state_mut() };
        debug_assert!(matches!(st, ReqState::Active), "double completion");
        *st = ReqState::Completed(msg);
    }

    /// Try to become the unique completer of a multi request. The winner
    /// (and only the winner) must then call [`Self::multi_complete`].
    pub(crate) fn claim_complete(&self) -> bool {
        self.claim
            .compare_exchange(
                CLAIM_NONE,
                CLAIM_COMPLETER,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Try to become the unique canceller of a multi request. Fails if a
    /// matcher already claimed it — the message won the race and the
    /// owner must free normally.
    pub(crate) fn claim_cancel(&self) -> bool {
        self.claim
            .compare_exchange(
                CLAIM_NONE,
                CLAIM_CANCELLER,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Whether some shard has already claimed this multi request (either
    /// way). Stale posted-queue entries use this to skip matching.
    pub(crate) fn is_claimed(&self) -> bool {
        self.claim.load(Ordering::Acquire) != CLAIM_NONE
    }

    /// Publish the completion of a claimed multi request. Caller must
    /// have won [`Self::claim_complete`].
    pub(crate) unsafe fn multi_complete(&self, msg: Msg) {
        // SAFETY: the claim CAS gave the caller exclusive write access —
        // no other thread touches `state` until `ready` is published.
        let st = unsafe { self.state_mut() };
        debug_assert!(matches!(st, ReqState::Active), "double completion");
        *st = ReqState::Completed(msg);
        self.ready.store(true, Ordering::Release);
    }

    /// Owner-side, lock-free completion check for a multi request: if the
    /// winning matcher has published, take the message and mark freed.
    pub(crate) fn try_free_multi(&self) -> Option<Msg> {
        debug_assert!(self.multi, "try_free_multi on a single-shard request");
        if !self.ready.load(Ordering::Acquire) {
            return None;
        }
        // SAFETY: `ready` is set exactly once (by the unique claim
        // winner, with Release) and only the one owner thread calls
        // wait/test on a request, so after the Acquire load we have
        // exclusive access to `state`.
        let st = unsafe { self.state_mut() };
        match std::mem::replace(st, ReqState::Freed) {
            ReqState::Completed(msg) => Some(msg),
            ReqState::Active => unreachable!("ready published with state still Active"),
            // lint: allow(L005) caller bug (double free), not a fault outcome — assert loudly
            ReqState::Freed => panic!("wait/test on a freed request"),
        }
    }

    /// If completed, take the message and mark freed. Caller must hold
    /// the owner shard's CS.
    #[inline]
    pub(crate) unsafe fn try_free(&self) -> Option<Msg> {
        // SAFETY: forwarding our own contract — the caller holds the CS.
        let st = unsafe { self.state_mut() };
        match st {
            ReqState::Completed(_) => {
                let ReqState::Completed(msg) = std::mem::replace(st, ReqState::Freed) else {
                    unreachable!()
                };
                Some(msg)
            }
            ReqState::Active => None,
            // lint: allow(L005) caller bug (double free), not a fault outcome — assert loudly
            ReqState::Freed => panic!("wait/test on a freed request"),
        }
    }

    /// Cancel a still-active request (timeout/fault escalation): the
    /// request leaves the life cycle without completing. Returns `false`
    /// if the request already completed (the race winner is the message —
    /// callers should free it normally instead). Caller must hold the
    /// owner shard's CS.
    pub(crate) unsafe fn cancel(&self) -> bool {
        // SAFETY: forwarding our own contract — the caller holds the CS.
        let st = unsafe { self.state_mut() };
        match st {
            ReqState::Active => {
                *st = ReqState::Freed;
                true
            }
            ReqState::Completed(_) | ReqState::Freed => false,
        }
    }
}

/// Handle to an outstanding nonblocking operation. Consumed by
/// [`crate::RankHandle::wait`] or [`crate::RankHandle::test`].
#[derive(Debug)]
pub struct Request {
    pub(crate) inner: Arc<ReqInner>,
}

impl Request {
    /// Rank that issued (and must complete) this request.
    pub fn owner_rank(&self) -> u32 {
        self.inner.owner_rank
    }

    /// Home VCI of this request (the shard whose critical section guards
    /// it; for fan-out wildcards, the issuing thread's hash shard).
    pub fn vci(&self) -> u32 {
        self.inner.vci
    }
}

/// Result of a nonblocking completion test.
#[derive(Debug)]
pub enum TestOutcome {
    /// The request completed; it has been freed and here is its message.
    Done(Msg),
    /// Not complete yet; the request is handed back.
    Pending(Request),
}

impl TestOutcome {
    /// The message, if done.
    pub fn done(self) -> Option<Msg> {
        match self {
            TestOutcome::Done(m) => Some(m),
            TestOutcome::Pending(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Msg, MsgData};

    fn msg() -> Msg {
        Msg {
            src: 0,
            tag: 7,
            data: MsgData::Synthetic(8),
        }
    }

    #[test]
    fn multi_claim_admits_exactly_one_completer() {
        let r = ReqInner::new_multi(0, 2);
        assert!(!r.is_claimed());
        assert!(r.claim_complete());
        assert!(!r.claim_complete(), "second completer must lose");
        assert!(!r.claim_cancel(), "canceller must lose to the completer");
        assert!(r.is_claimed());
        assert!(r.try_free_multi().is_none(), "not published yet");
        // SAFETY: we won the claim above; no other thread exists.
        unsafe { r.multi_complete(msg()) };
        let m = r.try_free_multi().expect("published completion");
        assert_eq!(m.tag, 7);
    }

    #[test]
    fn multi_cancel_blocks_later_completers() {
        let r = ReqInner::new_multi(0, 0);
        assert!(r.claim_cancel());
        assert!(!r.claim_complete(), "matcher must lose to the canceller");
        assert!(r.is_claimed());
        assert!(r.try_free_multi().is_none());
    }

    #[test]
    fn claim_races_from_many_threads_have_one_winner() {
        let r = ReqInner::new_multi(0, 0);
        let wins: usize = std::thread::scope(|s| {
            (0..8)
                .map(|_| s.spawn(|| r.claim_complete()))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| usize::from(h.join().unwrap()))
                .sum()
        });
        assert_eq!(wins, 1);
    }
}
