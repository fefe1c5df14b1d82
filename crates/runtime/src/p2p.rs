//! Two-sided point-to-point operations.
//!
//! With VCI sharding, every fully-addressed operation (send, or receive
//! with known source and — when the map routes by tag — known tag) is
//! routed to exactly one shard by the world's [`crate::VciMap`] and
//! runs the classic single-CS protocol against that shard. Wildcard
//! receives that no single shard can serve become *multi* (fan-out)
//! requests: one posted entry per shard, cross-shard exactly-once
//! completion via the request's claim token, and lock-free owner-side
//! completion pickup (see [`crate::request::ReqInner`]).
//!
//! Ordering note: MPI per-source non-overtaking is preserved whenever a
//! source's matchable message stream maps to one shard — always true for
//! the default hash map (its key ignores tags), and true under tag-based
//! maps when the receive names the tag. A wildcard-tag receive under a
//! tag-spreading map observes only per-shard ordering; that relaxation is
//! inherent to VCI designs and documented in DESIGN.md §12.

use crate::errors::MpiError;
use crate::packet::PacketKind;
use crate::progress::{deliver, poll, progress_once};
use crate::request::{ReqInner, ReqKind, Request, TestOutcome};
use crate::state::{matches, SharedState};
use crate::types::{CommId, Msg, MsgData, Tag};
use crate::vci::pick_starved_burst;
use crate::world::{RankHandle, WorldInner};
use mtmpi_locks::PathClass;
use mtmpi_obs::{CsOp, EventKind, Path, ReqPhase};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Try to free `req`: on success, charge the free cost and maintain the
/// dangling count, the life-cycle ledger, and the event stream.
/// Single-shard requests only.
///
/// # Safety
///
/// The caller must serialize access to `req`'s home shard: hold its
/// queue lock (run inside [`WorldInner::cs`] on that shard), or be the
/// bound owner of that stream shard (run inside
/// [`WorldInner::stream_pass`]). Either way both the request state and
/// the shared state are exclusively held.
#[inline]
pub(crate) unsafe fn try_free_in_cs(
    w: &WorldInner,
    st: &mut SharedState,
    rank: u32,
    req: &Request,
) -> Option<Msg> {
    // SAFETY: queue lock held (this function's contract).
    let m = unsafe { req.inner.try_free() };
    if m.is_some() {
        note_free(w, st, rank, req);
    }
    m
}

/// The bookkeeping of a successful [`try_free_in_cs`], kept out of line
/// so that the wait sweeps' common case — still active — stays a
/// state check.
#[inline(never)]
fn note_free(w: &WorldInner, st: &mut SharedState, rank: u32, req: &Request) {
    w.platform.compute(w.costs.free_ns);
    st.dangling_now -= u64::from(req.inner.kind == ReqKind::Recv);
    st.ledger.note_freed();
    w.rec_now(|| EventKind::Req {
        rank,
        vci: req.inner.vci,
        phase: ReqPhase::Free,
    });
}

/// Cancel `req` if it is still active (timeout/fault escalation):
/// withdraw it from the posted queue and balance the ledger so the
/// World-drop leak check stays quiescent. No-op if the request already
/// completed (the caller should free it normally instead). Single-shard
/// requests only.
///
/// # Safety
///
/// The caller must hold the queue lock of `req`'s home shard, or be the
/// bound owner of that stream shard.
pub(crate) unsafe fn cancel_in_cs(w: &WorldInner, st: &mut SharedState, _rank: u32, req: &Request) {
    // SAFETY: queue lock held (this function's contract).
    if unsafe { req.inner.cancel() } {
        if let Some(i) = st
            .posted
            .iter()
            .position(|pr| Arc::ptr_eq(&pr.req, &req.inner))
        {
            st.posted.remove(i);
        }
        w.platform.compute(w.costs.free_ns);
        st.ledger.note_cancelled();
    }
}

/// Owner-side completion pickup for a fan-out request: if the winning
/// matcher has published, take the message, charge the free cost, settle
/// the wildcard ledger, and retract the remaining per-shard posted
/// entries. Lock-free when the request is not ready.
fn free_multi(w: &WorldInner, rank: u32, req: &Request) -> Option<Msg> {
    let m = req.inner.try_free_multi()?;
    w.platform.compute(w.costs.free_ns);
    w.procs[rank as usize].wild.note_freed();
    w.rec_now(|| EventKind::Req {
        rank,
        vci: req.inner.vci,
        phase: ReqPhase::Free,
    });
    retract_multi(w, rank, &req.inner);
    Some(m)
}

/// Work stealing: progress the most-starved sharded VCIs of `rank`
/// outside `exclude`, so a shard whose owner threads are all blocked
/// elsewhere still advances. The burst scales with the shard count (1 up
/// to 4 shards, then `vci_n / 4`, capped at 4): at 16 shards a single
/// victim per spin window serializes recovery on one mailbox while the
/// others starve. Callers test `vci_n() > 1` first, so an unsharded
/// spin never makes the call.
fn steal(w: &WorldInner, rank: u32, exclude: &[u32]) {
    // Stream shards (past vci_n) are never steal victims: only their
    // bound owner may progress them.
    let snap: Vec<u64> = w.procs[rank as usize]
        .shards
        .iter()
        .take(w.vci_n() as usize)
        .map(|s| s.last_poll_ns.load(Ordering::Relaxed))
        .collect();
    let burst = (w.vci_n() as usize / 4).clamp(1, 4);
    for victim in pick_starved_burst(&snap, exclude, burst) {
        let _ = progress_once(w, rank, victim, PathClass::Progress, Path::WaitSpin);
    }
}

/// Remove a fan-out request's posted entries from every shard (one CS
/// passage per shard, ascending). Progress-engine scans also retire
/// stale entries lazily; this sweep is the definitive cleanup at
/// free/cancel time so no shard keeps a dead `Arc` alive.
fn retract_multi(w: &WorldInner, rank: u32, req: &Arc<ReqInner>) {
    for v in 0..w.vci_n() {
        w.cs_on(
            rank,
            v,
            PathClass::Progress,
            Path::WaitSpin,
            CsOp::Wait,
            |st| {
                if let Some(i) = st.posted.iter().position(|pr| Arc::ptr_eq(&pr.req, req)) {
                    st.posted.remove(i);
                }
            },
        );
    }
}

/// Cancel a fan-out request (timeout/fault escalation). If a matcher
/// already won the completion claim, the message wins the race: spin
/// until its publication lands and return it.
pub(crate) fn cancel_multi(w: &WorldInner, rank: u32, req: &Request) -> Option<Msg> {
    if req.inner.claim_cancel() {
        w.platform.compute(w.costs.free_ns);
        w.procs[rank as usize].wild.note_cancelled();
        retract_multi(w, rank, &req.inner);
        return None;
    }
    // A matcher claimed first; its `multi_complete` is imminent.
    loop {
        if let Some(m) = free_multi(w, rank, req) {
            return Some(m);
        }
        w.platform.compute(w.costs.poll_gap_ns);
    }
}

/// One iteration of a blocking wait loop, seen from inside the CS (or a
/// stream shard's owner-mode passage).
pub(crate) enum WaitStep {
    Done(Msg),
    Fail(MpiError),
    Pending,
}

/// Outcome of one shard passage of the fan-out receive pass.
enum MultiPass {
    /// Another thread completed the request concurrently; stop posting.
    Claimed,
    /// This passage claimed and consumed a buffered unexpected match.
    Matched,
    /// No match here; a posted entry was left on this shard.
    Posted,
}

/// Issue one eager send inside an exclusive shard passage: charge the
/// in-CS costs, inject the payload, settle the ledger, and build the
/// already-completed request. Shared by the sharded path
/// ([`RankHandle::isend_impl`], under the queue lock) and the
/// stream-bound path ([`crate::Stream::isend`], owner mode — `vci` is
/// then the stream's shard index).
///
/// Caller must hold the shard exclusively (queue lock or stream
/// ownership).
#[allow(clippy::too_many_arguments)]
pub(crate) fn issue_send(
    w: &WorldInner,
    st: &mut SharedState,
    src_rank: u32,
    vci: u32,
    comm: CommId,
    dst: u32,
    tag: Tag,
    data: MsgData,
) -> Arc<ReqInner> {
    let costs = w.costs;
    w.platform.compute(costs.alloc_ns);
    w.platform.compute(costs.enqueue_ns);
    let bytes = data.len() + costs.header_bytes;
    crate::faults::send_data(
        w,
        st,
        src_rank,
        vci,
        dst,
        bytes,
        PacketKind::Msg {
            comm,
            tag,
            data,
            sent_ns: w.platform.now_ns(),
        },
    );
    // Eager send: issued and completed in one step.
    st.ledger.note_issued();
    st.ledger.note_completed();
    w.rec_now(|| EventKind::Req {
        rank: src_rank,
        vci,
        phase: ReqPhase::Issue,
    });
    w.rec_now(|| EventKind::Req {
        rank: src_rank,
        vci,
        phase: ReqPhase::Complete,
    });
    ReqInner::new_completed(
        src_rank,
        ReqKind::Send,
        vci,
        Msg {
            src: src_rank,
            tag,
            data: MsgData::Synthetic(0),
        },
    )
}

/// Issue one single-shard receive inside an exclusive shard passage:
/// scan the unexpected queue, complete immediately on a hit, post on a
/// miss. Shared by the sharded path ([`RankHandle::irecv_impl`], under
/// the queue lock) and the stream-bound path ([`crate::Stream::irecv`],
/// owner mode).
///
/// Caller must hold the shard exclusively (queue lock or stream
/// ownership).
pub(crate) fn issue_recv(
    w: &WorldInner,
    st: &mut SharedState,
    rank: u32,
    vci: u32,
    comm: CommId,
    src: Option<u32>,
    tag: Option<Tag>,
) -> Arc<ReqInner> {
    let costs = w.costs;
    w.platform.compute(costs.alloc_ns);
    // First look in the unexpected queue (Fig 3b "found in
    // UnexpectedQ" arc); charge per scanned entry.
    let mut scanned = 0u64;
    let pos = st.unexpected.iter().position(|u| {
        scanned += 1;
        matches(src, tag, comm, u.src, u.tag, u.comm)
    });
    w.platform.compute(scanned * costs.match_scan_ns);
    w.rec_now(|| EventKind::Req {
        rank,
        vci,
        phase: ReqPhase::Issue,
    });
    match pos {
        Some(i) => {
            let u = st.unexpected.remove(i).expect("index valid");
            // The eager payload was buffered; matching copies it
            // out into the user buffer.
            w.platform
                .compute(costs.complete_ns + costs.unexpected_copy_ns(u.data.len()));
            st.dangling_now += 1;
            st.msg_latency_ns
                .record(w.platform.now_ns().saturating_sub(u.sent_ns));
            // Unexpected match: issued and completed immediately,
            // never posted.
            st.ledger.note_issued();
            st.ledger.note_completed();
            w.rec_now(|| EventKind::Req {
                rank,
                vci,
                phase: ReqPhase::Complete,
            });
            ReqInner::new_completed(
                rank,
                ReqKind::Recv,
                vci,
                Msg {
                    src: u.src,
                    tag: u.tag,
                    data: u.data,
                },
            )
        }
        None => {
            w.platform.compute(costs.enqueue_ns);
            let req = ReqInner::new(rank, ReqKind::Recv, vci);
            st.ledger.note_issued();
            st.ledger.note_posted();
            w.rec_now(|| EventKind::Req {
                rank,
                vci,
                phase: ReqPhase::Post,
            });
            st.posted.push_back(crate::state::PostedRecv {
                req: req.clone(),
                src,
                tag,
                comm,
            });
            st.note_depths();
            req
        }
    }
}

impl RankHandle {
    /// Nonblocking send on a communicator (the one implementation all
    /// surfaces funnel into).
    ///
    /// Under the eager model the request completes at issue time (the
    /// payload is buffered/injected); `wait` on it frees it immediately.
    pub(crate) fn isend_impl(&self, comm: CommId, dst: u32, tag: Tag, data: MsgData) -> Request {
        let w = &self.world;
        assert!(dst < w.nranks(), "destination rank out of range");
        let costs = w.costs;
        w.platform.compute(costs.call_overhead_ns);
        let src_rank = self.rank;
        // Sends are always fully addressed: route to one shard.
        let vci = w.vci_for(comm, src_rank, dst, tag);
        let inner = w.cs(self.rank, vci, PathClass::Main, CsOp::Isend, |st| {
            issue_send(w, st, src_rank, vci, comm, dst, tag, data)
        });
        Request { inner }
    }

    /// Nonblocking receive on a communicator (the one implementation all
    /// surfaces funnel into). A receive the VCI map can pin to one shard
    /// runs the classic protocol; otherwise it fans out to every shard
    /// (see the module docs).
    pub(crate) fn irecv_impl(&self, comm: CommId, src: Option<u32>, tag: Option<Tag>) -> Request {
        let w = &self.world;
        if let Some(s) = src {
            assert!(s < w.nranks(), "source rank out of range");
        }
        let costs = w.costs;
        w.platform.compute(costs.call_overhead_ns);
        let rank = self.rank;
        let Some(vci) = w.vci_map.select_recv(comm.0, src, rank, tag) else {
            return self.irecv_multi(comm, src, tag);
        };
        let inner = w.cs(rank, vci, PathClass::Main, CsOp::Irecv, |st| {
            issue_recv(w, st, rank, vci, comm, src, tag)
        });
        Request { inner }
    }

    /// Fan-out wildcard receive: visit every shard in ascending order,
    /// atomically (per shard) scanning that shard's unexpected queue and
    /// posting a fan-out entry on a miss. Scan-then-post within one CS
    /// passage keeps per-shard arrival order intact — a message buffered
    /// before the pass can never be overtaken by a later arrival that
    /// matches the posted entry on the same shard.
    fn irecv_multi(&self, comm: CommId, src: Option<u32>, tag: Option<Tag>) -> Request {
        let w = &self.world;
        let costs = w.costs;
        let rank = self.rank;
        let req = ReqInner::new_multi(rank, 0);
        let wild = &w.procs[rank as usize].wild;
        wild.note_issued();
        w.rec_now(|| EventKind::Req {
            rank,
            vci: req.vci,
            phase: ReqPhase::Issue,
        });
        let mut posted_any = false;
        for v in 0..w.vci_n() {
            let pass = w.cs(rank, v, PathClass::Main, CsOp::Irecv, |st| {
                if v == 0 {
                    w.platform.compute(costs.alloc_ns);
                }
                if req.is_claimed() {
                    // A message already matched a fan-out entry posted on
                    // an earlier shard; the progress engine completed us.
                    return MultiPass::Claimed;
                }
                let mut scanned = 0u64;
                let pos = st.unexpected.iter().position(|u| {
                    scanned += 1;
                    matches(src, tag, comm, u.src, u.tag, u.comm)
                });
                w.platform.compute(scanned * costs.match_scan_ns);
                if let Some(i) = pos {
                    if !req.claim_complete() {
                        // Lost the race between the scan and the claim.
                        return MultiPass::Claimed;
                    }
                    let u = st.unexpected.remove(i).expect("index valid");
                    w.platform
                        .compute(costs.complete_ns + costs.unexpected_copy_ns(u.data.len()));
                    st.msg_latency_ns
                        .record(w.platform.now_ns().saturating_sub(u.sent_ns));
                    // SAFETY: we won the completion claim just above.
                    unsafe {
                        req.multi_complete(Msg {
                            src: u.src,
                            tag: u.tag,
                            data: u.data,
                        });
                    }
                    w.procs[rank as usize].wild.note_completed();
                    w.rec_now(|| EventKind::Req {
                        rank,
                        vci: v,
                        phase: ReqPhase::Complete,
                    });
                    MultiPass::Matched
                } else {
                    w.platform.compute(costs.enqueue_ns);
                    st.posted.push_back(crate::state::PostedRecv {
                        req: req.clone(),
                        src,
                        tag,
                        comm,
                    });
                    st.note_depths();
                    MultiPass::Posted
                }
            });
            match pass {
                MultiPass::Posted => posted_any = true,
                MultiPass::Matched | MultiPass::Claimed => break,
            }
        }
        if posted_any {
            wild.note_posted();
            w.rec_now(|| EventKind::Req {
                rank,
                vci: req.vci,
                phase: ReqPhase::Post,
            });
        }
        Request { inner: req }
    }

    /// Nonblocking completion test (`MPI_Test`). One critical-section
    /// entry; runs a single progress poll if the request is still
    /// pending. Stays on the high-priority main path (§6.2.1: with
    /// `MPI_Test` "all threads always have the same high priority").
    pub fn test(&self, req: Request) -> TestOutcome {
        let w = &self.world;
        assert_eq!(
            req.inner.owner_rank, self.rank,
            "test on another rank's request"
        );
        assert!(
            req.inner.multi || req.inner.vci < w.vci_n(),
            "stream-bound request: complete it through its Stream handle"
        );
        let rank = self.rank;
        let costs = w.costs;
        w.platform.compute(costs.call_overhead_ns);
        if req.inner.multi {
            // Fan-out request: lock-free check, one progress pass over
            // every shard on a miss, final check.
            if let Some(m) = free_multi(w, rank, &req) {
                return TestOutcome::Done(m);
            }
            for v in 0..w.vci_n() {
                let _ = progress_once(w, rank, v, PathClass::Main, Path::Main);
                if let Some(m) = free_multi(w, rank, &req) {
                    return TestOutcome::Done(m);
                }
            }
            return TestOutcome::Pending(req);
        }
        let vci = req.inner.vci;
        // One CS passage covering check + poll + check.
        let out = w.cs(rank, vci, PathClass::Main, CsOp::Test, |st| {
            // SAFETY: queue lock held.
            if let Some(m) = unsafe { try_free_in_cs(w, st, rank, &req) } {
                return Some(m);
            }
            let pkts = poll(w, rank, vci, PathClass::Main, Path::Main);
            deliver(w, rank, vci, st, pkts);
            // SAFETY: queue lock held.
            unsafe { try_free_in_cs(w, st, rank, &req) }
        });
        match out {
            Some(m) => TestOutcome::Done(m),
            None => TestOutcome::Pending(req),
        }
    }

    /// Blocking completion wait (`MPI_Wait`), fallible form. Enters on
    /// the main path; drops to the low-priority progress class for
    /// subsequent polls (Fig 6a), as MPICH's progress loop does — those
    /// spin passages are attributed to [`Path::WaitSpin`] in the event
    /// stream (an application thread spinning is not the progress
    /// engine).
    ///
    /// Fails with [`MpiError::Timeout`] when the liveness limit elapses
    /// and [`MpiError::PeerUnreachable`] when fault recovery gave up; on
    /// either error a still-pending receive is cancelled first, so the
    /// request ledger stays quiescent.
    pub fn try_wait(&self, req: Request) -> Result<Msg, MpiError> {
        let w = &self.world;
        assert_eq!(
            req.inner.owner_rank, self.rank,
            "wait on another rank's request"
        );
        assert!(
            req.inner.multi || req.inner.vci < w.vci_n(),
            "stream-bound request: complete it through its Stream handle"
        );
        let rank = self.rank;
        let costs = w.costs;
        w.platform.compute(costs.call_overhead_ns);
        if req.inner.multi {
            return self.try_wait_multi(&req);
        }
        let vci = req.inner.vci;
        let mut class = PathClass::Main;
        let start = w.platform.now_ns();
        let mut spins = 0u32;
        loop {
            let opath = wait_path(class);
            let step = w.cs_on(rank, vci, class, opath, CsOp::Wait, |st| {
                // SAFETY: queue lock held.
                if let Some(m) = unsafe { try_free_in_cs(w, st, rank, &req) } {
                    return WaitStep::Done(m);
                }
                let pkts = poll(w, rank, vci, class, opath);
                deliver(w, rank, vci, st, pkts);
                wait_step(w, st, rank, &req)
            });
            match step {
                WaitStep::Done(m) => return Ok(m),
                WaitStep::Fail(e) => return Err(e),
                WaitStep::Pending => {}
            }
            class = PathClass::Progress;
            // A spinner parked on one shard occasionally progresses the
            // most-starved *other* shards.
            spins += 1;
            if spins.is_multiple_of(4) && w.vci_n() > 1 {
                steal(w, rank, &[vci]);
            }
            w.platform.compute(costs.poll_gap_ns);
            if let Some(waited_ns) = self.liveness_exceeded(start) {
                // Final check-and-cancel in one CS passage: the request
                // may have completed since the last poll.
                let last = w.cs_on(rank, vci, class, Path::WaitSpin, CsOp::Wait, |st| {
                    // SAFETY: queue lock held.
                    if let Some(m) = unsafe { try_free_in_cs(w, st, rank, &req) } {
                        return Some(m);
                    }
                    // SAFETY: queue lock held.
                    unsafe { cancel_in_cs(w, st, rank, &req) };
                    None
                });
                return match last {
                    Some(m) => Ok(m),
                    None => Err(MpiError::Timeout {
                        rank,
                        what: "wait",
                        waited_ns,
                    }),
                };
            }
        }
    }

    /// Blocking wait for a fan-out wildcard request: progress every shard
    /// round-robin (each pass pumps that shard's retransmit queue too),
    /// picking up the completion lock-free as soon as any shard's matcher
    /// publishes it.
    fn try_wait_multi(&self, req: &Request) -> Result<Msg, MpiError> {
        let w = &self.world;
        let rank = self.rank;
        let costs = w.costs;
        let mut class = PathClass::Main;
        let start = w.platform.now_ns();
        loop {
            if let Some(m) = free_multi(w, rank, req) {
                return Ok(m);
            }
            let opath = wait_path(class);
            let mut fault: Option<MpiError> = None;
            for v in 0..w.vci_n() {
                if let Some(e) = progress_once(w, rank, v, class, opath) {
                    fault.get_or_insert(e);
                }
                if let Some(m) = free_multi(w, rank, req) {
                    return Ok(m);
                }
            }
            if let Some(e) = fault {
                return match cancel_multi(w, rank, req) {
                    Some(m) => Ok(m),
                    None => Err(e),
                };
            }
            class = PathClass::Progress;
            w.platform.compute(costs.poll_gap_ns);
            if let Some(waited_ns) = self.liveness_exceeded(start) {
                return match cancel_multi(w, rank, req) {
                    Some(m) => Ok(m),
                    None => Err(MpiError::Timeout {
                        rank,
                        what: "wait",
                        waited_ns,
                    }),
                };
            }
        }
    }

    /// Blocking completion wait (`MPI_Wait`). Panics (with the
    /// [`MpiError`] message) on timeout or unreachable peer — the legacy
    /// loud-failure behaviour; fault-plan experiments should use
    /// [`Self::try_wait`].
    pub fn wait(&self, req: Request) -> Msg {
        self.try_wait(req).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Wait for all requests, fallibly; returns their messages in order.
    /// On error, completed requests are freed and pending ones cancelled
    /// before returning, keeping the ledger quiescent.
    ///
    /// Sharded worlds sweep per shard: each iteration enters one CS per
    /// *distinct pending VCI* (fan-out wildcards are checked lock-free),
    /// so a waitall whose requests all live on one shard never touches
    /// the others.
    pub fn try_waitall(&self, reqs: Vec<Request>) -> Result<Vec<Msg>, MpiError> {
        let w = &self.world;
        let rank = self.rank;
        let costs = w.costs;
        let n = reqs.len();
        let mut out: Vec<Option<Msg>> = (0..n).map(|_| None).collect();
        let mut singles: Vec<(usize, Request)> = Vec::with_capacity(n);
        let mut multis: Vec<(usize, Request)> = Vec::new();
        for (i, r) in reqs.into_iter().enumerate() {
            assert_eq!(
                r.inner.owner_rank, rank,
                "waitall on another rank's request"
            );
            assert!(
                r.inner.multi || r.inner.vci < w.vci_n(),
                "stream-bound request: complete it through its Stream handle"
            );
            if r.inner.multi {
                multis.push((i, r));
            } else {
                singles.push((i, r));
            }
        }
        // The distinct shards with pending single-shard requests,
        // ascending, each with its ledger's completion count at this
        // call's last sweep of it (`None` before the first).
        let mut shards: Vec<(u32, Option<u64>)> =
            singles.iter().map(|(_, r)| (r.inner.vci, None)).collect();
        shards.sort_unstable_by_key(|&(v, _)| v);
        shards.dedup_by_key(|&mut (v, _)| v);
        w.platform.compute(costs.call_overhead_ns);
        let mut class = PathClass::Main;
        let start = w.platform.now_ns();
        let mut spins = 0u32;
        while !singles.is_empty() || !multis.is_empty() {
            let opath = wait_path(class);
            // Fan-out wildcards first: completion pickup is lock-free.
            multis.retain(|(i, r)| match free_multi(w, rank, r) {
                Some(m) => {
                    out[*i] = Some(m);
                    false
                }
                None => true,
            });
            // One CS entry per distinct pending shard: sweep-free that
            // shard's completed requests, then poll it once if any remain
            // (the batched progress of the throughput benchmark, Fig 3b
            // bottom). A single-shard request completes only under its
            // shard's lock, and every such completion bumps that shard's
            // ledger (eager completions inside `isend`/`irecv`, caught by
            // the first sweep, and `progress::process_in_order`). So after
            // the first sweep at most as many of ours have completed as
            // the count moved since the last one: the sweep stops freeing
            // once it has found that many, and is skipped while the count
            // stands still. Freeing stays in `singles` order.
            let mut fail: Option<MpiError> = None;
            for (v, swept) in &mut shards {
                let v = *v;
                let f = w.cs_on(rank, v, class, opath, CsOp::Waitall, |st| {
                    let completed = st.ledger.completed();
                    let mut fresh = swept.map_or(u64::MAX, |c| completed - c);
                    *swept = Some(completed);
                    if fresh > 0 {
                        singles.retain(|(i, r)| {
                            if fresh == 0 || r.inner.vci != v {
                                return true;
                            }
                            // SAFETY: queue lock held.
                            match unsafe { try_free_in_cs(w, st, rank, r) } {
                                Some(m) => {
                                    out[*i] = Some(m);
                                    fresh -= 1;
                                    false
                                }
                                None => true,
                            }
                        });
                    }
                    if singles.iter().any(|(_, r)| r.inner.vci == v) {
                        let pkts = poll(w, rank, v, class, opath);
                        deliver(w, rank, v, st, pkts);
                    }
                    st.fault_error.clone()
                });
                fail = fail.or(f);
            }
            if singles.is_empty() && !multis.is_empty() && fail.is_none() {
                // Only fan-out wildcards left: pump every shard so their
                // matches (and retransmit queues) advance.
                for v in 0..w.vci_n() {
                    if let Some(e) = progress_once(w, rank, v, class, opath) {
                        fail.get_or_insert(e);
                    }
                }
            }
            if let Some(e) = fail {
                self.abandon_all(rank, &mut singles, &mut multis, &mut out);
                return Err(e);
            }
            if !singles.is_empty() || !multis.is_empty() {
                // Multi-shard steal sweep (the waitall counterpart of the
                // try_wait burst steal): a waitall pinned to a few shards
                // occasionally progresses the most-starved shards *outside*
                // its pending set, so completions that depend on another
                // shard's matcher — a peer's ack routed elsewhere — still
                // advance at high shard counts.
                spins += 1;
                if spins.is_multiple_of(4) && w.vci_n() > 1 && !singles.is_empty() {
                    let vcis: Vec<u32> = shards.iter().map(|&(v, _)| v).collect();
                    steal(w, rank, &vcis);
                }
                shards.retain(|&(v, _)| singles.iter().any(|(_, r)| r.inner.vci == v));
                class = PathClass::Progress;
                w.platform.compute(costs.poll_gap_ns);
                if let Some(waited_ns) = self.liveness_exceeded(start) {
                    self.abandon_all(rank, &mut singles, &mut multis, &mut out);
                    if singles.is_empty() && multis.is_empty() {
                        break; // everything completed in the final sweep
                    }
                    return Err(MpiError::Timeout {
                        rank,
                        what: "waitall",
                        waited_ns,
                    });
                }
            }
        }
        // lint: allow(L005) invariant — the loop above only breaks once every slot is Some
        Ok(out.into_iter().map(|m| m.expect("all completed")).collect())
    }

    /// Final sweep on the error path: free whatever completed, cancel the
    /// rest. `singles`/`multis` retain only requests that completed in
    /// this very sweep (their messages land in `out`).
    fn abandon_all(
        &self,
        rank: u32,
        singles: &mut Vec<(usize, Request)>,
        multis: &mut Vec<(usize, Request)>,
        out: &mut [Option<Msg>],
    ) {
        let w = &self.world;
        let mut vcis: Vec<u32> = singles.iter().map(|(_, r)| r.inner.vci).collect();
        vcis.sort_unstable();
        vcis.dedup();
        for v in vcis {
            w.cs_on(
                rank,
                v,
                PathClass::Progress,
                Path::WaitSpin,
                CsOp::Waitall,
                |st| {
                    singles.retain(|(i, r)| {
                        if r.inner.vci != v {
                            return true;
                        }
                        // SAFETY: queue lock held.
                        if let Some(m) = unsafe { try_free_in_cs(w, st, rank, r) } {
                            out[*i] = Some(m);
                            return false;
                        }
                        // SAFETY: queue lock held.
                        unsafe { cancel_in_cs(w, st, rank, r) };
                        true
                    });
                },
            );
        }
        multis.retain(|(i, r)| match cancel_multi(w, rank, r) {
            Some(m) => {
                out[*i] = Some(m);
                false
            }
            None => true,
        });
    }

    /// Wait for all requests; returns their messages in order
    /// (`MPI_Waitall`). Panics on timeout/unreachable peer — see
    /// [`Self::try_waitall`].
    pub fn waitall(&self, reqs: Vec<Request>) -> Vec<Msg> {
        self.try_waitall(reqs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Model time spent past the liveness limit, if exceeded.
    pub(crate) fn liveness_exceeded(&self, start_ns: u64) -> Option<u64> {
        let waited = self.world.platform.now_ns().saturating_sub(start_ns);
        (waited >= self.world.liveness_limit_ns).then_some(waited)
    }
}

/// Observability attribution for a blocking-wait CS passage: the first
/// (main-class) entry is real application-path work; subsequent spins are
/// wait-spin, not progress-engine, passages.
pub(crate) fn wait_path(class: PathClass) -> Path {
    match class {
        PathClass::Main => Path::Main,
        PathClass::Progress => Path::WaitSpin,
    }
}

/// Shared tail of one wait-loop CS passage: free if completed, surface a
/// sticky fault error (cancelling the request) otherwise.
///
/// Caller must hold the queue lock (or be the bound stream owner).
pub(crate) fn wait_step(
    w: &WorldInner,
    st: &mut SharedState,
    rank: u32,
    req: &Request,
) -> WaitStep {
    // SAFETY: queue lock held (this function's contract).
    if let Some(m) = unsafe { try_free_in_cs(w, st, rank, req) } {
        return WaitStep::Done(m);
    }
    if let Some(e) = st.fault_error.clone() {
        // SAFETY: queue lock held.
        unsafe { cancel_in_cs(w, st, rank, req) };
        return WaitStep::Fail(e);
    }
    WaitStep::Pending
}
