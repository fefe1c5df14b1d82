//! Stream handles: the stream-bound lock-free fast path.
//!
//! A [`Stream`] is an explicit serial context in the MPIxThreads /
//! endpoints tradition: one thread binds one stream shard (a
//! single-owner VCI appended after the sharded pool) and from then on
//! issues and progresses on it with **zero CAS and zero lock** — the
//! shard's queues, sequence/retransmit state, and match lists are plain,
//! made sound by the single-binder claim word on the shard
//! (`stream_owner`).
//!
//! ## Pairing
//!
//! The runtime's endpoint pairing is symmetric by shard index, so
//! stream `s` of rank A exchanges messages with stream `s` of rank B —
//! an explicit channel, like an endpoints communicator. Stream traffic
//! never lands on the sharded VCIs, and sharded wildcard receives never
//! observe it (the documented relaxation mirroring DESIGN.md §12:
//! choosing a serial context *is* choosing a matching scope).
//!
//! ## Bind → unbind → rebind hand-off
//!
//! Binding CASes the claim word 0 → `tid+1` (AcqRel); dropping (or
//! [`Stream::unbind`]-ing) the handle first quiesces the shard —
//! draining its mailbox so no packet is stranded mid-hand-off — then
//! stores 0 with Release. The next binder's Acquire CAS therefore
//! observes every plain write of the previous owner. The loom model in
//! `tests/loom_stream.rs` checks exactly this protocol.
//!
//! Wildcard receives (`src = None`) cannot be pinned to a serial
//! context; they fall back transparently to the sharded claim-token
//! fan-out path, and the stream's completion calls delegate such
//! requests back to the rank-level paths.

use crate::errors::{MpiError, StreamBindError};
use crate::p2p::{cancel_in_cs, issue_recv, issue_send, try_free_in_cs, wait_step, WaitStep};
use crate::progress::{deliver, poll};
use crate::request::{Request, TestOutcome};
use crate::state::SharedState;
use crate::types::{CommId, Msg, MsgData, Tag};
use crate::world::{RankHandle, World};
use mtmpi_locks::PathClass;
use mtmpi_obs::{CsOp, Path};

/// A bound serial context: one thread's exclusive, lock-free slice of
/// the runtime. Deliberately **not `Clone`** — the handle is the
/// single-binder capability, and dropping it is the unbind.
pub struct Stream {
    h: RankHandle,
    sid: u32,
    /// Pool index of the bound shard (`vci_n + sid`).
    shard: u32,
}

impl World {
    /// Bind the first free stream of `rank` for the calling thread.
    /// Panics when none is free — see [`RankHandle::try_stream`].
    pub fn stream(&self, rank: u32) -> Stream {
        self.rank(rank).stream()
    }
}

impl RankHandle {
    /// Bind the first free stream of this rank for the calling thread.
    pub fn try_stream(&self) -> Result<Stream, StreamBindError> {
        let n = self.world.streams;
        for sid in 0..n {
            match self.try_stream_at(sid) {
                Ok(s) => return Ok(s),
                Err(StreamBindError::AlreadyBound { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Err(StreamBindError::AllBound {
            rank: self.rank,
            streams: n,
        })
    }

    /// [`Self::try_stream`], panicking with the [`StreamBindError`] when
    /// every stream is bound (or the world has none).
    pub fn stream(&self) -> Stream {
        self.try_stream().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Bind stream `sid` of this rank for the calling thread. Fails when
    /// the index is out of range or another live [`Stream`] holds it.
    pub fn try_stream_at(&self, sid: u32) -> Result<Stream, StreamBindError> {
        self.world.try_bind_stream(self.rank, sid)?;
        Ok(Stream {
            h: self.clone(),
            sid,
            shard: self.world.stream_shard(sid),
        })
    }

    /// [`Self::try_stream_at`], panicking with the [`StreamBindError`]
    /// on a contested or out-of-range stream.
    pub fn stream_at(&self, sid: u32) -> Stream {
        self.try_stream_at(sid).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl Stream {
    /// The stream index this handle is bound to.
    pub fn sid(&self) -> u32 {
        self.sid
    }

    /// This stream's rank.
    pub fn rank(&self) -> u32 {
        self.h.rank()
    }

    /// Total ranks in the world.
    pub fn nranks(&self) -> u32 {
        self.h.nranks()
    }

    /// The rank handle this stream was bound through (for issuing
    /// sharded-path operations from the same thread).
    pub fn rank_handle(&self) -> &RankHandle {
        &self.h
    }

    /// One owner-mode passage through the bound shard.
    fn pass<R>(&self, op: CsOp, f: impl FnOnce(&mut SharedState) -> R) -> R {
        // SAFETY: `self` is the live binding capability — this thread's
        // id sits in the shard's claim word until `self` drops.
        unsafe { self.h.world.stream_pass(self.h.rank, self.shard, op, f) }
    }

    /// Whether `req` belongs to the sharded path (wildcard fan-out or a
    /// map-routed receive) and must be completed by the rank-level
    /// completion calls instead of owner-mode passages.
    fn delegated(&self, req: &Request) -> bool {
        req.inner.multi || req.inner.vci < self.h.world.vci_n()
    }

    /// Nonblocking send on the world communicator, issued on this
    /// stream: the payload is injected from the stream's shard and
    /// arrives at the *same-index stream* of `dst` (see the module
    /// docs on pairing). No lock, no CAS.
    pub fn isend(&self, dst: u32, tag: Tag, data: MsgData) -> Request {
        let w = &self.h.world;
        assert!(dst < w.nranks(), "destination rank out of range");
        let costs = w.costs;
        w.platform.compute(costs.call_overhead_ns);
        let src_rank = self.h.rank;
        let shard = self.shard;
        let inner = self.pass(CsOp::Isend, |st| {
            issue_send(w, st, src_rank, shard, CommId::WORLD, dst, tag, data)
        });
        Request { inner }
    }

    /// Nonblocking receive on the world communicator, matched on this
    /// stream. A known source runs lock-free against the stream shard's
    /// own match lists; a wildcard (`src = None`) cannot be pinned to a
    /// serial context and falls back to the sharded fan-out path (its
    /// request is then completed by delegation — `try_wait`/`test` on
    /// this stream handle it transparently).
    pub fn irecv(&self, src: Option<u32>, tag: Option<Tag>) -> Request {
        let w = &self.h.world;
        let Some(s) = src else {
            return self.h.irecv_impl(CommId::WORLD, None, tag);
        };
        assert!(s < w.nranks(), "source rank out of range");
        let costs = w.costs;
        w.platform.compute(costs.call_overhead_ns);
        let rank = self.h.rank;
        let shard = self.shard;
        let inner = self.pass(CsOp::Irecv, |st| {
            issue_recv(w, st, rank, shard, CommId::WORLD, Some(s), tag)
        });
        Request { inner }
    }

    /// Blocking send on this stream.
    pub fn send(&self, dst: u32, tag: Tag, data: MsgData) {
        let r = self.isend(dst, tag, data);
        let _ = self.wait(r);
    }

    /// Blocking receive on this stream.
    pub fn recv(&self, src: Option<u32>, tag: Option<Tag>) -> Msg {
        let r = self.irecv(src, tag);
        self.wait(r)
    }

    /// Nonblocking completion test: one owner-mode passage (check, one
    /// mailbox poll, re-check). Delegates sharded-path requests.
    pub fn test(&self, req: Request) -> TestOutcome {
        if self.delegated(&req) {
            return self.h.test(req);
        }
        let w = &self.h.world;
        assert_eq!(
            req.inner.owner_rank, self.h.rank,
            "test on another rank's request"
        );
        assert_eq!(
            req.inner.vci, self.shard,
            "request was issued on another stream"
        );
        w.platform.compute(w.costs.call_overhead_ns);
        let rank = self.h.rank;
        let shard = self.shard;
        let out = self.pass(CsOp::Test, |st| {
            // SAFETY: owner-mode passage — this thread holds the shard.
            if let Some(m) = unsafe { try_free_in_cs(w, st, rank, &req) } {
                return Some(m);
            }
            let pkts = poll(w, rank, shard, PathClass::Main, Path::Stream);
            deliver(w, rank, shard, st, pkts);
            // SAFETY: owner-mode passage.
            unsafe { try_free_in_cs(w, st, rank, &req) }
        });
        match out {
            Some(m) => TestOutcome::Done(m),
            None => TestOutcome::Pending(req),
        }
    }

    /// Fallible blocking wait on this stream: poll-spin in owner mode —
    /// no lock class to drop to, no arbitration — until the request
    /// completes, a fault escalates, or the liveness limit trips.
    /// Delegates sharded-path requests (wildcard fallback) to
    /// [`RankHandle::try_wait`].
    ///
    /// On error a still-pending receive is cancelled first, so the
    /// request ledger stays quiescent.
    pub fn try_wait(&self, req: Request) -> Result<Msg, MpiError> {
        if self.delegated(&req) {
            return self.h.try_wait(req);
        }
        let w = &self.h.world;
        assert_eq!(
            req.inner.owner_rank, self.h.rank,
            "wait on another rank's request"
        );
        assert_eq!(
            req.inner.vci, self.shard,
            "request was issued on another stream"
        );
        let costs = w.costs;
        w.platform.compute(costs.call_overhead_ns);
        let rank = self.h.rank;
        let shard = self.shard;
        let start = w.platform.now_ns();
        loop {
            let step = self.pass(CsOp::Wait, |st| {
                // SAFETY: owner-mode passage.
                if let Some(m) = unsafe { try_free_in_cs(w, st, rank, &req) } {
                    return WaitStep::Done(m);
                }
                let pkts = poll(w, rank, shard, PathClass::Main, Path::Stream);
                deliver(w, rank, shard, st, pkts);
                wait_step(w, st, rank, &req)
            });
            match step {
                WaitStep::Done(m) => return Ok(m),
                WaitStep::Fail(e) => return Err(e),
                WaitStep::Pending => {}
            }
            w.platform.compute(costs.poll_gap_ns);
            if let Some(waited_ns) = self.h.liveness_exceeded(start) {
                let last = self.pass(CsOp::Wait, |st| {
                    // SAFETY: owner-mode passage.
                    if let Some(m) = unsafe { try_free_in_cs(w, st, rank, &req) } {
                        return Some(m);
                    }
                    // SAFETY: owner-mode passage.
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

    /// Blocking completion wait. Panics (with the [`MpiError`] message)
    /// on timeout or unreachable peer — see [`Self::try_wait`].
    pub fn wait(&self, req: Request) -> Msg {
        self.try_wait(req).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible wait for all requests; returns their messages in order.
    /// Batched like [`RankHandle::try_waitall`]: each iteration is **one**
    /// owner-mode passage that sweep-frees every completed request and
    /// polls the shard once if any remain — a window of 64 operations
    /// costs a handful of passages, not 64. Sharded-path requests
    /// (wildcard fallback) are completed through [`RankHandle::try_waitall`]
    /// after the owned set settles. On error, completed requests are
    /// freed and pending ones cancelled, keeping the ledger quiescent.
    pub fn try_waitall(&self, reqs: Vec<Request>) -> Result<Vec<Msg>, MpiError> {
        let w = &self.h.world;
        let rank = self.h.rank;
        let shard = self.shard;
        let costs = w.costs;
        let n = reqs.len();
        let mut out: Vec<Option<Msg>> = (0..n).map(|_| None).collect();
        let mut owned: Vec<(usize, Request)> = Vec::new();
        let mut del: Vec<(usize, Request)> = Vec::new();
        for (i, r) in reqs.into_iter().enumerate() {
            if self.delegated(&r) {
                del.push((i, r));
                continue;
            }
            assert_eq!(
                r.inner.owner_rank, rank,
                "waitall on another rank's request"
            );
            assert_eq!(r.inner.vci, shard, "request was issued on another stream");
            owned.push((i, r));
        }
        w.platform.compute(costs.call_overhead_ns);
        let start = w.platform.now_ns();
        while !owned.is_empty() {
            let fail = self.pass(CsOp::Waitall, |st| {
                let mut sweep = |st: &mut SharedState, owned: &mut Vec<(usize, Request)>| {
                    owned.retain(|(i, r)| {
                        // SAFETY: owner-mode passage.
                        match unsafe { try_free_in_cs(w, st, rank, r) } {
                            Some(m) => {
                                out[*i] = Some(m);
                                false
                            }
                            None => true,
                        }
                    });
                };
                sweep(st, &mut owned);
                if !owned.is_empty() {
                    let pkts = poll(w, rank, shard, PathClass::Main, Path::Stream);
                    deliver(w, rank, shard, st, pkts);
                    sweep(st, &mut owned);
                }
                st.fault_error.clone()
            });
            if let Some(e) = fail {
                let rest = std::mem::take(&mut owned);
                self.pass(CsOp::Waitall, |st| {
                    for (i, r) in &rest {
                        // SAFETY: owner-mode passage.
                        if let Some(m) = unsafe { try_free_in_cs(w, st, rank, r) } {
                            out[*i] = Some(m);
                        } else {
                            // SAFETY: owner-mode passage.
                            unsafe { cancel_in_cs(w, st, rank, r) };
                        }
                    }
                });
                for (_, r) in del.drain(..) {
                    self.abandon(r);
                }
                return Err(e);
            }
            if !owned.is_empty() {
                w.platform.compute(costs.poll_gap_ns);
                if let Some(waited_ns) = self.h.liveness_exceeded(start) {
                    // Final check-and-cancel sweep: anything that made it
                    // in since the last poll is freed, the rest cancelled.
                    let rest = std::mem::take(&mut owned);
                    let mut cancelled = false;
                    self.pass(CsOp::Waitall, |st| {
                        for (i, r) in &rest {
                            // SAFETY: owner-mode passage.
                            if let Some(m) = unsafe { try_free_in_cs(w, st, rank, r) } {
                                out[*i] = Some(m);
                            } else {
                                // SAFETY: owner-mode passage.
                                unsafe { cancel_in_cs(w, st, rank, r) };
                                cancelled = true;
                            }
                        }
                    });
                    if cancelled {
                        for (_, r) in del.drain(..) {
                            self.abandon(r);
                        }
                        return Err(MpiError::Timeout {
                            rank,
                            what: "waitall",
                            waited_ns,
                        });
                    }
                }
            }
        }
        if !del.is_empty() {
            let idx: Vec<usize> = del.iter().map(|(i, _)| *i).collect();
            let reqs: Vec<Request> = del.into_iter().map(|(_, r)| r).collect();
            // Errors abandon the delegated set inside try_waitall; the
            // owned set is already freed at this point.
            let msgs = self.h.try_waitall(reqs)?;
            for (i, m) in idx.into_iter().zip(msgs) {
                out[i] = Some(m);
            }
        }
        // lint: allow(L005) invariant — the loops above fill every slot before falling through
        Ok(out.into_iter().map(|m| m.expect("all completed")).collect())
    }

    /// Wait for all requests; returns their messages in order. Panics on
    /// timeout/unreachable peer — see [`Self::try_waitall`].
    pub fn waitall(&self, reqs: Vec<Request>) -> Vec<Msg> {
        self.try_waitall(reqs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Error-path cleanup for one request: free it if complete, cancel
    /// it otherwise. Sharded-path requests are settled under their own
    /// shard's queue lock (or the claim-token protocol for fan-outs).
    fn abandon(&self, req: Request) {
        let w = &self.h.world;
        let rank = self.h.rank;
        if req.inner.multi {
            let _ = crate::p2p::cancel_multi(w, rank, &req);
            return;
        }
        if req.inner.vci < w.vci_n() {
            w.cs_on(
                rank,
                req.inner.vci,
                PathClass::Progress,
                Path::WaitSpin,
                CsOp::Wait,
                |st| {
                    // SAFETY: queue lock held.
                    if unsafe { try_free_in_cs(w, st, rank, &req) }.is_some() {
                        return;
                    }
                    // SAFETY: queue lock held.
                    unsafe { cancel_in_cs(w, st, rank, &req) };
                },
            );
            return;
        }
        self.pass(CsOp::Wait, |st| {
            // SAFETY: owner-mode passage.
            if unsafe { try_free_in_cs(w, st, rank, &req) }.is_some() {
                return;
            }
            // SAFETY: owner-mode passage.
            unsafe { cancel_in_cs(w, st, rank, &req) };
        });
    }

    /// Quiesce and release the binding (identical to dropping the
    /// handle, but reads as intent at call sites): drains the shard's
    /// mailbox so no in-flight packet is stranded, then publishes every
    /// plain write with a Release store of the claim word. The stream is
    /// immediately rebindable — by this thread or any other.
    pub fn unbind(self) {
        drop(self);
    }
}

impl Drop for Stream {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let w = &self.h.world;
            let rank = self.h.rank;
            let shard = self.shard;
            // Quiesce step of the hand-off: drain the mailbox so the
            // next binder starts from a settled shard (packets already
            // in flight land in the unexpected queue, where its receives
            // will find them).
            // SAFETY: still bound until the release below.
            unsafe {
                w.stream_pass(rank, shard, CsOp::Progress, |st| {
                    let pkts = poll(w, rank, shard, PathClass::Progress, Path::Stream);
                    deliver(w, rank, shard, st, pkts);
                });
            }
        }
        self.h.world.release_stream(self.h.rank, self.sid);
    }
}
