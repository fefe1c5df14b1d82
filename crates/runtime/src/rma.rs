//! One-sided operations and the asynchronous progress thread (the Fig 9
//! experiment's machinery).
//!
//! Put/get/accumulate are implemented the way ARMCI-MPI-over-MPICH
//! behaves with asynchronous progress: the origin injects an RMA packet;
//! the **target's progress engine** applies it to the window and acks.
//! Nothing completes unless someone on the target is inside the progress
//! loop — which is exactly why the paper enables MPICH's asynchronous
//! progress thread there, turning a single-threaded benchmark into an
//! `MPI_THREAD_MULTIPLE` workload where the progress thread (almost
//! always in the progress loop, almost never doing useful work)
//! monopolizes a biased lock.

use crate::errors::MpiError;
use crate::p2p::wait_path;
use crate::packet::{PacketKind, RmaOp};
use crate::progress::progress_once;
use crate::types::MsgData;
use crate::world::{obs_path, RankHandle};
use mtmpi_locks::PathClass;
use mtmpi_obs::CsOp;
use std::sync::atomic::{AtomicBool, Ordering};

impl RankHandle {
    /// Issue an RMA packet and return its token.
    fn rma_issue(&self, target: u32, op: RmaOp, offset: u64, data: MsgData) -> u64 {
        let w = &self.world;
        assert!(target < w.nranks(), "target rank out of range");
        let costs = w.costs;
        let wire_bytes = match op {
            RmaOp::Get { .. } => costs.header_bytes, // request carries no payload
            _ => data.len() + costs.header_bytes,
        };
        let rank = self.rank;
        // RMA state (window memory, token space, acks) is pinned to
        // VCI 0; one-sided traffic never shards.
        w.cs(rank, 0, PathClass::Main, CsOp::Rma, |st| {
            w.platform.compute(costs.alloc_ns + costs.enqueue_ns);
            let token = st.rma_next_token;
            st.rma_next_token += 1;
            crate::faults::send_data(
                w,
                st,
                rank,
                0,
                target,
                wire_bytes,
                PacketKind::Rma {
                    op,
                    offset,
                    data,
                    token,
                },
            );
            token
        })
    }

    /// Block until the ack for `token` arrives; returns its payload.
    /// Fails with the usual typed errors ([`MpiError::Timeout`],
    /// [`MpiError::PeerUnreachable`]); there is nothing to cancel — RMA
    /// operations hold no ledger entries, only the token slot, which is
    /// simply abandoned.
    fn try_rma_wait(&self, token: u64) -> Result<Option<MsgData>, MpiError> {
        let w = &self.world;
        let rank = self.rank;
        let costs = w.costs;
        let mut class = PathClass::Main;
        let start = w.platform.now_ns();
        loop {
            let opath = wait_path(class);
            let got = w.cs_on(rank, 0, class, opath, CsOp::Rma, |st| {
                if let Some(d) = st.rma_acks.remove(&token) {
                    w.platform.compute(costs.free_ns);
                    return Ok(Some(d));
                }
                let pkts = crate::progress::poll(w, rank, 0, class, opath);
                crate::progress::deliver(w, rank, 0, st, pkts);
                if let Some(d) = st.rma_acks.remove(&token) {
                    w.platform.compute(costs.free_ns);
                    return Ok(Some(d));
                }
                match st.fault_error.clone() {
                    Some(e) => Err(e),
                    None => Ok(None),
                }
            });
            if let Some(d) = got? {
                return Ok(d);
            }
            class = PathClass::Progress;
            w.platform.compute(costs.poll_gap_ns);
            if let Some(waited_ns) = self.liveness_exceeded(start) {
                return Err(MpiError::Timeout {
                    rank,
                    what: "rma_wait",
                    waited_ns,
                });
            }
        }
    }

    /// [`Self::try_rma_wait`], panicking on error (legacy behaviour).
    fn rma_wait(&self, token: u64) -> Option<MsgData> {
        self.try_rma_wait(token).unwrap_or_else(|e| panic!("{e}"))
    }

    /// One-sided put: write `data` into `target`'s window at `offset`.
    /// Blocks until remotely complete (acked), like `ARMCI_Put` of
    /// contiguous data.
    pub fn put(&self, target: u32, offset: u64, data: MsgData) {
        let token = self.rma_issue(target, RmaOp::Put, offset, data);
        let _ = self.rma_wait(token);
    }

    /// Fallible [`Self::put`].
    pub fn try_put(&self, target: u32, offset: u64, data: MsgData) -> Result<(), MpiError> {
        let token = self.rma_issue(target, RmaOp::Put, offset, data);
        self.try_rma_wait(token).map(|_| ())
    }

    /// One-sided get of `len` bytes from `target`'s window at `offset`.
    pub fn get(&self, target: u32, offset: u64, len: u64) -> Vec<u8> {
        match self.try_get(target, offset, len) {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Self::get`].
    pub fn try_get(&self, target: u32, offset: u64, len: u64) -> Result<Vec<u8>, MpiError> {
        let token = self.rma_issue(
            target,
            RmaOp::Get { real: true },
            offset,
            MsgData::Synthetic(len),
        );
        match self.try_rma_wait(token)? {
            Some(MsgData::Bytes(b)) => Ok(b),
            // lint: allow(L005) protocol invariant — a real Get ack always carries bytes
            other => panic!("get expected bytes, got {other:?}"),
        }
    }

    /// Timing-only get (synthetic payload; no host memory churn) for
    /// benchmarks.
    pub fn get_synthetic(&self, target: u32, offset: u64, len: u64) {
        let token = self.rma_issue(
            target,
            RmaOp::Get { real: false },
            offset,
            MsgData::Synthetic(len),
        );
        let _ = self.rma_wait(token);
    }

    /// One-sided accumulate: element-wise `f64` add of `data` into the
    /// target window.
    pub fn accumulate(&self, target: u32, offset: u64, data: MsgData) {
        let token = self.rma_issue(target, RmaOp::Accumulate, offset, data);
        let _ = self.rma_wait(token);
    }

    /// Fallible [`Self::accumulate`].
    pub fn try_accumulate(&self, target: u32, offset: u64, data: MsgData) -> Result<(), MpiError> {
        let token = self.rma_issue(target, RmaOp::Accumulate, offset, data);
        self.try_rma_wait(token).map(|_| ())
    }

    /// The asynchronous progress loop: poll until `stop` is set. Spawn
    /// this on its own thread to emulate `MPICH_ASYNC_PROGRESS=1`. The
    /// first iteration enters on the main path; all subsequent ones are
    /// low-priority progress entries (the thread "does not do useful work
    /// most of the time", §6.1.2). Unlike blocking waits, this *is* the
    /// progress engine, so its passages stay on the progress path in the
    /// event stream.
    pub fn progress_loop(&self, stop: &AtomicBool) {
        let w = &self.world;
        let mut class = PathClass::Main;
        // Round-robin over the rank's shards (one per iteration); with a
        // single VCI this is exactly the pre-VCI loop.
        let mut turn = 0u64;
        while !stop.load(Ordering::Acquire) {
            let vci = (turn % u64::from(w.vci_n())) as u32;
            turn += 1;
            let _ = progress_once(w, self.rank, vci, class, obs_path(class));
            class = PathClass::Progress;
            w.platform.compute(w.costs.poll_gap_ns);
        }
    }
}
