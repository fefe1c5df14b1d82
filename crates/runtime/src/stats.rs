//! The unified post-run introspection snapshot.
//!
//! [`RankStats`] collapses what used to be five ad-hoc `World` getters
//! (`dangling_report`, `cs_acquisitions`, `max_unexpected`,
//! `request_ledger`, `window_snapshot`) into one struct, and carries the
//! observability additions (CS wait/hold and message-latency histograms)
//! alongside. Obtain one with [`crate::World::stats`] after
//! `Platform::run` has returned.

use crate::ledger::RequestLedger;
use mtmpi_metrics::{DanglingSampler, Histogram};
use mtmpi_sim::LockKind;

/// Everything one rank's runtime knows about itself after a run.
#[derive(Debug, Clone)]
pub struct RankStats {
    /// Arbitration of the rank's critical-section lock.
    pub lock: LockKind,
    /// Total critical-section acquisitions by this rank's threads.
    pub cs_acquisitions: u64,
    /// Queue-lock wait times (request → grant), one sample per entry.
    pub cs_wait_ns: Histogram,
    /// Queue-lock hold times (grant → release), one sample per entry.
    pub cs_hold_ns: Histogram,
    /// Receive-side message latency (send issue → local match).
    pub msg_latency_ns: Histogram,
    /// The §4.4 dangling-request sampler (fed at each CS acquisition).
    pub dangling: DanglingSampler,
    /// Request life-cycle counters (Issue/Post/Complete/Free).
    pub ledger: RequestLedger,
    /// Unexpected-queue high-water mark.
    pub max_unexpected: usize,
    /// Posted-queue high-water mark.
    pub max_posted: usize,
    /// Contents of the rank's RMA window (empty when none configured).
    pub window: Vec<u8>,
}
