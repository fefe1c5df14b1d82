//! Virtual-time cost model of the runtime's internal operations.
//!
//! These are the per-operation costs charged via
//! [`mtmpi_sim::Platform::compute`] inside (and around) the critical
//! section. They stand in for MPICH's instruction footprints; defaults are
//! order-of-magnitude figures for a 2.6 GHz Nehalem (a few hundred
//! instructions ≈ ~100 ns). The contention phenomena depend on the ratios
//! of these costs to the lock hand-off costs, not on their absolute
//! values.

/// Per-operation runtime costs, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeCosts {
    /// Per-MPI-call work *outside* the critical section: parameter
    /// validation, datatype resolution, user loop code between calls.
    /// This gap is what lets freshly-spinning waiters beat the previous
    /// owner's re-lock on real NPTL (the paper's Pc bias is ~2x fair,
    /// i.e. statistical, not absolute monopolization).
    pub call_overhead_ns: u64,
    /// Request object allocation and initialization.
    pub alloc_ns: u64,
    /// Inserting a request or message into a queue.
    pub enqueue_ns: u64,
    /// Scanning one queue entry during matching (makes long unexpected /
    /// posted queues expensive — the §7 "queued requests" dynamic).
    pub match_scan_ns: u64,
    /// Marking a request complete.
    pub complete_ns: u64,
    /// Freeing a completed request.
    pub free_ns: u64,
    /// One progress-engine entry (completion-queue check).
    pub poll_base_ns: u64,
    /// Gap between progress-loop iterations, spent outside the CS
    /// (re-acquire happens after this).
    pub poll_gap_ns: u64,
    /// Envelope bytes added to every wire message.
    pub header_bytes: u64,
    /// Copy cost per byte when an eager message is matched from the
    /// unexpected queue (it was buffered and must be copied out).
    pub unexpected_copy_ns_per_byte: f64,
}

impl Default for RuntimeCosts {
    fn default() -> Self {
        Self {
            call_overhead_ns: 120,
            alloc_ns: 80,
            enqueue_ns: 50,
            match_scan_ns: 20,
            complete_ns: 40,
            free_ns: 40,
            poll_base_ns: 350,
            poll_gap_ns: 900,
            header_bytes: 64,
            unexpected_copy_ns_per_byte: 0.05,
        }
    }
}

impl RuntimeCosts {
    /// Copy cost for `bytes` of unexpected-path data.
    pub fn unexpected_copy_ns(&self, bytes: u64) -> u64 {
        (bytes as f64 * self.unexpected_copy_ns_per_byte).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let c = RuntimeCosts::default();
        assert!(c.alloc_ns > 0 && c.poll_base_ns > 0);
        assert_eq!(c.unexpected_copy_ns(1000), 50);
    }
}
