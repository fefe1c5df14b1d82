//! Per-lock grant statistics, folded as the grants happen.

use crate::bias::BiasAnalysis;
use mtmpi_topology::SocketId;
use std::collections::BTreeMap;

/// One critical-section grant, as observed by an instrumented lock or by
/// the virtual-platform arbitration model at the moment ownership passes.
///
/// This is the sampling unit of the paper's analysis: "We discretized the
/// execution at the lock acquisition level" (§4.3). `waiting_per_socket`
/// is the contention at the moment of the grant, which is exactly what
/// the fair-arbitration estimator needs.
#[derive(Debug, Clone, Copy)]
pub struct Grant<'a> {
    /// Global thread id of the new owner.
    pub owner: u32,
    /// Socket of the core the owner is bound to.
    pub socket: SocketId,
    /// Number of threads waiting for the lock when ownership was granted
    /// (not counting the new owner).
    pub waiting: u32,
    /// Of those, how many were waiting per socket, indexed by socket id.
    pub waiting_per_socket: &'a [u32],
    /// How long the owner waited for the lock, in nanoseconds.
    pub wait_ns: u64,
}

/// A same-owner regrant past queued waiters: proof a "FIFO" lock barged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoViolation {
    /// Position (0-based, in grant order) of the *second* grant of the pair.
    pub index: u64,
    /// The owner that re-acquired past waiting threads.
    pub owner: u32,
    /// How many threads were already waiting when the owner was first
    /// granted the lock (all of them arrived before its re-request).
    pub waiting_before: u32,
}

/// What the fold remembers of the most recent grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LastGrant {
    /// Thread that was granted the lock.
    pub owner: u32,
    /// Its socket.
    pub socket: SocketId,
    /// Threads left waiting at that moment.
    pub waiting: u32,
}

/// Running §4.3 statistics of one critical section, updated once per
/// grant in grant order. Its size depends on how many threads use the
/// lock, never on how long the run is.
#[derive(Debug, Clone, Default)]
pub struct GrantFold {
    total: u64,
    per_thread: BTreeMap<u32, u64>,
    wait_sum_ns: f64,
    run: usize,
    longest_run: usize,
    /// Contended grants after the first (the paper's `L`) and the sums of
    /// the observed (`X_l`, `Y_l`) and fair indicator variables over them.
    samples: usize,
    xc: f64,
    yc: f64,
    xf: f64,
    yf: f64,
    fifo_violations: u64,
    first_fifo_violation: Option<FifoViolation>,
    prev: Option<LastGrant>,
}

impl GrantFold {
    /// Fold with no grants.
    pub fn new() -> Self {
        Self::default()
    }

    /// Account for one grant (must be called in grant order).
    pub fn record(&mut self, g: Grant<'_>) {
        *self.per_thread.entry(g.owner).or_insert(0) += 1;
        self.wait_sum_ns += g.wait_ns as f64;
        match self.prev {
            Some(prev) => {
                let same_owner = g.owner == prev.owner;
                self.run = if same_owner { self.run + 1 } else { 1 };
                if same_owner && prev.waiting > 0 {
                    self.fifo_violations += 1;
                    self.first_fifo_violation.get_or_insert(FifoViolation {
                        index: self.total,
                        owner: g.owner,
                        waiting_before: prev.waiting,
                    });
                }
                // Only *contended* grants (at least one other thread
                // waiting) are arbitration samples: an uncontended
                // re-acquire had nobody to arbitrate between.
                if g.waiting > 0 {
                    // Candidate set at this grant: the waiters plus the
                    // winner itself (the winner was necessarily among the
                    // requesters).
                    let total = f64::from(g.waiting) + 1.0;
                    let same_socket = g.socket == prev.socket;
                    let waiting_there = g
                        .waiting_per_socket
                        .get(prev.socket.0 as usize)
                        .copied()
                        .unwrap_or(0);
                    let on_prev_socket = f64::from(waiting_there + u32::from(same_socket));
                    self.xc += f64::from(same_owner);
                    self.yc += f64::from(same_socket);
                    self.xf += 1.0 / total;
                    self.yf += on_prev_socket / total;
                    self.samples += 1;
                }
            }
            None => self.run = 1,
        }
        self.longest_run = self.longest_run.max(self.run);
        self.total += 1;
        self.prev = Some(LastGrant {
            owner: g.owner,
            socket: g.socket,
            waiting: g.waiting,
        });
    }

    /// Number of grants folded so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The most recent grant.
    pub fn last(&self) -> Option<LastGrant> {
        self.prev
    }

    /// Mean time the winners spent waiting, in nanoseconds.
    pub fn mean_wait_ns(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.wait_sum_ns / self.total as f64
    }

    /// Per-thread grant counts, keyed by owner id.
    pub fn grants_per_thread(&self) -> &BTreeMap<u32, u64> {
        &self.per_thread
    }

    /// Jain's fairness index over per-thread grant counts:
    /// `(Σx)² / (n·Σx²)`; 1.0 is perfectly fair, `1/n` maximally unfair.
    pub fn jain_index(&self) -> f64 {
        let counts = || self.per_thread.values().map(|&c| c as f64);
        let s: f64 = counts().sum();
        let s2: f64 = counts().map(|c| c * c).sum();
        if s2 == 0.0 {
            1.0
        } else {
            s * s / (self.per_thread.len() as f64 * s2)
        }
    }

    /// Length of the longest run of consecutive grants to one thread (a
    /// direct measure of lock monopolization).
    pub fn longest_monopoly(&self) -> usize {
        self.longest_run
    }

    /// How many grants went to the previous owner although threads were
    /// already queued at its previous grant, and the first such grant.
    ///
    /// Those threads requested the lock *before* the owner could possibly
    /// re-request it (it was busy holding it), so a first-come-first-served
    /// arbiter must serve one of them next: any violation proves barging.
    pub fn fifo_violations(&self) -> (u64, Option<FifoViolation>) {
        (self.fifo_violations, self.first_fifo_violation)
    }

    /// The §4.3 estimators over the grants folded so far.
    pub fn bias(&self) -> BiasAnalysis {
        if self.samples == 0 {
            return BiasAnalysis {
                pc_observed: 0.0,
                ps_observed: 0.0,
                pc_fair: 0.0,
                ps_fair: 0.0,
                samples: 0,
            };
        }
        let n = self.samples as f64;
        BiasAnalysis {
            pc_observed: self.xc / n,
            ps_observed: self.yc / n,
            pc_fair: self.xf / n,
            ps_fair: self.yf / n,
            samples: self.samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fold uncontended grants to `owners`, all on socket 0, 10 ns wait each.
    fn fold(owners: impl IntoIterator<Item = u32>) -> GrantFold {
        let mut f = GrantFold::new();
        for owner in owners {
            f.record(Grant {
                owner,
                socket: SocketId(0),
                waiting: 0,
                waiting_per_socket: &[0, 0],
                wait_ns: 10,
            });
        }
        f
    }

    #[test]
    fn per_thread_counts() {
        let f = fold([0, 0, 1, 0, 2, 2]);
        let m = f.grants_per_thread();
        assert_eq!(m[&0], 3);
        assert_eq!(m[&1], 1);
        assert_eq!(m[&2], 2);
        assert_eq!(f.total(), 6);
        assert_eq!(f.mean_wait_ns(), 10.0);
    }

    #[test]
    fn jain_perfectly_fair() {
        let f = fold([0, 1, 2, 3, 0, 1, 2, 3]);
        assert!((f.jain_index() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_maximally_unfair_tends_to_one_over_n() {
        // thread 0 takes everything; threads 1..3 appear once each so that
        // n = 4 is represented.
        let f = fold(std::iter::repeat_n(0, 997).chain([1, 2, 3]));
        let j = f.jain_index();
        assert!(j < 0.3, "jain {j} should approach 1/4");
    }

    #[test]
    fn monopoly_run() {
        assert_eq!(fold([0, 0, 0, 1, 0, 0, 2]).longest_monopoly(), 3);
    }

    #[test]
    fn empty_fold_defaults() {
        let f = GrantFold::new();
        assert_eq!(f.total(), 0);
        assert!(f.last().is_none());
        assert_eq!(f.mean_wait_ns(), 0.0);
        assert_eq!(f.jain_index(), 1.0);
        assert_eq!(f.longest_monopoly(), 0);
        assert_eq!(f.fifo_violations(), (0, None));
    }
}
