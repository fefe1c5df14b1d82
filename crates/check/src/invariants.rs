//! Critical-section invariant checkers over grant statistics.
//!
//! These read the [`GrantFold`] kept by `mtmpi_locks::Traced` (or by the
//! virtual platform's lock models) and check the properties the paper's
//! remedies are supposed to deliver:
//!
//! * [`fifo_violations`] — a FIFO lock (ticket, MCS, CLH) can never grant
//!   the same owner twice in a row while other threads were already
//!   queued at the first grant; any such pair of grants proves the lock
//!   barged.
//! * [`check_starvation`] — the §4.3 fairness analysis turned into a
//!   pass/fail detector: core-level bias factor (via
//!   [`mtmpi_metrics::BiasAnalysis`]), Jain index, and longest monopoly
//!   run, each compared against a threshold.

pub use mtmpi_metrics::FifoViolation;
use mtmpi_metrics::GrantFold;

/// How many FIFO violations a lock committed, and the first of them (the
/// rule and its soundness argument: [`GrantFold::fifo_violations`]).
pub fn fifo_violations(grants: &GrantFold) -> (u64, Option<FifoViolation>) {
    grants.fifo_violations()
}

/// Thresholds for [`check_starvation`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StarvationThresholds {
    /// Maximum acceptable core-level bias factor (observed / fair
    /// probability of consecutive re-acquisition). The paper measures
    /// ≈2.0 for the NPTL mutex and ≈1.0 for ticket; 1.5 splits them.
    pub max_core_bias: f64,
    /// Minimum acceptable Jain fairness index over per-thread
    /// acquisition counts (1.0 = perfectly fair, 1/n = one thread owns
    /// everything).
    pub min_jain_index: f64,
    /// Maximum acceptable run of consecutive acquisitions by one thread.
    pub max_monopoly_run: usize,
}

impl Default for StarvationThresholds {
    fn default() -> Self {
        Self {
            max_core_bias: 1.5,
            min_jain_index: 0.5,
            max_monopoly_run: 64,
        }
    }
}

/// Outcome of [`check_starvation`]: the measured statistics plus a list
/// of human-readable findings (empty = fair).
#[derive(Debug, Clone, PartialEq)]
pub struct StarvationReport {
    /// Core-level bias factor, if there were contended samples.
    pub core_bias: Option<f64>,
    /// Socket-level bias factor, if there were contended samples.
    pub socket_bias: Option<f64>,
    /// Jain fairness index of the per-thread acquisition counts.
    pub jain_index: f64,
    /// Longest run of consecutive acquisitions by a single thread.
    pub longest_monopoly: usize,
    /// Threshold violations, one sentence each.
    pub findings: Vec<String>,
}

impl StarvationReport {
    /// Whether the lock passed every threshold.
    pub fn is_fair(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Run the starvation/bias detectors over a lock's grant statistics.
pub fn check_starvation(grants: &GrantFold, th: &StarvationThresholds) -> StarvationReport {
    let analysis = grants.bias();
    let factors = analysis.factors();
    let jain = grants.jain_index();
    let monopoly = grants.longest_monopoly();
    let mut findings = Vec::new();
    if let Some(f) = factors {
        if f.core > th.max_core_bias {
            findings.push(format!(
                "core-level bias factor {:.2} exceeds {:.2} (same thread re-acquires {:.0}% of \
                 contended grants vs {:.0}% under fair arbitration)",
                f.core,
                th.max_core_bias,
                analysis.pc_observed * 100.0,
                analysis.pc_fair * 100.0
            ));
        }
    }
    if jain < th.min_jain_index {
        findings.push(format!(
            "Jain fairness index {:.3} below {:.3} over {} acquisitions",
            jain,
            th.min_jain_index,
            grants.total()
        ));
    }
    if monopoly > th.max_monopoly_run {
        findings.push(format!(
            "one thread held the lock {monopoly} times in a row (limit {})",
            th.max_monopoly_run
        ));
    }
    StarvationReport {
        core_bias: factors.map(|f| f.core),
        socket_bias: factors.map(|f| f.socket),
        jain_index: jain,
        longest_monopoly: monopoly,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtmpi_metrics::Grant;
    use mtmpi_topology::SocketId;

    /// Fold `(owner, waiting)` grants, thread t on socket t/4.
    fn fold(grants: impl IntoIterator<Item = (u32, u32)>) -> GrantFold {
        let mut f = GrantFold::new();
        for (owner, waiting) in grants {
            f.record(Grant {
                owner,
                socket: SocketId(owner / 4),
                waiting,
                waiting_per_socket: &[waiting, 0],
                wait_ns: 0,
            });
        }
        f
    }

    #[test]
    fn fifo_clean_round_robin() {
        let t = fold((0..100u32).map(|i| (i % 4, 3)));
        assert_eq!(fifo_violations(&t), (0, None));
    }

    #[test]
    fn fifo_barging_is_flagged() {
        // Two threads queued while 0 holds… and 0 wins again: barging.
        let t = fold([(0, 2), (0, 1), (1, 0)]);
        assert_eq!(
            fifo_violations(&t),
            (
                1,
                Some(FifoViolation {
                    index: 1,
                    owner: 0,
                    waiting_before: 2
                })
            )
        );
    }

    #[test]
    fn fifo_uncontended_reacquire_is_legal() {
        // Nobody was waiting: the owner re-acquiring is fine.
        assert_eq!(fifo_violations(&fold([(0, 0), (0, 0)])), (0, None));
    }

    #[test]
    fn starvation_fair_grants_pass() {
        let t = fold((0..400u32).map(|i| (i % 4, 3)));
        let r = check_starvation(&t, &StarvationThresholds::default());
        assert!(r.is_fair(), "findings: {:?}", r.findings);
        assert!(r.core_bias.unwrap() < 0.5);
    }

    #[test]
    fn starvation_monopolizing_grants_fail_everything() {
        // Thread 0 wins 99 of every 100 contended grants.
        let t = fold((0..4000u32).map(|i| {
            let owner = if i % 100 == 99 { 1 + (i / 100) % 3 } else { 0 };
            (owner, 3)
        }));
        let r = check_starvation(&t, &StarvationThresholds::default());
        assert!(!r.is_fair());
        assert!(r.core_bias.unwrap() > 1.5, "core bias {:?}", r.core_bias);
        assert!(r.jain_index < 0.5, "jain {}", r.jain_index);
        assert!(r.longest_monopoly > 64);
        assert_eq!(
            r.findings.len(),
            3,
            "all three detectors fire: {:?}",
            r.findings
        );
    }

    #[test]
    fn starvation_empty_fold_is_fair() {
        let r = check_starvation(&GrantFold::new(), &StarvationThresholds::default());
        assert!(r.is_fair());
        assert!(r.core_bias.is_none());
    }
}
