//! Arbitration-fairness analysis (paper §4.3).
//!
//! From the grants of one critical section ([`crate::GrantFold`]) we
//! estimate, exactly as the paper does:
//!
//! * `Pc` — probability that the *same thread* re-acquires the lock on
//!   consecutive acquisitions (core-level bias, threads being pinned one
//!   per core);
//! * `Ps` — probability that the next owner runs on the *same socket* as
//!   the previous owner (socket-level bias);
//!
//! both for the observed arbitration (`X_l`, `Y_l` indicator variables) and
//! for an ideal fair arbitration estimated from the same contention levels
//! (`X_l = 1/T_l`, `Y_l = T_{j,l} / Σ_i T_{i,l}`). The ratios
//! observed / fair are the **bias factors** of Fig 3a; a fair lock has
//! factor 1.0, and the paper measures ≈2.0 at core level and ≈1.25 at
//! socket level for the NPTL mutex.

/// Estimated probabilities for one arbitration policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiasAnalysis {
    /// Observed P(same thread re-acquires) over contended acquisitions.
    pub pc_observed: f64,
    /// Observed P(same socket keeps the lock).
    pub ps_observed: f64,
    /// `Pc` a fair arbitration would have produced at the same contention.
    pub pc_fair: f64,
    /// `Ps` a fair arbitration would have produced.
    pub ps_fair: f64,
    /// Number of contended acquisitions the estimate is based on (`L`).
    pub samples: usize,
}

/// The Fig 3a bias factors: observed probability over fair probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiasFactors {
    /// Core-level bias factor (≈2.0 for mutex on the paper's testbed).
    pub core: f64,
    /// Socket-level bias factor (≈1.25 for mutex).
    pub socket: f64,
}

impl BiasAnalysis {
    /// Bias factors (observed / fair); `None` when there were no
    /// contended grants to estimate from.
    pub fn factors(&self) -> Option<BiasFactors> {
        if self.samples == 0 || self.pc_fair == 0.0 || self.ps_fair == 0.0 {
            return None;
        }
        Some(BiasFactors {
            core: self.pc_observed / self.pc_fair,
            socket: self.ps_observed / self.ps_fair,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::grants::{Grant, GrantFold};
    use mtmpi_topology::SocketId;

    /// Grant to `owner`: 8 threads pinned one per core on a 2x4 node,
    /// thread t on socket t/4. `waiting` lists waiting thread ids.
    fn grant(f: &mut GrantFold, owner: u32, waiting: &[u32]) {
        let mut per_socket = [0u32; 2];
        for &w in waiting {
            per_socket[(w / 4) as usize] += 1;
        }
        f.record(Grant {
            owner,
            socket: SocketId(owner / 4),
            waiting: waiting.len() as u32,
            waiting_per_socket: &per_socket,
            wait_ns: 0,
        });
    }

    #[test]
    fn perfectly_round_robin_has_factor_near_one() {
        // 4 threads, 2 per socket, perfect FIFO rotation, always 3 waiting.
        let mut t = GrantFold::new();
        for i in 0..4000u32 {
            let owner = i % 4;
            let waiting: Vec<u32> = (0..4).filter(|&x| x != owner).collect();
            grant(&mut t, owner, &waiting);
        }
        let f = t.bias().factors().unwrap();
        // Round robin never re-elects the same owner -> core factor 0.
        assert!(f.core < 0.05, "core factor {}", f.core);
        // 4 threads round robin 0,1,2,3: consecutive owners 0->1 same
        // socket, 1->2 different, 2->3 same, 3->0 different => Ps = 0.5,
        // fair Ps = candidates on prev socket / 4 = 2/4 = 0.5 => factor 1.
        assert!((f.socket - 1.0).abs() < 0.05, "socket factor {}", f.socket);
    }

    #[test]
    fn monopolizing_grants_have_high_core_bias() {
        // Thread 0 wins 9 times out of 10 although 7 others wait.
        let mut t = GrantFold::new();
        for i in 0..5000u32 {
            let owner = if i % 10 == 9 { 1 + (i / 10) % 7 } else { 0 };
            let waiting: Vec<u32> = (0..8).filter(|&x| x != owner).collect();
            grant(&mut t, owner, &waiting);
        }
        let f = t.bias().factors().unwrap();
        // Observed Pc ~= 0.8 (9 consecutive zeros per decade -> 8 repeats
        // out of 10 transitions); fair Pc = 1/8 -> factor ~6.4.
        assert!(f.core > 4.0, "core factor {}", f.core);
        assert!(f.socket > 1.0, "socket factor {}", f.socket);
    }

    #[test]
    fn uncontended_grants_are_ignored() {
        let mut t = GrantFold::new();
        for _ in 0..100 {
            grant(&mut t, 0, &[]);
        }
        let a = t.bias();
        assert_eq!(a.samples, 0);
        assert!(a.factors().is_none());
    }

    #[test]
    fn empty_and_singleton_folds() {
        assert!(GrantFold::new().bias().factors().is_none());
        let mut t = GrantFold::new();
        grant(&mut t, 0, &[1]);
        assert_eq!(t.bias().samples, 0);
    }
}
