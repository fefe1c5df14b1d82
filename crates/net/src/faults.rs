//! Deterministic fault injection for the simulated fabric.
//!
//! A [`FaultPlan`] describes *what can go wrong* on the wire — per-packet
//! drop, duplication, extra delay, and reordering — plus the retransmit
//! policy the runtime uses to survive it. Every decision is a pure
//! function of `(plan seed, src endpoint, dst endpoint, per-link
//! transmission counter)`, hashed with splitmix64, so a run with the same
//! seed and the same plan makes byte-identical fault decisions no matter
//! how threads interleave. The plan never touches the platform RNG: fault
//! injection must not perturb any other seeded choice in the simulation.
//!
//! Probabilities are expressed in parts-per-million (`*_ppm`) so the plan
//! stays integer-only and hashable. A default-constructed
//! plan injects nothing and [`FaultPlan::is_active`] is `false`; the
//! runtime uses that to skip all fault machinery (no acks, no retransmit
//! queue, no extra events), keeping fault-free runs byte-identical to a
//! build without this module.
//!
//! Reordering is modelled as *extra delay on a subset of packets*: holding
//! one packet back past its successors is exactly what a reordering
//! network does, and the receiver's sequence-number reorder buffer is
//! exercised the same way.

/// One million — the denominator for all `*_ppm` probabilities.
pub const PPM: u32 = 1_000_000;

/// Fault-injection and recovery-policy parameters for every link.
///
/// Decisions are drawn per *transmission* (retransmits roll the dice
/// again) and per link, deterministically from `seed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the per-packet decision hash (independent of the
    /// platform seed, so the same fault pattern can be replayed across
    /// different simulated schedules).
    pub seed: u64,
    /// Probability a transmission is silently dropped, parts-per-million.
    pub drop_ppm: u32,
    /// Probability a transmission is delivered twice, parts-per-million.
    pub dup_ppm: u32,
    /// Probability a transmission is delayed by an extra uniform amount
    /// in `[1, delay_max_ns]`, parts-per-million.
    pub delay_ppm: u32,
    /// Maximum extra delay for delayed packets, ns.
    pub delay_max_ns: u64,
    /// Probability a transmission is held back by exactly
    /// `reorder_hold_ns` so later packets overtake it, parts-per-million.
    pub reorder_ppm: u32,
    /// Hold-back time for reordered packets, ns. Should exceed the link's
    /// inject+wire time or nothing actually overtakes.
    pub reorder_hold_ns: u64,
    /// Base retransmit timeout, ns: an unacked packet is retransmitted
    /// once `rto_ns << min(attempt, backoff_cap)` has elapsed since its
    /// last transmission (exponential backoff).
    pub rto_ns: u64,
    /// Exponent cap for the backoff shift.
    pub backoff_cap: u32,
    /// Retransmission attempts before the destination is declared
    /// unreachable (`PeerUnreachable`).
    pub max_attempts: u32,
}

impl FaultPlan {
    /// A plan that injects nothing (the default). `is_active()` is false.
    pub fn none() -> Self {
        Self {
            seed: 0,
            drop_ppm: 0,
            dup_ppm: 0,
            delay_ppm: 0,
            delay_max_ns: 0,
            reorder_ppm: 0,
            reorder_hold_ns: 0,
            rto_ns: 50_000,
            backoff_cap: 6,
            max_attempts: 10,
        }
    }

    /// A convenience plan dropping `drop_ppm`/1e6 of transmissions with
    /// default recovery policy.
    pub fn drop(seed: u64, drop_ppm: u32) -> Self {
        Self {
            seed,
            drop_ppm,
            ..Self::none()
        }
    }

    /// A convenience plan reordering `reorder_ppm`/1e6 of transmissions
    /// by holding them back `hold_ns`.
    pub fn reorder(seed: u64, reorder_ppm: u32, hold_ns: u64) -> Self {
        Self {
            seed,
            reorder_ppm,
            reorder_hold_ns: hold_ns,
            ..Self::none()
        }
    }

    /// Whether any fault can ever be injected. When false the runtime
    /// skips the entire recovery machinery.
    pub fn is_active(&self) -> bool {
        self.drop_ppm > 0 || self.dup_ppm > 0 || self.delay_ppm > 0 || self.reorder_ppm > 0
    }

    /// Deterministic decision for the `count`-th transmission on the
    /// `src → dst` endpoint link.
    pub fn decide(&self, src: usize, dst: usize, count: u64) -> FaultDecision {
        let mut h = splitmix64(
            self.seed
                ^ (src as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (dst as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                ^ count.wrapping_mul(0x1656_67B1_9E37_79F9),
        );
        // Independent draws from successive splitmix outputs; each draw
        // maps the low 20-ish bits onto [0, 1e6).
        let mut draw_ppm = || {
            h = splitmix64(h);
            (h % u64::from(PPM)) as u32
        };
        let drop = draw_ppm() < self.drop_ppm;
        let duplicate = draw_ppm() < self.dup_ppm;
        let delayed = draw_ppm() < self.delay_ppm;
        let reordered = draw_ppm() < self.reorder_ppm;
        let mut extra_delay_ns = 0u64;
        if delayed && self.delay_max_ns > 0 {
            h = splitmix64(h);
            extra_delay_ns += 1 + h % self.delay_max_ns;
        }
        if reordered {
            extra_delay_ns += self.reorder_hold_ns;
        }
        FaultDecision {
            drop,
            duplicate,
            extra_delay_ns,
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// What happens to one transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultDecision {
    /// The packet is never delivered.
    pub drop: bool,
    /// A second copy is delivered as well.
    pub duplicate: bool,
    /// Extra delivery delay (delay + reorder hold combined), ns.
    pub extra_delay_ns: u64,
}

/// SplitMix64 — the standard 64-bit finalizing mixer (Vigna). Used for
/// all per-packet decisions so they are reproducible and uncorrelated
/// with the platform's own RNG stream.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let p = FaultPlan::default();
        assert!(!p.is_active());
        for count in 0..1000 {
            let d = p.decide(0, 1, count);
            assert_eq!(d, FaultDecision::default(), "inert plan must never inject");
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let p = FaultPlan {
            seed: 42,
            drop_ppm: 100_000,
            dup_ppm: 50_000,
            delay_ppm: 200_000,
            delay_max_ns: 10_000,
            reorder_ppm: 80_000,
            reorder_hold_ns: 5_000,
            ..FaultPlan::none()
        };
        for count in 0..500 {
            assert_eq!(p.decide(3, 7, count), p.decide(3, 7, count));
        }
    }

    #[test]
    fn links_and_counters_decorrelate() {
        let p = FaultPlan::drop(7, 500_000);
        let a: Vec<bool> = (0..64).map(|c| p.decide(0, 1, c).drop).collect();
        let b: Vec<bool> = (0..64).map(|c| p.decide(1, 0, c).drop).collect();
        assert_ne!(a, b, "per-link streams must differ");
    }

    #[test]
    fn drop_rate_tracks_ppm() {
        let p = FaultPlan::drop(11, 250_000); // 25%
        let n = 20_000u64;
        let drops = (0..n).filter(|&c| p.decide(0, 1, c).drop).count() as f64;
        let rate = drops / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "observed drop rate {rate}");
    }

    #[test]
    fn delay_draws_stay_in_range() {
        let p = FaultPlan {
            seed: 5,
            delay_ppm: PPM,
            delay_max_ns: 1_000,
            ..FaultPlan::none()
        };
        for count in 0..2_000 {
            let d = p.decide(2, 9, count);
            assert!(
                (1..=1_000).contains(&d.extra_delay_ns),
                "delay {} out of range",
                d.extra_delay_ns
            );
        }
    }

    #[test]
    fn reorder_plan_holds_back_some_packets() {
        let p = FaultPlan::reorder(9, 300_000, 4_000);
        let held = (0..1_000)
            .filter(|&c| p.decide(0, 1, c).extra_delay_ns == 4_000)
            .count();
        assert!(held > 100, "held {held} of 1000");
    }

    #[test]
    fn convenience_constructors_set_policy_defaults() {
        let p = FaultPlan::drop(13, 10_000);
        assert!(p.is_active());
        assert!(p.rto_ns > 0 && p.max_attempts > 0);
        let r = FaultPlan::reorder(13, 10_000, 2_000);
        assert_eq!(r.reorder_hold_ns, 2_000);
        assert!(r.is_active());
    }
}
