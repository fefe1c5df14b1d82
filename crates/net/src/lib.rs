//! Interconnect timing model.
//!
//! Substitutes for the paper's Mellanox InfiniBand QDR fabric (Table 1)
//! plus intra-node shared-memory transport. The model is deliberately
//! simple — the paper's phenomena live in the *runtime*, not the wire —
//! but captures the three properties the experiments depend on:
//!
//! 1. **Per-message overhead dominates small messages** — message rate for
//!    1-byte messages is bounded by injection overhead (the paper's ~2 M
//!    msg/s single-thread ceiling), so feeding the network with many
//!    outstanding requests matters (§6.1.1's "helps feed the network
//!    resources").
//! 2. **Bandwidth dominates large messages** — beyond tens of kilobytes
//!    the wire time swamps any runtime contention, which is why every
//!    figure converges at large sizes ("for large messages, network
//!    communication time dominates rendering runtime inefficiencies
//!    negligible", §4.1).
//! 3. **NIC serialization** — a node's link transmits one message at a
//!    time, so concurrent senders queue; modelled by the caller holding a
//!    per-node `nic_free` watermark advanced by [`MsgTiming::inject_ns`].
//!
//! Messages above the eager threshold pay a rendezvous handshake (one
//! extra round-trip of base latency), mirroring MPICH's eager/rendezvous
//! switch.

pub mod faults;

pub use faults::{FaultDecision, FaultPlan, PPM};

/// Timing decomposition for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgTiming {
    /// Time the source NIC is busy injecting (serializes messages from the
    /// same node).
    pub inject_ns: u64,
    /// Additional time after injection until the message is visible at the
    /// destination (propagation + serialization + protocol handshakes).
    pub wire_ns: u64,
}

impl MsgTiming {
    /// Total source-to-destination time ignoring NIC queueing.
    pub fn total_ns(&self) -> u64 {
        self.inject_ns + self.wire_ns
    }
}

/// Interconnect + intra-node transport parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct NetModel {
    /// Eager→rendezvous protocol switch point in bytes.
    pub eager_threshold: u64,
    /// Base one-way latency between nodes, ns.
    pub inter_latency_ns: u64,
    /// Base one-way latency within a node (shared memory), ns.
    pub intra_latency_ns: u64,
    /// Inter-node wire time per byte, ns (QDR ≈ 3.2 GB/s ⇒ 0.3125 ns/B).
    pub inter_ns_per_byte: f64,
    /// Intra-node copy time per byte, ns (memcpy ≈ 10 GB/s ⇒ 0.1 ns/B).
    pub intra_ns_per_byte: f64,
    /// Fixed per-message injection overhead at the source, ns (descriptor
    /// setup, doorbell).
    pub inject_overhead_ns: u64,
    /// Extra handshake cost for rendezvous messages, ns (RTS/CTS
    /// round-trip ≈ 2× base latency).
    pub rendezvous_extra_ns: u64,
}

impl NetModel {
    /// QDR-InfiniBand-like parameters matching the paper's testbed era.
    pub fn qdr() -> Self {
        Self {
            eager_threshold: 16 * 1024,
            inter_latency_ns: 1_300,
            intra_latency_ns: 350,
            inter_ns_per_byte: 0.3125, // ~3.2 GB/s
            intra_ns_per_byte: 0.1,    // ~10 GB/s
            inject_overhead_ns: 200,
            rendezvous_extra_ns: 2 * 1_300,
        }
    }

    /// An idealized infinitely fast network (contention studies where the
    /// wire should not matter).
    pub fn instant() -> Self {
        Self {
            eager_threshold: u64::MAX,
            inter_latency_ns: 1,
            intra_latency_ns: 1,
            inter_ns_per_byte: 0.0,
            intra_ns_per_byte: 0.0,
            inject_overhead_ns: 1,
            rendezvous_extra_ns: 0,
        }
    }

    /// Timing for a `bytes`-long message; `same_node` selects the
    /// shared-memory path.
    pub fn timing(&self, same_node: bool, bytes: u64) -> MsgTiming {
        let (lat, nspb) = if same_node {
            (self.intra_latency_ns, self.intra_ns_per_byte)
        } else {
            (self.inter_latency_ns, self.inter_ns_per_byte)
        };
        let serialization = (bytes as f64 * nspb).round() as u64;
        let rendezvous = if bytes > self.eager_threshold && !same_node {
            self.rendezvous_extra_ns
        } else {
            0
        };
        MsgTiming {
            // The NIC is occupied for the overhead plus the serialization
            // of the payload onto the link.
            inject_ns: self.inject_overhead_ns + serialization,
            wire_ns: lat + rendezvous,
        }
    }

    /// Upper bound on sustainable message rate from one node, msgs/s, for
    /// a given size (NIC-serialization limit).
    pub fn peak_rate(&self, same_node: bool, bytes: u64) -> f64 {
        let t = self.timing(same_node, bytes);
        1e9 / t.inject_ns as f64
    }
}

impl Default for NetModel {
    fn default() -> Self {
        Self::qdr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_messages_overhead_bound() {
        let m = NetModel::qdr();
        let t = m.timing(false, 1);
        assert_eq!(t.inject_ns, m.inject_overhead_ns); // 1 byte rounds to 0.3 -> 0
        assert!(t.wire_ns >= m.inter_latency_ns);
    }

    #[test]
    fn large_messages_bandwidth_bound() {
        let m = NetModel::qdr();
        let t = m.timing(false, 1 << 20);
        // 1 MiB at 0.3125 ns/B = 327,680 ns of serialization.
        assert!(
            t.inject_ns > 300_000,
            "inject {} should be bandwidth bound",
            t.inject_ns
        );
    }

    #[test]
    fn rendezvous_kicks_in_above_threshold() {
        let m = NetModel::qdr();
        let eager = m.timing(false, m.eager_threshold);
        let rndv = m.timing(false, m.eager_threshold + 1);
        assert!(rndv.wire_ns > eager.wire_ns + m.rendezvous_extra_ns / 2);
    }

    #[test]
    fn intra_node_is_faster() {
        let m = NetModel::qdr();
        for bytes in [1u64, 1024, 1 << 20] {
            assert!(
                m.timing(true, bytes).total_ns() < m.timing(false, bytes).total_ns(),
                "shm must beat the wire at {bytes} bytes"
            );
        }
    }

    #[test]
    fn timing_monotone_in_size() {
        let m = NetModel::qdr();
        let mut last = 0;
        for bytes in [0u64, 1, 64, 4096, 65536, 1 << 20] {
            let t = m.timing(false, bytes).total_ns();
            assert!(t >= last, "timing must be monotone");
            last = t;
        }
    }

    #[test]
    fn peak_rate_small_messages_order_of_magnitude() {
        // The paper's single-thread small-message ceiling is ~2M msg/s;
        // our injection overhead should put the NIC limit in that realm.
        let m = NetModel::qdr();
        let r = m.peak_rate(false, 1);
        assert!(r > 1e6 && r < 1e7, "rate {r}");
    }
}
