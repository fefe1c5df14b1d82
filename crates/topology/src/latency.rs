//! Memory-hierarchy distances and lock hand-off latencies.

use crate::node::{CoreId, NodeTopology};

/// Cache distance between the releasing core and a prospective next owner of
/// a lock's cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Distance {
    /// Same core: the line is already in the local L1/L2; the previous owner
    /// re-acquiring its own lock pays almost nothing.
    SameCore,
    /// Different core, same socket: line moves through the shared L3.
    SameSocket,
    /// Different socket: line crosses the interconnect (QPI on Nehalem).
    CrossSocket,
}

/// Hand-off latencies (paper §4.2, footnote 1: "the elapsed time between
/// when a lock holder marks the lock as free and when the next owner
/// detects it"), in nanoseconds, for each [`Distance`].
///
/// The ratio between these values — not their absolute magnitude — drives
/// the arbitration bias: a compare-and-swap race is won by whoever observes
/// the freed line first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandoffLatencies {
    /// Same-core re-acquire (line in local cache).
    pub same_core_ns: u64,
    /// Cross-core, same-socket transfer via L3.
    pub same_socket_ns: u64,
    /// Cross-socket transfer via the inter-socket link.
    pub cross_socket_ns: u64,
}

impl HandoffLatencies {
    /// Latencies measured on Nehalem-class hardware (order of magnitude:
    /// L1 hit ~1.3 ns, L3 hit ~15 ns line transfer ~25 ns, cross-socket
    /// cache-to-cache ~120 ns).
    pub const NEHALEM: Self = Self {
        same_core_ns: 5,
        same_socket_ns: 25,
        cross_socket_ns: 120,
    };

    /// A uniform-latency machine (no NUMA effect); useful as a control in
    /// bias experiments.
    pub const UNIFORM: Self = Self {
        same_core_ns: 25,
        same_socket_ns: 25,
        cross_socket_ns: 25,
    };

    /// Latency for a given distance.
    pub fn for_distance(&self, d: Distance) -> u64 {
        match d {
            Distance::SameCore => self.same_core_ns,
            Distance::SameSocket => self.same_socket_ns,
            Distance::CrossSocket => self.cross_socket_ns,
        }
    }

    /// Hand-off latency between two cores of `node`.
    pub fn between(&self, node: &NodeTopology, from: CoreId, to: CoreId) -> u64 {
        self.for_distance(distance(node, from, to))
    }
}

impl Default for HandoffLatencies {
    fn default() -> Self {
        Self::NEHALEM
    }
}

/// Classify the cache distance between two cores.
pub fn distance(node: &NodeTopology, from: CoreId, to: CoreId) -> Distance {
    if from == to {
        Distance::SameCore
    } else if node.same_socket(from, to) {
        Distance::SameSocket
    } else {
        Distance::CrossSocket
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_on_dual_socket() {
        let n = NodeTopology::new(2, 4);
        assert_eq!(distance(&n, CoreId(2), CoreId(2)), Distance::SameCore);
        assert_eq!(distance(&n, CoreId(2), CoreId(0)), Distance::SameSocket);
        assert_eq!(distance(&n, CoreId(2), CoreId(5)), Distance::CrossSocket);
    }

    #[test]
    fn nehalem_latencies_are_monotone() {
        let l = HandoffLatencies::NEHALEM;
        assert!(l.same_core_ns < l.same_socket_ns);
        assert!(l.same_socket_ns < l.cross_socket_ns);
    }

    #[test]
    fn between_uses_distance() {
        let n = NodeTopology::new(2, 4);
        let l = HandoffLatencies::NEHALEM;
        assert_eq!(l.between(&n, CoreId(0), CoreId(0)), l.same_core_ns);
        assert_eq!(l.between(&n, CoreId(0), CoreId(1)), l.same_socket_ns);
        assert_eq!(l.between(&n, CoreId(0), CoreId(4)), l.cross_socket_ns);
    }

    #[test]
    fn uniform_control_has_no_numa() {
        let n = NodeTopology::new(2, 4);
        let l = HandoffLatencies::UNIFORM;
        assert_eq!(
            l.between(&n, CoreId(0), CoreId(0)),
            l.between(&n, CoreId(0), CoreId(7))
        );
    }
}
