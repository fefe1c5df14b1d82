//! Multi-node cluster topology.

use crate::latency::HandoffLatencies;
use crate::node::NodeTopology;

/// A cluster of identical nodes connected by one interconnect.
///
/// Node indices are `0..nodes`. Process placement (ranks → nodes) is decided
/// by the runtime layer; this type only answers "is this pair of ranks on
/// the same node" style questions through the node count.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterTopology {
    /// Number of nodes.
    pub nodes: u32,
    /// Per-node topology (all nodes identical, as on the paper's testbed).
    pub node: NodeTopology,
    /// Lock hand-off latency model for every node.
    pub handoff: HandoffLatencies,
    /// Interconnect name (informational).
    pub interconnect: String,
}

impl ClusterTopology {
    /// A cluster of `nodes` identical `node`s with Nehalem hand-off costs.
    pub fn new(nodes: u32, node: NodeTopology) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        Self {
            nodes,
            node,
            handoff: HandoffLatencies::NEHALEM,
            interconnect: "model-QDR".to_owned(),
        }
    }

    /// Total core count across the cluster.
    pub fn total_cores(&self) -> u64 {
        u64::from(self.nodes) * u64::from(self.node.total_cores())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_cores() {
        let c = ClusterTopology::new(310, NodeTopology::new(2, 4));
        assert_eq!(c.total_cores(), 2480);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = ClusterTopology::new(0, NodeTopology::new(2, 4));
    }
}
