//! Canned topologies, including the paper's testbed (Table 1).

use crate::cluster::ClusterTopology;
use crate::latency::HandoffLatencies;
use crate::node::NodeTopology;

/// The paper's compute node (Table 1): dual-socket Intel Nehalem Xeon E5540,
/// 4 cores per socket, SMT disabled, 2.6 GHz, 256 KB L2, 8 MB L3.
pub fn nehalem_node() -> NodeTopology {
    NodeTopology {
        sockets: 2,
        cores_per_socket: 4,
        clock_mhz: 2600,
        l2_bytes: 256 * 1024,
        l3_bytes: 8192 * 1024,
        processor: "Xeon E5540 (Nehalem)".to_owned(),
    }
}

/// The paper's cluster (Table 1): 310 Nehalem nodes on Mellanox QDR.
pub fn nehalem_cluster() -> ClusterTopology {
    let mut c = ClusterTopology::new(310, nehalem_node());
    c.interconnect = "Mellanox InfiniBand QDR (model)".to_owned();
    c
}

/// A smaller cluster with the paper's node type, sized for host-feasible
/// virtual-time experiments. The per-node contention behaviour — which is
/// what the paper studies — is unchanged.
pub fn nehalem_cluster_scaled(nodes: u32) -> ClusterTopology {
    let mut c = ClusterTopology::new(nodes, nehalem_node());
    c.interconnect = "Mellanox InfiniBand QDR (model)".to_owned();
    c
}

/// Control machine without NUMA effects: same core count, uniform hand-off
/// latency. Used to show that the mutex bias disappears on a flat machine.
pub fn uniform_node() -> NodeTopology {
    NodeTopology {
        processor: "uniform control".to_owned(),
        ..nehalem_node()
    }
}

/// Control cluster pairing [`uniform_node`] with [`HandoffLatencies::UNIFORM`].
pub fn uniform_cluster(nodes: u32) -> ClusterTopology {
    let mut c = ClusterTopology::new(nodes, uniform_node());
    c.handoff = HandoffLatencies::UNIFORM;
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let c = nehalem_cluster();
        assert_eq!(c.nodes, 310);
        assert_eq!(c.node.sockets, 2);
        assert_eq!(c.node.cores_per_socket, 4);
        assert_eq!(c.node.clock_mhz, 2600);
        assert_eq!(c.node.l2_bytes, 256 * 1024);
        assert_eq!(c.node.l3_bytes, 8192 * 1024);
        assert_eq!(c.node.processor, "Xeon E5540 (Nehalem)");
        assert_eq!(c.interconnect, "Mellanox InfiniBand QDR (model)");
        // Model additions, not Table 1 values: the lock hand-off costs.
        assert_eq!(c.handoff.same_core_ns, 5);
        assert_eq!(c.handoff.same_socket_ns, 25);
        assert_eq!(c.handoff.cross_socket_ns, 120);
    }

    #[test]
    fn uniform_control_is_flat() {
        let c = uniform_cluster(2);
        assert_eq!(c.handoff.same_core_ns, c.handoff.cross_socket_ns);
    }
}
