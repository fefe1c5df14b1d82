//! Single-node topology: sockets, cores, caches.

/// Index of a core within a node (`0..sockets * cores_per_socket`).
///
/// Cores are numbered socket-major: core `c` lives on socket
/// `c / cores_per_socket`. This matches the binding convention used in the
/// paper ("we bind the first four threads to cores on the first socket and
/// the rest to cores on the second", §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub u32);

/// Index of a socket within a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketId(pub u32);

/// Description of one compute node.
///
/// The defaults elsewhere in the workspace use [`crate::presets::nehalem_node`],
/// which encodes Table 1 of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeTopology {
    /// Number of CPU sockets (NUMA domains) on the node.
    pub sockets: u32,
    /// Number of physical cores per socket (SMT disabled, as in the paper).
    pub cores_per_socket: u32,
    /// Clock frequency in MHz (informational; virtual-time costs are given
    /// in nanoseconds directly).
    pub clock_mhz: u32,
    /// Per-core L2 size in bytes.
    pub l2_bytes: u64,
    /// Per-socket shared L3 size in bytes.
    pub l3_bytes: u64,
    /// Human-readable processor name.
    pub processor: String,
}

impl NodeTopology {
    /// Create a topology with the given socket/core counts and generic
    /// cache parameters.
    pub fn new(sockets: u32, cores_per_socket: u32) -> Self {
        assert!(
            sockets > 0 && cores_per_socket > 0,
            "topology must have cores"
        );
        Self {
            sockets,
            cores_per_socket,
            clock_mhz: 2600,
            l2_bytes: 256 * 1024,
            l3_bytes: 8 * 1024 * 1024,
            processor: "generic".to_owned(),
        }
    }

    /// Total number of cores on the node.
    pub fn total_cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// The socket a core belongs to.
    pub fn socket_of(&self, core: CoreId) -> SocketId {
        assert!(core.0 < self.total_cores(), "core {core:?} out of range");
        SocketId(core.0 / self.cores_per_socket)
    }

    /// Whether two cores share a socket (and therefore the L3 cache).
    pub fn same_socket(&self, a: CoreId, b: CoreId) -> bool {
        self.socket_of(a) == self.socket_of(b)
    }

    /// Iterate over all core ids, socket-major.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        (0..self.total_cores()).map(CoreId)
    }

    /// Cores belonging to one socket.
    pub fn cores_of(&self, socket: SocketId) -> impl Iterator<Item = CoreId> + '_ {
        assert!(socket.0 < self.sockets, "socket {socket:?} out of range");
        let base = socket.0 * self.cores_per_socket;
        (base..base + self.cores_per_socket).map(CoreId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_major_numbering() {
        let n = NodeTopology::new(2, 4);
        assert_eq!(n.total_cores(), 8);
        assert_eq!(n.socket_of(CoreId(0)), SocketId(0));
        assert_eq!(n.socket_of(CoreId(3)), SocketId(0));
        assert_eq!(n.socket_of(CoreId(4)), SocketId(1));
        assert_eq!(n.socket_of(CoreId(7)), SocketId(1));
    }

    #[test]
    fn same_socket_relation() {
        let n = NodeTopology::new(2, 4);
        assert!(n.same_socket(CoreId(0), CoreId(3)));
        assert!(!n.same_socket(CoreId(3), CoreId(4)));
        // reflexive
        for c in n.cores() {
            assert!(n.same_socket(c, c));
        }
    }

    #[test]
    fn cores_of_socket() {
        let n = NodeTopology::new(2, 4);
        let s1: Vec<_> = n.cores_of(SocketId(1)).collect();
        assert_eq!(s1, vec![CoreId(4), CoreId(5), CoreId(6), CoreId(7)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn socket_of_out_of_range_panics() {
        let n = NodeTopology::new(2, 4);
        let _ = n.socket_of(CoreId(8));
    }
}
