//! Thread-to-core binding policies.

use crate::node::{CoreId, NodeTopology};

/// How the threads of the processes on one node are pinned to cores.
///
/// The paper contrasts *compact* (fill a socket before spilling to the
/// next — threads share caches, short hand-offs) with *scatter* (round-robin
/// across sockets — every neighbour hand-off crosses the QPI link), §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BindingPolicy {
    /// Fill cores socket by socket: t0..t3 → socket 0, t4..t7 → socket 1.
    Compact,
    /// Round-robin over sockets: t0 → s0c0, t1 → s1c0, t2 → s0c1, …
    Scatter,
}

/// A concrete binding: thread index → core, for `nthreads` threads on `node`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    cores: Vec<CoreId>,
}

impl Binding {
    /// Compute the binding of `nthreads` threads under `policy`.
    ///
    /// Threads beyond the core count wrap around (oversubscription), which
    /// the paper never exercises but the simulator tolerates.
    pub fn new(node: &NodeTopology, policy: BindingPolicy, nthreads: u32) -> Self {
        assert!(nthreads > 0, "need at least one thread");
        let total = node.total_cores();
        let cores = (0..nthreads)
            .map(|t| {
                let slot = t % total;
                let core = match policy {
                    BindingPolicy::Compact => slot,
                    BindingPolicy::Scatter => {
                        let socket = slot % node.sockets;
                        let within = slot / node.sockets;
                        socket * node.cores_per_socket + within
                    }
                };
                CoreId(core)
            })
            .collect();
        Self { cores }
    }

    /// Build a binding from an explicit core list (for tests and custom
    /// experiments).
    pub fn explicit(cores: Vec<CoreId>) -> Self {
        assert!(!cores.is_empty(), "need at least one thread");
        Self { cores }
    }

    /// Core of thread `t`.
    pub fn core_of(&self, t: usize) -> CoreId {
        self.cores[t]
    }

    /// Number of bound threads.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// Whether the binding is empty (never true for constructed bindings).
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// All cores, in thread order.
    pub fn cores(&self) -> &[CoreId] {
        &self.cores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> NodeTopology {
        NodeTopology::new(2, 4)
    }

    #[test]
    fn compact_fills_first_socket_first() {
        let b = Binding::new(&node(), BindingPolicy::Compact, 8);
        let cores: Vec<u32> = b.cores().iter().map(|c| c.0).collect();
        assert_eq!(cores, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn scatter_alternates_sockets() {
        let b = Binding::new(&node(), BindingPolicy::Scatter, 4);
        let n = node();
        let sockets: Vec<u32> = b.cores().iter().map(|&c| n.socket_of(c).0).collect();
        assert_eq!(sockets, vec![0, 1, 0, 1]);
    }

    #[test]
    fn scatter_two_threads_use_both_sockets() {
        let n = node();
        let b = Binding::new(&n, BindingPolicy::Scatter, 2);
        assert!(!n.same_socket(b.core_of(0), b.core_of(1)));
    }

    #[test]
    fn compact_two_threads_share_socket() {
        let n = node();
        let b = Binding::new(&n, BindingPolicy::Compact, 2);
        assert!(n.same_socket(b.core_of(0), b.core_of(1)));
    }

    #[test]
    fn oversubscription_wraps() {
        let b = Binding::new(&node(), BindingPolicy::Compact, 10);
        assert_eq!(b.core_of(8), b.core_of(0));
        assert_eq!(b.core_of(9), b.core_of(1));
    }

    #[test]
    fn scatter_uses_distinct_cores_up_to_total() {
        let b = Binding::new(&node(), BindingPolicy::Scatter, 8);
        let mut cores: Vec<u32> = b.cores().iter().map(|c| c.0).collect();
        cores.sort_unstable();
        cores.dedup();
        assert_eq!(cores.len(), 8, "all 8 cores used exactly once");
    }
}
