//! Typed errors: construction errors for [`crate::WorldBuilder`] and
//! runtime communication errors for the blocking completion paths.

/// Why [`crate::WorldBuilder::build`] refused a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// `ranks(0)`: a world needs at least one MPI process.
    ZeroRanks,
    /// The `rank_on_node` map placed a rank on a node the platform does
    /// not have.
    NodeOutOfRange {
        /// The offending rank.
        rank: u32,
        /// The node it was mapped to.
        node: u32,
        /// How many nodes the platform models.
        nodes: u32,
    },
    /// RMA use was declared (`expect_rma`) but no window memory was
    /// configured — every one-sided operation would fault at the target.
    ZeroWindowWithRma,
    /// `vci_map` with a zero-count [`crate::VciMap`]: every rank needs
    /// at least one virtual communication interface.
    ZeroVcis,
    /// `streams(n)` with `n > 0` but a zero-count [`crate::VciMap`]:
    /// stream-bound shards extend the sharded pool, so a world with
    /// streams still needs at least one regular VCI for unbound and
    /// wildcard traffic.
    StreamsWithoutVcis {
        /// How many streams were requested.
        streams: u32,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::ZeroRanks => write!(f, "world needs at least one rank"),
            BuildError::NodeOutOfRange { rank, node, nodes } => write!(
                f,
                "rank {rank} mapped to node {node}, but the platform has only {nodes} node(s)"
            ),
            BuildError::ZeroWindowWithRma => write!(
                f,
                "RMA use declared (expect_rma) but window_bytes is 0; \
                 give every rank a window with WorldBuilder::window_bytes"
            ),
            BuildError::ZeroVcis => write!(
                f,
                "the VCI map has 0 VCIs: every rank needs at least one virtual \
                 communication interface (1 = the unsharded global CS)"
            ),
            BuildError::StreamsWithoutVcis { streams } => write!(
                f,
                "streams({streams}) requested with a 0-VCI map: stream shards \
                 extend the sharded pool, so keep at least one regular VCI \
                 for unbound and wildcard traffic"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Why [`crate::RankHandle::try_stream_at`] could not hand out a
/// [`crate::Stream`].
///
/// Binding is a compare-and-swap on the stream shard's claim word, so
/// these are the only failure modes; the panicking wrappers
/// ([`crate::RankHandle::stream`], [`crate::RankHandle::stream_at`])
/// surface them with this error's `Display` text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamBindError {
    /// The stream index is not within `0..streams` for this world.
    OutOfRange {
        /// Rank that asked.
        rank: u32,
        /// The offending stream index.
        sid: u32,
        /// How many streams the world was built with.
        streams: u32,
    },
    /// That stream is currently bound by another live [`crate::Stream`]
    /// handle (single-binder rule: drop or `unbind` it first).
    AlreadyBound {
        /// Rank that asked.
        rank: u32,
        /// The contested stream index.
        sid: u32,
    },
    /// The calling thread is not one of the platform's threads (on the
    /// virtual platform: the caller is not a simulated thread), so it has
    /// no id to bind with.
    NoThread {
        /// Rank that asked.
        rank: u32,
        /// The stream index asked for.
        sid: u32,
    },
    /// Every stream of the rank is bound (the auto-picking
    /// [`crate::RankHandle::stream`] found no free claim word).
    AllBound {
        /// Rank that asked.
        rank: u32,
        /// How many streams the world was built with.
        streams: u32,
    },
}

impl std::fmt::Display for StreamBindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamBindError::OutOfRange { rank, sid, streams } => write!(
                f,
                "rank {rank}: stream index {sid} out of range — the world \
                 was built with streams({streams})"
            ),
            StreamBindError::AlreadyBound { rank, sid } => write!(
                f,
                "rank {rank}: stream {sid} is already bound by another \
                 thread — one binder at a time (drop the other Stream first)"
            ),
            StreamBindError::NoThread { rank, sid } => write!(
                f,
                "rank {rank}: stream {sid} asked for off a platform thread \
                 — bind streams inside a spawned (simulated) thread"
            ),
            StreamBindError::AllBound { rank, streams } => write!(
                f,
                "rank {rank}: all {streams} stream(s) are bound — build the \
                 world with more streams(n) or unbind one"
            ),
        }
    }
}

impl std::error::Error for StreamBindError {}

/// Why a blocking completion call (`try_wait`, `try_waitall`,
/// `try_rma_wait`, collectives) gave up.
///
/// The infallible wrappers (`wait`, `waitall`, `barrier`, …) panic with
/// this error's `Display` text, so legacy callers keep the loud-failure
/// behaviour; fault-plan experiments use the `try_*` variants and handle
/// the error cleanly. On either path the runtime cancels the caller's
/// still-active requests first, so the request ledger stays quiescent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// The liveness limit elapsed with the operation incomplete — a
    /// missing sender, or faults beyond the retransmit policy's reach.
    Timeout {
        /// Rank that was blocked.
        rank: u32,
        /// Operation name ("wait", "waitall", "rma_wait").
        what: &'static str,
        /// Model time spent blocked, ns.
        waited_ns: u64,
    },
    /// A packet exhausted its retransmission budget: the link is dropping
    /// traffic faster than the fault plan's recovery policy tolerates.
    PeerUnreachable {
        /// Rank that gave up.
        rank: u32,
        /// Destination rank of the abandoned packet.
        peer: u32,
        /// Transmission attempts made before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // Keep the historical liveness-guard phrasing: callers (and
            // tests) match on "stuck".
            MpiError::Timeout {
                rank,
                what,
                waited_ns,
            } => write!(
                f,
                "rank {rank} stuck in {what} for {} ms of model time — missing sender?",
                waited_ns / 1_000_000
            ),
            MpiError::PeerUnreachable {
                rank,
                peer,
                attempts,
            } => write!(
                f,
                "rank {rank} declared rank {peer} unreachable after {attempts} \
                 transmission attempts — drop rate beyond the retransmit policy?"
            ),
        }
    }
}

impl std::error::Error for MpiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_actionable() {
        let e = BuildError::NodeOutOfRange {
            rank: 3,
            node: 9,
            nodes: 2,
        };
        let s = e.to_string();
        assert!(s.contains("rank 3"));
        assert!(s.contains("node 9"));
        assert!(s.contains("2 node(s)"));
        assert!(BuildError::ZeroWindowWithRma
            .to_string()
            .contains("window_bytes"));
        assert!(BuildError::StreamsWithoutVcis { streams: 4 }
            .to_string()
            .contains("streams(4)"));
    }

    #[test]
    fn stream_bind_errors_name_the_contested_stream() {
        let e = StreamBindError::OutOfRange {
            rank: 1,
            sid: 7,
            streams: 4,
        };
        let s = e.to_string();
        assert!(s.contains("rank 1"), "{s}");
        assert!(s.contains("index 7"), "{s}");
        assert!(s.contains("streams(4)"), "{s}");
        let s = StreamBindError::AlreadyBound { rank: 0, sid: 2 }.to_string();
        assert!(s.contains("stream 2 is already bound"), "{s}");
        let s = StreamBindError::AllBound {
            rank: 3,
            streams: 2,
        }
        .to_string();
        assert!(s.contains("all 2 stream(s)"), "{s}");
    }

    #[test]
    fn timeout_keeps_the_legacy_liveness_phrasing() {
        let e = MpiError::Timeout {
            rank: 1,
            what: "wait",
            waited_ns: 3_000_000,
        };
        let s = e.to_string();
        assert!(s.contains("rank 1 stuck in wait"), "{s}");
        assert!(s.contains("3 ms of model time"), "{s}");
    }

    #[test]
    fn unreachable_names_both_ends() {
        let e = MpiError::PeerUnreachable {
            rank: 0,
            peer: 3,
            attempts: 11,
        };
        let s = e.to_string();
        assert!(s.contains("rank 0"), "{s}");
        assert!(s.contains("rank 3 unreachable"), "{s}");
        assert!(s.contains("11"), "{s}");
    }
}
