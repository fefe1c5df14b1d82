//! The typed event model.
//!
//! Every record is stamped with the platform clock (`t_ns`), the
//! platform-stable thread id, and the recording thread's core/socket
//! placement. On the virtual platform the clock is virtual time, so two
//! identical runs produce identical event streams; on the native platform
//! it is scaled wall time and streams are only statistically stable.
//!
//! Span-like records ([`EventKind::CsSpan`]) carry their earlier
//! timestamps inline and use `t_ns` as the *end* of the span, because the
//! recorder is append-only: emitting once at the end keeps the hot path to
//! a single push.
//!
//! An [`Event`] is 48 bytes: a timeline holds one per critical-section
//! passage, so every label drawn from a closed set is a one-byte enum
//! rendered through its `label()`, and the thread stamp is as narrow as
//! its bound allows (see [`Event::stamped`]).

use crate::recorder::CsSpanView;

/// Which lock path a critical-section entry used (paper Fig 6a): the
/// high-priority main path (application calls), the low-priority
/// progress path (polling loops), or an application thread spinning in a
/// blocking wait. `WaitSpin` passages use the *arbitration* priority of
/// the progress path (a spinning waiter yields the lock to useful work)
/// but are attributed separately, because they run on the application
/// thread — lumping them into `Progress` would skew the
/// progress-starvation ratio and the blame matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Path {
    /// High-priority application path.
    Main,
    /// Low-priority progress-engine path.
    Progress,
    /// Application thread spinning inside `wait`/`waitall`/`rma_wait`
    /// (low arbitration priority, but not the progress engine).
    WaitSpin,
    /// Owner-mode passage through a stream-bound shard: no lock was
    /// taken at all (the binding thread has exclusive access), so the
    /// span's wait time is zero by construction. Tallied apart so the
    /// lock-path asymmetry metrics never mix lock-free passages in.
    Stream,
}

impl Path {
    /// Lower-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            Path::Main => "main",
            Path::Progress => "progress",
            Path::WaitSpin => "waitspin",
            Path::Stream => "stream",
        }
    }

    /// All variants, in a stable order (for exhaustive tabulation;
    /// `Main` first so per-path tables lead with the application path).
    pub const ALL: [Path; 4] = [Path::Main, Path::Progress, Path::WaitSpin, Path::Stream];

    /// Stable small index of the variant (position in [`Path::ALL`],
    /// which lists the variants in declaration order).
    pub fn idx(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Path::idx`].
    pub fn from_idx(i: u8) -> Path {
        Path::ALL[usize::from(i)]
    }
}

/// Which runtime operation a critical-section passage served. Stamped by
/// the runtime into every [`EventKind::CsSpan`] so the prof layer can
/// attribute blocked time not just to a thread but to *what that thread
/// was doing* while it held the lock (the paper's §4.2 diagnosis: the
/// progress loop holds the CS without doing useful work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsOp {
    /// Nonblocking send issue (`isend`).
    Isend,
    /// Nonblocking receive issue (`irecv`).
    Irecv,
    /// Nonblocking completion test (`test`).
    Test,
    /// Blocking completion wait (`wait`).
    Wait,
    /// Bulk completion wait (`waitall`).
    Waitall,
    /// Progress-engine poll/deliver iteration.
    Progress,
    /// One-sided operation issue or ack wait.
    Rma,
    /// Anything else (bare instrumented locks, collectives' internals).
    Other,
}

impl CsOp {
    /// Lower-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            CsOp::Isend => "isend",
            CsOp::Irecv => "irecv",
            CsOp::Test => "test",
            CsOp::Wait => "wait",
            CsOp::Waitall => "waitall",
            CsOp::Progress => "progress",
            CsOp::Rma => "rma",
            CsOp::Other => "other",
        }
    }

    /// All variants, in a stable order (for exhaustive tabulation).
    pub const ALL: [CsOp; 8] = [
        CsOp::Isend,
        CsOp::Irecv,
        CsOp::Test,
        CsOp::Wait,
        CsOp::Waitall,
        CsOp::Progress,
        CsOp::Rma,
        CsOp::Other,
    ];

    /// Stable small index of the variant (position in [`CsOp::ALL`],
    /// which lists the variants in declaration order).
    pub fn idx(self) -> u8 {
        self as u8
    }
}

/// Request life-cycle phase (paper Fig 3b: Issue → Post → Complete →
/// Free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqPhase {
    /// Request object created by an `isend`/`irecv`.
    Issue,
    /// Receive entered the posted queue (no immediate match).
    Post,
    /// Matching data arrived; the request holds its message.
    Complete,
    /// Application freed the request (`test`/`wait` returned it).
    Free,
}

impl ReqPhase {
    /// Lower-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            ReqPhase::Issue => "issue",
            ReqPhase::Post => "post",
            ReqPhase::Complete => "complete",
            ReqPhase::Free => "free",
        }
    }
}

/// Which arbitration a critical-section passage went through: one of
/// the paper's three lock kinds, or none at all for an owner-mode
/// passage through a bound stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsKind {
    /// NPTL-style barging mutex.
    Mutex,
    /// FIFO ticket lock.
    Ticket,
    /// Two-level priority ticket lock.
    Priority,
    /// Stream-bound shard: no lock was taken.
    Stream,
}

impl CsKind {
    /// Lower-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            CsKind::Mutex => "mutex",
            CsKind::Ticket => "ticket",
            CsKind::Priority => "priority",
            CsKind::Stream => "stream",
        }
    }
}

/// Which one-sided operation a target served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RmaKind {
    /// `put` into the target window.
    Put,
    /// `get` from the target window.
    Get,
    /// Element-wise `accumulate` into the target window.
    Accumulate,
}

impl RmaKind {
    /// Lower-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            RmaKind::Put => "put",
            RmaKind::Get => "get",
            RmaKind::Accumulate => "accumulate",
        }
    }
}

/// What the fault layer did to one transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Dropped it.
    Drop,
    /// Delivered it twice.
    Dup,
    /// Delayed (or held back) its delivery.
    Delay,
    /// Delivered it twice, late.
    DupDelay,
}

impl FaultKind {
    /// Lower-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Dup => "dup",
            FaultKind::Delay => "delay",
            FaultKind::DupDelay => "dup+delay",
        }
    }
}

/// What happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// One critical-section passage: requested at `t_req`, acquired at
    /// `t_acq`, released at the event's `t_ns`. Wait time is
    /// `t_acq - t_req`; hold time is `t_ns - t_acq`.
    CsSpan {
        /// Platform lock id (indexes `PlatformReport::lock_grants`).
        lock: u32,
        /// Arbitration the passage went through.
        kind: CsKind,
        /// Path class of the entry.
        path: Path,
        /// Which runtime operation the passage served.
        op: CsOp,
        /// Virtual communication interface whose critical section this
        /// passage entered (0 on the unsharded path).
        vci: u32,
        /// When the thread requested the lock.
        t_req: u64,
        /// When the thread was granted the lock.
        t_acq: u64,
    },
    /// A request life-cycle transition on `rank`.
    Req {
        /// Owning rank.
        rank: u32,
        /// VCI the request is bound to (its home shard; 0 unsharded.
        /// Multi-shard wildcard requests report the shard that acted).
        vci: u32,
        /// Which transition.
        phase: ReqPhase,
    },
    /// One progress-engine mailbox drain on `rank`.
    PollBatch {
        /// Polling rank.
        rank: u32,
        /// VCI whose mailbox was drained.
        vci: u32,
        /// Path class of the polling entry.
        path: Path,
        /// Packets drained (often 0: the wasted polls of §6.1.2).
        packets: u32,
    },
    /// The target-side service of a one-sided operation on `rank`.
    Rma {
        /// Target rank applying the operation.
        rank: u32,
        /// Origin rank that issued it.
        origin: u32,
        /// Which operation.
        op: RmaKind,
        /// Payload bytes.
        bytes: u64,
    },
    /// The fault layer perturbed one transmission from `rank` (dropped,
    /// duplicated, or delayed it).
    FaultInjected {
        /// Sending rank.
        rank: u32,
        /// Destination rank.
        dst: u32,
        /// Link sequence number of the packet.
        seq: u64,
        /// What was injected.
        fault: FaultKind,
    },
    /// `rank` retransmitted an unacknowledged packet to `dst`.
    Retransmit {
        /// Retransmitting rank.
        rank: u32,
        /// Destination rank.
        dst: u32,
        /// Link sequence number of the packet.
        seq: u64,
        /// Retransmission attempt (1 = first retry).
        attempt: u32,
        /// Backoff that elapsed since the previous transmission, ns (the
        /// recovery latency this retry paid; feeds prof's `retry`
        /// segment).
        backoff_ns: u64,
    },
    /// `rank` discarded an already-delivered duplicate from `src`.
    DupDrop {
        /// Receiving rank.
        rank: u32,
        /// Sending rank the duplicate came from.
        src: u32,
        /// Link sequence number of the duplicate.
        seq: u64,
    },
    /// Causal flow origin: `rank` handed one data packet to the fabric.
    /// `(rank, dst, vci, seq)` names the message for its whole life —
    /// retransmits and duplicates reuse the same seq, so every later
    /// event of the message carries the same flow id. Renders as the
    /// start (`"s"`) of a Perfetto flow arrow on the sender's track.
    FlowSend {
        /// Sending rank (flow id `src`).
        rank: u32,
        /// Destination rank.
        dst: u32,
        /// VCI shard the message was issued on.
        vci: u32,
        /// Per-(src,dst) link sequence number.
        seq: u64,
    },
    /// Causal flow terminus: `rank` accepted the packet in order and
    /// matched/processed it. Renders as the finish (`"f"`) of the
    /// Perfetto flow arrow on the receiver's track, closing the arrow
    /// the matching [`EventKind::FlowSend`] opened.
    FlowRecv {
        /// Receiving rank.
        rank: u32,
        /// Originating rank (flow id `src`).
        src: u32,
        /// VCI shard the packet arrived on.
        vci: u32,
        /// Per-(src,dst) link sequence number.
        seq: u64,
    },
}

/// One timeline record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Platform clock at the event (span end for [`EventKind::CsSpan`]).
    pub t_ns: u64,
    /// Platform-stable thread id of the recording thread.
    pub tid: u32,
    /// Logical core the recording thread is pinned to (0 if unknown).
    pub core: u16,
    /// Socket of that core (0 if unknown).
    pub socket: u16,
    /// What happened.
    pub kind: EventKind,
}

// A traced `profile_export` world holds ~193 k events, and its peak RSS
// moved by 0.70 MiB per byte of `Event` (measured at +8 and +24 bytes):
// a field added here is a visible cost, so the sizes are pinned.
const _: () = assert!(std::mem::size_of::<EventKind>() == 32);
const _: () = assert!(std::mem::size_of::<Event>() == 48);

impl Event {
    /// An event stamped by platform thread `tid` on `core` of `socket`,
    /// each narrowed to its stored width. A value that does not fit
    /// panics naming the field and the value: simulated thread ids count
    /// the threads of one world, and core and socket ids index one
    /// machine's topology, so none comes near its bound; and a tid of
    /// `u64::MAX` (what the virtual platform reports off a simulated
    /// thread) is refused rather than recorded.
    #[inline]
    pub fn stamped(t_ns: u64, tid: u64, core: u32, socket: u32, kind: EventKind) -> Event {
        fn narrow<T: TryFrom<u64>>(field: &str, v: impl Into<u64>) -> T {
            let v = v.into();
            T::try_from(v).unwrap_or_else(|_| {
                panic!(
                    "event {field} {v} does not fit its {}-bit field",
                    8 * std::mem::size_of::<T>()
                )
            })
        }
        Event {
            t_ns,
            tid: narrow("tid", tid),
            core: narrow("core", core),
            socket: narrow("socket", socket),
            kind,
        }
    }

    /// The critical-section passage this event records, if it is a
    /// [`EventKind::CsSpan`] (the one place the projection is spelled).
    pub fn cs_span(&self) -> Option<CsSpanView> {
        match self.kind {
            EventKind::CsSpan {
                lock,
                kind,
                path,
                op,
                vci,
                t_req,
                t_acq,
            } => Some(CsSpanView {
                tid: u64::from(self.tid),
                core: u32::from(self.core),
                socket: u32::from(self.socket),
                lock,
                kind: kind.label(),
                path,
                op,
                vci,
                t_req,
                t_acq,
                t_end: self.t_ns,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_idx_round_trips() {
        for p in Path::ALL {
            assert_eq!(Path::from_idx(p.idx()), p);
        }
        for (i, op) in CsOp::ALL.iter().enumerate() {
            assert_eq!(usize::from(op.idx()), i);
        }
        let mut labels: Vec<&str> = Path::ALL.iter().map(|p| p.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(
            labels.len(),
            Path::ALL.len(),
            "path labels must be distinct"
        );
    }

    #[test]
    fn labels_are_lowercase_and_stable() {
        assert_eq!(Path::Main.label(), "main");
        assert_eq!(Path::Progress.label(), "progress");
        assert_eq!(Path::WaitSpin.label(), "waitspin");
        assert_eq!(Path::Stream.label(), "stream");
        assert_eq!(ReqPhase::Issue.label(), "issue");
        assert_eq!(ReqPhase::Post.label(), "post");
        assert_eq!(ReqPhase::Complete.label(), "complete");
        assert_eq!(ReqPhase::Free.label(), "free");
    }

    #[test]
    fn closed_label_sets_render_their_labels() {
        let cs = [
            CsKind::Mutex,
            CsKind::Ticket,
            CsKind::Priority,
            CsKind::Stream,
        ];
        assert_eq!(
            cs.map(CsKind::label),
            ["mutex", "ticket", "priority", "stream"]
        );
        let rma = [RmaKind::Put, RmaKind::Get, RmaKind::Accumulate];
        assert_eq!(rma.map(RmaKind::label), ["put", "get", "accumulate"]);
        let fault = [
            FaultKind::Drop,
            FaultKind::Dup,
            FaultKind::Delay,
            FaultKind::DupDelay,
        ];
        assert_eq!(
            fault.map(FaultKind::label),
            ["drop", "dup", "delay", "dup+delay"]
        );
    }

    fn req() -> EventKind {
        EventKind::Req {
            rank: 0,
            vci: 0,
            phase: ReqPhase::Issue,
        }
    }

    #[test]
    fn stamping_keeps_every_value_that_fits() {
        let e = Event::stamped(7, u64::from(u32::MAX), 65_535, 65_535, req());
        assert_eq!((e.tid, e.core, e.socket), (u32::MAX, u16::MAX, u16::MAX));
    }

    #[test]
    #[should_panic(expected = "event tid 18446744073709551615 does not fit its 32-bit field")]
    fn stamping_refuses_the_off_thread_tid() {
        let _ = Event::stamped(0, u64::MAX, 0, 0, req());
    }

    #[test]
    #[should_panic(expected = "event socket 65536 does not fit its 16-bit field")]
    fn stamping_names_a_socket_that_does_not_fit() {
        let _ = Event::stamped(0, 0, 0, 65_536, req());
    }

    #[test]
    fn op_labels_cover_all_variants() {
        let labels: Vec<&str> = CsOp::ALL.iter().map(|o| o.label()).collect();
        assert_eq!(labels.len(), 8);
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len(), "labels must be distinct");
        assert!(labels.contains(&"progress"));
        assert!(labels.contains(&"isend"));
    }
}
