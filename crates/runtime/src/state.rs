//! Per-process runtime state, guarded by the process's critical section.

use crate::errors::MpiError;
use crate::ledger::RequestLedger;
use crate::packet::Packet;
use crate::request::ReqInner;
use crate::types::{CommId, MsgData, Tag};
use mtmpi_metrics::{DanglingSampler, Histogram};
use mtmpi_net::FaultPlan;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::Arc;

/// A posted (unmatched) receive.
#[derive(Debug)]
pub(crate) struct PostedRecv {
    pub req: Arc<ReqInner>,
    pub src: Option<u32>,
    pub tag: Option<Tag>,
    pub comm: CommId,
}

/// An arrived message with no matching posted receive yet.
#[derive(Debug)]
pub(crate) struct UnexMsg {
    pub src: u32,
    pub tag: Tag,
    pub comm: CommId,
    pub data: MsgData,
    /// Platform clock at the send, for the message-latency histogram.
    pub sent_ns: u64,
}

/// Heap entry for per-source in-order delivery.
#[derive(Debug)]
pub(crate) struct SeqPacket(pub Packet);

impl PartialEq for SeqPacket {
    fn eq(&self, other: &Self) -> bool {
        self.0.seq == other.0.seq
    }
}
impl Eq for SeqPacket {}
impl Ord for SeqPacket {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.seq.cmp(&self.0.seq) // min-heap by seq
    }
}
impl PartialOrd for SeqPacket {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A transmitted-but-unacked packet awaiting acknowledgement or
/// retransmission (fault-injection runs only).
#[derive(Debug)]
pub(crate) struct PendingPkt {
    /// Stored copy, re-sent on timeout. Its piggybacked `ack` may be
    /// stale by then — harmless, cumulative acks are monotone.
    pub pkt: Packet,
    /// Wire size charged per transmission.
    pub bytes: u64,
    /// Model time at which the next retransmission fires.
    pub next_retry_ns: u64,
    /// Transmissions so far beyond the first (0 = never retransmitted).
    pub attempts: u32,
}

/// Per-process fault-recovery state. Present only when the world was
/// built with an active [`FaultPlan`]; `None` keeps fault-free runs on
/// the exact pre-fault code paths (no acks, no retransmit bookkeeping).
#[derive(Debug)]
pub(crate) struct FaultState {
    /// The fault/recovery policy (shared by every rank).
    pub plan: FaultPlan,
    /// Per-destination transmission counter feeding the decision hash.
    /// Retransmissions advance it too (fresh dice per transmission).
    pub send_count: Vec<u64>,
    /// Unacked transmissions keyed by `(dst rank, seq)`; the BTreeMap
    /// order makes cumulative-ack purges a range scan.
    pub pending: BTreeMap<(u32, u64), PendingPkt>,
}

impl FaultState {
    pub(crate) fn new(nranks: u32, plan: FaultPlan) -> Self {
        Self {
            plan,
            send_count: vec![0; nranks as usize],
            pending: BTreeMap::new(),
        }
    }
}

/// Everything a process's critical section protects.
#[derive(Debug)]
pub(crate) struct SharedState {
    /// Posted-receive queue (searched FIFO on arrival).
    pub posted: VecDeque<PostedRecv>,
    /// Unexpected-message queue (searched FIFO by new receives).
    pub unexpected: VecDeque<UnexMsg>,
    /// Next sequence number for sends, per destination rank.
    pub send_seq: Vec<u64>,
    /// Next expected arrival sequence, per source rank.
    pub recv_next_seq: Vec<u64>,
    /// Out-of-order arrival buffers, per source rank.
    pub reorder: Vec<BinaryHeap<SeqPacket>>,
    /// Receive requests completed but not yet freed (the §4.4 metric).
    pub dangling_now: u64,
    /// Request life-cycle counters (Issue/Post/Complete/Free); checked
    /// for quiescence at `World` drop in debug builds.
    pub ledger: RequestLedger,
    /// Sampler fed at every critical-section acquisition.
    pub dangling: DanglingSampler,
    /// Total critical-section acquisitions by this process.
    pub cs_acquisitions: u64,
    /// Queue-lock wait times (request → grant), one sample per CS entry.
    pub cs_wait_ns: Histogram,
    /// Queue-lock hold times (grant → release), one sample per CS entry.
    pub cs_hold_ns: Histogram,
    /// Receive-side message latency (send issue → local match).
    pub msg_latency_ns: Histogram,
    /// RMA window memory (empty when no window configured).
    pub win_mem: Vec<u8>,
    /// Completed RMA acks awaiting their origin thread, by token.
    pub rma_acks: BTreeMap<u64, Option<MsgData>>,
    /// Next RMA token.
    pub rma_next_token: u64,
    /// High-water marks for diagnostics.
    pub max_unexpected: usize,
    pub max_posted: usize,
    /// Fault-recovery state; `None` on fault-free runs.
    pub faults: Option<FaultState>,
    /// Sticky escalated fault (first `PeerUnreachable`); blocking waits
    /// check it every iteration and surface it as a typed error.
    pub fault_error: Option<MpiError>,
}

impl SharedState {
    pub(crate) fn new(nranks: u32, win_bytes: usize, plan: Option<FaultPlan>) -> Self {
        Self {
            posted: VecDeque::new(),
            unexpected: VecDeque::new(),
            send_seq: vec![0; nranks as usize],
            recv_next_seq: vec![0; nranks as usize],
            reorder: (0..nranks).map(|_| BinaryHeap::new()).collect(),
            dangling_now: 0,
            ledger: RequestLedger::new(),
            dangling: DanglingSampler::new(),
            cs_acquisitions: 0,
            cs_wait_ns: Histogram::new(),
            cs_hold_ns: Histogram::new(),
            msg_latency_ns: Histogram::new(),
            win_mem: vec![0; win_bytes],
            rma_acks: BTreeMap::new(),
            rma_next_token: 1,
            max_unexpected: 0,
            max_posted: 0,
            faults: plan.map(|p| FaultState::new(nranks, p)),
            fault_error: None,
        }
    }

    /// Record queue high-water marks (called after insertions).
    pub(crate) fn note_depths(&mut self) {
        self.max_unexpected = self.max_unexpected.max(self.unexpected.len());
        self.max_posted = self.max_posted.max(self.posted.len());
    }
}

/// Does a posted receive (src?, tag?, comm) match an envelope (src, tag,
/// comm)?
pub(crate) fn matches(
    want_src: Option<u32>,
    want_tag: Option<Tag>,
    want_comm: CommId,
    src: u32,
    tag: Tag,
    comm: CommId,
) -> bool {
    want_comm == comm && want_src.is_none_or(|s| s == src) && want_tag.is_none_or(|t| t == tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wildcard_matching() {
        let w = CommId::WORLD;
        assert!(matches(None, None, w, 3, 9, w));
        assert!(matches(Some(3), None, w, 3, 9, w));
        assert!(matches(None, Some(9), w, 3, 9, w));
        assert!(!matches(Some(2), None, w, 3, 9, w));
        assert!(!matches(None, Some(8), w, 3, 9, w));
        assert!(!matches(None, None, CommId(5), 3, 9, w));
    }

    #[test]
    fn seq_packet_min_heap() {
        use crate::packet::{Packet, PacketKind};
        let mk = |seq| {
            SeqPacket(Packet {
                src: 0,
                seq,
                ack: 0,
                kind: PacketKind::Msg {
                    comm: CommId::WORLD,
                    tag: 0,
                    data: MsgData::Synthetic(0),
                    sent_ns: 0,
                },
            })
        };
        let mut h = BinaryHeap::new();
        for s in [5u64, 1, 3] {
            h.push(mk(s));
        }
        assert_eq!(h.pop().unwrap().0.seq, 1);
        assert_eq!(h.pop().unwrap().0.seq, 3);
        assert_eq!(h.pop().unwrap().0.seq, 5);
    }
}
