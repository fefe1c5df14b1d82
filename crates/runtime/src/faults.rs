//! Transport-level fault recovery: sequenced sends, cumulative acks, and
//! the retransmit queue.
//!
//! On fault-free runs ([`crate::WorldBuilder::fault_plan`] absent or
//! inert) every function here collapses to the pre-fault fast path — a
//! plain `net_send`, no acks, no bookkeeping — so such runs stay
//! byte-identical to a build without this module.
//!
//! With an active [`mtmpi_net::FaultPlan`], every *data* packet (Msg,
//! Rma, RmaAck) goes through [`send_data`], which:
//!
//! 1. stamps the packet with a piggybacked cumulative ack (`all seq <
//!    ack received from you`),
//! 2. stores a clone in the per-process retransmit queue,
//! 3. rolls the plan's deterministic dice for this transmission and
//!    applies the outcome (drop / duplicate / extra delay).
//!
//! The receive side ([`crate::progress::deliver`]) acknowledges progress
//! with standalone [`PacketKind::Ack`] packets, which bypass fault
//! injection entirely — they are the recovery channel, not the workload —
//! and are themselves never retransmitted: a lost ack is repaired by the
//! next ack (cumulative) or by the sender's retransmission provoking a
//! duplicate, which is re-acked.
//!
//! [`pump_retransmits`] is called from every progress-engine passage (and
//! thus from every blocking wait iteration): expired entries are re-sent
//! with exponential backoff `rto_ns << min(attempts, backoff_cap)`; a
//! packet exceeding `max_attempts` escalates to the sticky typed error
//! [`MpiError::PeerUnreachable`], surfaced by the `try_wait` family.

use crate::errors::MpiError;
use crate::packet::{Packet, PacketKind, ACK_SEQ};
use crate::state::{PendingPkt, SharedState};
use crate::world::WorldInner;
use mtmpi_obs::{EventKind, FaultKind};

/// Send one sequenced data packet from shard `vci` of `rank` to the same
/// shard of `dst`, allocating its sequence number. Caller must hold that
/// shard's queue lock. Peer shards pair up: the VCI map is a pure
/// function of the message envelope, so sender and receiver resolve the
/// same shard index, and each (vci, src, dst) triple has its own private
/// sequence space.
pub(crate) fn send_data(
    w: &WorldInner,
    st: &mut SharedState,
    rank: u32,
    vci: u32,
    dst: u32,
    bytes: u64,
    kind: PacketKind,
) {
    let seq = st.send_seq[dst as usize];
    st.send_seq[dst as usize] += 1;
    let src_ep = w.shard(rank, vci).endpoint;
    let dst_ep = w.shard(dst, vci).endpoint;
    // Flow origin: every data packet — fast path or fault path — gets its
    // (src, dst, vci, seq) identity stamped exactly once, here, where the
    // sequence number is allocated. Retransmits and duplicates reuse the
    // seq, so the whole recovery story shares this one flow id.
    w.rec_now(|| EventKind::FlowSend {
        rank,
        dst,
        vci,
        seq,
    });
    if st.faults.is_none() {
        // Fault-free fast path: identical to the pre-fault runtime.
        w.platform.net_send(
            src_ep,
            dst_ep,
            bytes,
            Box::new(Packet {
                src: rank,
                seq,
                ack: 0,
                kind,
            }),
        );
        return;
    }
    let ack = st.recv_next_seq[dst as usize];
    let fs = st.faults.as_mut().expect("checked above");
    let count = fs.send_count[dst as usize];
    fs.send_count[dst as usize] += 1;
    let d = fs.plan.decide(src_ep, dst_ep, count);
    let pkt = Packet {
        src: rank,
        seq,
        ack,
        kind,
    };
    fs.pending.insert(
        (dst, seq),
        PendingPkt {
            pkt: pkt.clone(),
            bytes,
            next_retry_ns: w.platform.now_ns() + fs.plan.rto_ns,
            attempts: 0,
        },
    );
    let fault = match (d.drop, d.duplicate, d.extra_delay_ns > 0) {
        (true, _, _) => Some(FaultKind::Drop),
        (false, true, true) => Some(FaultKind::DupDelay),
        (false, true, false) => Some(FaultKind::Dup),
        (false, false, true) => Some(FaultKind::Delay),
        (false, false, false) => None,
    };
    if let Some(fault) = fault {
        w.rec_now(|| EventKind::FaultInjected {
            rank,
            dst,
            seq,
            fault,
        });
    }
    if !d.drop {
        w.platform.net_send_delayed(
            src_ep,
            dst_ep,
            bytes,
            d.extra_delay_ns,
            Box::new(pkt.clone()),
        );
        if d.duplicate {
            w.platform
                .net_send_delayed(src_ep, dst_ep, bytes, d.extra_delay_ns, Box::new(pkt));
        }
    }
}

/// Send a standalone cumulative ack to `dst` (fault runs only). Acks are
/// the recovery channel: they skip fault injection and the retransmit
/// queue. Caller must hold `rank`'s queue lock.
pub(crate) fn send_ack(w: &WorldInner, st: &mut SharedState, rank: u32, vci: u32, dst: u32) {
    debug_assert!(st.faults.is_some(), "acks only exist on fault runs");
    let src_ep = w.shard(rank, vci).endpoint;
    let dst_ep = w.shard(dst, vci).endpoint;
    w.platform.net_send(
        src_ep,
        dst_ep,
        w.costs.header_bytes,
        Box::new(Packet {
            src: rank,
            seq: ACK_SEQ,
            ack: st.recv_next_seq[dst as usize],
            kind: PacketKind::Ack,
        }),
    );
}

/// Apply a cumulative ack from `src`: every stored transmission to `src`
/// with sequence `< ack` is delivered and leaves the retransmit queue.
pub(crate) fn process_ack(st: &mut SharedState, src: u32, ack: u64) {
    if ack == 0 {
        return;
    }
    let Some(fs) = st.faults.as_mut() else { return };
    let acked: Vec<(u32, u64)> = fs
        .pending
        .range((src, 0)..(src, ack))
        .map(|(k, _)| *k)
        .collect();
    for k in acked {
        fs.pending.remove(&k);
    }
}

/// Re-send every expired pending transmission; escalate exhausted ones to
/// a sticky [`MpiError::PeerUnreachable`]. Caller must hold `rank`'s
/// queue lock.
pub(crate) fn pump_retransmits(w: &WorldInner, st: &mut SharedState, rank: u32, vci: u32) {
    let Some(fs) = st.faults.as_mut() else { return };
    if fs.pending.is_empty() {
        return;
    }
    let now = w.platform.now_ns();
    let plan = fs.plan.clone();
    let due: Vec<(u32, u64)> = fs
        .pending
        .iter()
        .filter(|(_, p)| p.next_retry_ns <= now)
        .map(|(k, _)| *k)
        .collect();
    let mut escalated = None;
    for key in due {
        let (dst, seq) = key;
        let entry = fs.pending.get_mut(&key).expect("key from this map");
        // The backoff this entry just waited out (for the retry latency
        // segment), and the longer one it waits next.
        let waited_ns = plan.rto_ns << entry.attempts.min(plan.backoff_cap);
        entry.attempts += 1;
        let attempt = entry.attempts;
        if attempt > plan.max_attempts {
            escalated.get_or_insert(MpiError::PeerUnreachable {
                rank,
                peer: dst,
                attempts: attempt,
            });
            fs.pending.remove(&key);
            continue;
        }
        entry.next_retry_ns = now + (plan.rto_ns << attempt.min(plan.backoff_cap));
        let pkt = entry.pkt.clone();
        let bytes = entry.bytes;
        // Retransmissions roll fresh dice: a retried packet can itself be
        // dropped, duplicated, or delayed again.
        let count = fs.send_count[dst as usize];
        fs.send_count[dst as usize] += 1;
        let src_ep = w.shard(rank, vci).endpoint;
        let dst_ep = w.shard(dst, vci).endpoint;
        let d = plan.decide(src_ep, dst_ep, count);
        w.rec_now(|| EventKind::Retransmit {
            rank,
            dst,
            seq,
            attempt,
            backoff_ns: waited_ns,
        });
        if !d.drop {
            w.platform.net_send_delayed(
                src_ep,
                dst_ep,
                bytes,
                d.extra_delay_ns,
                Box::new(pkt.clone()),
            );
            if d.duplicate {
                w.platform
                    .net_send_delayed(src_ep, dst_ep, bytes, d.extra_delay_ns, Box::new(pkt));
            }
        }
    }
    if let Some(e) = escalated {
        st.fault_error.get_or_insert(e);
    }
}
