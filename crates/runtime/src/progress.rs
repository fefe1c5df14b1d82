//! The communication progress engine (paper Fig 6a's "progress loop").
//!
//! With VCI sharding, progress is per-shard: each VCI has its own
//! endpoint, reorder buffers, match queues, and retransmit state, so one
//! progress pass polls one shard under that shard's lock. The fan-out
//! entries of multi-shard wildcard receives are resolved here via the
//! request claim token (see [`crate::request::ReqInner`]).

use crate::errors::MpiError;
use crate::faults::{process_ack, pump_retransmits, send_ack};
use crate::packet::{Packet, PacketKind, RmaOp};
use crate::state::{matches, SeqPacket, SharedState, UnexMsg};
use crate::types::{Msg, MsgData};
use crate::world::WorldInner;
use mtmpi_locks::PathClass;
use mtmpi_obs::{CsOp, EventKind, Path, ReqPhase, RmaKind};
use mtmpi_sim::Payload;
use std::sync::atomic::Ordering;

/// Drain the platform mailbox for one shard of `rank`. Charges the poll
/// cost. May be called with or without the queue lock held (it touches no
/// shared state). `class` arbitrates nothing here; `opath` is the
/// observability path stamped into the poll-batch event — usually
/// `obs_path(class)`, but blocking waits spinning on the progress class
/// report [`Path::WaitSpin`] instead (they are application threads, not
/// the progress engine).
pub(crate) fn poll(
    w: &WorldInner,
    rank: u32,
    vci: u32,
    _class: PathClass,
    opath: Path,
) -> Vec<Payload> {
    let sh = w.shard(rank, vci);
    w.platform.compute(w.costs.poll_base_ns);
    // Starvation signal for work stealing (monitoring only).
    sh.last_poll_ns
        .store(w.platform.now_ns(), Ordering::Relaxed);
    let pkts = w.platform.net_poll(sh.endpoint);
    w.rec_now(|| EventKind::PollBatch {
        rank,
        vci,
        path: opath,
        packets: pkts.len() as u32,
    });
    pkts
}

/// A polled payload as the runtime packet every mailbox carries.
fn unpack(payload: Payload) -> Packet {
    *payload
        .downcast::<Packet>()
        .expect("mailbox carries runtime packets")
}

/// Deliver polled packets into one shard's matching engine. Caller must
/// hold that shard's queue lock (i.e. run inside `WorldInner::cs`). On
/// fault runs this also processes acks, drops duplicates, acknowledges
/// progress back to the senders, and pumps the retransmit queue.
pub(crate) fn deliver(
    w: &WorldInner,
    rank: u32,
    vci: u32,
    st: &mut SharedState,
    pkts: Vec<Payload>,
) {
    if st.faults.is_none() {
        for pkt in pkts.into_iter().map(unpack) {
            let src = pkt.src as usize;
            if pkt.seq == st.recv_next_seq[src] && st.reorder[src].is_empty() {
                // The common case: in order with nothing buffered, so
                // the reorder heap would hand it straight back.
                st.recv_next_seq[src] += 1;
                process_in_order(w, rank, vci, st, pkt);
                continue;
            }
            st.reorder[src].push(SeqPacket(pkt));
            // Deliver every in-order packet from this source (MPI
            // non-overtaking: matching order follows send order per pair).
            while st.reorder[src]
                .peek()
                .is_some_and(|sp| sp.0.seq == st.recv_next_seq[src])
            {
                let sp = st.reorder[src].pop().expect("peeked");
                st.recv_next_seq[src] += 1;
                process_in_order(w, rank, vci, st, sp.0);
            }
        }
        return;
    }
    // Fault path: packets may be duplicated, reordered arbitrarily far,
    // or be pure acks; every advance (and every duplicate, whose sender
    // evidently missed our ack) is re-acknowledged.
    let mut want_ack = vec![false; st.recv_next_seq.len()];
    for pkt in pkts.into_iter().map(unpack) {
        let src = pkt.src as usize;
        process_ack(st, pkt.src, pkt.ack);
        if matches!(pkt.kind, PacketKind::Ack) {
            continue;
        }
        if pkt.seq < st.recv_next_seq[src] {
            // Already delivered: a duplicate (injected, or a retransmit
            // racing our ack). Drop it and re-ack so the sender stops.
            w.rec_now(|| EventKind::DupDrop {
                rank,
                src: pkt.src,
                seq: pkt.seq,
            });
            want_ack[src] = true;
            continue;
        }
        st.reorder[src].push(SeqPacket(pkt));
        loop {
            match st.reorder[src].peek() {
                Some(sp) if sp.0.seq <= st.recv_next_seq[src] => {}
                _ => break,
            }
            let sp = st.reorder[src].pop().expect("peeked");
            if sp.0.seq < st.recv_next_seq[src] {
                // Duplicate that was buffered before its twin delivered.
                w.rec_now(|| EventKind::DupDrop {
                    rank,
                    src: sp.0.src,
                    seq: sp.0.seq,
                });
                continue;
            }
            st.recv_next_seq[src] += 1;
            want_ack[src] = true;
            process_in_order(w, rank, vci, st, sp.0);
        }
    }
    for (src, wanted) in want_ack.iter().enumerate() {
        if *wanted && src != rank as usize {
            send_ack(w, st, rank, vci, src as u32);
        }
    }
    pump_retransmits(w, st, rank, vci);
}

/// Handle one in-order packet on one shard.
fn process_in_order(w: &WorldInner, rank: u32, vci: u32, st: &mut SharedState, pkt: Packet) {
    // Flow terminus: the packet survived loss/duplication/reordering and
    // is being accepted in order — close the arrow its FlowSend opened.
    // Recorded before matching so the flow id pairs with the send even
    // when the message parks in the unexpected queue.
    w.rec_now(|| EventKind::FlowRecv {
        rank,
        src: pkt.src,
        vci,
        seq: pkt.seq,
    });
    match pkt.kind {
        PacketKind::Msg {
            comm,
            tag,
            data,
            sent_ns,
        } => {
            // Search the posted queue FIFO; charge per scanned entry.
            // Multi-shard wildcard entries need the claim protocol: a
            // stale (already-claimed) entry is lazily removed, a live one
            // must win the CAS before it may consume the message — losing
            // means another shard matched concurrently, so this shard's
            // copy is retired and the scan continues.
            let mut scanned = 0u64;
            let mut i = 0usize;
            let mut winner: Option<crate::state::PostedRecv> = None;
            while i < st.posted.len() {
                let pr = &st.posted[i];
                if pr.req.multi && pr.req.is_claimed() {
                    st.posted.remove(i);
                    continue;
                }
                scanned += 1;
                if matches(pr.src, pr.tag, pr.comm, pkt.src, tag, comm) {
                    if pr.req.multi && !pr.req.claim_complete() {
                        // Lost the cross-shard race after the match check.
                        st.posted.remove(i);
                        continue;
                    }
                    winner = st.posted.remove(i);
                    break;
                }
                i += 1;
            }
            w.platform.compute(scanned * w.costs.match_scan_ns);
            match winner {
                Some(pr) => {
                    w.platform.compute(w.costs.complete_ns);
                    let msg = Msg {
                        src: pkt.src,
                        tag,
                        data,
                    };
                    st.msg_latency_ns
                        .record(w.platform.now_ns().saturating_sub(sent_ns));
                    if pr.req.multi {
                        // Claimed above; publish via the multi hand-off.
                        // Multi requests are accounted on the process-wide
                        // wildcard ledger and deliberately excluded from
                        // this shard's dangling sampler: "dangling" is a
                        // per-CS-owner metric, and a fan-out request has
                        // no single owning shard.
                        // SAFETY: we won the completion claim.
                        unsafe { pr.req.multi_complete(msg) };
                        w.procs[rank as usize].wild.note_completed();
                    } else {
                        // SAFETY: queue lock held (caller contract).
                        unsafe { pr.req.complete(msg) };
                        st.dangling_now += 1;
                        st.ledger.note_completed();
                    }
                    w.rec_now(|| EventKind::Req {
                        rank,
                        vci,
                        phase: ReqPhase::Complete,
                    });
                }
                None => {
                    w.platform.compute(w.costs.enqueue_ns);
                    st.unexpected.push_back(UnexMsg {
                        src: pkt.src,
                        tag,
                        comm,
                        data,
                        sent_ns,
                    });
                    st.note_depths();
                }
            }
        }
        PacketKind::Rma {
            op,
            offset,
            data,
            token,
        } => {
            apply_rma(w, rank, vci, st, pkt.src, op, offset, data, token);
        }
        PacketKind::RmaAck { token, data } => {
            w.platform.compute(w.costs.complete_ns);
            st.rma_acks.insert(token, data);
        }
        PacketKind::Ack => {
            // Standalone acks are consumed before the reorder buffer;
            // reaching here is a sequencing bug.
            unreachable!("transport ack entered the in-order pipeline");
        }
    }
}

/// Apply a one-sided operation to the local window and send the ack.
#[allow(clippy::too_many_arguments)]
fn apply_rma(
    w: &WorldInner,
    rank: u32,
    vci: u32,
    st: &mut SharedState,
    origin: u32,
    op: RmaOp,
    offset: u64,
    data: MsgData,
    token: u64,
) {
    let off = offset as usize;
    let len = data.len() as usize;
    assert!(
        off + len <= st.win_mem.len(),
        "RMA beyond window: offset {off} + len {len} > {}",
        st.win_mem.len()
    );
    w.rec_now(|| EventKind::Rma {
        rank,
        origin,
        op: match op {
            RmaOp::Put => RmaKind::Put,
            RmaOp::Get { .. } => RmaKind::Get,
            RmaOp::Accumulate => RmaKind::Accumulate,
        },
        bytes: data.len(),
    });
    w.platform
        .compute(w.costs.complete_ns + w.costs.unexpected_copy_ns(len as u64));
    let reply = match op {
        RmaOp::Put => {
            if let MsgData::Bytes(b) = &data {
                st.win_mem[off..off + len].copy_from_slice(b);
            }
            None
        }
        RmaOp::Accumulate => {
            if let MsgData::Bytes(b) = &data {
                // Element-wise f64 add over 8-byte lanes; a trailing
                // partial lane is added bytewise (wrapping) to keep the
                // operation total.
                let dst = &mut st.win_mem[off..off + len];
                for (dc, sc) in dst.chunks_mut(8).zip(b.chunks(8)) {
                    if dc.len() == 8 && sc.len() == 8 {
                        let a = f64::from_le_bytes(dc.try_into().expect("8 bytes"));
                        let v = f64::from_le_bytes(sc.try_into().expect("8 bytes"));
                        dc.copy_from_slice(&(a + v).to_le_bytes());
                    } else {
                        for (d, s) in dc.iter_mut().zip(sc) {
                            *d = d.wrapping_add(*s);
                        }
                    }
                }
            }
            None
        }
        RmaOp::Get { real } => {
            let payload = if real {
                MsgData::Bytes(st.win_mem[off..off + len].to_vec())
            } else {
                MsgData::Synthetic(len as u64)
            };
            Some(payload)
        }
    };
    // Ack back to the origin (sequenced like any data packet on this
    // pair, and — on fault runs — retransmitted until acknowledged).
    let reply_bytes = reply.as_ref().map_or(0, MsgData::len) + w.costs.header_bytes;
    crate::faults::send_data(
        w,
        st,
        rank,
        vci,
        origin,
        reply_bytes,
        PacketKind::RmaAck { token, data: reply },
    );
}

/// One progress iteration of one shard from the given path class, in
/// one passage of the shard's critical section. `opath` is the
/// observability attribution (see [`poll`]). Returns the shard's sticky
/// escalated fault (if any) so multi-shard wait loops can surface errors
/// from every shard they pump, not just their home shard.
pub(crate) fn progress_once(
    w: &WorldInner,
    rank: u32,
    vci: u32,
    class: PathClass,
    opath: Path,
) -> Option<MpiError> {
    w.cs_on(rank, vci, class, opath, CsOp::Progress, |st| {
        let pkts = poll(w, rank, vci, class, opath);
        deliver(w, rank, vci, st, pkts);
        st.fault_error.clone()
    })
}
