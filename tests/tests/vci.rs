//! VCI (sharded critical section) integration tests: cross-shard
//! wildcard matching, determinism, per-shard quiescence, and profiler
//! attribution with more than one VCI.
//!
//! The cross-shard wildcard protocol is the delicate part of sharding:
//! a `recv(ANY_SOURCE, ..)` cannot resolve its shard from the envelope,
//! so the runtime fans the request out to every VCI and lets shards race
//! to claim it (a lock-free token; see DESIGN.md §12). These tests pin
//! down the three facts that protocol must deliver: no message is ever
//! matched twice, per-source non-overtaking survives whenever a source's
//! stream lives on one shard, and the whole dance replays byte-for-byte
//! for a fixed seed — including under reordering and packet-loss faults.

use mtmpi::prelude::*;
use mtmpi_prof::{vci_loads, BlameMatrix};
use std::sync::{Mutex, PoisonError};

const N_MSGS: i32 = 30;

/// The map of [`cross_shard_wildcard_run`]: the pair hash over four
/// VCIs routes src 1 → VCI 0 and src 2 → VCI 2 on `CommId::WORLD`.
const CROSS_SHARD_MAP: VciMap = VciMap::new(4);

/// Three ranks; ranks 1 and 2 each stream `N_MSGS` tagged messages to
/// rank 0, which drains them through wildcard `recv(None, None)`. The
/// hash map pins each sender's stream to its own shard, so every
/// wildcard receive is a cross-shard fan-out whose two candidate matches
/// live on *different* VCIs — the exact race the claim token exists for.
fn cross_shard_wildcard_run(seed: u64, plan: Option<FaultPlan>) -> (RunOutcome, Vec<(u32, i32)>) {
    assert_ne!(
        CROSS_SHARD_MAP.select_for(CommId::WORLD.0, 1, 0, 0),
        CROSS_SHARD_MAP.select_for(CommId::WORLD.0, 2, 0, 0),
        "the two senders must land on different shards"
    );
    let order = Arc::new(Mutex::new(Vec::new()));
    let log = order.clone();
    let mut exp = Experiment::with_seed(3, seed);
    if let Some(p) = plan {
        exp = exp.faults(p);
    }
    let out = exp.run(
        RunConfig::new(Method::Ticket)
            .nodes(3)
            .ranks_per_node(1)
            .threads_per_rank(1)
            .vci_map(CROSS_SHARD_MAP),
        move |ctx| {
            let h = ctx.rank.world_comm();
            if h.rank() == 0 {
                for _ in 0..2 * N_MSGS {
                    let m = h.recv(None, None);
                    log.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((m.src, m.tag));
                }
            } else {
                for i in 0..N_MSGS {
                    h.send(0, i, MsgData::Synthetic(64));
                }
            }
        },
    );
    let v = order.lock().unwrap_or_else(PoisonError::into_inner).clone();
    (out, v)
}

/// Non-overtaking per source, each message delivered exactly once.
fn assert_per_source_order(order: &[(u32, i32)]) {
    assert_eq!(order.len(), 2 * N_MSGS as usize, "all messages arrived");
    for src in [1u32, 2] {
        let tags: Vec<i32> = order
            .iter()
            .filter(|(s, _)| *s == src)
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(
            tags,
            (0..N_MSGS).collect::<Vec<_>>(),
            "messages from rank {src} overtook each other (or matched twice)"
        );
    }
}

fn assert_quiescent(out: &RunOutcome) {
    for rank in 0..out.nranks {
        let l = out.stats(rank).ledger;
        assert_eq!(l.in_flight(), 0, "rank {rank} ledger not quiescent: {l:?}");
        assert_eq!(l.freed(), l.completed(), "rank {rank}: {l:?}");
        assert_eq!(l.freed() + l.cancelled(), l.issued(), "rank {rank}: {l:?}");
    }
}

#[test]
fn cross_shard_wildcard_recv_is_non_overtaking_on_a_clean_fabric() {
    let (out, order) = cross_shard_wildcard_run(31, None);
    assert_per_source_order(&order);
    assert_quiescent(&out);
    // Exactly-once at the ledger level too: rank 0 issued 2·N fan-out
    // receives and every one completed against exactly one message.
    let l = out.stats(0).ledger;
    assert_eq!(l.completed(), 2 * N_MSGS as u64);
}

#[test]
fn cross_shard_wildcard_recv_survives_reordering_faults() {
    // Hold back 25% of transmissions by 300 µs — far past the wire time,
    // so each shard's sequence-number reorder buffer has to restore
    // order before matching, on two shards at once.
    let plan = FaultPlan::reorder(0xD1CE, 250_000, 300_000);
    let (out, order) = cross_shard_wildcard_run(31, Some(plan));
    assert_per_source_order(&order);
    assert_quiescent(&out);
}

#[test]
fn cross_shard_wildcard_runs_replay_deterministically_under_faults() {
    let plan = FaultPlan::reorder(0xD1CE, 250_000, 300_000);
    let (a, oa) = cross_shard_wildcard_run(31, Some(plan.clone()));
    let (b, ob) = cross_shard_wildcard_run(31, Some(plan));
    assert_eq!(a.end_ns, b.end_ns, "virtual end time must replay exactly");
    assert_eq!(oa, ob, "arrival order must replay exactly");
}

/// Tag-routed map + tag-wildcard receives + a lossy, duplicating fabric:
/// the fan-out receive has candidates on all four shards and the
/// retransmit machinery runs per `(vci, src, dst)` link. The closing
/// handshake mirrors `faults.rs::lossy_run` — it keeps both ranks'
/// progress engines alive while the other side's last packet may still
/// need retransmission. As there, the plan seed fixes which packets are
/// hit, so termination is a deterministic fact about this seed (the
/// fault dice must spare the final fin, whose sender exits right after
/// handing it to the fabric).
#[test]
fn tag_spread_wildcard_recv_survives_drops_and_dups() {
    let plan = FaultPlan {
        seed: 3,
        drop_ppm: 120_000,
        dup_ppm: 120_000,
        ..FaultPlan::none()
    };
    let order = Arc::new(Mutex::new(Vec::new()));
    let log = order.clone();
    let exp = Experiment::with_seed(2, 32).trace(true).faults(plan);
    let out = exp.run(
        RunConfig::new(Method::Mutex)
            .nodes(2)
            .ranks_per_node(1)
            .threads_per_rank(1)
            .vci_map(VciMap::by_tag(4)),
        move |ctx| {
            let h = ctx.rank.world_comm();
            if h.rank() == 0 {
                for i in 0..N_MSGS {
                    h.send(1, i, MsgData::Synthetic(128));
                }
                let _ = h.recv(Some(1), Some(900)); // reply
                h.send(1, 901, MsgData::Synthetic(1)); // fin
            } else {
                for _ in 0..N_MSGS {
                    // Tag unknown + tags routed ⇒ fan-out to all shards.
                    let m = h.recv(Some(0), None);
                    log.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(m.tag);
                }
                h.send(0, 900, MsgData::Synthetic(1));
                let _ = h.recv(Some(0), Some(901));
            }
        },
    );
    assert_quiescent(&out);
    // The plan genuinely bit: faults were injected and repaired while
    // the fan-out receives were outstanding.
    let tl = out.timeline.as_ref().expect("traced run");
    let injected = tl
        .events
        .iter()
        .filter(|e| matches!(e.kind, mtmpi_obs::EventKind::FaultInjected { .. }))
        .count();
    assert!(injected > 0, "no faults injected — plan not wired through");
    let tags = order.lock().unwrap_or_else(PoisonError::into_inner).clone();
    assert_eq!(tags.len(), N_MSGS as usize);
    // Exactly-once: every tag seen once.
    let mut sorted = tags.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..N_MSGS).collect::<Vec<_>>());
    // The documented §12 relaxation: a tag-wildcard receive under a
    // tag-spreading map keeps ordering only *within* each shard. Tags
    // congruent mod 4 share a shard and must still arrive in send order.
    for residue in 0..4 {
        let per_shard: Vec<i32> = tags.iter().copied().filter(|t| t % 4 == residue).collect();
        let mut expect = per_shard.clone();
        expect.sort_unstable();
        assert_eq!(
            per_shard, expect,
            "shard {residue}: same-shard messages overtook each other"
        );
    }
}

/// A contended per-thread-tag workload: thread `j` uses tag `j`, so
/// `VciMap::by_tag(4)` spreads the four threads' traffic across all four
/// shards and selective receives stay single-shard.
fn sharded_run(seed: u64, map: Option<VciMap>, trace: bool) -> RunOutcome {
    let exp = Experiment::with_seed(2, seed).trace(trace);
    let mut cfg = RunConfig::new(Method::Mutex)
        .nodes(2)
        .ranks_per_node(1)
        .threads_per_rank(4);
    if let Some(m) = map {
        cfg = cfg.vci_map(m);
    }
    exp.run(cfg, |ctx| {
        let h = ctx.rank.world_comm();
        let tag = ctx.thread as i32;
        if h.rank() == 0 {
            for _ in 0..25 {
                h.send(1, tag, MsgData::Synthetic(64));
            }
            let _ = h.recv(Some(1), Some(tag));
        } else {
            for _ in 0..25 {
                let _ = h.recv(Some(0), Some(tag));
            }
            h.send(0, tag, MsgData::Synthetic(1));
        }
    })
}

#[test]
fn explicit_single_vci_map_is_byte_identical_to_the_default_build() {
    // One VCI must be the unsharded code path exactly — same
    // virtual end time, same event stream to the byte.
    let plain = sharded_run(41, None, true);
    let one = sharded_run(41, Some(VciMap::new(1)), true);
    assert_eq!(plain.end_ns, one.end_ns);
    let (tp, t1) = (
        plain.timeline.as_ref().expect("traced"),
        one.timeline.as_ref().expect("traced"),
    );
    assert_eq!(chrome_trace(tp), chrome_trace(t1));
}

#[test]
fn sharded_runs_replay_byte_identically() {
    let a = sharded_run(42, Some(VciMap::by_tag(4)), true);
    let b = sharded_run(42, Some(VciMap::by_tag(4)), true);
    assert_eq!(a.end_ns, b.end_ns);
    let (ta, tb) = (a.timeline.expect("traced"), b.timeline.expect("traced"));
    assert_eq!(
        chrome_trace(&ta),
        chrome_trace(&tb),
        "same seed + same map => byte-identical event stream"
    );
    // Sharding genuinely happened: at 4 VCIs the trace grows per-VCI
    // lock lanes that the unsharded export never emits.
    assert!(chrome_trace(&ta).contains("vci"));
}

#[test]
fn blame_conservation_holds_across_shards() {
    // Satellite check: CS spans carry their VCI and the blame matrix
    // still conserves recorded wait to the nanosecond when Main /
    // Progress / WaitSpin passages are split over 4 shards.
    let out = sharded_run(43, Some(VciMap::by_tag(4)), true);
    let t = out.timeline.as_ref().expect("traced");
    assert!(t.cs_spans().any(|s| s.vci > 0), "no span left shard 0");
    let blame = BlameMatrix::from_timeline(t);
    assert_eq!(blame.check_conservation(), (0, 0));
    let span_wait: u64 = t.cs_spans().map(|s| s.wait_ns()).sum();
    assert_eq!(blame.total_wait_ns, span_wait);

    // The per-VCI load breakdown sees more than one shard, and the
    // by-tag binding spreads the four threads about evenly.
    let (loads, gini) = vci_loads(t);
    assert!(loads.len() > 1, "vci_loads collapsed to one shard");
    assert!(gini < 0.5, "by-tag map should balance shards, gini={gini}");
}

#[test]
fn per_vci_ledgers_are_quiescent_at_world_drop() {
    let out = sharded_run(44, Some(VciMap::by_tag(4)), false);
    assert_eq!(out.world.vci_count(), 4);
    for rank in 0..out.nranks {
        for vci in 0..out.world.vci_count() {
            let l = out.world.vci_stats(rank, vci).ledger;
            l.check_quiescent()
                .unwrap_or_else(|r| panic!("rank {rank} vci {vci} leaked: {r}"));
        }
    }
    // The merged view balances too (single-shard requests only here, so
    // the per-shard ledgers carry everything).
    assert_quiescent(&out);
}

#[test]
fn rma_and_sharded_pt2pt_coexist() {
    // RMA state is pinned to VCI 0 (§12); pt2pt hash-routes across 4
    // shards; the async progress thread round-robins all of them — the
    // only world whose progress thread rotates over several VCIs, so its
    // schedule is pinned.
    let exp = Experiment::with_seed(2, 45);
    let out = exp.run(
        RunConfig::new(Method::Ticket)
            .nodes(2)
            .ranks_per_node(1)
            .threads_per_rank(2)
            .window_bytes(64)
            .progress_thread(true)
            .vci_map(VciMap::new(4)),
        |ctx| {
            let h = &ctx.rank;
            let c = h.world_comm();
            let tag = ctx.thread as i32;
            if h.rank() == 0 {
                for _ in 0..10 {
                    c.send(1, tag, MsgData::Synthetic(64));
                    let _ = c.recv(Some(1), Some(tag));
                }
            } else {
                for _ in 0..10 {
                    let _ = c.recv(Some(0), Some(tag));
                    c.send(0, tag, MsgData::Synthetic(64));
                }
            }
            if ctx.thread == 0 {
                if h.rank() == 0 {
                    h.put(1, 0, MsgData::Bytes(vec![7u8; 16]));
                }
                h.barrier();
            }
        },
    );
    assert_quiescent(&out);
    let win = out.stats(1).window;
    assert_eq!(&win[..16], &[7u8; 16], "put through shard 0 landed");
    assert_eq!(
        (out.end_ns, out.report.sched_trace_hash, out.report.events),
        (75_421, 0x331d_79d2_f510_ff57, 1_094),
        "progress-thread shard rotation moved"
    );
}
