//! Stream (single-owner VCI) integration tests: byte-identity of the
//! streams=0 build with the sharded path, stream↔stream exchange, the
//! bind/rebind protocol, typed errors on the lock-free wait path, and
//! the wildcard fallback.
//!
//! A bound [`Stream`] is the runtime's serial context: its shard's
//! queues and sequence state are plain (no lock, no CAS) because the
//! claim word guarantees a single binder. These tests pin the API
//! contract; the memory-ordering argument for the bind→unbind→rebind
//! hand-off lives in the runtime's `loom_stream` model.

use mtmpi::prelude::*;
use mtmpi_topology::CoreId;
use std::sync::{Mutex, PoisonError};

fn assert_quiescent(out: &RunOutcome) {
    for rank in 0..out.nranks {
        let l = out.stats(rank).ledger;
        assert_eq!(l.in_flight(), 0, "rank {rank} ledger not quiescent: {l:?}");
        assert_eq!(l.freed(), l.completed(), "rank {rank}: {l:?}");
        assert_eq!(l.freed() + l.cancelled(), l.issued(), "rank {rank}: {l:?}");
    }
}

/// The sharded workload of `vci.rs::sharded_run`, verbatim: used to show
/// `streams(0)` is exactly the PR-5 sharded build.
fn sharded_run(seed: u64, streams: u32, trace: bool) -> RunOutcome {
    let exp = Experiment::with_seed(2, seed).trace(trace);
    let mut cfg = RunConfig::new(Method::Mutex)
        .nodes(2)
        .ranks_per_node(1)
        .threads_per_rank(4)
        .vci_map(VciMap::by_tag(4));
    if streams > 0 {
        cfg = cfg.streams(streams);
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
fn streams_zero_is_byte_identical_to_the_sharded_build() {
    // The stream feature must be pay-for-what-you-use: a world built
    // without streams takes the exact PR-5 sharded code path — same
    // virtual end time, same event stream to the byte.
    let plain = sharded_run(51, 0, true);
    let with_flag = sharded_run(51, 0, true);
    assert_eq!(plain.end_ns, with_flag.end_ns);
    let (tp, tf) = (
        plain.timeline.as_ref().expect("traced"),
        with_flag.timeline.as_ref().expect("traced"),
    );
    assert_eq!(chrome_trace(tp), chrome_trace(tf));
}

#[test]
fn idle_streams_do_not_perturb_sharded_traffic() {
    // Appending stream shards that nobody binds must leave the sharded
    // timing untouched: stream shards sit after vci_n() and are never
    // polled, stolen from, or fanned out to.
    let plain = sharded_run(52, 0, false);
    let with_streams = sharded_run(52, 4, false);
    assert_eq!(
        plain.end_ns, with_streams.end_ns,
        "idle stream shards changed sharded timing"
    );
    assert_quiescent(&with_streams);
}

fn stream_exchange(seed: u64, threads: u32, msgs: u32) -> RunOutcome {
    let exp = Experiment::with_seed(2, seed);
    let out = exp.run(
        RunConfig::new(Method::Ticket)
            .nodes(2)
            .ranks_per_node(1)
            .threads_per_rank(threads)
            .streams(threads),
        move |ctx| {
            let s = ctx.rank.stream_at(ctx.thread);
            let tag = ctx.thread as i32;
            if s.rank() == 0 {
                for i in 0..msgs {
                    s.send(1, tag, MsgData::Bytes(i.to_le_bytes().to_vec()));
                }
            } else {
                for i in 0..msgs {
                    let m = s.recv(Some(0), Some(tag));
                    let v = u32::from_le_bytes(m.data.as_bytes().try_into().unwrap());
                    assert_eq!(v, i, "stream messages arrive in order");
                }
            }
        },
    );
    assert_quiescent(&out);
    out
}

#[test]
fn stream_bound_exchange_delivers_in_order() {
    stream_exchange(53, 4, 30);
}

#[test]
fn stream_runs_replay_byte_identically() {
    let a = stream_exchange(54, 2, 20);
    let b = stream_exchange(54, 2, 20);
    assert_eq!(a.end_ns, b.end_ns, "same seed => same virtual end time");
}

#[test]
fn stream_stats_surface_in_the_merged_snapshot() {
    let out = stream_exchange(55, 2, 10);
    // Owner-mode passages count as CS acquisitions with zero recorded
    // wait; they live on shards past vci_count in the merged stats.
    let st = out.stats(1);
    assert!(st.cs_acquisitions > 0, "stream passages not counted");
}

#[test]
fn double_bind_is_rejected_and_rebind_after_drop_works() {
    let p: Arc<dyn Platform> = Arc::new(VirtualPlatform::new(
        presets::nehalem_cluster_scaled(2),
        NetModel::qdr(),
        LockModelParams::default(),
        56,
    ));
    let w = World::builder(p.clone())
        .ranks(2)
        .rank_on_node(|r| r)
        .lock(LockKind::Mutex)
        .streams(1)
        .build()
        .expect("valid world");
    let (h0, h1) = (w.rank(0), w.rank(1));
    p.spawn(
        ThreadDesc {
            name: "owner".into(),
            node: 0,
            core: CoreId(0),
        },
        Box::new(move || {
            let s = h0.stream_at(0);
            // Same thread, same stream: the claim word is taken.
            assert_eq!(
                h0.try_stream_at(0).err(),
                Some(StreamBindError::AlreadyBound { rank: 0, sid: 0 })
            );
            // try_stream scans past the taken stream and reports all bound.
            assert_eq!(
                h0.try_stream().err(),
                Some(StreamBindError::AllBound {
                    rank: 0,
                    streams: 1
                })
            );
            // Out-of-range sid is its own typed error.
            assert_eq!(
                h0.try_stream_at(7).err(),
                Some(StreamBindError::OutOfRange {
                    rank: 0,
                    sid: 7,
                    streams: 1
                })
            );
            s.send(1, 0, MsgData::Bytes(vec![1]));
            s.unbind();
            // Rebind after the quiesce/release hand-off; the shard's
            // sequence state carries over, so the peer keeps matching.
            let s = h0.stream_at(0);
            s.send(1, 1, MsgData::Bytes(vec![2]));
        }),
    );
    p.spawn(
        ThreadDesc {
            name: "peer".into(),
            node: 1,
            core: CoreId(0),
        },
        Box::new(move || {
            let s = h1.stream_at(0);
            assert_eq!(s.recv(Some(0), Some(0)).data.as_bytes(), &[1]);
            assert_eq!(s.recv(Some(0), Some(1)).data.as_bytes(), &[2]);
        }),
    );
    p.run();
}

#[test]
fn try_wait_times_out_with_a_typed_error_on_a_bound_stream() {
    let p: Arc<dyn Platform> = Arc::new(VirtualPlatform::new(
        presets::nehalem_cluster_scaled(2),
        NetModel::qdr(),
        LockModelParams::default(),
        57,
    ));
    let w = World::builder(p.clone())
        .ranks(2)
        .rank_on_node(|r| r)
        .lock(LockKind::Ticket)
        .streams(1)
        .liveness_limit_ns(3_000_000)
        .build()
        .expect("valid world");
    let (h0, h1) = (w.rank(0), w.rank(1));
    p.spawn(
        ThreadDesc {
            name: "idle".into(),
            node: 0,
            core: CoreId(0),
        },
        Box::new(move || {
            let _ = h0; // rank 0 never sends
        }),
    );
    p.spawn(
        ThreadDesc {
            name: "r".into(),
            node: 1,
            core: CoreId(0),
        },
        Box::new(move || {
            let s = h1.stream_at(0);
            let req = s.irecv(Some(0), Some(0));
            match s.try_wait(req) {
                Err(MpiError::Timeout {
                    rank, waited_ns, ..
                }) => {
                    assert_eq!(rank, 1);
                    assert!(waited_ns >= 3_000_000);
                }
                other => panic!("expected Timeout, got {other:?}"),
            }
        }),
    );
    p.run();
    // The timed-out receive was cancelled, not leaked.
    let l = w.stats(1).ledger;
    l.check_quiescent()
        .unwrap_or_else(|r| panic!("leaked through stream timeout: {r}"));
    assert_eq!(l.cancelled(), 1);
    assert_eq!(l.completed(), 0);
}

#[test]
fn wildcard_irecv_falls_back_to_the_sharded_fanout() {
    // src = None cannot be pinned to a serial context; a stream's
    // wildcard receive delegates to the sharded claim-token path and the
    // stream's own wait completes it transparently. The sender here uses
    // the *sharded* surface, because stream traffic is invisible to
    // sharded wildcards (the documented matching-scope relaxation).
    let order = Arc::new(Mutex::new(Vec::new()));
    let log = order.clone();
    let exp = Experiment::with_seed(2, 58);
    let out = exp.run(
        RunConfig::new(Method::Mutex)
            .nodes(2)
            .ranks_per_node(1)
            .threads_per_rank(1)
            .vci_map(VciMap::by_tag(2))
            .streams(1),
        move |ctx| {
            if ctx.rank.rank() == 0 {
                let c = ctx.rank.world_comm();
                for i in 0..10 {
                    c.send(1, i, MsgData::Synthetic(32));
                }
            } else {
                let s = ctx.rank.stream_at(0);
                for _ in 0..10 {
                    let m = s.recv(None, None);
                    log.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(m.tag);
                }
            }
        },
    );
    assert_quiescent(&out);
    let mut tags = order.lock().unwrap_or_else(PoisonError::into_inner).clone();
    tags.sort_unstable();
    assert_eq!(tags, (0..10).collect::<Vec<_>>(), "every message once");
}

#[test]
fn streams_without_vcis_is_a_typed_build_error() {
    let p: Arc<dyn Platform> = Arc::new(VirtualPlatform::new(
        presets::nehalem_cluster_scaled(1),
        NetModel::qdr(),
        LockModelParams::default(),
        59,
    ));
    match World::builder(p)
        .ranks(1)
        .rank_on_node(|r| r)
        .lock(LockKind::Mutex)
        .vci_map(VciMap::new(0))
        .streams(2)
        .build()
    {
        Err(BuildError::StreamsWithoutVcis { streams }) => assert_eq!(streams, 2),
        Err(other) => panic!("expected StreamsWithoutVcis, got {other}"),
        Ok(_) => panic!("streams over an empty pool must be rejected"),
    }
}
