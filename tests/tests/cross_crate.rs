//! Cross-crate integration tests: the full stack (topology → locks/sim →
//! runtime → harness) exercised together, on both platforms.

use mtmpi::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A composite workload: pt2pt windows + a collective + RMA, all in one
/// run.
fn composite(method: Method, seed: u64) -> (u64, f64) {
    let exp = Experiment::with_seed(2, seed);
    let sum = Arc::new(AtomicU64::new(0));
    let s2 = sum.clone();
    let out = exp.run(
        RunConfig::new(method)
            .nodes(2)
            .ranks_per_node(1)
            .threads_per_rank(3)
            .window_bytes(256)
            .progress_thread(true),
        move |ctx| {
            let h = &ctx.rank;
            let c = h.world_comm();
            let tag = ctx.thread as i32;
            // pt2pt ping-pong per thread pair
            if h.rank() == 0 {
                for _ in 0..50 {
                    c.send(1, tag, MsgData::Synthetic(512));
                    let _ = c.recv(Some(1), Some(tag));
                }
            } else {
                for _ in 0..50 {
                    let _ = c.recv(Some(0), Some(tag));
                    c.send(0, tag, MsgData::Synthetic(512));
                }
            }
            // Collective: one thread per rank joins the allreduce.
            if ctx.thread == 0 {
                let v = h.allreduce_sum_u64(u64::from(h.rank()) + 1);
                s2.fetch_add(v, Ordering::Relaxed);
                // RMA: rank 0 puts into rank 1's window. The final
                // barrier keeps rank 1's thread 0 (and with it the
                // rank's progress engine) alive until the put is acked.
                if h.rank() == 0 {
                    h.put(1, 0, MsgData::Bytes(vec![7u8; 16]));
                }
                h.barrier();
            }
        },
    );
    (out.end_ns, sum.load(Ordering::Relaxed) as f64)
}

#[test]
fn composite_workload_all_methods() {
    for m in Method::PAPER_TRIO {
        let (end, sum) = composite(m, 1);
        assert!(end > 0);
        assert_eq!(sum, 6.0, "allreduce(1)+allreduce(2) summed over 2 ranks");
    }
}

#[test]
fn bitwise_determinism_of_composite() {
    assert_eq!(composite(Method::Mutex, 77), composite(Method::Mutex, 77));
    assert_ne!(
        composite(Method::Mutex, 77).0,
        composite(Method::Mutex, 78).0,
        "different seeds should perturb timing"
    );
}

#[test]
fn ticket_beats_mutex_under_heavy_contention() {
    // 8 threads hammer the runtime with tiny messages; fair arbitration
    // should move at least as many messages per second (the paper's
    // central claim).
    let rate = |m: Method| {
        let exp = Experiment::with_seed(2, 3);
        let out = exp.run(
            RunConfig::new(m)
                .nodes(2)
                .ranks_per_node(1)
                .threads_per_rank(8),
            |ctx| {
                let h = ctx.rank.world_comm();
                if h.rank() == 0 {
                    for _ in 0..4 {
                        let reqs: Vec<_> = (0..64)
                            .map(|_| h.isend(1, 0, MsgData::Synthetic(1)))
                            .collect();
                        h.waitall(reqs);
                        let _ = h.recv(Some(1), Some(ctx.thread as i32 + 500));
                    }
                } else {
                    for _ in 0..4 {
                        let reqs: Vec<_> = (0..64).map(|_| h.irecv(Some(0), Some(0))).collect();
                        h.waitall(reqs);
                        h.send(0, ctx.thread as i32 + 500, MsgData::Synthetic(1));
                    }
                }
            },
        );
        out.msg_rate(8 * 6 * 64)
    };
    let mutex = rate(Method::Mutex);
    let ticket = rate(Method::Ticket);
    assert!(
        ticket > mutex,
        "ticket ({ticket:.0}/s) must beat mutex ({mutex:.0}/s) at 8 threads"
    );
}

#[test]
fn per_source_tag_delivery_is_in_order() {
    // Each of two sender threads streams 30 numbered `Bytes` payloads
    // on its own tag; each receiver thread must see its tag's payloads
    // in issue order (MPI's non-overtaking rule per `(src, tag)`).
    let exp = Experiment::with_seed(2, 5);
    let got = Arc::new(AtomicU64::new(0));
    let g2 = got.clone();
    exp.run(
        RunConfig::new(Method::Ticket)
            .nodes(2)
            .ranks_per_node(1)
            .threads_per_rank(2),
        move |ctx| {
            let h = ctx.rank.world_comm();
            let tag = ctx.thread as i32;
            if h.rank() == 0 {
                for i in 0..30u64 {
                    h.send(1, tag, MsgData::Bytes(i.to_le_bytes().to_vec()));
                }
            } else {
                for i in 0..30u64 {
                    let m = h.recv(Some(0), Some(tag));
                    let v = u64::from_le_bytes(m.data.as_bytes().try_into().unwrap());
                    assert_eq!(v, i);
                    g2.fetch_add(1, Ordering::Relaxed);
                }
            }
        },
    );
    assert_eq!(got.load(Ordering::Relaxed), 60);
}

#[test]
fn native_platform_end_to_end() {
    // The same runtime code on real threads and real locks. Network
    // delays in model-ns map 1:1 to wall ns here (time_scale 1.0 with
    // zero-cost compute keeps it fast).
    use mtmpi_runtime::World;
    use mtmpi_sim::{NativePlatform, Platform, ThreadDesc};
    use mtmpi_topology::{presets, CoreId};

    for kind in [LockKind::Mutex, LockKind::Ticket, LockKind::Priority] {
        let p: Arc<dyn Platform> = Arc::new(NativePlatform::new(
            presets::nehalem_cluster_scaled(2),
            NetModel::instant(),
            0.0, // compute() is free; real time still flows
            42,
        ));
        let w = World::builder(p.clone())
            .ranks(2)
            .rank_on_node(|r| r)
            .lock(kind)
            .build()
            .expect("valid world");
        let total = Arc::new(AtomicU64::new(0));
        for t in 0..2u32 {
            let a = w.rank(0).world_comm();
            let b = w.rank(1).world_comm();
            let total2 = total.clone();
            p.spawn(
                ThreadDesc {
                    name: format!("s{t}"),
                    node: 0,
                    core: CoreId(t),
                },
                Box::new(move || {
                    for i in 0..200u32 {
                        a.send(1, t as i32, MsgData::Bytes(i.to_le_bytes().to_vec()));
                    }
                }),
            );
            p.spawn(
                ThreadDesc {
                    name: format!("r{t}"),
                    node: 1,
                    core: CoreId(t),
                },
                Box::new(move || {
                    for i in 0..200u32 {
                        let m = b.recv(Some(0), Some(t as i32));
                        assert_eq!(u32::from_le_bytes(m.data.as_bytes().try_into().unwrap()), i);
                        total2.fetch_add(1, Ordering::Relaxed);
                    }
                }),
            );
        }
        let report = p.run();
        assert_eq!(total.load(Ordering::Relaxed), 400, "{kind:?}");
        assert!(report.lock_grants[0].total() + report.lock_grants[1].total() > 0);
    }
}

#[test]
fn single_method_matches_one_thread() {
    // Method::Single must behave exactly like one thread with a mutex.
    let run = |m: Method, t: u32| {
        let exp = Experiment::with_seed(2, 9);
        let out = exp.run(
            RunConfig::new(m)
                .nodes(2)
                .ranks_per_node(1)
                .threads_per_rank(t),
            |ctx| {
                let h = ctx.rank.world_comm();
                if h.rank() == 0 {
                    for _ in 0..100 {
                        h.send(1, ctx.thread as i32, MsgData::Synthetic(64));
                    }
                } else {
                    for _ in 0..100 {
                        let _ = h.recv(Some(0), Some(ctx.thread as i32));
                    }
                }
            },
        );
        out.end_ns
    };
    assert_eq!(run(Method::Single, 8), run(Method::Mutex, 1));
}
