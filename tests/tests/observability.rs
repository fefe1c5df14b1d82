//! Observability-layer integration tests: trace determinism, the
//! zero-perturbation guarantee, the disabled path, the sched-trace hash
//! as a replay witness, causal-flow pairing, the unified
//! `World::stats` snapshot (the sole introspection surface since the
//! deprecated per-metric getters were removed), and which run of a
//! configuration records the timeline a sink keeps.

use mtmpi::prelude::*;
use mtmpi_bench::Fig;
use mtmpi_integration_tests::{pin, pinned_mutex_run};
use mtmpi_obs::{
    ChromeDoc, CsKind, CsOp, Event, EventKind, FaultKind, Path, ReqPhase, RingRecorder, RmaKind,
};
use mtmpi_prof::ProfReport;
use std::sync::Arc;

/// A small contended workload, traced or not.
fn run(seed: u64, trace: bool) -> RunOutcome {
    let exp = Experiment::with_seed(2, seed).trace(trace);
    exp.run(
        RunConfig::new(Method::Mutex)
            .nodes(2)
            .ranks_per_node(1)
            .threads_per_rank(4)
            .window_bytes(128),
        |ctx| {
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
        },
    )
}

#[test]
fn identical_runs_produce_byte_identical_chrome_traces() {
    let (a, b) = (run(11, true), run(11, true));
    let ta = a.timeline.expect("traced run captures a timeline");
    let tb = b.timeline.expect("traced run captures a timeline");
    assert!(!ta.events.is_empty(), "workload should generate events");
    assert_eq!(
        chrome_trace(&ta),
        chrome_trace(&tb),
        "same seed, same platform => byte-identical trace"
    );
}

#[test]
fn tracing_does_not_perturb_virtual_results() {
    let traced = run(12, true);
    let plain = run(12, false);
    assert_eq!(
        traced.end_ns, plain.end_ns,
        "event recording must not advance the virtual clock"
    );
    let (s_t, s_p) = (traced.stats(1), plain.stats(1));
    assert_eq!(s_t.cs_acquisitions, s_p.cs_acquisitions);
    assert_eq!(s_t.cs_wait_ns.count(), s_p.cs_wait_ns.count());
    assert_eq!(s_t.cs_wait_ns.p99(), s_p.cs_wait_ns.p99());
}

#[test]
fn disabled_tracing_records_nothing() {
    let out = run(13, false);
    assert!(
        out.timeline.is_none(),
        "no recorder attached => no timeline"
    );
    // Histograms stay populated either way: they are always-on.
    assert!(out.stats(1).cs_wait_ns.count() > 0);
}

#[test]
fn sched_trace_hash_is_stable_per_seed_and_moved_by_the_seed() {
    let (a, b, c) = (run(33, true), run(33, true), run(34, true));
    assert_ne!(a.report.sched_trace_hash, 0, "virtual runs hash nonzero");
    assert_eq!(
        a.report.sched_trace_hash, b.report.sched_trace_hash,
        "same seed, same schedule, same hash"
    );
    assert_ne!(
        a.report.sched_trace_hash, c.report.sched_trace_hash,
        "a one-line seed change must move the hash"
    );
}

#[test]
fn flow_events_pair_up_on_a_fault_free_run() {
    let t = run(35, true).timeline.expect("traced run has a timeline");
    let count = |is: fn(&EventKind) -> bool| t.events.iter().filter(|e| is(&e.kind)).count();
    let sends = count(|k| matches!(k, EventKind::FlowSend { .. }));
    let recvs = count(|k| matches!(k, EventKind::FlowRecv { .. }));
    assert!(sends > 0, "data packets stamp flow origins");
    // Every send is eventually accepted exactly once.
    assert_eq!(sends, recvs);
}

#[test]
// The legacy per-metric getters (cs_acquisitions, request_ledger, …) are
// gone; stats() is the sole introspection surface, and this checks the
// snapshot is complete and internally consistent on a mixed workload.
fn stats_snapshot_is_complete_and_consistent() {
    let exp = Experiment::with_seed(2, 14);
    let out = exp.run(
        RunConfig::new(Method::Ticket)
            .nodes(2)
            .ranks_per_node(1)
            .threads_per_rank(2)
            .window_bytes(64),
        |ctx| {
            let h = &ctx.rank;
            let c = h.world_comm();
            let tag = ctx.thread as i32;
            if h.rank() == 0 {
                c.send(1, tag, MsgData::Synthetic(8));
                if ctx.thread == 0 {
                    h.put(1, 0, MsgData::Bytes(vec![9u8; 8]));
                }
            } else {
                let _ = c.recv(Some(0), Some(tag));
            }
            if ctx.thread == 0 {
                h.barrier();
            }
        },
    );
    for rank in 0..2 {
        let s = out.stats(rank);
        // Every CS acquisition fed both histograms and the sampler.
        assert!(s.cs_acquisitions > 0);
        assert_eq!(s.cs_wait_ns.count(), s.cs_acquisitions);
        assert_eq!(s.cs_hold_ns.count(), s.cs_acquisitions);
        assert_eq!(s.dangling.samples(), s.cs_acquisitions);
        // The ledger went quiescent: everything issued was freed.
        assert_eq!(s.ledger.in_flight(), 0, "run should end quiescent");
        assert_eq!(s.ledger.freed(), s.ledger.completed());
        assert!(s.ledger.issued() > 0);
        // The RMA window snapshot reflects the put from rank 0.
        assert_eq!(s.window.len(), 64);
    }
    // Rank 1 received the put.
    assert_eq!(&out.stats(1).window[..8], &[9u8; 8]);
    // Rank 1 matched real messages, so its latency histogram filled.
    assert!(out.stats(1).msg_latency_ns.count() > 0);
}

/// A process name every escape class appears in.
const AWKWARD_NAME: &str = "mu\"tex \\ 8t\n\u{1}\u{e9}";

/// One event of each of the nine `EventKind`s, CS passages on two
/// distinct VCIs (so the per-VCI lanes render), timestamps on both sides
/// of the µs boundary and above 2³², a `seq` of `u64::MAX`, the widest
/// thread id an event holds (`u32::MAX`), a span whose grant precedes
/// its request (the exporters clamp it to 0), and a non-zero drop count.
fn all_kinds_timeline() -> Timeline {
    let ev = |t_ns: u64, tid: u32, kind: EventKind| Event {
        t_ns,
        tid,
        core: (tid % 8) as u16 + 1,
        socket: (tid % 2) as u16,
        kind,
    };
    let cs = |lock, kind, path, op, vci, t_req, t_acq| EventKind::CsSpan {
        lock,
        kind,
        path,
        op,
        vci,
        t_req,
        t_acq,
    };
    let big = (1u64 << 32) + 1_234_567;
    let seq = u64::MAX;
    Timeline {
        events: vec![
            ev(0, 0, cs(0, CsKind::Mutex, Path::Main, CsOp::Isend, 0, 0, 0)),
            ev(
                999,
                1,
                EventKind::Req {
                    rank: 0,
                    vci: 0,
                    phase: ReqPhase::Issue,
                },
            ),
            ev(
                1_000,
                1,
                cs(1, CsKind::Ticket, Path::Progress, CsOp::Progress, 3, 0, 999),
            ),
            ev(
                1_001,
                2,
                EventKind::PollBatch {
                    rank: 1,
                    vci: 3,
                    path: Path::WaitSpin,
                    packets: 2,
                },
            ),
            ev(
                12_345,
                2,
                EventKind::Rma {
                    rank: 1,
                    origin: 0,
                    op: RmaKind::Accumulate,
                    bytes: u64::MAX,
                },
            ),
            ev(
                20_000,
                3,
                EventKind::FlowSend {
                    rank: 0,
                    dst: 1,
                    vci: 3,
                    seq,
                },
            ),
            ev(
                21_000,
                3,
                EventKind::FaultInjected {
                    rank: 0,
                    dst: 1,
                    seq,
                    fault: FaultKind::Drop,
                },
            ),
            ev(
                1_000_000,
                3,
                EventKind::Retransmit {
                    rank: 0,
                    dst: 1,
                    seq,
                    attempt: 1,
                    backoff_ns: 979_000,
                },
            ),
            ev(
                1_000_999,
                4,
                EventKind::DupDrop {
                    rank: 1,
                    src: 0,
                    seq,
                },
            ),
            ev(
                big,
                4,
                EventKind::FlowRecv {
                    rank: 1,
                    src: 0,
                    vci: 3,
                    seq,
                },
            ),
            ev(
                big + 10,
                u32::MAX,
                cs(
                    u32::MAX,
                    CsKind::Priority,
                    Path::Stream,
                    CsOp::Other,
                    3,
                    big + 5,
                    big + 1,
                ),
            ),
        ],
        dropped: 17,
    }
}

/// The exporters' bytes on a timeline built to reach every rendering
/// branch, pinned to what the `Vec<String>` + `join` exporters produced
/// (constants cut at the commit before the streaming writer landed; the
/// widest thread id's hash recut by the 72-byte event's exporters when
/// the id narrowed to 32 bits).
#[test]
fn exports_of_every_event_kind_are_pinned() {
    let t = all_kinds_timeline();
    let unsharded = Timeline {
        events: t.events[..2].to_vec(),
        dropped: 1,
    };
    let multi = ChromeDoc::new(&[(AWKWARD_NAME, &t), ("plain", &unsharded)]).finish();
    assert!(multi.contains("\"name\":\"mu\\\"tex \\\\ 8t\\n\\u0001\u{e9}\""));
    assert!(multi.contains("\"dropped\":18"));
    assert_eq!(pin(&chrome_trace(&t)), (3_158, 7_308_364_931_481_490_561));
    assert_eq!(pin(&jsonl(&t)), (1_306, 10_372_911_001_050_626_359));
    assert_eq!(pin(&multi), (3_762, 8_232_223_566_525_034_541));
}

/// The same three documents over the seeded 8-thread Mutex run whose
/// `to_json` `tests/tests/prof.rs` pins.
#[test]
fn exports_of_the_pinned_mutex_run_are_byte_identical() {
    let out = pinned_mutex_run();
    let t = out.timeline.as_ref().expect("timeline");
    assert_eq!(
        pin(&chrome_trace(t)),
        (1_135_082, 5_783_571_061_619_302_331)
    );
    assert_eq!(pin(&jsonl(t)), (591_894, 3_029_437_841_341_398_482));
    let multi = ChromeDoc::new(&[("mutex 8t", t), ("mutex 8t again", t)]).finish();
    assert_eq!(pin(&multi), (2_270_254, 11_595_743_826_388_110_321));
}

/// One small traced world per lock kind that together make the runtime
/// emit every `EventKind`: the Mutex world runs over a dropping and
/// duplicating fabric (fault, retransmit and dup-drop records), the
/// Ticket world issues a put, a get and an accumulate, and the Priority
/// world sends one message per thread through the communicator before
/// moving the rest through bound streams (lock-free `stream` passages). Every world sends messages, so each carries flow records.
fn every_kind_worlds() -> [(Method, RunOutcome); 3] {
    let cfg = |m| {
        RunConfig::new(m)
            .nodes(2)
            .ranks_per_node(1)
            .threads_per_rank(2)
            .window_bytes(64)
    };
    let lossy = FaultPlan {
        seed: 0xBAD_CAB1E,
        drop_ppm: 150_000,
        dup_ppm: 150_000,
        ..FaultPlan::none()
    };
    let mutex = Experiment::with_seed(2, 61).trace(true).faults(lossy).run(
        cfg(Method::Mutex).threads_per_rank(1),
        |ctx| {
            let h = ctx.rank.world_comm();
            let peer = 1 - h.rank();
            for i in 0..12 {
                if h.rank() == 0 {
                    h.send(peer, i, MsgData::Synthetic(128));
                } else {
                    let _ = h.recv(Some(peer), Some(i));
                }
            }
            // The closing handshake keeps both progress engines alive
            // while a last data packet may still need a retransmit.
            if h.rank() == 0 {
                let _ = h.recv(Some(peer), Some(900));
                h.send(peer, 901, MsgData::Synthetic(1));
            } else {
                h.send(peer, 900, MsgData::Synthetic(1));
                let _ = h.recv(Some(peer), Some(901));
            }
        },
    );
    let ticket = Experiment::with_seed(2, 62)
        .trace(true)
        .run(cfg(Method::Ticket), |ctx| {
            let h = &ctx.rank;
            let c = h.world_comm();
            let tag = ctx.thread as i32;
            for _ in 0..3 {
                if h.rank() == 0 {
                    c.send(1, tag, MsgData::Synthetic(64));
                    let _ = c.recv(Some(1), Some(tag));
                } else {
                    let _ = c.recv(Some(0), Some(tag));
                    c.send(0, tag, MsgData::Synthetic(64));
                }
            }
            if ctx.thread == 0 {
                if h.rank() == 0 {
                    h.put(1, 0, MsgData::Bytes(vec![7u8; 16]));
                    let _ = h.get(1, 0, 16);
                    h.accumulate(1, 16, MsgData::Bytes(vec![0u8; 16]));
                }
                h.barrier();
            }
        });
    let priority = Experiment::with_seed(2, 63).trace(true).run(
        cfg(Method::Priority).vci_map(VciMap::by_tag(2)).streams(2),
        |ctx| {
            let c = ctx.rank.world_comm();
            let peer = 1 - c.rank();
            let tag = ctx.thread as i32;
            if peer == 1 {
                c.send(peer, tag, MsgData::Synthetic(32));
            } else {
                let _ = c.recv(Some(peer), Some(tag));
            }
            let s = ctx.rank.stream_at(ctx.thread);
            for _ in 0..4 {
                if peer == 1 {
                    s.send(peer, tag, MsgData::Synthetic(32));
                    let _ = s.recv(Some(peer), Some(tag));
                } else {
                    let _ = s.recv(Some(peer), Some(tag));
                    s.send(peer, tag, MsgData::Synthetic(32));
                }
            }
        },
    );
    [
        (Method::Mutex, mutex),
        (Method::Ticket, ticket),
        (Method::Priority, priority),
    ]
}

/// `chrome_trace`, `jsonl` and `ProfReport::to_json` of
/// [`every_kind_worlds`], pinned by `(len, FNV-1a)`: the recorded
/// events' in-memory layout may change, the rendered bytes may not
/// (constants cut before the event shrank from 72 to 48 bytes).
#[test]
fn exports_of_worlds_emitting_every_event_kind_are_pinned() {
    let mut kinds = [0usize; 9];
    let mut all_lines = String::new();
    let mut got = Vec::new();
    for (method, out) in every_kind_worlds() {
        let t = out
            .timeline
            .as_ref()
            .expect("traced run keeps its timeline");
        assert_eq!(t.dropped, 0, "{method:?}");
        for e in &t.events {
            kinds[match e.kind {
                EventKind::CsSpan { .. } => 0,
                EventKind::Req { .. } => 1,
                EventKind::PollBatch { .. } => 2,
                EventKind::Rma { .. } => 3,
                EventKind::FaultInjected { .. } => 4,
                EventKind::Retransmit { .. } => 5,
                EventKind::DupDrop { .. } => 6,
                EventKind::FlowSend { .. } => 7,
                EventKind::FlowRecv { .. } => 8,
            }] += 1;
        }
        let mut latency = Histogram::new();
        for r in 0..out.nranks {
            latency.merge(&out.stats(r).msg_latency_ns);
        }
        let lines = jsonl(t);
        got.push((
            method,
            [
                pin(&chrome_trace(t)),
                pin(&lines),
                pin(&ProfReport::analyze(t, &latency).to_json()),
            ],
        ));
        all_lines += &lines;
    }
    assert!(
        kinds.iter().all(|&n| n > 0),
        "a kind is never emitted: {kinds:?}"
    );
    for label in [
        "\"kind\":\"mutex\"",
        "\"kind\":\"ticket\"",
        "\"kind\":\"priority\"",
        "\"kind\":\"stream\"",
        "\"op\":\"put\"",
        "\"op\":\"get\"",
        "\"op\":\"accumulate\"",
        "\"fault\":\"drop\"",
        "\"fault\":\"dup\"",
    ] {
        assert!(all_lines.contains(label), "no {label} rendered");
    }
    assert_eq!(
        got,
        [
            (
                Method::Mutex,
                [
                    (81_039, 7_493_197_218_861_800_803),
                    (41_511, 6_930_125_883_640_299_178),
                    (877, 18_342_184_310_947_749_681),
                ],
            ),
            (
                Method::Ticket,
                [
                    (61_571, 16_194_607_466_632_635_981),
                    (31_593, 18_358_011_657_000_462_913),
                    (1_976, 8_154_308_918_499_935_725),
                ],
            ),
            (
                Method::Priority,
                [
                    (89_368, 2_590_291_473_746_406_555),
                    (37_088, 3_127_071_234_994_574_434),
                    (1_193, 2_578_107_190_320_365_329),
                ],
            ),
        ]
    );
}

/// The virtual platform reports thread id `u64::MAX` off a simulated
/// thread, which no event can carry (`Event::stamped` refuses it). No
/// recording site is reachable there: each runs inside a critical
/// section, entered through a lock, whose acquisition panics off a
/// simulated thread before the passage begins, or through a bound
/// stream, which cannot be bound there.
#[test]
fn nothing_records_off_a_simulated_thread() {
    let p: Arc<dyn Platform> = Arc::new(VirtualPlatform::new(
        presets::nehalem_cluster_scaled(2),
        NetModel::qdr(),
        LockModelParams::default(),
        64,
    ));
    let rec = Arc::new(RingRecorder::with_shards(4, 16));
    let w = World::builder(p.clone())
        .ranks(2)
        .rank_on_node(|r| r)
        .lock(LockKind::Mutex)
        .streams(1)
        .recorder(rec.clone())
        .build()
        .expect("valid world");
    assert_eq!(p.current_tid(), u64::MAX);
    let h = w.rank(0);
    assert_eq!(
        h.try_stream_at(0).err(),
        Some(StreamBindError::NoThread { rank: 0, sid: 0 })
    );
    assert_eq!(
        h.try_stream().err(),
        Some(StreamBindError::NoThread { rank: 0, sid: 0 })
    );
    let passage = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = h.world_comm().isend(1, 0, MsgData::Synthetic(8));
    }));
    let msg = passage.expect_err("a locked passage off a simulated thread");
    let msg = msg
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| msg.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(msg.contains("outside a simulated thread"), "{msg}");
    // SAFETY: no simulated thread ever ran, so nothing else records.
    let t = unsafe { rec.drain_unsynced() };
    assert!(t.is_empty() && t.dropped == 0, "{t:?}");
}

/// Every CS passage's `cs wait` and `cs hold` spans, parsed back: they
/// sit next to each other on one thread's track and carry equal `args`
/// (the exporter renders a passage's `args` once and copies it).
#[test]
fn cs_wait_and_hold_spans_carry_equal_args() {
    let out = pinned_mutex_run();
    for t in [
        &all_kinds_timeline(),
        out.timeline.as_ref().expect("timeline"),
    ] {
        let doc = mtmpi_prof::Json::parse(&chrome_trace(t)).expect("trace parses");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let str_of = |e: &mtmpi_prof::Json, k| e.get(k).and_then(|v| v.as_str()).map(str::to_owned);
        let cs: Vec<_> = events
            .iter()
            .filter(|e| str_of(e, "cat").as_deref() == Some("cs"))
            .collect();
        assert_eq!(cs.len(), 2 * t.cs_spans().count());
        for pair in cs.chunks(2) {
            let (wait, hold) = (pair[0], pair[1]);
            assert_eq!(str_of(wait, "name").as_deref(), Some("cs wait"));
            assert_eq!(str_of(hold, "name").as_deref(), Some("cs hold"));
            for k in ["pid", "tid"] {
                assert_eq!(wait.get(k), hold.get(k), "{k}");
            }
            let args = wait.get("args").expect("wait args");
            assert!(args.get("lock").is_some() && args.get("socket").is_some());
            assert_eq!(Some(args), hold.get("args"));
        }
    }
}

/// Every thread of rank 0 sends `msgs` messages of `bytes` to its peer
/// thread on rank 1.
fn stream(bytes: u64, msgs: u32) -> impl Fn(ThreadCtx) + Send + Sync + 'static {
    move |ctx| {
        let h = ctx.rank.world_comm();
        let tag = ctx.thread as i32;
        for _ in 0..msgs {
            if h.rank() == 0 {
                h.send(1, tag, MsgData::Synthetic(bytes));
            } else {
                let _ = h.recv(Some(0), Some(tag));
            }
        }
    }
}

fn two_threads(method: Method) -> RunConfig {
    RunConfig::new(method).nodes(2).threads_per_rank(2)
}

/// A `Fig`-wired sweep of 2 configurations × 3 message sizes, with or
/// without `trace(true)` on the experiment; returns its summary.
fn wired_sweep(trace: bool) -> String {
    let fig = Fig::new("sweep");
    let exp = fig.wire(Experiment::with_seed(2, 16)).trace(trace);
    for method in [Method::Mutex, Method::Ticket] {
        for bytes in [8, 256, 4096] {
            exp.run(two_threads(method), stream(bytes, 5));
        }
    }
    fig.summary_json()
}

#[test]
fn wired_sweep_keeps_one_timeline_per_config() {
    assert_eq!(wired_sweep(false).matches("\"prof\":").count(), 2);
}

#[test]
fn wired_sweep_summary_is_unmoved_by_recording_every_run() {
    assert_eq!(wired_sweep(false), wired_sweep(true));
}

#[test]
fn first_launched_run_keeps_the_timeline_whatever_the_finish_order() {
    let sink = Arc::new(Sink::new());
    let exp = Experiment::with_seed(2, 17).observe(sink.clone());
    let mut first = exp.try_start(two_threads(Method::Mutex), stream(8, 2));
    let mut second = exp.try_start(two_threads(Method::Mutex), stream(8, 6));
    second.step(u64::MAX).expect("second run completes");
    let second = second.finish();
    first.step(u64::MAX).expect("first run completes");
    let first = first.finish();
    assert_ne!(first.end_ns, second.end_ns);
    let runs = sink.take();
    assert_eq!(runs[0].end_ns, second.end_ns);
    assert!(
        runs[0].timeline.is_none(),
        "launched second: never recorded"
    );
    assert_eq!(runs[1].end_ns, first.end_ns);
    assert!(
        runs[1].timeline.is_some(),
        "launched first: claimed the slot"
    );
}

#[test]
fn failed_claimed_run_hands_its_slot_to_the_next_run() {
    let sink = Arc::new(Sink::new());
    let exp = Experiment::with_seed(2, 18).observe(sink.clone());
    let starved = exp.clone().fuel(10);
    assert!(starved
        .try_run(two_threads(Method::Mutex), stream(8, 2))
        .is_err());
    exp.run(two_threads(Method::Mutex), stream(8, 2));
    let runs = sink.take();
    assert_eq!(runs.len(), 1, "a failed run pushes no record");
    assert!(runs[0].timeline.is_some(), "the claim came back");
}

#[test]
fn wired_runs_return_a_timeline_only_when_traced() {
    let fig = Fig::new("wired");
    let exp = fig.wire(Experiment::with_seed(2, 19));
    let out = exp.run(two_threads(Method::Mutex), stream(8, 2));
    assert!(
        out.timeline.is_none(),
        "the sink's copy is moved, not cloned"
    );
    let out = exp
        .trace(true)
        .run(two_threads(Method::Ticket), stream(8, 2));
    assert!(out.timeline.is_some());
}
