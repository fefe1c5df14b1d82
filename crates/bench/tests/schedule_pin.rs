//! Schedule oracle on a paper workload: the fig2a throughput benchmark
//! must replay the schedule a reference `BinaryHeap<Ev>` event queue
//! produced. The constants below were cut at commit `ebcc57c` (the last
//! one that carried that queue) by running these two points under it —
//! the reference's verdict, stored as data. The windowed osu_bw-style
//! exchange is the workload pinned because its waitall and ack traffic
//! stress same-timestamp tie-breaking much harder than a ring does.

use mtmpi::prelude::*;
use mtmpi_bench::{throughput_run, vci_throughput_run, ThroughputParams};

/// `(threads/node, sched_trace_hash, end_ns, messages)` at 64 B,
/// 2 windows, `Experiment::quick(2)`, `Method::Mutex`.
const PINNED: [(u32, u64, u64, u64); 2] = [
    (1, 0x361c_39bb_97a5_0830, 54_925, 128),
    (4, 0x6342_fa75_b685_34a0, 332_822, 512),
];

#[test]
fn fig2a_workload_replays_the_pinned_schedule() {
    for (threads, hash, end_ns, messages) in PINNED {
        let r = throughput_run(
            &Experiment::quick(2),
            Method::Mutex,
            ThroughputParams::new(64, threads).windows(2),
        );
        assert_eq!(
            r.sched_trace_hash, hash,
            "fig2a @{threads} tpn: event order diverged from the reference heap's"
        );
        // Same schedule ⇒ same virtual timings, not just the same hash.
        assert_eq!((r.end_ns, r.messages), (end_ns, messages));
    }
}

/// The method after `m` in the pinned walk, and `m`'s
/// `(sched_trace_hash, end_ns)` at 1 B, 8 threads/node, one window,
/// `Experiment::quick(2)` — cut at commit `4227227`. The `match` names
/// every variant, so one added to `Method` does not compile until it
/// has a place in the walk and a pin.
fn pinned(m: Method) -> (Option<Method>, u64, u64) {
    match m {
        Method::Mutex => (Some(Method::Ticket), 0x3cfa_b2df_5e34_916f, 379_462),
        Method::Ticket => (Some(Method::Priority), 0x4b6f_777f_7ecc_e59c, 395_010),
        Method::Priority => (Some(Method::Single), 0xbe24_31e6_8f66_f031, 397_085),
        Method::Single => (None, 0xc1cc_d3b1_8cb9_1abf, 28_095),
    }
}

/// Every method, in the pinned walk's order.
fn methods() -> impl Iterator<Item = Method> {
    std::iter::successors(Some(Method::Mutex), |&m| pinned(m).0)
}

#[test]
fn every_method_is_its_own_world() {
    // A method whose model is another method's reproduces that method's
    // schedule exactly; each one listed must instead produce its own.
    let mut seen: Vec<(Method, u64)> = Vec::new();
    for m in methods() {
        let (_, hash, end_ns) = pinned(m);
        let r = throughput_run(
            &Experiment::quick(2),
            m,
            ThroughputParams::new(1, 8).windows(1),
        );
        assert_eq!((r.sched_trace_hash, r.end_ns), (hash, end_ns), "{m:?}");
        if let Some((twin, _)) = seen.iter().find(|(_, h)| *h == hash) {
            panic!("{m:?} replays {twin:?}'s schedule");
        }
        seen.push((m, hash));
    }
    assert_eq!(seen.len(), 4);
}

/// Whether `m`'s world draws from the seeded RNG. Only the Mutex model
/// does (its CAS race and futex wake jitter); a FIFO-family grant order
/// is a function of arrival order alone. The `match` names every
/// variant, so one added to `Method` does not compile until it is
/// classed here.
fn draws_randomness(m: Method) -> bool {
    match m {
        Method::Mutex => true,
        Method::Ticket | Method::Priority | Method::Single => false,
    }
}

#[test]
fn only_seeded_methods_move_with_the_seed() {
    // The world of `every_method_is_its_own_world`, at the figures' seed
    // and at one other: a method that draws no randomness replays its
    // schedule, and one that does must not.
    let hash = |exp: &Experiment, m: Method| {
        throughput_run(exp, m, ThroughputParams::new(1, 8).windows(1)).sched_trace_hash
    };
    for m in methods() {
        let moved = hash(&Experiment::quick(2), m) != hash(&Experiment::with_seed(2, 1), m);
        assert_eq!(moved, draws_randomness(m), "{m:?}");
    }
}

/// `(method, sched_trace_hash, end_ns, events)` of the VCI sweep's world
/// at 64 B, 4 threads/node, one window, `Experiment::quick(2)`, with
/// `VciMap::by_tag(4)`: each thread's window lands on its own shard, so
/// every `waitall` runs the sharded path and its steal sweep. Cut at
/// commit `d310285`.
const VCI_PINNED: [(Method, u64, u64, u64); 2] = [
    (Method::Mutex, 0xf061_953a_b340_0e30, 71_887, 2_051),
    (Method::Ticket, 0x2b36_70c7_1d38_817b, 67_725, 2_193),
];

#[test]
fn sharded_waitall_replays_the_pinned_schedule() {
    for (method, hash, end_ns, events) in VCI_PINNED {
        let r = vci_throughput_run(
            &Experiment::quick(2),
            method,
            ThroughputParams::new(64, 4).windows(1),
            4,
        );
        assert_eq!(
            (r.sched_trace_hash, r.end_ns, r.events),
            (hash, end_ns, events),
            "{method:?} over 4 VCIs"
        );
    }
}

/// `(nodes, events, handoffs, end_ns, sched_trace_hash)` of a six-round
/// ring exchange (1 rank/node, 1 thread/rank, `Method::Mutex`) on
/// `Experiment::quick(nodes)`. Events and hand-offs grow linearly with
/// the virtual cluster while virtual time stays flat.
const RING_PINNED: [(u32, u64, u64, u64, u64); 2] = [
    (8, 632, 633, 15_330, 0x311a_151e_2ae9_0ee5),
    (64, 5_056, 5_057, 15_330, 0xb4f2_01fc_3034_2365),
];

#[test]
fn ring_events_scale_linearly_with_nodes() {
    for (nodes, events, handoffs, end_ns, hash) in RING_PINNED {
        let out = Experiment::quick(nodes).run(
            RunConfig::new(Method::Mutex)
                .nodes(nodes)
                .ranks_per_node(1)
                .threads_per_rank(1),
            |ctx| {
                let c = ctx.rank.world_comm();
                let (me, n) = (c.rank(), c.nranks());
                for round in 0..6 {
                    c.send((me + 1) % n, round, MsgData::Synthetic(64));
                    let _ = c.recv(Some((me + n - 1) % n), Some(round));
                }
            },
        );
        assert_eq!(
            (
                out.report.events,
                out.report.handoffs,
                out.end_ns,
                out.report.sched_trace_hash
            ),
            (events, handoffs, end_ns, hash),
            "ring on {nodes} nodes"
        );
    }
}
