//! Schedule oracle on a paper workload: the fig2a throughput benchmark
//! must replay the schedule a reference `BinaryHeap<Ev>` event queue
//! produced. The constants below were cut at commit `ebcc57c` (the last
//! one that carried that queue) by running these two points under it —
//! the reference's verdict, stored as data. The windowed osu_bw-style
//! exchange is the workload pinned because its waitall and ack traffic
//! stress same-timestamp tie-breaking much harder than a ring does.

use mtmpi::prelude::*;
use mtmpi_bench::{throughput_run, ThroughputParams};

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
