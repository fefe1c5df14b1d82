//! `prof::live` integration: on a real seeded run, the online
//! collector's watermark/batching must feed the blame fold the same
//! passages the post-run `BlameMatrix` feeds it (equal cells, exact
//! per-window conservation), and the scheduler-trace hash must be a
//! faithful replay witness.

use mtmpi::prelude::*;
use mtmpi_prof::{BlameMatrix, HolderKey};
use std::collections::BTreeMap;

/// A contended multi-thread workload with the online collector running.
fn live_run(seed: u64) -> RunOutcome {
    let exp = Experiment::with_seed(2, seed).trace(true).live(true);
    exp.run(
        RunConfig::new(Method::Mutex)
            .nodes(2)
            .ranks_per_node(1)
            .threads_per_rank(4),
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

/// Aggregate a post-run blame matrix over waiters, down to the holder
/// cells the live collector keeps.
fn holder_cells(m: &BlameMatrix) -> BTreeMap<HolderKey, u64> {
    let mut out = BTreeMap::new();
    for c in m.rows.iter().flat_map(|r| &r.cells) {
        *out.entry(c.holder).or_default() += c.ns;
    }
    out
}

#[test]
fn live_blame_matches_post_run_blame_matrix_per_cell() {
    let out = live_run(31);
    let live = out.live_stats().expect("collector installed");
    let t = out.timeline.as_ref().expect("traced run has a timeline");
    let post = BlameMatrix::from_timeline(t);

    assert!(live.total_wait_ns > 0, "workload contends");
    assert_eq!(live.total_wait_ns, post.total_wait_ns);
    assert_eq!(
        live.charged_ns + live.unattributed_ns,
        live.total_wait_ns,
        "global conservation to the ns"
    );

    // Both views run the same fold; equal cells pin the collector's
    // watermark and holds-first batching on a real schedule.
    let live_cells: BTreeMap<HolderKey, u64> =
        live.blame.iter().map(|c| (c.holder, c.ns)).collect();
    assert_eq!(live_cells, holder_cells(&post));

    // Shares and monopolization agree too.
    assert!((live.acq_gini - post.gini).abs() < 1e-12);
    assert!((live.starvation_ratio - post.starvation.ratio).abs() < 1e-9);
    assert_eq!(live.main_spans, post.starvation.main_spans);
    assert_eq!(live.progress_spans, post.starvation.progress_spans);
}

#[test]
fn live_windows_conserve_wait_to_the_ns() {
    let out = live_run(32);
    let live = out.live_stats().expect("collector installed");
    assert!(live.windows_flushed > 0, "run spans at least one window");
    for w in &live.recent_windows {
        assert_eq!(
            w.charged_ns + w.unattributed_ns,
            w.row.wait_ns,
            "window @{} must conserve wait exactly",
            w.row.start_ns
        );
    }
    // The collector saw the whole run: its span count matches the
    // timeline's.
    let t = out.timeline.as_ref().expect("timeline");
    assert_eq!(live.spans, t.cs_spans().count() as u64);
    assert_eq!(live.dropped, t.dropped);
}

#[test]
fn sched_trace_hash_is_stable_per_seed_and_moved_by_the_seed() {
    let a = live_run(33);
    let b = live_run(33);
    let c = live_run(34);
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
fn flow_events_pair_up_on_a_live_run() {
    let out = live_run(35);
    let live = out.live_stats().expect("collector installed");
    assert!(live.flow_sends > 0, "data packets stamp flow origins");
    assert!(live.flow_recvs > 0, "accepted packets stamp flow termini");
    // Fault-free run: every send is eventually accepted exactly once.
    assert_eq!(live.flow_sends, live.flow_recvs);
}
