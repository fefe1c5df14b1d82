//! Prof-layer integration tests: the attribution invariants hold on
//! *real* traced runs (not synthetic timelines), and every rendering is
//! byte-identical across same-seed runs.

use mtmpi::prelude::*;
use mtmpi_integration_tests::{pin, pinned_mutex_run};
use mtmpi_obs::ChromeDoc;
use mtmpi_prof::{top_report, BlameMatrix, HolderKey, ProfReport, Windows};
use std::collections::{BTreeMap, BTreeSet};

/// A contended multi-thread workload with tracing on.
fn traced_run(seed: u64) -> RunOutcome {
    traced_run_on(seed, RunConfig::new(Method::Mutex))
}

/// [`traced_run`]'s workload on `cfg`'s method and VCI map.
fn traced_run_on(seed: u64, cfg: RunConfig) -> RunOutcome {
    let exp = Experiment::with_seed(2, seed).trace(true);
    exp.run(
        cfg.nodes(2)
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

/// A one-process trace document carrying `prof`'s counter track — what
/// `Fig::finish` writes under `--trace`.
fn trace_with_counters(name: &str, t: &Timeline, prof: &ProfReport) -> String {
    let mut doc = ChromeDoc::new(&[(name, t)]);
    prof.counter_track(0, &mut doc);
    doc.finish()
}

fn merged_latency(out: &RunOutcome) -> mtmpi_metrics::Histogram {
    let mut h = mtmpi_metrics::Histogram::new();
    for r in 0..out.nranks {
        h.merge(&out.stats(r).msg_latency_ns);
    }
    h
}

#[test]
fn blame_matrix_conserves_recorded_wait_on_a_real_run() {
    let out = traced_run(21);
    let t = out.timeline.as_ref().expect("traced run has a timeline");
    assert!(!t.events.is_empty());
    let prof = ProfReport::analyze(t, &merged_latency(&out));

    // Row-level and matrix-level conservation are exact.
    assert_eq!(prof.blame.check_conservation(), (0, 0));

    // And the matrix total equals the wait summed over raw spans — the
    // quantity the runtime's own histograms are built from.
    let span_wait: u64 = t.cs_spans().map(|s| s.wait_ns()).sum();
    assert_eq!(prof.blame.total_wait_ns, span_wait);

    // This workload contends: somebody must be blamed.
    assert!(prof.blame.total_wait_ns > 0, "no contention recorded?");
    assert!(prof.blame.rows.iter().any(|r| !r.cells.is_empty()));
}

/// Per waiter: `(cells by holder, unattributed_ns, total_ns)`.
type Rows = BTreeMap<u64, (BTreeMap<HolderKey, u64>, u64, u64)>;

/// The independent oracle: every wait against every hold of its lock,
/// O(n²), no ordering, no early exit.
fn overlap_oracle(t: &Timeline) -> Rows {
    let spans: Vec<_> = t.cs_spans().collect();
    let mut rows = Rows::new();
    for w in &spans {
        let row = rows.entry(w.tid).or_default();
        row.1 += w.wait_ns();
        row.2 += w.wait_ns();
        for h in spans.iter().filter(|h| h.lock == w.lock) {
            let ns = h.t_end.min(w.t_acq).saturating_sub(h.t_acq.max(w.t_req));
            if ns > 0 {
                let holder = HolderKey {
                    tid: h.tid,
                    path_idx: h.path.idx(),
                    op_idx: h.op.idx(),
                    vci: h.vci,
                };
                *row.0.entry(holder).or_default() += ns;
                row.1 -= ns;
            }
        }
    }
    rows
}

fn matrix_rows(m: &BlameMatrix) -> Rows {
    let cells = |r: &mtmpi_prof::BlameRow| r.cells.iter().map(|c| (c.holder, c.ns)).collect();
    m.rows
        .iter()
        .map(|r| (r.waiter_tid, (cells(r), r.unattributed_ns, r.total_ns)))
        .collect()
}

#[test]
fn blame_matches_the_overlap_oracle_on_real_runs() {
    let one_lock = traced_run(21);
    let sharded = traced_run_on(24, RunConfig::new(Method::Mutex).vci_map(VciMap::by_tag(4)));
    for (name, out) in [("one lock per rank", &one_lock), ("4 VCIs", &sharded)] {
        let t = out.timeline.as_ref().expect("traced run has a timeline");
        let m = BlameMatrix::from_timeline(t);
        let rows = matrix_rows(&m);
        assert!(
            rows.values().any(|r| !r.0.is_empty()),
            "{name}: nobody blamed"
        );
        assert_eq!(rows, overlap_oracle(t), "{name}");
    }
    let t = sharded
        .timeline
        .as_ref()
        .expect("traced run has a timeline");
    let locks: BTreeSet<u32> = t.cs_spans().map(|s| s.lock).collect();
    assert!(
        locks.len() > sharded.nranks as usize,
        "several locks per rank: {locks:?}"
    );
}

#[test]
fn latency_decomposition_sums_to_measured_mean() {
    let out = traced_run(22);
    let t = out.timeline.as_ref().expect("timeline");
    let latency = merged_latency(&out);
    assert!(latency.count() > 0, "workload delivers messages");
    let prof = ProfReport::analyze(t, &latency);
    assert!(
        prof.decomp.residual_error() < 1e-6,
        "segments must sum to the measured mean, err {}",
        prof.decomp.residual_error()
    );
    assert_eq!(prof.decomp.messages, latency.count());
}

#[test]
fn windowed_aggregation_is_byte_identical_across_same_seed_runs() {
    let (a, b) = (traced_run(23), traced_run(23));
    let (ta, tb) = (a.timeline.as_ref().unwrap(), b.timeline.as_ref().unwrap());
    assert_eq!(Windows::auto(ta), Windows::auto(tb));
    // Stronger: every rendering of the full profile is byte-identical.
    let (pa, pb) = (
        ProfReport::analyze(ta, &merged_latency(&a)),
        ProfReport::analyze(tb, &merged_latency(&b)),
    );
    assert_eq!(pa.to_json(), pb.to_json());
    assert_eq!(
        trace_with_counters("x", ta, &pa),
        trace_with_counters("x", tb, &pb)
    );
    assert_eq!(pa.prom("run=\"x\""), pb.prom("run=\"x\""));
}

/// The rendered profile of a seeded 8-thread Mutex run is pinned to the
/// bytes the pre-`BlameFold` engine produced (length + FNV-1a, captured
/// at the commit before the fold landed), less the `text_report` member
/// the block no longer carries: the attribution refactor must not move a
/// single artefact byte. The traced document with a
/// 39-window counter track is pinned likewise, to the bytes the
/// `Vec<String>` exporters and `counter_events` produced.
#[test]
fn profile_json_is_byte_identical_to_the_pinned_engine() {
    let out = pinned_mutex_run();
    let t = out.timeline.as_ref().expect("timeline");
    let mut prof = ProfReport::analyze(t, &merged_latency(&out));
    assert_eq!(pin(&prof.to_json()), (24_489, 16_471_084_289_131_513_321));
    prof.windows = Windows::compute(t, 20_000);
    assert_eq!(prof.windows.rows.len(), 39);
    assert_eq!(
        pin(&trace_with_counters("mutex 8t", t, &prof)),
        (1_141_803, 12_593_400_291_721_940_783)
    );
}

/// `xtask top`'s profile view of the pinned run — the text between the
/// run's header line and its windows table — is pinned to the bytes the
/// `prof` block embedded as its `text_report` member before the view
/// moved out of the document, plus the blank line before the table.
#[test]
fn top_renders_the_profile_view_the_block_used_to_embed() {
    let out = pinned_mutex_run();
    let t = out.timeline.as_ref().expect("timeline");
    let prof = ProfReport::analyze(t, &merged_latency(&out)).to_json();
    let doc = format!(
        "{{\"id\":\"pin\",\"runs\":[{{\"label\":\"mutex\",\"threads\":8,\
         \"nodes\":2,\"prof\":{prof}}}]}}"
    );
    let top = top_report(&doc).expect("one profiled run");
    let (_header, rest) = top.split_once('\n').expect("header line");
    let table = rest.find("window_ms").expect("windows table");
    let view = rest[..table].trim_end_matches(' ');
    assert_eq!(pin(view), (1_662, 13_486_839_342_071_937_900));
}
