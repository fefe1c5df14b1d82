//! `bfs_compute` — Graph500 hybrid BFS on one rank (the fig10a shape,
//! recorder off), parents validated after every traversal.
//!
//! Why: the worker bodies scan edges between synchronisation points, so
//! host time is dominated by compute inside simulated threads — the
//! workload that bypasses the scheduler hand-off and the recorder. A
//! hand-off or recorder optimisation should not move it.

use super::{drive, Outcome, Pass, Trace, Workload};
use crate::span::self_total;
use mtmpi::prelude::*;
use mtmpi_graph500::{
    generate_kronecker, hybrid_bfs_thread, validate_parents, Csr, EdgeList, HybridBfs, HybridStats,
};
use std::sync::Mutex;

/// Kronecker scale (2^SCALE vertices) and edge factor.
pub const SCALE: u32 = 16;
pub const EDGE_FACTOR: u64 = 16;
/// Threads per rank, alternating over the roots (fig10a's upper half).
pub const THREADS: [u32; 2] = [4, 8];
/// Traversals per iteration, each from its own root. Host time per edge
/// depends on the root (frontier shape, level count) by ±4 % on one
/// graph; four roots keep that out of the seed-to-seed spread.
pub const ROOTS: usize = 4;

pub struct BfsCompute {
    seed: u64,
    el: EdgeList,
    /// Sources of [`ROOTS`] edges spaced evenly through the edge list.
    roots: [u64; ROOTS],
    /// The whole graph, for `validate_parents`.
    csr: Csr,
}

impl Workload for BfsCompute {
    const NAME: &'static str = "bfs_compute";

    fn setup(seed: u64, trace: &mut Trace) -> Self {
        let el = trace.spans.scope("graph500.generate", |_| {
            generate_kronecker(SCALE, EDGE_FACTOR, seed)
        });
        let roots = std::array::from_fn(|i| el.edges[i * el.edges.len() / ROOTS].0);
        let csr = Csr::from_edges(&el);
        Self {
            seed,
            el,
            roots,
            csr,
        }
    }

    fn iterate(&mut self, trace: &mut Trace) -> Outcome {
        let mut out = Outcome {
            ok: true,
            ..Outcome::default()
        };
        for (i, &root) in self.roots.iter().enumerate() {
            let threads = THREADS[i % THREADS.len()];
            let bfs = trace.spans.scope("graph500.partition", |_| {
                Arc::new(HybridBfs::new(&self.el, root, 0, 1, threads))
            });
            trace.laps.lap();
            let stats: Arc<Mutex<Option<HybridStats>>> = Arc::default();
            let (b2, s2) = (bfs.clone(), stats.clone());
            let run = drive(
                &Experiment::with_seed(1, self.seed),
                RunConfig::new(Method::Ticket)
                    .nodes(1)
                    .ranks_per_node(1)
                    .threads_per_rank(threads),
                move |ctx| {
                    // fig10a's cost split: threads 4..7 sit on the
                    // remote socket from the graph's memory.
                    let edge_ns = if ctx.thread >= 4 { 5 } else { 4 };
                    if let Some(s) = hybrid_bfs_thread(&b2, &ctx.rank, ctx.thread, edge_ns) {
                        *s2.lock().expect("stats lock") = Some(s);
                    }
                },
                trace,
            );
            trace.laps.lap();
            let st = stats
                .lock()
                .expect("stats lock")
                .expect("thread 0 reports the traversal");
            let valid = trace.spans.scope("graph500.validate", |_| {
                validate_parents(&self.csr, root, &bfs.parents_local())
            });
            trace.laps.lap();
            out.ok &= valid.is_ok();
            out.ops += st.traversed_edges;
            out.digest.extend([
                run.report.events,
                run.end_ns,
                run.report.sched_trace_hash,
                st.traversed_edges,
                u64::from(st.levels),
                st.reached,
            ]);
        }
        out
    }

    fn ledger(&mut self, pass: &Pass, out: &mut Vec<(&'static str, f64)>) {
        let spans = pass.trace.spans.spans();
        let edges = pass.traced.ops as f64;
        out.extend([
            (
                "graph500.generate_s",
                self_total(spans, "graph500.generate") / 1e9,
            ),
            ("graph500.host_mteps", edges / 1e6 / pass.plain_wall_s),
            (
                "graph500.sync_events_per_kedge",
                pass.trace.counts.events as f64 / (edges / 1e3),
            ),
        ]);
    }
}
