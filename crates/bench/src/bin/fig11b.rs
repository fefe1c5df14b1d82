//! Figure 11b: 3D stencil execution-time breakdown (MPI / computation /
//! thread sync) per problem size.
//!
//! Paper shape: the MPI share shrinks as the problem grows — beyond
//! ~1 MB/core computation dominates, explaining why the lock choice
//! stops mattering in Fig 11a.

use mtmpi::prelude::*;
use mtmpi_bench::{print_figure_header, Fig};
use mtmpi_stencil::{stencil_thread, PhaseStats, RankStencil, StencilConfig};
use std::sync::{Arc, Mutex, PoisonError};

fn main() {
    print_figure_header(
        "Figure 11b",
        "stencil time breakdown: MPI share shrinks with problem size",
        "mutex method, 8 nodes x 8 threads",
    );
    let nodes = 8u32;
    let fig = Fig::new("fig11b");
    let mut t = Table::new(&["global", "MPI_%", "Computation_%", "OMP_Sync_%"]);
    for g in [16usize, 32, 64, 96, 160] {
        eprintln!("[fig11b] global {g}^3 ...");
        let cfg = StencilConfig {
            global: (g, g, g),
            pgrid: (2, 2, 2),
            iters: 4,
            threads: 8,
            cell_ns: 3,
        };
        let per_rank: Vec<Arc<RankStencil>> = (0..cfg.nranks())
            .map(|r| Arc::new(RankStencil::new(&cfg, r)))
            .collect();
        let stats = Arc::new(Mutex::new(PhaseStats::default()));
        let exp = fig.experiment(nodes);
        let (pr, s2) = (per_rank, stats.clone());
        exp.run(
            RunConfig::new(Method::Mutex)
                .nodes(nodes)
                .ranks_per_node(1)
                .threads_per_rank(cfg.threads),
            move |ctx| {
                let st = pr[ctx.rank.rank() as usize].clone();
                if let Some(ps) = stencil_thread(&st, &ctx.rank, ctx.thread) {
                    s2.lock().unwrap_or_else(PoisonError::into_inner).merge(&ps);
                }
            },
        );
        let s = *stats.lock().unwrap_or_else(PoisonError::into_inner);
        let total = s.total_ns().max(1) as f64;
        t.row(vec![
            format!("{g}^3"),
            format!("{:.1}", 100.0 * s.mpi_ns as f64 / total),
            format!("{:.1}", 100.0 * s.compute_ns as f64 / total),
            format!("{:.1}", 100.0 * s.sync_ns as f64 / total),
        ]);
    }
    print!("{}", t.render());
    fig.finish();
}
