//! Figures 11a and 11b: 3D stencil strong scaling — GFlops vs problem
//! size per core, all methods — and the Mutex runs' execution-time
//! breakdown (MPI / computation / thread sync) per problem size.
//!
//! Paper shape (64 nodes x 8 threads): fair locks help only for small
//! problems (<= ~1 MB/core) where communication matters; all methods
//! converge for big problems (compute-dominated). The MPI share shrinks
//! as the problem grows — beyond ~1 MB/core computation dominates,
//! which is why the lock choice stops mattering.
//!
//! Scaled down: 8 nodes x 8 threads, five problem sizes.

use mtmpi::prelude::*;
use mtmpi_bench::{print_figure_header, Fig};
use mtmpi_stencil::{stencil_thread, PhaseStats, RankStencil, StencilConfig};
use std::sync::{Arc, Mutex, PoisonError};

fn gflops(fig: &Fig, method: Method, cfg: &StencilConfig, nodes: u32) -> (f64, PhaseStats) {
    let per_rank: Vec<Arc<RankStencil>> = (0..cfg.nranks())
        .map(|r| Arc::new(RankStencil::new(cfg, r)))
        .collect();
    let stats = Arc::new(Mutex::new(PhaseStats::default()));
    let exp = fig.experiment(nodes);
    let (pr, s2) = (per_rank, stats.clone());
    let out = exp.run(
        RunConfig::new(method)
            .nodes(nodes)
            .ranks_per_node(cfg.nranks() / nodes)
            .threads_per_rank(cfg.threads),
        move |ctx| {
            let st = pr[ctx.rank.rank() as usize].clone();
            if let Some(ps) = stencil_thread(&st, &ctx.rank, ctx.thread) {
                s2.lock().unwrap_or_else(PoisonError::into_inner).merge(&ps);
            }
        },
    );
    let s = *stats.lock().unwrap_or_else(PoisonError::into_inner);
    (cfg.total_flops() as f64 / out.end_ns as f64, s)
}

fn main() {
    print_figure_header(
        "Figure 11a",
        "stencil GFlops vs problem/core: fair locks win only <=1MB/core; converge beyond",
        "8 nodes x 8 threads (paper: 64 nodes), global cube sweep",
    );
    let nodes = 8u32;
    let fig = Fig::new("fig11a");
    let mut t = Table::new(&["bytes_per_core", "Mutex", "Ticket", "Priority"]);
    let mut breakdown = Table::new(&["global", "MPI_%", "Computation_%", "OMP_Sync_%"]);
    // Global cubes: per-core cells = g^3/64 ranks... ranks=8 nodes x1, 8 thr.
    for g in [16usize, 32, 64, 96, 160] {
        eprintln!("[fig11a] global {g}^3 ...");
        let cfg = StencilConfig {
            global: (g, g, g),
            pgrid: (2, 2, 2),
            iters: 4,
            threads: 8,
            cell_ns: 3,
        };
        let cells_per_core = (g * g * g) as f64 / f64::from(nodes * 8);
        let mut cells = vec![format!("{:.0}", cells_per_core * 8.0)];
        for m in Method::PAPER_TRIO {
            let (gf, s) = gflops(&fig, m, &cfg, nodes);
            cells.push(format!("{gf:.2}"));
            if m == Method::Mutex {
                let total = s.total_ns().max(1) as f64;
                breakdown.row(vec![
                    format!("{g}^3"),
                    format!("{:.1}", 100.0 * s.mpi_ns as f64 / total),
                    format!("{:.1}", 100.0 * s.compute_ns as f64 / total),
                    format!("{:.1}", 100.0 * s.sync_ns as f64 / total),
                ]);
            }
        }
        t.row(cells);
    }
    print!("{}", t.render());
    println!("\n(units: GFlops; paper: gap at small sizes only)\n");
    print_figure_header(
        "Figure 11b",
        "stencil time breakdown: MPI share shrinks with problem size",
        "the Mutex runs above",
    );
    print!("{}", breakdown.render());
    fig.finish();
}
