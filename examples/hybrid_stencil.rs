//! Hybrid MPI+threads 3D stencil demo: runs the heat-equation kernel on
//! the virtual platform for every method, validates against the serial
//! reference, and prints the Fig 11b-style time breakdown.
//!
//! ```text
//! cargo run -p mtmpi-examples --release --bin hybrid_stencil
//! ```

use mtmpi::prelude::*;
use mtmpi_stencil::{assemble_global, stencil_serial, stencil_thread, RankStencil, StencilConfig};
use std::sync::{Arc, Mutex, PoisonError};

fn main() {
    let cfg = StencilConfig {
        global: (32, 32, 32),
        pgrid: (2, 2, 2),
        iters: 10,
        threads: 4,
        cell_ns: 3,
    };
    println!(
        "3D 7-point stencil: {:?} cells, {:?} process grid, {} threads/rank, {} iterations\n",
        cfg.global, cfg.pgrid, cfg.threads, cfg.iters
    );
    let reference = stencil_serial(cfg.global, cfg.iters);
    for method in Method::PAPER_TRIO {
        let per_rank: Vec<Arc<RankStencil>> = (0..cfg.nranks())
            .map(|r| Arc::new(RankStencil::new(&cfg, r)))
            .collect();
        let stats = Arc::new(Mutex::new(mtmpi_stencil::PhaseStats::default()));
        let exp = Experiment::quick(8);
        let (pr, st) = (per_rank.clone(), stats.clone());
        let threads = cfg.threads;
        let out = exp.run(
            RunConfig::new(method)
                .nodes(8)
                .ranks_per_node(1)
                .threads_per_rank(threads),
            move |ctx| {
                let s = pr[ctx.rank.rank() as usize].clone();
                if let Some(ps) = stencil_thread(&s, &ctx.rank, ctx.thread) {
                    st.lock().unwrap_or_else(PoisonError::into_inner).merge(&ps);
                }
            },
        );
        let got = assemble_global(&cfg, &per_rank);
        let err = got
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(err < 1e-12, "numerical mismatch {err}");
        let s = *stats.lock().unwrap_or_else(PoisonError::into_inner);
        let total = s.total_ns().max(1) as f64;
        let gflops = cfg.total_flops() as f64 / out.end_ns as f64; // flops/ns = Gflops
        println!(
            "{:>8}: {:>7.2} ms, {:>6.2} GFlops | breakdown: MPI {:>4.1}%  compute {:>4.1}%  sync {:>4.1}%  (validated ✓)",
            method.label(),
            out.end_ns as f64 / 1e6,
            gflops,
            100.0 * s.mpi_ns as f64 / total,
            100.0 * s.compute_ns as f64 / total,
            100.0 * s.sync_ns as f64 / total,
        );
    }
}
