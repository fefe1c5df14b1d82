//! Distributed stencil vs serial reference.

use mtmpi::prelude::*;
use mtmpi_stencil::{assemble_global, stencil_serial, stencil_thread, RankStencil, StencilConfig};
use std::sync::{Arc, Mutex, PoisonError};

fn run_distributed(cfg: &StencilConfig, method: Method, nodes: u32, seed: u64) -> Vec<f64> {
    let per_rank: Vec<Arc<RankStencil>> = (0..cfg.nranks())
        .map(|r| Arc::new(RankStencil::new(cfg, r)))
        .collect();
    let exp = Experiment::with_seed(nodes, seed);
    let ranks_per_node = cfg.nranks() / nodes;
    let pr = per_rank.clone();
    let out = exp.run(
        RunConfig::new(method)
            .nodes(nodes)
            .ranks_per_node(ranks_per_node)
            .threads_per_rank(cfg.threads),
        move |ctx| {
            let st = pr[ctx.rank.rank() as usize].clone();
            let _ = stencil_thread(&st, &ctx.rank, ctx.thread);
        },
    );
    assert!(out.end_ns > 0);
    assemble_global(cfg, &per_rank)
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn two_by_one_by_one_matches_serial() {
    let cfg = StencilConfig {
        global: (8, 6, 6),
        pgrid: (2, 1, 1),
        iters: 4,
        threads: 2,
        cell_ns: 2,
    };
    let got = run_distributed(&cfg, Method::Ticket, 2, 1);
    let want = stencil_serial(cfg.global, cfg.iters);
    assert!(
        max_abs_diff(&got, &want) < 1e-12,
        "distributed must equal serial"
    );
}

#[test]
fn full_3d_grid_matches_serial() {
    let cfg = StencilConfig {
        global: (8, 8, 8),
        pgrid: (2, 2, 2),
        iters: 5,
        threads: 2,
        cell_ns: 2,
    };
    let got = run_distributed(&cfg, Method::Priority, 8, 2);
    let want = stencil_serial(cfg.global, cfg.iters);
    assert!(max_abs_diff(&got, &want) < 1e-12);
}

#[test]
fn lock_method_does_not_change_numerics() {
    let cfg = StencilConfig {
        global: (6, 6, 8),
        pgrid: (1, 1, 2),
        iters: 3,
        threads: 4,
        cell_ns: 2,
    };
    let a = run_distributed(&cfg, Method::Mutex, 2, 3);
    let b = run_distributed(&cfg, Method::Ticket, 2, 3);
    assert!(max_abs_diff(&a, &b) < 1e-15);
}

#[test]
fn single_rank_many_threads() {
    let cfg = StencilConfig {
        global: (6, 6, 12),
        pgrid: (1, 1, 1),
        iters: 6,
        threads: 5, // uneven slabs: 12 cells over 5 threads
        cell_ns: 2,
    };
    let got = run_distributed(&cfg, Method::Ticket, 1, 4);
    let want = stencil_serial(cfg.global, cfg.iters);
    assert!(max_abs_diff(&got, &want) < 1e-12);
}

#[test]
fn phase_stats_cover_time() {
    let cfg = StencilConfig {
        global: (8, 8, 8),
        pgrid: (2, 1, 1),
        iters: 3,
        threads: 2,
        cell_ns: 2,
    };
    let per_rank: Vec<Arc<RankStencil>> = (0..cfg.nranks())
        .map(|r| Arc::new(RankStencil::new(&cfg, r)))
        .collect();
    let stats = Arc::new(Mutex::new(Vec::new()));
    let exp = Experiment::with_seed(2, 5);
    let (pr, st2) = (per_rank.clone(), stats.clone());
    exp.run(
        RunConfig::new(Method::Ticket)
            .nodes(2)
            .ranks_per_node(1)
            .threads_per_rank(cfg.threads),
        move |ctx| {
            let st = pr[ctx.rank.rank() as usize].clone();
            if let Some(s) = stencil_thread(&st, &ctx.rank, ctx.thread) {
                st2.lock().unwrap_or_else(PoisonError::into_inner).push(s);
            }
        },
    );
    let stats = stats.lock().unwrap_or_else(PoisonError::into_inner);
    assert_eq!(stats.len(), 2, "one report per rank");
    for s in stats.iter() {
        assert!(s.compute_ns > 0, "compute time accounted");
        assert!(s.mpi_ns > 0, "MPI time accounted");
        assert!(s.total_ns() > 0);
    }
}
