//! Figure 10b: Graph500 BFS thread scaling with 16 processes, compact
//! binding, all methods.
//!
//! Paper shape (scale 28): fair locks give speedups up to 4
//! threads/node; mutex shows none ("the unfair arbitration generates
//! contention and consequently wastes the speedup of the parallel
//! computation"); at 8 threads (both sockets) all methods dip, but
//! fair locks avoid slowdowns below single-thread.
//!
//! Scaled down: scale 18, 8 processes.

use mtmpi::prelude::*;
use mtmpi_bench::{print_figure_header, Fig};
use mtmpi_graph500::{generate_kronecker, hybrid_bfs_thread, Csr, HybridBfs};
use std::sync::{Arc, Mutex, PoisonError};

/// One run over `parts` (a rank's rows each), which no run writes.
fn mteps(fig: &Fig, method: Method, parts: &[Arc<Csr>], root: u64, threads: u32) -> f64 {
    let nprocs = parts.len() as u32;
    let per_rank: Vec<Arc<HybridBfs>> = parts
        .iter()
        .zip(0..)
        .map(|(rows, r)| Arc::new(HybridBfs::over(rows.clone(), root, r, nprocs, threads)))
        .collect();
    let stats = Arc::new(Mutex::new(None));
    let exp = fig.experiment(nprocs);
    let (pr, s2) = (per_rank, stats.clone());
    let out = exp.run(
        RunConfig::new(method)
            .nodes(nprocs)
            .ranks_per_node(1)
            .threads_per_rank(threads),
        move |ctx| {
            let bfs = pr[ctx.rank.rank() as usize].clone();
            let edge_ns = if ctx.thread >= 4 { 5 } else { 4 };
            if let Some(s) = hybrid_bfs_thread(&bfs, &ctx.rank, ctx.thread, edge_ns) {
                *s2.lock().unwrap_or_else(PoisonError::into_inner) = Some(s);
            }
        },
    );
    let st = stats
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .expect("rank0 thread0 reports");
    st.traversed_edges as f64 / out.end_ns as f64 * 1e3
}

fn main() {
    print_figure_header(
        "Figure 10b",
        "BFS MTEPS vs threads/node (16 procs, scale 28, compact): fair locks speed up, mutex flat",
        "8 procs, scale 18; same thread sweep",
    );
    let el = generate_kronecker(18, 16, 0x5EED);
    let root = el.edges[0].0;
    // Partitioned once: the rows depend on neither method nor threads.
    let parts: Vec<Arc<Csr>> = Csr::partition_all(&el, 8)
        .into_iter()
        .map(Arc::new)
        .collect();
    let fig = Fig::new("fig10b");
    let mut t = Table::new(&["threads", "Mutex", "Ticket", "Priority"]);
    for threads in [1u32, 2, 4, 8] {
        eprintln!("[fig10b] {threads} threads ...");
        let row: Vec<String> = Method::PAPER_TRIO
            .iter()
            .map(|&m| format!("{:.1}", mteps(&fig, m, &parts, root, threads)))
            .collect();
        let mut cells = vec![threads.to_string()];
        cells.extend(row);
        t.row(cells);
    }
    print!("{}", t.render());
    println!("\n(units: MTEPS; paper shows fair locks scaling to 4 threads, mutex not)");
    fig.finish();
}
