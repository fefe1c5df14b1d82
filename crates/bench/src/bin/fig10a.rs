//! Figure 10a: Graph500 BFS single-node thread scaling.
//!
//! Paper shape (scale 24, no MPI processes): linear speedup to 4
//! threads; ~10% efficiency loss at 8 threads (cross-socket memory
//! traffic; the implementation is not socket-aware).
//!
//! Scaled down: scale 17 (paper 24) to bound host time; behaviour per
//! core is unchanged.

use mtmpi::prelude::*;
use mtmpi_bench::{print_figure_header, Fig};
use mtmpi_graph500::{generate_kronecker, hybrid_bfs_thread, Csr, HybridBfs};
use std::sync::{Arc, Mutex, PoisonError};

fn main() {
    print_figure_header(
        "Figure 10a",
        "BFS MTEPS vs threads, single node: linear to 4, -10% efficiency at 8",
        "scale 17 Kronecker graph (paper: 24), 1 rank, thread sweep; threads on the remote socket pay 1.25x per edge",
    );
    let scale = 17;
    let el = generate_kronecker(scale, 16, 0x5EED);
    let root = el.edges[0].0;
    // One rank owns every row; all four runs read the same ones.
    let rows = Arc::new(Csr::from_edges(&el));
    let mut fig = Fig::new("fig10a");
    let mut t = Table::new(&["threads", "MTEPS", "speedup", "efficiency_%"]);
    let mut base = 0.0f64;
    let mut s = Series::new("MTEPS");
    for threads in [1u32, 2, 4, 8] {
        eprintln!("[fig10a] {threads} threads ...");
        let exp = fig.experiment(1);
        let bfs = Arc::new(HybridBfs::over(rows.clone(), root, 0, 1, threads));
        let stats = Arc::new(Mutex::new(None));
        let (b2, s2) = (bfs.clone(), stats.clone());
        let out = exp.run(
            RunConfig::new(Method::Ticket)
                .nodes(1)
                .ranks_per_node(1)
                .threads_per_rank(threads),
            move |ctx| {
                // Threads 4..7 sit on socket 1 under compact binding:
                // remote memory for the graph (allocated by socket 0).
                let edge_ns = if ctx.thread >= 4 { 5 } else { 4 };
                if let Some(s) = hybrid_bfs_thread(&b2, &ctx.rank, ctx.thread, edge_ns) {
                    *s2.lock().unwrap_or_else(PoisonError::into_inner) = Some(s);
                }
            },
        );
        let st = stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .expect("thread 0 reports");
        let mteps = st.traversed_edges as f64 / out.end_ns as f64 * 1e3;
        if threads == 1 {
            base = mteps;
        }
        t.row(vec![
            threads.to_string(),
            format!("{mteps:.1}"),
            format!("{:.2}", mteps / base),
            format!("{:.0}", 100.0 * mteps / base / f64::from(threads)),
        ]);
        s.push(f64::from(threads), mteps);
    }
    print!("{}", t.render());
    println!("\n(paper: efficiency ~100% to 4 threads, ~90% at 8)");
    fig.series(&s);
    fig.finish();
}
