//! Figure 10c: Graph500 BFS weak scaling, one process per node, 8
//! threads per process, all methods.
//!
//! Paper shape (scales 25-32, 16-1024 cores): close-to-2x improvement
//! for the fair locks across the sweep.
//!
//! Scaled down: 2-16 nodes, scales 15-18 (problem grows with nodes).

use mtmpi::prelude::*;
use mtmpi_bench::{print_figure_header, Fig};
use mtmpi_graph500::{generate_kronecker, hybrid_bfs_thread, Csr, HybridBfs};
use std::sync::{Arc, Mutex, PoisonError};

fn main() {
    print_figure_header(
        "Figure 10c",
        "BFS weak scaling (1 proc/node, 8 thr): ~2x for fair locks at every size",
        "nodes 2..16 with scales 15..18",
    );
    let fig = Fig::new("fig10c");
    let mut t = Table::new(&["nodes", "cores", "scale", "Mutex", "Ticket", "Priority"]);
    for (nodes, scale) in [(2u32, 15u32), (4, 16), (8, 17), (16, 18)] {
        eprintln!("[fig10c] {nodes} nodes, scale {scale} ...");
        let el = generate_kronecker(scale, 16, 0x5EED);
        let root = el.edges[0].0;
        // Partitioned once per row: the methods share the rows.
        let parts: Vec<Arc<Csr>> = Csr::partition_all(&el, nodes)
            .into_iter()
            .map(Arc::new)
            .collect();
        let mut cells = vec![
            nodes.to_string(),
            (nodes * 8).to_string(),
            scale.to_string(),
        ];
        for m in Method::PAPER_TRIO {
            let per_rank: Vec<Arc<HybridBfs>> = parts
                .iter()
                .zip(0..)
                .map(|(rows, r)| Arc::new(HybridBfs::over(rows.clone(), root, r, nodes, 8)))
                .collect();
            let stats = Arc::new(Mutex::new(None));
            let exp = fig.experiment(nodes);
            let (pr, s2) = (per_rank, stats.clone());
            let out = exp.run(
                RunConfig::new(m)
                    .nodes(nodes)
                    .ranks_per_node(1)
                    .threads_per_rank(8),
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
                .expect("reported");
            cells.push(format!(
                "{:.1}",
                st.traversed_edges as f64 / out.end_ns as f64 * 1e3
            ));
        }
        t.row(cells);
    }
    print!("{}", t.render());
    println!("\n(units: MTEPS)");
    fig.finish();
}
