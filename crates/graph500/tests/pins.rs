//! Executable pins on the BFS path: the generator's edge stream and the
//! kernel's virtual-time outputs, cut from the build before PR 21 touched
//! either. `fig10a/b/c` have no baseline, so these are what notices a
//! moved RNG draw, push order or flush point.

use mtmpi::prelude::*;
use mtmpi_graph500::{
    generate_kronecker, hybrid_bfs_thread, Csr, EdgeList, HybridBfs, HybridStats,
};
use std::sync::{Mutex, PoisonError};

/// FNV-1a 64 over the little-endian bytes of every `(u, v)`.
fn fnv1a(el: &EdgeList) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(u, v) in &el.edges {
        for b in u.to_le_bytes().into_iter().chain(v.to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn kronecker_edge_stream_is_pinned() {
    assert_eq!(
        fnv1a(&generate_kronecker(10, 16, 42)),
        0x7c02_cd52_fe41_b1cd
    );
    assert_eq!(
        fnv1a(&generate_kronecker(12, 16, 0x5EED)),
        0x273a_2f38_6373_bc27
    );
}

/// `[events, end_ns, sched_trace_hash, traversed_edges, levels, reached]`
/// of one scale-10 traversal, under the figures' per-edge cost split.
fn run(nodes: u32, threads: u32, method: Method) -> [u64; 6] {
    let el = generate_kronecker(10, 16, 42);
    let root = el.edges[0].0;
    let per_rank: Vec<HybridBfs> = Csr::partition_all(&el, nodes)
        .into_iter()
        .zip(0..)
        .map(|(rows, r)| HybridBfs::over(Arc::new(rows), root, r, nodes, threads))
        .collect();
    let stats: Arc<Mutex<Option<HybridStats>>> = Arc::default();
    let s2 = stats.clone();
    let out = Experiment::with_seed(nodes, 42).run(
        RunConfig::new(method)
            .nodes(nodes)
            .ranks_per_node(1)
            .threads_per_rank(threads),
        move |ctx| {
            let bfs = &per_rank[ctx.rank.rank() as usize];
            let edge_ns = if ctx.thread >= 4 { 5 } else { 4 };
            if let Some(s) = hybrid_bfs_thread(bfs, &ctx.rank, ctx.thread, edge_ns) {
                *s2.lock().unwrap_or_else(PoisonError::into_inner) = Some(s);
            }
        },
    );
    let st = stats
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .expect("thread 0 reports");
    [
        out.report.events,
        out.end_ns,
        out.report.sched_trace_hash,
        st.traversed_edges,
        u64::from(st.levels),
        st.reached,
    ]
}

#[test]
fn four_ranks_by_four_threads_are_pinned() {
    // Mid-chunk flushes happen here: raising `FLUSH_PAIRS` moves all three.
    let fair = [0x15b9, 0x490df, 0x989f_a5d0_9c60_3ccc, 0x7ec4, 5, 0x373];
    assert_eq!(
        run(4, 4, Method::Mutex),
        [0x1da7, 0x5440d, 0x6ebb_b164_ac44_de47, 0x7ec4, 5, 0x373]
    );
    assert_eq!(run(4, 4, Method::Ticket), fair);
    // Every thread polls with `test`, so all stay on the main path and
    // Priority arbitrates exactly as Ticket does.
    assert_eq!(run(4, 4, Method::Priority), fair);
}

#[test]
fn one_rank_by_eight_threads_is_pinned() {
    assert_eq!(
        run(1, 8, Method::Ticket),
        [0x1b6, 0x34797, 0x1bbb_89e8_1da7_d716, 0x7ec4, 5, 0x373]
    );
}
