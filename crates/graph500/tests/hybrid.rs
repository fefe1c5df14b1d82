//! Hybrid BFS correctness over the virtual platform.

use mtmpi::prelude::*;
use mtmpi_graph500::{
    bfs_serial, generate_kronecker, hybrid_bfs_thread, validate_parents, Csr, EdgeList, HybridBfs,
};
use std::sync::{Arc, Mutex, PoisonError};

/// Run the hybrid BFS on `nodes` ranks × `threads` threads and return
/// (global parent array, stats).
fn run_hybrid(
    scale: u32,
    nodes: u32,
    threads: u32,
    method: Method,
    seed: u64,
) -> (Vec<i64>, mtmpi_graph500::HybridStats) {
    let el = generate_kronecker(scale, 16, seed);
    let root = el
        .edges
        .iter()
        .map(|&(u, _)| u)
        .next()
        .expect("non-empty graph"); // a vertex with at least one edge
    let nranks = nodes;
    let per_rank: Vec<Arc<HybridBfs>> = Csr::partition_all(&el, nranks)
        .into_iter()
        .zip(0..)
        .map(|(rows, r)| Arc::new(HybridBfs::over(Arc::new(rows), root, r, nranks, threads)))
        .collect();
    let stats_cell = Arc::new(Mutex::new(None));
    let exp = Experiment::with_seed(nodes, seed);
    let per_rank2 = per_rank.clone();
    let stats2 = stats_cell.clone();
    let out = exp.run(
        RunConfig::new(method)
            .nodes(nodes)
            .ranks_per_node(1)
            .threads_per_rank(threads),
        move |ctx| {
            let bfs = per_rank2[ctx.rank.rank() as usize].clone();
            if let Some(s) = hybrid_bfs_thread(&bfs, &ctx.rank, ctx.thread, 4) {
                *stats2.lock().unwrap_or_else(PoisonError::into_inner) = Some(s);
            }
        },
    );
    assert!(out.end_ns > 0);
    // Stitch the global parent array back together from the cyclic
    // partitions.
    let n = el.nvertices() as usize;
    let mut parent = vec![-1i64; n];
    for (r, bfs) in per_rank.iter().enumerate() {
        for (i, &p) in bfs.parents_local().iter().enumerate() {
            let g = i * nranks as usize + r;
            parent[g] = p;
        }
    }
    let stats = stats_cell
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .expect("thread 0 of rank 0 reported");
    (parent, stats)
}

#[test]
fn single_rank_single_thread_matches_serial() {
    let el = generate_kronecker(8, 16, 11);
    let root = el.edges[0].0;
    let csr = Csr::from_edges(&el);
    let serial = bfs_serial(&csr, root);
    let (parent, stats) = run_hybrid(8, 1, 1, Method::Ticket, 11);
    let reached_serial = serial.iter().filter(|&&p| p >= 0).count();
    let reached_hybrid = parent.iter().filter(|&&p| p >= 0).count();
    assert_eq!(reached_serial, reached_hybrid);
    assert_eq!(stats.reached, reached_hybrid as u64);
    validate_parents(&csr, root, &parent).expect("valid BFS tree");
}

#[test]
fn multi_rank_multi_thread_valid_tree() {
    let el = generate_kronecker(9, 16, 13);
    let root = el.edges[0].0;
    let csr = Csr::from_edges(&el);
    let (parent, stats) = run_hybrid(9, 4, 2, Method::Priority, 13);
    validate_parents(&csr, root, &parent).expect("valid BFS tree");
    assert!(stats.traversed_edges > 0);
    assert!(stats.levels >= 2);
}

#[test]
fn mutex_and_ticket_agree_on_reachability() {
    let (pa, sa) = run_hybrid(8, 2, 4, Method::Mutex, 17);
    let (pb, sb) = run_hybrid(8, 2, 4, Method::Ticket, 17);
    let ra: Vec<bool> = pa.iter().map(|&p| p >= 0).collect();
    let rb: Vec<bool> = pb.iter().map(|&p| p >= 0).collect();
    assert_eq!(ra, rb, "reachability must not depend on the lock");
    assert_eq!(sa.reached, sb.reached);
}

#[test]
fn serial_bfs_validates_itself() {
    let el = generate_kronecker(10, 16, 3);
    let csr = Csr::from_edges(&el);
    let root = el.edges[0].0;
    let p = bfs_serial(&csr, root);
    validate_parents(&csr, root, &p).expect("serial tree valid");
}

/// The triangle 0-1-2 with the tail 2-3 and the island 4-5, and the valid
/// tree from root 0 (levels 0, 1, 1, 2).
fn small_graph() -> (Csr, Vec<i64>) {
    let el = EdgeList {
        scale: 3,
        edges: vec![(0, 1), (0, 2), (1, 2), (2, 3), (4, 5)],
    };
    let csr = Csr::from_edges(&el);
    let parent = vec![0, 0, 0, 2, -1, -1, -1, -1];
    validate_parents(&csr, 0, &parent).expect("the tree to corrupt is valid");
    (csr, parent)
}

/// `validate_parents` of the small graph's tree with `parent[v] = p`.
fn corrupt(v: usize, p: i64) -> String {
    let (csr, mut parent) = small_graph();
    parent[v] = p;
    validate_parents(&csr, 0, &parent).expect_err("corrupted tree")
}

#[test]
fn validation_names_every_error_class() {
    assert_eq!(corrupt(0, 1), "root parent is 1");
    assert_eq!(corrupt(4, 5), "vertex 4 reached but unreachable");
    assert_eq!(corrupt(3, -1), "vertex 3 unreached but reachable");
    // row(3) is the shorter row both times: the child's, then the parent's.
    assert_eq!(corrupt(3, 1), "no edge 1 -> 3");
    assert_eq!(corrupt(1, 3), "no edge 3 -> 1");
    // The edge 1-2 exists, but both ends sit on level 1.
    assert_eq!(
        corrupt(2, 1),
        "level mismatch at 2: level 1 vs parent level 1"
    );
}

#[test]
fn new_partitions_for_itself() {
    // `HybridBfs::new` is partition + `over`: same rows, same run.
    let el = generate_kronecker(8, 16, 11);
    let root = el.edges[0].0;
    for (rows, r) in Csr::partition_all(&el, 3).into_iter().zip(0..) {
        let bfs = HybridBfs::new(&el, root, r, 3, 2);
        assert_eq!(bfs.csr.offsets, rows.offsets);
        assert_eq!(bfs.csr.targets, rows.targets);
        let seeded = bfs.parents_local().iter().filter(|&&p| p >= 0).count();
        assert_eq!(seeded, usize::from(root % 3 == u64::from(r)));
    }
}

#[test]
fn validation_catches_bad_parent() {
    let el = generate_kronecker(7, 16, 5);
    let csr = Csr::from_edges(&el);
    let root = el.edges[0].0;
    let mut p = bfs_serial(&csr, root);
    // Corrupt: point some reached vertex at itself.
    if let Some(v) = (0..p.len()).find(|&v| p[v] >= 0 && v as u64 != root && p[v] != v as i64) {
        p[v] = v as i64;
        assert!(validate_parents(&csr, root, &p).is_err());
    }
}
