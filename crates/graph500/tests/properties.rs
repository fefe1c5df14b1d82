//! Property tests of the graph substrate.

use mtmpi_graph500::{bfs_serial, generate_kronecker, validate_parents, Csr, EdgeList};
use proptest::prelude::*;

fn arbitrary_edge_list() -> impl Strategy<Value = EdgeList> {
    (3u32..8).prop_flat_map(|scale| {
        let n = 1u64 << scale;
        proptest::collection::vec((0..n, 0..n), 1..300)
            .prop_map(move |edges| EdgeList { scale, edges })
    })
}

/// Adjacency rows straight from the definition: both directions of
/// every edge that is not a self-loop, in list order.
fn naive_rows(el: &EdgeList) -> Vec<Vec<u32>> {
    let mut rows = vec![Vec::new(); el.nvertices() as usize];
    for &(u, v) in el.edges.iter().filter(|(u, v)| u != v) {
        rows[u as usize].push(v as u32);
        rows[v as usize].push(u as u32);
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The cyclic partition is a partition: part `r` of `nranks` holds
    /// exactly the rows of vertices `r, r + nranks, …`, each as the edge
    /// list spells it, and the one-rank projection is that same part.
    #[test]
    fn partition_is_exact(el in arbitrary_edge_list(), nranks in 1u32..6) {
        let rows = naive_rows(&el);
        let parts = Csr::partition_all(&el, nranks);
        prop_assert_eq!(parts.len(), nranks as usize);
        let mut covered = 0usize;
        for (r, part) in parts.iter().enumerate() {
            for i in 0..part.nrows() {
                let g = i * nranks as usize + r;
                prop_assert_eq!(part.row(i), &rows[g][..], "vertex {}", g);
                covered += 1;
            }
            let alone = Csr::partition_cyclic(&el, r as u32, nranks);
            prop_assert_eq!(&alone.offsets, &part.offsets);
            prop_assert_eq!(&alone.targets, &part.targets);
        }
        prop_assert_eq!(covered, rows.len());
        let full = Csr::from_edges(&el);
        prop_assert_eq!(&full.targets, &rows.concat());
    }

    /// CSR symmetry: u appears in row(v) as many times as v in row(u) —
    /// what lets `validate_parents` look an edge up from either end.
    #[test]
    fn csr_symmetric(el in arbitrary_edge_list()) {
        let c = Csr::from_edges(&el);
        for u in 0..c.nrows() {
            for &v in c.row(u) {
                let fwd = c.row(u).iter().filter(|&&x| x == v).count();
                let back = c.row(v as usize).iter().filter(|&&x| x == u as u32).count();
                prop_assert_eq!(fwd, back, "asymmetry {}<->{}", u, v);
            }
        }
    }

    /// Serial BFS trees always validate, from any root with an edge.
    #[test]
    fn serial_bfs_always_valid(el in arbitrary_edge_list(), root_pick in any::<prop::sample::Index>()) {
        let c = Csr::from_edges(&el);
        if el.edges.is_empty() {
            return Ok(());
        }
        let (u, v) = el.edges[root_pick.index(el.edges.len())];
        let root = if u != v { u } else { v };
        let parents = bfs_serial(&c, root);
        prop_assert!(validate_parents(&c, root, &parents).is_ok());
    }

    /// BFS reaches exactly the connected component of the root.
    #[test]
    fn bfs_reaches_component(el in arbitrary_edge_list()) {
        let c = Csr::from_edges(&el);
        if el.edges.is_empty() {
            return Ok(());
        }
        let root = el.edges[0].0;
        let parents = bfs_serial(&c, root);
        // Reached set is closed under adjacency.
        for v in 0..c.nrows() {
            if parents[v] >= 0 {
                for &w in c.row(v) {
                    prop_assert!(parents[w as usize] >= 0, "{} reached but neighbour {} not", v, w);
                }
            }
        }
    }

    /// Kronecker generation is a pure function of (scale, factor, seed).
    #[test]
    fn kronecker_deterministic(scale in 4u32..9, seed in 0u64..50) {
        let a = generate_kronecker(scale, 4, seed);
        let b = generate_kronecker(scale, 4, seed);
        prop_assert_eq!(a.edges, b.edges);
    }
}
