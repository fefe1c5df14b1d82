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

/// Edge lists that surely hold duplicates, a self-loop and isolated
/// vertices: random edges among the lower half of the ids (the upper
/// half stays isolated), every third of them listed again, and a loop.
fn messy_edge_list() -> impl Strategy<Value = EdgeList> {
    (3u32..8).prop_flat_map(|scale| {
        let half = 1u64 << (scale - 1);
        (
            proptest::collection::vec((0..half, 0..half), 1..200),
            0..half,
        )
            .prop_map(move |(mut edges, x)| {
                let again: Vec<_> = edges.iter().step_by(3).copied().collect();
                edges.extend(again);
                edges.push((x, x));
                EdgeList { scale, edges }
            })
    })
}

/// Every part's `(offsets, targets)` built one arc at a time, sharing no
/// code with `Csr`: scan the list in order and append both directions of
/// each edge that is not a self-loop to row `v / nranks` of part
/// `v % nranks`.
fn naive_parts(el: &EdgeList, nranks: u32) -> Vec<(Vec<u64>, Vec<u32>)> {
    let (n, nr) = (el.nvertices(), u64::from(nranks));
    let mut parts: Vec<Vec<Vec<u32>>> = (0..nr)
        .map(|r| vec![Vec::new(); (n.saturating_sub(r)).div_ceil(nr) as usize])
        .collect();
    for &(u, v) in &el.edges {
        if u != v {
            for (from, to) in [(u, v), (v, u)] {
                parts[(from % nr) as usize][(from / nr) as usize].push(to as u32);
            }
        }
    }
    parts
        .into_iter()
        .map(|rows| {
            let mut offsets = vec![0u64];
            for row in &rows {
                offsets.push(offsets[offsets.len() - 1] + row.len() as u64);
            }
            (offsets, rows.concat())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// `partition_all` lays out exactly the rows the naive oracle builds,
    /// neighbour order included, for every rank count the figures use.
    #[test]
    fn partition_matches_naive_oracle(el in messy_edge_list()) {
        for nranks in [1u32, 2, 3, 5, 8] {
            let parts = Csr::partition_all(&el, nranks);
            let oracle = naive_parts(&el, nranks);
            prop_assert_eq!(parts.len(), oracle.len());
            for (r, (part, (offsets, targets))) in parts.iter().zip(&oracle).enumerate() {
                prop_assert_eq!(&part.offsets, offsets, "offsets of part {} of {}", r, nranks);
                prop_assert_eq!(&part.targets, targets, "targets of part {} of {}", r, nranks);
            }
        }
    }

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
