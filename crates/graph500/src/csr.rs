//! Compressed-sparse-row adjacency.

use crate::kronecker::EdgeList;

/// CSR over `u32` vertex ids (scales ≤ 31 supported, far beyond what the
/// host-feasible experiments use).
#[derive(Debug, Clone)]
pub struct Csr {
    /// Row offsets, length `nrows + 1`.
    pub offsets: Vec<u64>,
    /// Column indices (neighbours).
    pub targets: Vec<u32>,
}

/// A fill cursor packs where a vertex's next neighbour goes: the owning
/// part above `SLOT_BITS`, the free slot in that part's `targets` below.
const SLOT_BITS: u32 = 40;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// Both directions of every edge that is not a self-loop, in list order.
fn for_each_arc(el: &EdgeList, mut f: impl FnMut(usize, usize)) {
    for &(u, v) in &el.edges {
        if u != v {
            f(u as usize, v as usize);
            f(v as usize, u as usize);
        }
    }
}

impl Csr {
    /// Build a symmetric CSR from an edge list (each undirected edge
    /// appears in both adjacency rows; self-loops dropped, duplicates
    /// kept, as the Graph500 reference kernels tolerate them). Symmetric
    /// means `row(u)` holds `v` exactly as often as `row(v)` holds `u`.
    pub fn from_edges(el: &EdgeList) -> Self {
        Self::partition_cyclic(el, 0, 1)
    }

    /// Rows of every rank under cyclic ownership `owner(v) = v mod
    /// nranks`: row `i` of part `r` holds the neighbours of global vertex
    /// `i * nranks + r`, in edge-list order. Two passes over the edge
    /// list (degree, fill) whatever `nranks` is, neither of which divides.
    pub fn partition_all(el: &EdgeList, nranks: u32) -> Vec<Self> {
        assert!(el.scale <= 31, "vertex ids must fit u32");
        assert!(2 * el.edges.len() as u64 <= SLOT_MASK, "too many edges");
        let n = el.nvertices() as usize;
        // Degree of every vertex, by global id.
        let mut cursor = vec![0u64; n];
        for_each_arc(el, |from, _| cursor[from] += 1);
        // Rank r owns vertices r, r + nranks, …: lay its rows out, and
        // turn each vertex's degree into its fill cursor.
        let mut parts: Vec<Self> = (0..nranks as usize)
            .map(|r| {
                let mut offsets = Vec::with_capacity(n / nranks as usize + 2);
                let mut end = 0u64;
                offsets.push(end);
                for v in (r..n).step_by(nranks as usize) {
                    let degree = std::mem::replace(&mut cursor[v], (r as u64) << SLOT_BITS | end);
                    end += degree;
                    offsets.push(end);
                }
                Self {
                    offsets,
                    targets: vec![0; end as usize],
                }
            })
            .collect();
        for_each_arc(el, |from, to| {
            let at = cursor[from];
            parts[(at >> SLOT_BITS) as usize].targets[(at & SLOT_MASK) as usize] = to as u32;
            cursor[from] = at + 1;
        });
        parts
    }

    /// The rows owned by `rank` alone: `partition_all(el, nranks)[rank]`,
    /// at the cost of building them all. A world that wants every rank's
    /// rows calls `partition_all` once.
    pub fn partition_cyclic(el: &EdgeList, rank: u32, nranks: u32) -> Self {
        Self::partition_all(el, nranks).swap_remove(rank as usize)
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Neighbours of row `i`.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Total directed edges stored.
    pub fn nnz(&self) -> u64 {
        self.targets.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> EdgeList {
        // 0-1, 0-2, 1-3, 2-3, 3-3 (self loop dropped)
        EdgeList {
            scale: 2,
            edges: vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 3)],
        }
    }

    #[test]
    fn symmetric_adjacency() {
        let c = Csr::from_edges(&tiny());
        assert_eq!(c.nrows(), 4);
        assert_eq!(c.row(0), &[1, 2]);
        assert_eq!(c.row(3), &[1, 2]);
        assert_eq!(c.nnz(), 8);
    }

    #[test]
    fn partition_covers_all_rows() {
        let el = tiny();
        let full = Csr::from_edges(&el);
        let nranks = 3u32;
        let mut total = 0;
        for r in 0..nranks {
            let part = Csr::partition_cyclic(&el, r, nranks);
            for i in 0..part.nrows() {
                let g = i as u64 * u64::from(nranks) + u64::from(r);
                assert_eq!(part.row(i), full.row(g as usize), "row of vertex {g}");
            }
            total += part.nnz();
        }
        assert_eq!(total, full.nnz());
    }

    #[test]
    fn partition_row_counts() {
        let el = tiny(); // 4 vertices, 3 ranks: rank0 owns {0,3}, r1 {1}, r2 {2}
        assert_eq!(Csr::partition_cyclic(&el, 0, 3).nrows(), 2);
        assert_eq!(Csr::partition_cyclic(&el, 1, 3).nrows(), 1);
        assert_eq!(Csr::partition_cyclic(&el, 2, 3).nrows(), 1);
    }
}
