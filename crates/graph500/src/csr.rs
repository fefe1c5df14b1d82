//! Compressed-sparse-row adjacency.

use crate::kronecker::EdgeList;
use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};

/// CSR over `u32` vertex ids (scales ≤ 31 supported, far beyond what the
/// host-feasible experiments use).
#[derive(Debug, Clone)]
pub struct Csr {
    /// Row offsets, length `nrows + 1`.
    pub offsets: Vec<u64>,
    /// Column indices (neighbours).
    pub targets: Vec<u32>,
}

/// How many edges ahead of the one it writes the fill pass prefetches
/// the two destination slots. The fill is a random 4-byte scatter over
/// every part's `targets`, 8 MB at scale 16, so each write would wait on
/// memory; eight edges ahead measured as fast as 16 or 32.
const AHEAD: usize = 8;

/// Ask for the cache line holding `slot` ahead of a write to it.
#[inline(always)]
fn prefetch(slot: *const u32) {
    // SAFETY: a prefetch is a hint: it reads nothing into the program and
    // never faults, whatever address it is given (here one inside or at
    // the end of the `targets` buffer).
    unsafe { _mm_prefetch::<_MM_HINT_T0>(slot.cast()) }
}

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
    ///
    /// The fill writes every part's rows into one part-major buffer
    /// through one cursor per vertex, prefetching [`AHEAD`] edges ahead.
    /// With one rank that buffer is the rows; with more, the parts are
    /// cut from its end one at a time, so the transient extra memory is
    /// one part's targets, not a second copy of all of them.
    pub fn partition_all(el: &EdgeList, nranks: u32) -> Vec<Self> {
        assert!(el.scale <= 31, "vertex ids must fit u32");
        let (n, nr) = (el.nvertices() as usize, nranks as usize);
        // Degree of every vertex, by global id.
        let mut cursor = vec![0u64; n];
        for_each_arc(el, |from, _| cursor[from] += 1);
        // Rank r owns vertices r, r + nranks, …: lay its rows out after
        // those of ranks below it, and turn each vertex's degree into its
        // fill cursor in the shared buffer.
        let mut end = 0u64;
        let layout: Vec<(usize, Vec<u64>)> = (0..nr)
            .map(|r| {
                let start = end;
                let mut offsets = Vec::with_capacity(n / nr + 2);
                offsets.push(0);
                for v in (r..n).step_by(nr) {
                    end += std::mem::replace(&mut cursor[v], end);
                    offsets.push(end - start);
                }
                (start as usize, offsets)
            })
            .collect();
        let mut targets = vec![0u32; end as usize];
        let base = targets.as_ptr();
        for (i, &(u, v)) in el.edges.iter().enumerate() {
            if let Some(&(a, b)) = el.edges.get(i + AHEAD) {
                prefetch(base.wrapping_add(cursor[a as usize] as usize));
                prefetch(base.wrapping_add(cursor[b as usize] as usize));
            }
            if u != v {
                for (from, to) in [(u as usize, v as u32), (v as usize, u as u32)] {
                    targets[cursor[from] as usize] = to;
                    cursor[from] += 1;
                }
            }
        }
        // Cut the parts from the end, shrinking the buffer behind each;
        // what is left is part 0, which is never copied.
        let mut parts: Vec<Self> = layout
            .into_iter()
            .rev()
            .map(|(start, offsets)| {
                let rows = if start == 0 {
                    std::mem::take(&mut targets)
                } else {
                    let tail = targets[start..].to_vec();
                    targets.truncate(start);
                    targets.shrink_to_fit();
                    tail
                };
                Self {
                    offsets,
                    targets: rows,
                }
            })
            .collect();
        parts.reverse();
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
