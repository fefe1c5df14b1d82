//! Graph500 Kronecker (R-MAT) edge generator.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Edge list with `2^scale` vertices.
#[derive(Debug, Clone)]
pub struct EdgeList {
    /// log2 of the vertex count (the Graph500 "scale").
    pub scale: u32,
    /// Undirected edges as (u, v) pairs (self-loops possible, as in the
    /// reference generator).
    pub edges: Vec<(u64, u64)>,
}

impl EdgeList {
    /// Number of vertices.
    pub fn nvertices(&self) -> u64 {
        1u64 << self.scale
    }
}

/// Graph500 initiator probabilities.
const A: f64 = 0.57;
const B: f64 = 0.19;
const C: f64 = 0.19;
// D = 0.05 (implicit remainder)

/// Generate a Kronecker edge list with `edgefactor * 2^scale` edges
/// (Graph500 uses edge factor 16). Deterministic in `seed`. Vertex labels
/// are shuffled so that degree does not correlate with vertex id (as the
/// reference implementation's permutation step does).
pub fn generate_kronecker(scale: u32, edgefactor: u64, seed: u64) -> EdgeList {
    assert!((1..40).contains(&scale), "scale out of supported range");
    let n = 1u64 << scale;
    let m = edgefactor * n;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m as usize);
    for _ in 0..m {
        let (mut u, mut v) = (0u64, 0u64);
        for _ in 0..scale {
            u <<= 1;
            v <<= 1;
            let r: f64 = rng.gen();
            // Quadrant pick without a branch (it would mispredict ~40 %
            // of the time): u's bit is set in C and D, v's in B and D.
            u |= u64::from(r >= A + B);
            v |= u64::from((A..A + B).contains(&r) | (r >= A + B + C));
        }
        edges.push((u, v));
    }
    // Permute vertex labels (Fisher-Yates over a permutation table).
    let mut perm: Vec<u64> = (0..n).collect();
    for i in (1..n as usize).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    for e in &mut edges {
        e.0 = perm[e.0 as usize];
        e.1 = perm[e.1 as usize];
    }
    EdgeList { scale, edges }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_count_and_range() {
        let el = generate_kronecker(10, 16, 42);
        assert_eq!(el.edges.len(), 16 * 1024);
        assert_eq!(el.nvertices(), 1024);
        for &(u, v) in &el.edges {
            assert!(u < 1024 && v < 1024);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_kronecker(8, 16, 7);
        let b = generate_kronecker(8, 16, 7);
        assert_eq!(a.edges, b.edges);
        let c = generate_kronecker(8, 16, 8);
        assert_ne!(a.edges, c.edges);
    }

    #[test]
    fn skewed_degree_distribution() {
        // R-MAT graphs are heavy-tailed: the max degree should far exceed
        // the mean (16 per side).
        let el = generate_kronecker(12, 16, 1);
        let mut deg = vec![0u32; el.nvertices() as usize];
        for &(u, v) in &el.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let max = *deg.iter().max().expect("non-empty");
        assert!(max > 200, "max degree {max} should be heavy-tailed");
    }
}
