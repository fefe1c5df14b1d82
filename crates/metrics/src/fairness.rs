//! Concentration measure for blame attribution (prof layer).
//!
//! The paper's monopolization story (§4.2–4.3) is about *how unevenly*
//! critical-section acquisitions distribute over threads: a fair
//! arbitration spreads them uniformly, a biased one lets a single thread
//! (often the progress thread) dominate. [`gini`] compresses the whole
//! distribution into one monopolization index (0 = perfectly even, → 1 =
//! one thread owns everything), the standard inequality measure over a
//! small population.

/// Gini coefficient of a count distribution: `0.0` when all participants
/// hold equal counts, approaching `1.0` as one participant takes
/// everything. Computed with the sorted-rank formula
/// `G = (2·Σ i·xᵢ)/(n·Σ xᵢ) − (n+1)/n` (xᵢ ascending, i 1-based).
/// Empty or all-zero input yields `0.0`.
pub fn gini(counts: &[u64]) -> f64 {
    let n = counts.len();
    let total: u64 = counts.iter().sum();
    if n == 0 || total == 0 {
        return 0.0;
    }
    let mut sorted: Vec<u64> = counts.to_vec();
    sorted.sort_unstable();
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
        .sum();
    let n_f = n as f64;
    (2.0 * weighted / (n_f * total as f64) - (n_f + 1.0) / n_f).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gini_of_uniform_is_zero() {
        assert_eq!(gini(&[5, 5, 5, 5]), 0.0);
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0, 0]), 0.0);
        assert_eq!(gini(&[7]), 0.0, "a single participant is trivially even");
    }

    #[test]
    fn gini_of_monopoly_approaches_one() {
        // One of n holds everything: G = (n-1)/n.
        let g = gini(&[0, 0, 0, 100]);
        assert!((g - 0.75).abs() < 1e-12, "got {g}");
        let g8 = gini(&[0, 0, 0, 0, 0, 0, 0, 1000]);
        assert!((g8 - 0.875).abs() < 1e-12, "got {g8}");
    }

    #[test]
    fn gini_is_scale_invariant_and_ordered() {
        let a = gini(&[1, 2, 3, 4]);
        let b = gini(&[10, 20, 30, 40]);
        assert!((a - b).abs() < 1e-12);
        // More concentration => larger index.
        assert!(gini(&[1, 1, 1, 7]) > gini(&[1, 2, 3, 4]));
    }
}
