//! Shared sweep parameters and output helpers.

/// Message sizes used by the size-sweep figures (a subset of the paper's
/// 1 B … 1 MB powers of four, dense enough to show the crossovers).
pub fn msg_sizes() -> Vec<u64> {
    vec![
        1,
        4,
        16,
        64,
        256,
        1024,
        4096,
        16 * 1024,
        64 * 1024,
        256 * 1024,
        1024 * 1024,
    ]
}

/// Element sizes for the RMA sweep (paper: 8 B – 2 MB).
pub fn rma_sizes() -> Vec<u64> {
    vec![8, 64, 512, 4096, 32 * 1024, 256 * 1024, 2 * 1024 * 1024]
}

/// Print the standard figure banner: what the paper showed, what we run.
pub fn print_figure_header(id: &str, paper: &str, ours: &str) {
    println!("=== {id} ===");
    println!("paper : {paper}");
    println!("ours  : {ours}");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_are_sorted() {
        for v in [msg_sizes(), rma_sizes()] {
            assert!(v.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
