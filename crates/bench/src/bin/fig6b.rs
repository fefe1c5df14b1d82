//! Figure 6b: N2N (all-to-all streaming) throughput, ticket vs priority,
//! 4 processes.
//!
//! Paper shape: the priority lock improves N2N by ~33% for messages
//! below 32 KB — prompt receive *posting* (main path) matters because
//! source-selective matching cannot borrow another thread's receive.

use mtmpi::prelude::*;
use mtmpi_bench::{n2n_series, print_figure_header, Fig};

fn main() {
    print_figure_header(
        "Figure 6b",
        "N2N: priority +33% over ticket below 32KB, 4 procs",
        "4 ranks x 4 threads all-to-all windows",
    );
    let sizes = [1u64, 32, 1024, 8192, 32768, 262144, 1048576];
    let mut fig = Fig::new("fig6b");
    let exp = fig.experiment(4);
    let rounds = 4;
    eprintln!("[fig6b] ticket ...");
    let k = n2n_series(&exp, Method::Ticket, 4, 4, &sizes, rounds);
    eprintln!("[fig6b] priority ...");
    let p = n2n_series(&exp, Method::Priority, 4, 4, &sizes, rounds);
    let t = Table::from_series("size_B | rate_1e3_msgs_per_s:", &[k.clone(), p.clone()]);
    print!("{}", t.render());
    if let Some(r) = p.mean_ratio_vs_below(&k, 32768.0) {
        println!(
            "\npriority/ticket mean ratio below 32KB: {:.2} (paper ~1.33)",
            r
        );
        fig.scalar("priority_over_ticket_below_32k", r);
    }
    fig.series_all(&[k, p]);
    fig.finish();
}
