//! Figure 2a: multithreaded throughput (mutex) vs message size for 1, 2,
//! 4, 8 threads per node.
//!
//! Paper shape: degradation proportional to the thread count, up to a
//! four-fold reduction for small messages; curves converge at large
//! sizes where the wire dominates.

use mtmpi::prelude::*;
use mtmpi_bench::{msg_sizes, print_figure_header, throughput_series, Fig};

fn main() {
    print_figure_header(
        "Figure 2a",
        "mutex message rate vs size for 1/2/4/8 tpn; up to 4x degradation at 8 tpn",
        "same benchmark on the virtual Nehalem pair (windows of 64, per-window ack)",
    );
    let sizes = msg_sizes();
    let mut fig = Fig::new("fig2a");
    let exp = fig.experiment(2);
    let mut series = Vec::new();
    for threads in [1u32, 2, 4, 8] {
        eprintln!("[fig2a] mutex, {threads} tpn ...");
        let mut s = throughput_series(&exp, Method::Mutex, threads, BindingPolicy::Compact, &sizes);
        s.label = format!("{threads} tpn");
        series.push(s);
    }
    let t = Table::from_series("size_B | rate_1e3_msgs_per_s:", &series);
    print!("{}", t.render());
    let s1 = &series[0];
    let s8 = &series[3];
    if let (Some(a), Some(b)) = (s1.y_at(1.0), s8.y_at(1.0)) {
        println!(
            "\n1-byte degradation 1->8 threads: {:.2}x (paper: ~4x)",
            a / b
        );
        fig.scalar("degradation_1B_1to8", a / b);
    }
    fig.series_all(&series);
    fig.finish();
}
