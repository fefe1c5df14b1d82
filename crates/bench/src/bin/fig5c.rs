//! Figure 5c: mutex vs ticket throughput across message sizes, 8 tpn.
//!
//! Paper shape: ticket ~+30% below 4 KB, gap closes by 32 KB, negligible
//! beyond (wire-dominated).

use mtmpi::prelude::*;
use mtmpi_bench::{msg_sizes, print_figure_header, throughput_series, Fig};

fn main() {
    print_figure_header(
        "Figure 5c",
        "ticket vs mutex vs size (8 tpn): +30% below 4KB, converged by 32KB",
        "size sweep, both methods",
    );
    let sizes = msg_sizes();
    let mut fig = Fig::new("fig5c");
    let exp = fig.experiment(2);
    eprintln!("[fig5c] mutex ...");
    let m = throughput_series(&exp, Method::Mutex, 8, BindingPolicy::Compact, &sizes);
    eprintln!("[fig5c] ticket ...");
    let k = throughput_series(&exp, Method::Ticket, 8, BindingPolicy::Compact, &sizes);
    let t = Table::from_series("size_B | rate_1e3_msgs_per_s:", &[m.clone(), k.clone()]);
    print!("{}", t.render());
    if let Some(r) = k.mean_ratio_vs_below(&m, 4096.0) {
        println!("\nticket/mutex mean ratio below 4KB: {:.2} (paper ~1.3)", r);
        fig.scalar("ticket_over_mutex_below_4k", r);
    }
    if let Some(r) = k.mean_ratio_vs_below(&m, f64::MAX) {
        println!("overall mean ratio: {:.2}", r);
        fig.scalar("ticket_over_mutex_overall", r);
    }
    fig.series_all(&[m, k]);
    fig.finish();
}
