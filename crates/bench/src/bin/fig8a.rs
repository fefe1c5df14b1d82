//! Figure 8a: two-sided throughput, all methods + single-threaded, 8 tpn.
//!
//! Paper shape: ticket ≈ priority > mutex; the multithreaded rate is
//! only ~36% of single-threaded (serialization floor of a global CS).

use mtmpi::prelude::*;
use mtmpi_bench::{msg_sizes, print_figure_header, throughput_series, Fig};

fn main() {
    print_figure_header(
        "Figure 8a",
        "throughput: single > ticket ~= priority > mutex (8 tpn); multithreaded ~36% of single",
        "size sweep, all four methods",
    );
    let sizes = msg_sizes();
    let mut fig = Fig::new("fig8a");
    let exp = fig.experiment(2);
    let mut series = Vec::new();
    for m in Method::PAPER_QUARTET {
        eprintln!("[fig8a] {} ...", m.label());
        series.push(throughput_series(
            &exp,
            m,
            8,
            BindingPolicy::Compact,
            &sizes,
        ));
    }
    let t = Table::from_series("size_B | rate_1e3_msgs_per_s:", &series);
    print!("{}", t.render());
    let (single, mutex, ticket, priority) = (&series[0], &series[1], &series[2], &series[3]);
    if let (Some(r1), Some(r2), Some(r3)) = (
        ticket.mean_ratio_vs_below(mutex, 16384.0),
        ticket.mean_ratio_vs_below(single, 16384.0),
        priority.mean_ratio_vs_below(ticket, f64::MAX),
    ) {
        println!("\nticket/mutex below 16KB: {r1:.2}; ticket/single below 16KB: {r2:.2} (paper ~0.36); priority/ticket overall: {r3:.2} (~1)");
        fig.scalar("ticket_over_mutex_below_16k", r1);
        fig.scalar("ticket_over_single_below_16k", r2);
        fig.scalar("priority_over_ticket_overall", r3);
    }
    fig.series_all(&series);
    fig.finish();
}
