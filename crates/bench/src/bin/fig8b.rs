//! Figure 8b: two-sided latency, all methods + single-threaded, 8 tpn.
//!
//! Paper shape: ticket up to 3.5x lower latency than mutex; priority
//! ~11% above ticket for small messages; above 128 B the multithreaded
//! fair locks even beat single-threaded (up to 3.6x) because 8
//! concurrent round-trips keep the network fed.

use mtmpi::prelude::*;
use mtmpi_bench::{latency_series, msg_sizes, print_figure_header, Fig};

fn main() {
    print_figure_header(
        "Figure 8b",
        "latency: ticket 3.5x better than mutex; >128B fair multithreaded beats single",
        "multithreaded ping-pong, 8 tpn, per-thread tag pairs",
    );
    let sizes = msg_sizes();
    let mut fig = Fig::new("fig8b");
    let exp = fig.experiment(2);
    let iters = 30;
    let mut series = Vec::new();
    for m in Method::PAPER_QUARTET {
        eprintln!("[fig8b] {} ...", m.label());
        series.push(latency_series(&exp, m, 8, &sizes, iters));
    }
    let t = Table::from_series("size_B | latency_us:", &series);
    print!("{}", t.render());
    let (single, mutex, ticket) = (&series[0], &series[1], &series[2]);
    if let (Some(mt), Some(st)) = (
        mutex.mean_ratio_vs_below(ticket, 128.0),
        single.mean_ratio_vs(ticket),
    ) {
        println!("\nmutex/ticket latency ratio (small): {mt:.2} (paper up to 3.5)");
        println!("single/ticket latency ratio overall: {st:.2} (>1 means multithreaded wins)");
        fig.scalar("mutex_over_ticket_small", mt);
        fig.scalar("single_over_ticket_overall", st);
    }
    fig.series_all(&series);
    fig.finish();
}
