//! Figure 5b: message rate vs threads-per-node for mutex/ticket ×
//! compact/scatter, 1-byte messages.
//!
//! Paper shape: compact — ticket reduces contention (+68% at 4 threads);
//! scatter at 2 threads — ticket *loses* slightly to mutex (fair FIFO
//! pays the inter-socket hand-off every time, the mutex's socket-level
//! monopolization avoids it); the fair lock wins again as concurrency
//! grows.

use mtmpi::prelude::*;
use mtmpi_bench::{print_figure_header, throughput_run, Fig, ThroughputParams};

/// The four curves, labelled as `throughput_series` labels them.
const CURVES: [(&str, Method, BindingPolicy); 4] = [
    ("Mutex", Method::Mutex, BindingPolicy::Compact),
    ("Ticket", Method::Ticket, BindingPolicy::Compact),
    ("Mutex_Scatter", Method::Mutex, BindingPolicy::Scatter),
    ("Ticket_Scatter", Method::Ticket, BindingPolicy::Scatter),
];

fn main() {
    print_figure_header(
        "Figure 5b",
        "1B msg rate vs tpn: ticket +68% @4 compact; ticket loses @2 scatter; wins @8",
        "mutex/ticket x compact/scatter sweep",
    );
    let mut fig = Fig::new("fig5b");
    let exp = fig.experiment(2);
    let mut t = Table::new(&[
        "threads",
        "Mutex_Compact",
        "Ticket_Compact",
        "Mutex_Scatter",
        "Ticket_Scatter",
    ]);
    let mut series = CURVES.map(|(label, ..)| Series::new(label));
    for threads in [2u32, 4, 8] {
        eprintln!("[fig5b] {threads} tpn ...");
        let mut row = vec![threads.to_string()];
        for (s, &(_, m, b)) in series.iter_mut().zip(&CURVES) {
            let p = ThroughputParams::new(1, threads).binding(b);
            let rate = throughput_run(&exp, m, p).rate / 1e3;
            s.push(threads as f64, rate);
            row.push(format!("{rate:.0}"));
        }
        t.row(row);
    }
    print!("{}", t.render());
    println!("\n(units: 1e3 msgs/s)");
    fig.series_all(&series);
    fig.finish();
}
