//! Ablation: the full lock zoo on the throughput workload, including the
//! socket-aware cohort lock (§7's idea, made starvation-safe with a
//! hand-over budget) and the test-and-set baseline.

use mtmpi::prelude::*;
use mtmpi_bench::{print_figure_header, throughput_run, Fig, ThroughputParams};

fn main() {
    print_figure_header(
        "Ablation: lock zoo",
        "(extends the paper's mutex/ticket/priority comparison)",
        "1B messages, 8 tpn, compact & scatter",
    );
    let methods = [
        Method::Mutex,
        Method::Ticket,
        Method::Priority,
        Method::Cohort(4),
        Method::Cohort(16),
        Method::Tas,
    ];
    let fig = Fig::new("ablation_locks");
    let mut t = Table::new(&["method", "compact_rate", "scatter_rate", "dangling_compact"]);
    for m in methods {
        eprintln!("[zoo] {} ...", m.label());
        let exp = fig.experiment(2);
        let c = throughput_run(&exp, m, ThroughputParams::new(1, 8));
        let s = throughput_run(
            &exp,
            m,
            ThroughputParams::new(1, 8).binding(BindingPolicy::Scatter),
        );
        let label = match m {
            Method::Cohort(b) => format!("cohort({b})"),
            other => other.label().to_owned(),
        };
        t.row(vec![
            label,
            format!("{:.0}", c.rate / 1e3),
            format!("{:.0}", s.rate / 1e3),
            format!("{:.1}", c.dangling_avg),
        ]);
    }
    print!("{}", t.render());
    println!("\n(rates in 1e3 msgs/s; cohort should cut scatter's cross-socket traffic)");
    fig.finish();
}
