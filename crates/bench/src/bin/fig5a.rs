//! Figure 5a: dangling requests, mutex vs ticket, vs message size.
//!
//! Paper shape: "using ticket keeps the number of dangling requests very
//! low" while mutex strands up to ~250.

use mtmpi::prelude::*;
use mtmpi_bench::{print_figure_header, throughput_run, Fig, ThroughputParams};

fn main() {
    print_figure_header(
        "Figure 5a",
        "avg dangling: mutex high (up to ~250), ticket very low",
        "same workload, both methods, 8 tpn",
    );
    let sizes = [1u64, 4, 16, 64, 256, 1024];
    let mut fig = Fig::new("fig5a");
    let exp = fig.experiment(2);
    let mut t = Table::new(&["size_B", "Mutex", "Ticket"]);
    let mut sm = Series::new("mutex");
    let mut sk = Series::new("ticket");
    for &size in &sizes {
        eprintln!("[fig5a] size {size} ...");
        let m = throughput_run(&exp, Method::Mutex, ThroughputParams::new(size, 8));
        let k = throughput_run(&exp, Method::Ticket, ThroughputParams::new(size, 8));
        t.row(vec![
            size.to_string(),
            format!("{:.1}", m.dangling_avg),
            format!("{:.1}", k.dangling_avg),
        ]);
        sm.push(size as f64, m.dangling_avg);
        sk.push(size as f64, k.dangling_avg);
    }
    print!("{}", t.render());
    fig.series_all(&[sm, sk]);
    fig.finish();
}
