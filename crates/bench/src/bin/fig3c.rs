//! Figure 3c: average dangling requests vs message size (mutex, 8 tpn).
//!
//! Paper shape: high dangling counts (order 100-250) across small-to-
//! medium sizes — starving threads strand completed requests.

use mtmpi::prelude::*;
use mtmpi_bench::{print_figure_header, throughput_run, Fig, ThroughputParams};

fn main() {
    print_figure_header(
        "Figure 3c",
        "avg dangling requests under mutex, 8 tpn: high (tens to ~250)",
        "dangling sampler on the receiving rank (sampled at every CS acquisition)",
    );
    let sizes = [1u64, 4, 16, 64, 256, 1024];
    let mut fig = Fig::new("fig3c");
    let exp = fig.experiment(2);
    let mut t = Table::new(&["size_B", "avg_dangling", "max_dangling"]);
    let mut dangling = Series::new("avg_dangling");
    for &size in &sizes {
        eprintln!("[fig3c] size {size} ...");
        let exp2 = exp.clone();
        let r = throughput_run(&exp2, Method::Mutex, ThroughputParams::new(size, 8));
        let out = r;
        t.row(vec![
            size.to_string(),
            format!("{:.1}", out.dangling_avg),
            String::from("-"),
        ]);
        dangling.push(size as f64, out.dangling_avg);
    }
    print!("{}", t.render());
    println!("\n(paper: ~100-250 average with 8 threads and 64-request windows)");
    fig.series(&dangling);
    fig.finish();
}
