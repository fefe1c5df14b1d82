//! Figure 3a: mutex arbitration bias factors (core and socket level) vs
//! message size.
//!
//! Paper shape: the mutex biases arbitration by ≈2x at the core level
//! and ≈1.25x at the socket level, roughly flat across sizes (the fair
//! arbitration's factor is 1 by definition).

use mtmpi::prelude::*;
use mtmpi_bench::{print_figure_header, throughput_run, Fig, ThroughputParams};

fn main() {
    print_figure_header(
        "Figure 3a",
        "mutex bias factors from CS traces: ~2x core level, ~1.25x socket level",
        "Pc/Ps estimators (paper's equations) over the receiving rank's CS trace, 8 tpn",
    );
    let sizes = [1u64, 8, 64, 512, 4096, 32768];
    let mut fig = Fig::new("fig3a");
    let exp = fig.experiment(2);
    let mut t = Table::new(&[
        "size_B",
        "core_bias",
        "socket_bias",
        "Pc_obs",
        "Pc_fair",
        "samples",
    ]);
    let mut cores = Vec::new();
    let mut sockets = Vec::new();
    for &size in &sizes {
        eprintln!("[fig3a] size {size} ...");
        let r = throughput_run(&exp, Method::Mutex, ThroughputParams::new(size, 8));
        let a = r.bias;
        let f = a.factors();
        let (cb, sb) = f.map_or((f64::NAN, f64::NAN), |f| (f.core, f.socket));
        cores.push(cb);
        sockets.push(sb);
        t.row(vec![
            size.to_string(),
            format!("{cb:.2}"),
            format!("{sb:.2}"),
            format!("{:.3}", a.pc_observed),
            format!("{:.3}", a.pc_fair),
            a.samples.to_string(),
        ]);
    }
    print!("{}", t.render());
    // A size with no contended samples has no factor (NaN): leave it out
    // of the mean's count as well as its sum.
    let mean = |v: &[f64]| {
        let finite: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
        finite.iter().sum::<f64>() / finite.len() as f64
    };
    println!(
        "\nmean core bias {:.2} (paper ~2.0), mean socket bias {:.2} (paper ~1.25)",
        mean(&cores),
        mean(&sockets)
    );
    println!("control: a fair arbitration (ticket) has factors ~<=1 by construction.");
    fig.scalar("mean_core_bias", mean(&cores));
    fig.scalar("mean_socket_bias", mean(&sockets));
    fig.finish();
}
