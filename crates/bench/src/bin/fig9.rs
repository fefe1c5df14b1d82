//! Figure 9 (a/b/c): RMA put/get/accumulate with asynchronous progress,
//! all methods, 8 processes.
//!
//! Paper shape: ticket/priority up to 5x over mutex — the async progress
//! thread, almost always in the progress loop doing no useful work,
//! monopolizes a biased lock; fairness releases the origin's operations.

use mtmpi::prelude::*;
use mtmpi_bench::{print_figure_header, rma_series, Fig, RmaOpKind};

fn main() {
    print_figure_header(
        "Figure 9",
        "RMA put/get/acc rate: ticket/priority up to 5x mutex (async progress)",
        "4 ranks (paper: 8), origin rank 0, progress thread per rank",
    );
    let sizes = [8u64, 512, 32 * 1024, 256 * 1024, 2 * 1024 * 1024];
    let iters = 30;
    let mut fig = Fig::new("fig9");
    for op in [RmaOpKind::Put, RmaOpKind::Get, RmaOpKind::Accumulate] {
        println!("--- {} ---", op.label());
        let exp = fig.wire(Experiment::quick(4));
        let mut series = Vec::new();
        for m in Method::PAPER_TRIO {
            eprintln!("[fig9] {} {} ...", op.label(), m.label());
            series.push(rma_series(&exp, m, op, 4, &sizes, iters));
        }
        let t = Table::from_series("elem_B | rate_1e3_elems_per_s:", &series);
        print!("{}", t.render());
        let (mutex, ticket) = (&series[0], &series[1]);
        if let Some(r) = ticket.max_ratio_vs(mutex) {
            println!("ticket/mutex max ratio: {r:.2} (paper: up to 5x)\n");
            fig.scalar(format!("ticket_over_mutex_max_{}", op.label()), r);
        }
        for mut s in series {
            s.label = format!("{}_{}", op.label(), s.label);
            fig.series(&s);
        }
    }
    fig.finish();
}
