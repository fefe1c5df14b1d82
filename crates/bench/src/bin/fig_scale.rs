//! Scheduler scaling: simulator events executed vs virtual node count.
//!
//! Not a paper figure — it evaluates the *simulator*, not the runtime.
//! A real ring exchange runs on `n` virtual nodes (1 rank/node,
//! 1 thread/rank) for each `n` in the sweep, and the document records
//! what the event loop did: events executed (`ring_events_<n>`, the
//! fuel-meter numerator, linear in the virtual cluster), transfers of
//! control between contexts (`ring_handoffs_<n>`), `end_ns` and the
//! trace hash per run. Every member is a pure function of the seed and
//! gates at exact equality.
//!
//! What the event queue costs the *host* is measured pinned and
//! repeated by `benchmark/` (`sim.queue_ns_per_op`), never here.

use mtmpi::prelude::*;
use mtmpi_bench::{print_figure_header, Fig};

/// Rounds of the ring exchange per node count.
const RING_ROUNDS: i32 = 6;

fn main() {
    print_figure_header(
        "Scale sweep",
        "(no paper analogue) simulator events executed vs virtual node count",
        "ring sims; every scalar is deterministic per seed",
    );
    let node_counts: &[u32] = &[8, 64];

    let mut fig = Fig::new("fig_scale");

    let mut ev_series = Series::new("ring events".to_owned());
    for &n in node_counts {
        eprintln!("[fig_scale] ring {n} nodes ...");
        let exp = fig.experiment(n);
        let out = exp.run(
            RunConfig::new(Method::Mutex)
                .nodes(n)
                .ranks_per_node(1)
                .threads_per_rank(1)
                .label(format!("ring {n}")),
            ring_body,
        );
        assert!(out.report.events > 0, "virtual runs meter every event");
        ev_series.push(f64::from(n), out.report.events as f64);
        fig.scalar(format!("ring_events_{n}"), out.report.events as f64);
        fig.scalar(format!("ring_handoffs_{n}"), out.report.handoffs as f64);
    }
    let t = Table::from_series("nodes | events:", &[ev_series.clone()]);
    print!("{}", t.render());
    fig.series(&ev_series);
    fig.finish();
}

/// One ring-exchange worker: eager-send to the right neighbour, then a
/// selective receive from the left, `RING_ROUNDS` times.
fn ring_body(ctx: ThreadCtx) {
    let c = ctx.rank.world_comm();
    let me = c.rank();
    let n = c.nranks();
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;
    for round in 0..RING_ROUNDS {
        c.send(right, round, MsgData::Synthetic(64));
        let _ = c.recv(Some(left), Some(round));
    }
}
