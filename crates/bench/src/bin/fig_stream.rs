//! Stream sweep: multithreaded throughput vs thread count, stream-bound
//! lock-free path against the best sharded configuration.
//!
//! Not a paper figure — it evaluates the reproduction's *stream* remedy,
//! the logical end point of partitioning: once every thread owns its
//! shard outright (a bound [`mtmpi::prelude::Stream`]), the issue/
//! progress fast path needs no lock and no CAS at all, so the per-
//! message critical-section overhead vanishes instead of merely being
//! spread across shards.
//!
//! Both series run on an **instant network**: with the qdr NIC model the
//! per-node injection watermark serializes senders at ~4.35M msgs/s,
//! which caps *any* CS remedy past 4 threads (see `fig_vci`, where all
//! three lock kinds converge at 8 VCIs). Removing the wire exposes the
//! runtime overhead itself — the quantity the stream path changes.
//!
//! Headline checks (acceptance scalars):
//! * `linear_frac_stream_t8` ≥ 0.8 — stream-bound rate scales at least
//!   0.8× linear from 1 to 8 threads;
//! * `stream_vs_mutex8_t8` > 1 — streams beat the PR-5 remedy (mutex at
//!   8 tag-routed VCIs) at equal thread count.
//!
//! Output: `results/BENCH_fig_stream.json` — byte-identical across
//! repeats for a fixed seed (the determinism contract, DESIGN.md §11).

use mtmpi::prelude::*;
use mtmpi_bench::{
    print_figure_header, stream_throughput_run, vci_throughput_run, Fig, ThroughputParams,
};

fn main() {
    print_figure_header(
        "Stream sweep",
        "(no paper analogue) throughput vs threads: stream-bound vs sharded",
        "single-owner lock-free stream shards; contender is mutex @ 8 tag-routed VCIs",
    );
    let thread_counts: &[u32] = &[1, 2, 4, 8];
    let windows = 2;
    let size = 32u64;

    let mut fig = Fig::new("fig_stream");
    let mut base = fig.experiment(2);
    // Take the NIC out of the picture for both series (see module docs).
    base.net = NetModel::instant();

    let mut stream = Series::new("Stream".to_owned());
    let mut sharded = Series::new("Mutex8Vci".to_owned());
    let mut stream_rates = std::collections::BTreeMap::new();
    let mut sharded_rates = std::collections::BTreeMap::new();
    for &t in thread_counts {
        eprintln!("[fig_stream] stream t={t} ...");
        let r = stream_throughput_run(
            &base,
            Method::Mutex,
            ThroughputParams::new(size, t).windows(windows),
        )
        .rate;
        stream_rates.insert(t, r);
        stream.push(f64::from(t), r / 1e3);
        eprintln!("[fig_stream] mutex@8vci t={t} ...");
        let r = vci_throughput_run(
            &base,
            Method::Mutex,
            ThroughputParams::new(size, t).windows(windows),
            8,
        )
        .rate;
        sharded_rates.insert(t, r);
        sharded.push(f64::from(t), r / 1e3);
    }
    let series = vec![stream, sharded];
    let t = Table::from_series("threads | rate_1e3_msgs_per_s:", &series);
    print!("{}", t.render());

    // Scaling efficiency of the stream path: rate(8) / (8 * rate(1)).
    fig.scalar(
        "linear_frac_stream_t8",
        stream_rates[&8] / (8.0 * stream_rates[&1]),
    );
    // Streams vs the best PR-5 sharded remedy at equal thread count.
    fig.scalar("stream_vs_mutex8_t8", stream_rates[&8] / sharded_rates[&8]);
    fig.scalar("stream_rate_t8", stream_rates[&8]);
    fig.scalar("mutex8vci_rate_t8", sharded_rates[&8]);
    fig.series_all(&series);
    fig.finish();
}
