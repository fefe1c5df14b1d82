//! VCI sweep: multithreaded throughput vs number of virtual
//! communication interfaces, for each lock arbitration method.
//!
//! Not a paper figure — it evaluates the reproduction's *partitioning*
//! remedy, which the paper's §7 positions as future work beyond its
//! arbitration remedies: instead of making threads queue better on one
//! global critical section (ticket/priority locks), split the runtime
//! state into `vci_count` shards routed by tag, so threads stop sharing
//! a lock at all. The per-thread-tag workload (thread `j` uses tag `j`;
//! see `mtmpi_bench::vci_throughput_run`) makes the partition exact at 8
//! VCIs: every thread owns a shard.
//!
//! Headline check: a plain **mutex at 8 VCIs beats the priority lock at
//! 1 VCI** — partitioning dominates arbitration (`mutex8_vs_priority1`
//! scalar, plus per-method `speedup_vci8_*`).
//!
//! Output: `results/BENCH_fig_vci.json` — byte-identical across repeats
//! for a fixed seed (the determinism contract, DESIGN.md §11).

use mtmpi::prelude::*;
use mtmpi_bench::{print_figure_header, vci_throughput_run, Fig, ThroughputParams};

fn main() {
    print_figure_header(
        "VCI sweep",
        "(no paper analogue) throughput vs VCI count per lock kind",
        "tag-routed sharded critical sections; vci_count=1 is the paper's global CS",
    );
    // 16 shards oversubscribes the partition (threads < shards): the
    // point where the burst steal in `try_wait` matters — one victim
    // per spin window cannot keep 15 other mailboxes drained.
    let vci_counts: &[u32] = &[1, 2, 4, 8, 16];
    let threads = 8u32;
    let windows = 2;
    let size = 32u64;

    let mut fig = Fig::new("fig_vci");
    let base = fig.experiment(2);
    let mut series = Vec::new();
    let rate_of = |method: Method, vcis: u32| {
        eprintln!("[fig_vci] {} vci {} ...", method.label(), vcis);
        vci_throughput_run(
            &base,
            method,
            ThroughputParams::new(size, threads).windows(windows),
            vcis,
        )
        .rate
    };
    let mut rates = std::collections::BTreeMap::new();
    for method in [Method::Mutex, Method::Ticket, Method::Priority] {
        let mut s = Series::new(method.label().to_owned());
        for &c in vci_counts {
            let rate = rate_of(method, c);
            rates.insert((method.label(), c), rate);
            s.push(f64::from(c), rate / 1e3);
        }
        series.push(s);
    }
    let t = Table::from_series("vci_count | rate_1e3_msgs_per_s:", &series);
    print!("{}", t.render());
    for method in [Method::Mutex, Method::Ticket, Method::Priority] {
        let r1 = rates[&(method.label(), 1)];
        let r8 = rates[&(method.label(), 8)];
        fig.scalar(
            format!("speedup_vci8_{}", method.label().to_lowercase()),
            r8 / r1,
        );
        // The 16-shard scalar gates the burst-steal path: without it,
        // oversubscribed shards serialize on one steal victim and this
        // ratio collapses.
        let r16 = rates[&(method.label(), 16)];
        fig.scalar(
            format!("speedup_vci16_{}", method.label().to_lowercase()),
            r16 / r1,
        );
    }
    // The partitioning-beats-arbitration headline.
    fig.scalar(
        "mutex8_vs_priority1",
        rates[&(Method::Mutex.label(), 8)] / rates[&(Method::Priority.label(), 1)],
    );
    fig.series_all(&series);
    fig.finish();
}
