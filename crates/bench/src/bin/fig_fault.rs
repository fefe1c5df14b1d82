//! Fault sweep: multithreaded throughput under deterministic link-level
//! packet drops, for each lock arbitration method.
//!
//! Not a paper figure — this exercises the fault-injection layer
//! (`FaultPlan`) and the runtime's retransmit/ack recovery: every run
//! completes under drops instead of hanging or failing. The rate is not
//! monotone in the drop rate for every lock kind. Over `drop_ppm`
//! 0 / 10 000 / 50 000 the committed document reads Mutex
//! 1645 → 1217 → 844 k msg/s, falling at every step, while Ticket and
//! Priority read 1561.2 → 790.7 → 811.3, identical to each other and
//! rising at the last step; the cause is open. The `drop_ppm = 0`
//! column doubles as a guard: an inert plan must reproduce the
//! fault-free rates exactly.
//!
//! Output: `results/BENCH_fig_fault.json` — byte-identical across
//! repeats for a fixed seed + plan (the determinism contract, DESIGN.md
//! §11).

use mtmpi::prelude::*;
use mtmpi_bench::{print_figure_header, throughput_run, Fig, ThroughputParams};

/// Deterministic seed for the fault decision hash (independent of the
/// experiment seed, so fault patterns replay across schedule changes).
const FAULT_SEED: u64 = 0xFA_17;

fn main() {
    print_figure_header(
        "Fault sweep",
        "(no paper analogue) throughput vs link drop rate per lock kind",
        "seeded per-link drop injection with runtime retransmit/ack recovery",
    );
    let drops_ppm: &[u32] = &[0, 10_000, 50_000];
    let threads = 2;
    let windows = 2;
    let size = 1024u64;

    let mut fig = Fig::new("fig_fault");
    let base = fig.experiment(2);
    let mut series = Vec::new();
    for method in [Method::Mutex, Method::Ticket, Method::Priority] {
        let mut s = Series::new(method.label().to_owned());
        for &ppm in drops_ppm {
            eprintln!("[fig_fault] {} drop {} ppm ...", method.label(), ppm);
            let mut exp = base.clone();
            if ppm > 0 {
                exp = exp.faults(FaultPlan::drop(FAULT_SEED, ppm));
            }
            // Distinct label per point: timeline retention and run
            // keying are per-label, and a traced faulted run must keep
            // its own timeline (the retransmit flows live there).
            let r = throughput_run(
                &exp,
                method,
                ThroughputParams::new(size, threads)
                    .windows(windows)
                    .label(format!("{} drop={ppm}ppm", method.label())),
            );
            s.push(f64::from(ppm), r.rate / 1e3);
        }
        series.push(s);
    }
    let t = Table::from_series("drop_ppm | rate_1e3_msgs_per_s:", &series);
    print!("{}", t.render());
    // Recovery overhead at the deepest drop rate, per method (rate with
    // faults off / rate at max drop — >= 1, bounded if recovery works).
    for s in &series {
        if let (Some(clean), Some(worst)) = (
            s.y_at(0.0),
            s.y_at(f64::from(*drops_ppm.last().expect("non-empty"))),
        ) {
            fig.scalar(format!("slowdown_maxdrop_{}", s.label), clean / worst);
        }
    }
    fig.series_all(&series);
    fig.finish();
}
