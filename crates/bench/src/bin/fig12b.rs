//! Figure 12b: SWAP-assembler strong scaling, all methods.
//!
//! Paper shape (1M reads x 36nt, 4 procs/node x 2 threads/proc): ~2x
//! speedup for fair locks, independent of core count; no application or
//! hardware change required.
//!
//! Scaled down: 40k-base genome, ~4400 reads, 2-16 processes.

use mtmpi::prelude::*;
use mtmpi_assembly::{
    assembly_receiver, assembly_worker, random_genome, sample_reads, AssemblyConfig, AssemblyShared,
};
use mtmpi_bench::{print_figure_header, Fig};
use std::sync::{Arc, Mutex, PoisonError};

fn run(fig: &Fig, method: Method, reads: &[mtmpi_assembly::Read], nranks: u32) -> f64 {
    let shared: Vec<Arc<AssemblyShared>> = (0..nranks)
        .map(|r| {
            let mine: Vec<_> = reads
                .iter()
                .skip(r as usize)
                .step_by(nranks as usize)
                .cloned()
                .collect();
            Arc::new(AssemblyShared::new(
                AssemblyConfig::default(),
                r,
                nranks,
                mine,
            ))
        })
        .collect();
    let stats = Arc::new(Mutex::new(None));
    let nodes = nranks.div_ceil(4).max(1);
    let exp = fig.experiment(nodes);
    let (sh, st) = (shared, stats.clone());
    let out = exp.run(
        RunConfig::new(method)
            .nodes(nodes)
            .ranks_per_node(nranks.div_ceil(nodes))
            .threads_per_rank(2),
        move |ctx| {
            let s = sh[ctx.rank.rank() as usize].clone();
            if ctx.thread == 0 {
                if let Some(r) = assembly_worker(&s, &ctx.rank) {
                    *st.lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
                }
            } else {
                assembly_receiver(&s, &ctx.rank);
            }
        },
    );
    let s = stats
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .expect("rank0 reports");
    assert!(s.total_bases > 0, "assembly produced output");
    out.end_ns as f64 / 1e6 // ms
}

fn main() {
    print_figure_header(
        "Figure 12b",
        "SWAP-assembler time vs cores: ~2x faster with fair locks at every scale",
        "40k-base genome (paper: 1M reads), 4 procs/node x 2 threads, 2-8 procs",
    );
    let mut fig = Fig::new("fig12b");
    let genome = random_genome(40_000, 0x5EED);
    let reads = sample_reads(&genome, 40_000 * 4 / 36, 36, 0x5EED);
    let mut t = Table::new(&[
        "procs",
        "cores",
        "Mutex_ms",
        "Ticket_ms",
        "Priority_ms",
        "mutex/ticket",
    ]);
    for nranks in [2u32, 4, 8] {
        eprintln!("[fig12b] {nranks} procs ...");
        let m = run(&fig, Method::Mutex, &reads, nranks);
        let k = run(&fig, Method::Ticket, &reads, nranks);
        let p = run(&fig, Method::Priority, &reads, nranks);
        t.row(vec![
            nranks.to_string(),
            (nranks * 2).to_string(),
            format!("{m:.1}"),
            format!("{k:.1}"),
            format!("{p:.1}"),
            format!("{:.2}", m / k),
        ]);
        fig.scalar(format!("mutex_over_ticket_{nranks}p"), m / k);
    }
    print!("{}", t.render());
    println!("\n(execution time in virtual ms, lower is better; paper: ~2x ratio)");
    fig.finish();
}
