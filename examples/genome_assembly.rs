//! SWAP-style distributed genome assembly demo: builds a distributed
//! k-mer graph with sender/receiver comm threads per process, walks
//! contigs, and verifies the genome is reconstructed — once per
//! arbitration method, with timing.
//!
//! ```text
//! cargo run -p mtmpi-examples --release --bin genome_assembly
//! ```

use mtmpi::prelude::*;
use mtmpi_assembly::{
    assembly_receiver, assembly_worker, random_genome, sample_reads, AssemblyConfig, AssemblyShared,
};
use std::sync::{Arc, Mutex, PoisonError};

fn main() {
    let genome_len = 10_000;
    let coverage = 3;
    let nranks = 4u32;
    let genome = random_genome(genome_len, 0x5EED);
    let reads = sample_reads(&genome, genome_len * coverage / 36, 36, 0x5EED);
    println!(
        "assembling a {genome_len} bp synthetic genome from {} reads of 36 nt on {nranks} ranks\n",
        reads.len()
    );
    for method in Method::PAPER_TRIO {
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
        let exp = Experiment::quick(1);
        let (sh, st) = (shared.clone(), stats.clone());
        let out = exp.run(
            RunConfig::new(method)
                .nodes(1)
                .ranks_per_node(nranks)
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
            .expect("rank 0 reports");
        assert_eq!(s.total_bases, genome_len as u64, "genome reconstructed");
        println!(
            "{:>8}: {:>8.2} ms virtual | contigs {} | longest {} | k-mers {}",
            method.label(),
            out.end_ns as f64 / 1e6,
            s.contigs,
            s.longest,
            s.distinct_kmers
        );
    }
    println!("\nEach process runs a worker/sender thread and a blocking-recv");
    println!("receiver thread — the SWAP structure whose lock contention the");
    println!("paper's Fig 12b measures.");
}
