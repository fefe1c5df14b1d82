//! End-to-end assembly over the virtual platform: the distributed
//! pipeline must reconstruct an error-free genome.

use mtmpi::prelude::*;
use mtmpi_assembly::{
    assembly_receiver, assembly_worker, random_genome, sample_reads, AssemblyConfig,
    AssemblyShared, ContigStats,
};
use std::sync::{Arc, Mutex, PoisonError};

/// Run the assembler on `nranks` ranks (2 threads each: worker +
/// receiver, the SWAP process structure).
fn run_assembly(
    genome_len: usize,
    coverage: usize,
    nranks: u32,
    method: Method,
    seed: u64,
) -> ContigStats {
    let genome = random_genome(genome_len, seed);
    let read_len = 36;
    let nreads = genome_len * coverage / read_len;
    let reads = sample_reads(&genome, nreads, read_len, seed);
    // Round-robin read distribution.
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
    let nodes = nranks.div_ceil(4).max(1); // 4 processes per node, as in the paper
    let exp = Experiment::with_seed(nodes, seed);
    let (sh2, st2) = (shared.clone(), stats.clone());
    exp.run(
        RunConfig::new(method)
            .nodes(nodes)
            .ranks_per_node(nranks.div_ceil(nodes))
            .threads_per_rank(2),
        move |ctx| {
            let sh = sh2[ctx.rank.rank() as usize].clone();
            if ctx.thread == 0 {
                if let Some(s) = assembly_worker(&sh, &ctx.rank) {
                    *st2.lock().unwrap_or_else(PoisonError::into_inner) = Some(s);
                }
            } else {
                assembly_receiver(&sh, &ctx.rank);
            }
        },
    );
    let s = stats
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .expect("rank 0 worker reports");
    s
}

#[test]
fn single_rank_reconstructs_genome() {
    let stats = run_assembly(3_000, 4, 1, Method::Ticket, 42);
    assert_eq!(
        stats.contigs, 1,
        "unique-k-mer genome must assemble into one contig"
    );
    assert_eq!(stats.total_bases, 3_000);
    assert_eq!(stats.longest, 3_000);
    // G - k + 1 distinct k-mers.
    assert_eq!(stats.distinct_kmers, 3_000 - 21 + 1);
}

#[test]
fn four_ranks_reconstruct_genome() {
    let stats = run_assembly(2_000, 3, 4, Method::Priority, 7);
    assert_eq!(stats.contigs, 1);
    assert_eq!(stats.total_bases, 2_000);
    assert_eq!(stats.distinct_kmers, 2_000 - 21 + 1);
}

#[test]
fn method_does_not_change_result() {
    let a = run_assembly(1_500, 3, 2, Method::Mutex, 9);
    let b = run_assembly(1_500, 3, 2, Method::Ticket, 9);
    assert_eq!(a, b, "assembly output is method-independent");
}

#[test]
fn higher_rank_counts_still_correct() {
    let stats = run_assembly(2_400, 3, 6, Method::Ticket, 21);
    assert_eq!(stats.contigs, 1);
    assert_eq!(stats.total_bases, 2_400);
}
