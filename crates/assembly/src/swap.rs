//! The SWAP-like asynchronous framework: per-process sender/worker and
//! receiver threads over blocking send/recv.

use crate::genome::Read;
use crate::graph::{owner_of, pack_kmer, shift_kmer, KmerGraph, KmerInfo};
use mtmpi_runtime::{MsgData, RankHandle, ANY_SOURCE, ANY_TAG};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

const TAG_BATCH: i32 = 3_000;
const TAG_DONE: i32 = 3_001;
const TAG_QUERY: i32 = 3_002;
const TAG_REPLY: i32 = 3_003;
const TAG_WALKDONE: i32 = 3_004;

/// Records per network batch during k-mer distribution.
const BATCH_RECORDS: usize = 256;
/// Modelled cost of one k-mer extraction, ns.
const EXTRACT_NS: u64 = 18;
/// Modelled cost of one hash-map insert/merge, ns.
const INSERT_NS: u64 = 70;
/// Modelled cost of serving one k-mer query, ns.
const QUERY_NS: u64 = 60;

/// Assembly parameters.
#[derive(Debug, Clone)]
pub struct AssemblyConfig {
    /// k-mer length (≤ 31; must satisfy `k ≤ read_len − read_len/3` so
    /// tiled reads overlap every consecutive k-mer pair).
    pub k: usize,
    /// Safety bound on contig walks (cycles in the k-mer graph).
    pub max_contig: u64,
}

impl Default for AssemblyConfig {
    fn default() -> Self {
        Self {
            k: 21,
            max_contig: 10_000_000,
        }
    }
}

/// Per-rank shared state between the worker and receiver threads.
pub struct AssemblyShared {
    cfg: AssemblyConfig,
    nranks: u32,
    rank: u32,
    /// This rank's share of the reads.
    reads: Vec<Read>,
    /// The local k-mer graph shard (built by the receiver thread).
    pub graph: Mutex<KmerGraph>,
    done_count: AtomicU32,
    walkdone_count: AtomicU32,
    replies: Mutex<BTreeMap<u64, Option<KmerInfo>>>,
    next_token: AtomicU64,
    /// Contig lengths discovered by this rank's worker.
    pub contigs: Mutex<Vec<u64>>,
}

impl AssemblyShared {
    /// Build the shared state for one rank with its read share.
    pub fn new(cfg: AssemblyConfig, rank: u32, nranks: u32, reads: Vec<Read>) -> Self {
        assert!(cfg.k >= 2 && cfg.k <= 31, "k out of range");
        Self {
            cfg,
            nranks,
            rank,
            reads,
            graph: Mutex::new(KmerGraph::new()),
            done_count: AtomicU32::new(0),
            walkdone_count: AtomicU32::new(0),
            replies: Mutex::new(BTreeMap::new()),
            next_token: AtomicU64::new(1),
            contigs: Mutex::new(Vec::new()),
        }
    }
}

/// Global assembly outcome (returned by rank 0's worker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContigStats {
    /// Number of contigs across all ranks.
    pub contigs: u64,
    /// Total assembled bases.
    pub total_bases: u64,
    /// Longest contig.
    pub longest: u64,
    /// Distinct k-mers in the distributed graph.
    pub distinct_kmers: u64,
}

/// One k-mer record on the wire: kmer(8) count(4) succ(1) pred(1).
fn encode_records(records: &[(u64, u32, u8, u8)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() * 14);
    for &(kmer, count, succ, pred) in records {
        out.extend_from_slice(&kmer.to_le_bytes());
        out.extend_from_slice(&count.to_le_bytes());
        out.push(succ);
        out.push(pred);
    }
    out
}

fn decode_records(bytes: &[u8]) -> impl Iterator<Item = (u64, u32, u8, u8)> + '_ {
    bytes.chunks_exact(14).map(|c| {
        (
            u64::from_le_bytes(c[..8].try_into().expect("8")),
            u32::from_le_bytes(c[8..12].try_into().expect("4")),
            c[12],
            c[13],
        )
    })
}

/// The receiver thread: a blocking `recv(ANY_SOURCE, ANY_TAG)` dispatch
/// loop, exactly the SWAP process structure the paper describes. Runs
/// until a WALKDONE marker has arrived from every rank.
pub fn assembly_receiver(sh: &AssemblyShared, h: &RankHandle) {
    let platform = h.platform().clone();
    let c = h.world_comm();
    loop {
        let m = c.recv(ANY_SOURCE, ANY_TAG);
        match m.tag {
            TAG_BATCH => {
                let bytes = m.data.as_bytes();
                let n = (bytes.len() / 14) as u64;
                let mut g = sh.graph.lock().unwrap_or_else(PoisonError::into_inner);
                for (kmer, count, succ, pred) in decode_records(bytes) {
                    g.absorb(kmer, count, succ, pred);
                }
                platform.compute(n * INSERT_NS);
            }
            TAG_DONE => {
                sh.done_count.fetch_add(1, Ordering::AcqRel);
            }
            TAG_QUERY => {
                let b = m.data.as_bytes();
                let kmer = u64::from_le_bytes(b[..8].try_into().expect("8"));
                let token = u64::from_le_bytes(b[8..16].try_into().expect("8"));
                let info = sh
                    .graph
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get(kmer);
                platform.compute(QUERY_NS);
                let mut reply = Vec::with_capacity(16);
                reply.extend_from_slice(&token.to_le_bytes());
                match info {
                    Some(i) => {
                        reply.push(1);
                        reply.extend_from_slice(&i.count.to_le_bytes());
                        reply.push(i.succ_mask);
                        reply.push(i.pred_mask);
                    }
                    None => reply.push(0),
                }
                c.send(m.src, TAG_REPLY, MsgData::Bytes(reply));
            }
            TAG_REPLY => {
                let b = m.data.as_bytes();
                let token = u64::from_le_bytes(b[..8].try_into().expect("8"));
                let info = if b[8] == 1 {
                    Some(KmerInfo {
                        count: u32::from_le_bytes(b[9..13].try_into().expect("4")),
                        succ_mask: b[13],
                        pred_mask: b[14],
                    })
                } else {
                    None
                };
                sh.replies
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(token, info);
            }
            TAG_WALKDONE => {
                let n = sh.walkdone_count.fetch_add(1, Ordering::AcqRel) + 1;
                if n == sh.nranks {
                    return;
                }
            }
            other => panic!("assembly receiver got unexpected tag {other}"),
        }
    }
}

/// Query a k-mer's record, locally or through the owner's receiver.
fn query_kmer(sh: &AssemblyShared, h: &RankHandle, kmer: u64) -> Option<KmerInfo> {
    let platform = h.platform();
    let owner = owner_of(kmer, sh.nranks);
    if owner == sh.rank {
        platform.compute(QUERY_NS);
        return sh
            .graph
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(kmer);
    }
    let token = sh.next_token.fetch_add(1, Ordering::Relaxed);
    let mut req = Vec::with_capacity(16);
    req.extend_from_slice(&kmer.to_le_bytes());
    req.extend_from_slice(&token.to_le_bytes());
    h.world_comm().send(owner, TAG_QUERY, MsgData::Bytes(req));
    // The reply is routed back through this rank's receiver thread.
    loop {
        if let Some(info) = sh
            .replies
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&token)
        {
            return info;
        }
        platform.compute(120);
        platform.yield_now();
    }
}

/// The worker thread: distributes k-mers, then walks unitigs. Returns
/// the global stats on rank 0, `None` elsewhere.
pub fn assembly_worker(sh: &AssemblyShared, h: &RankHandle) -> Option<ContigStats> {
    let platform = h.platform().clone();
    let c = h.world_comm();
    let k = sh.cfg.k;
    let nranks = sh.nranks;
    // ---- phase 2: k-mer extraction and distribution ----
    let mut outbuf: Vec<Vec<(u64, u32, u8, u8)>> = (0..nranks).map(|_| Vec::new()).collect();
    for read in &sh.reads {
        let bases = &read.bases;
        if bases.len() < k {
            continue;
        }
        let mut kmer = pack_kmer(bases, k);
        let mut extracted = 0u64;
        for i in 0..=(bases.len() - k) {
            if i > 0 {
                kmer = shift_kmer(kmer, bases[i + k - 1], k);
            }
            let succ = if i + k < bases.len() {
                1u8 << bases[i + k]
            } else {
                0
            };
            let pred = if i > 0 { 1u8 << bases[i - 1] } else { 0 };
            let o = owner_of(kmer, nranks) as usize;
            outbuf[o].push((kmer, 1, succ, pred));
            extracted += 1;
            if outbuf[o].len() >= BATCH_RECORDS {
                let bytes = encode_records(&outbuf[o]);
                outbuf[o].clear();
                c.send(o as u32, TAG_BATCH, MsgData::Bytes(bytes));
            }
        }
        platform.compute(extracted * EXTRACT_NS);
    }
    for (o, buf) in outbuf.iter_mut().enumerate() {
        if !buf.is_empty() {
            let bytes = encode_records(buf);
            buf.clear();
            c.send(o as u32, TAG_BATCH, MsgData::Bytes(bytes));
        }
    }
    for o in 0..nranks {
        c.send(o, TAG_DONE, MsgData::Bytes(Vec::new()));
    }
    // Wait until the local shard is complete, then synchronize globally
    // so every shard is complete before queries start.
    while sh.done_count.load(Ordering::Acquire) < nranks {
        platform.compute(200);
        platform.yield_now();
    }
    h.barrier();
    // ---- phase 3: unitig walking with remote queries ----
    let starts: Vec<(u64, KmerInfo)> = {
        let g = sh.graph.lock().unwrap_or_else(PoisonError::into_inner);
        g.iter().filter(|(_, i)| i.in_degree() != 1).collect()
    };
    let mut my_contigs = Vec::new();
    for (start, info) in starts {
        let mut len = k as u64;
        let mut cur_info = info;
        let mut cur = start;
        while let Some(base) = cur_info.sole_successor() {
            let next = shift_kmer(cur, base, k);
            let Some(next_info) = query_kmer(sh, h, next) else {
                break; // dangling edge (should not happen on clean input)
            };
            if next_info.in_degree() != 1 {
                break; // junction: the next unitig starts there
            }
            cur = next;
            cur_info = next_info;
            len += 1;
            if len >= sh.cfg.max_contig {
                break; // cycle guard
            }
        }
        my_contigs.push(len);
    }
    {
        let mut c = sh.contigs.lock().unwrap_or_else(PoisonError::into_inner);
        *c = my_contigs.clone();
    }
    for o in 0..nranks {
        c.send(o, TAG_WALKDONE, MsgData::Bytes(Vec::new()));
    }
    // ---- global stats ----
    let contigs = h.allreduce_sum_u64(my_contigs.len() as u64);
    let total_bases = h.allreduce_sum_u64(my_contigs.iter().sum());
    let longest = h.allreduce_max_u64(my_contigs.iter().copied().max().unwrap_or(0));
    let distinct = h.allreduce_sum_u64(
        sh.graph
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len() as u64,
    );
    (sh.rank == 0).then_some(ContigStats {
        contigs,
        total_bases,
        longest,
        distinct_kmers: distinct,
    })
}
