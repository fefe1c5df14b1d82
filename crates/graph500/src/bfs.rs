//! Serial reference BFS and the distributed hybrid (MPI+threads) BFS.

use crate::csr::Csr;
use crate::kronecker::EdgeList;
use mtmpi_runtime::{Comm, RankHandle, Request, TestOutcome};
use mtmpi_sim::SpinBarrier;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Level-synchronous traversal from `root`. `discover(u, v, level)` is
/// called for every scanned edge `u -> v` (`level` being the depth `v`
/// would get) and says whether that was the first sight of `v`.
fn traverse(csr: &Csr, root: u64, mut discover: impl FnMut(u32, u32, i64) -> bool) {
    let (mut frontier, mut next) = (vec![root as u32], Vec::new());
    let mut level = 0;
    while !frontier.is_empty() {
        level += 1;
        for &u in &frontier {
            for &v in csr.row(u as usize) {
                if discover(u, v, level) {
                    next.push(v);
                }
            }
        }
        frontier.clear();
        std::mem::swap(&mut frontier, &mut next);
    }
}

/// Serial BFS over a full CSR; returns the parent array (`-1` =
/// unreached, root's parent is itself).
pub fn bfs_serial(csr: &Csr, root: u64) -> Vec<i64> {
    let mut parent = vec![-1i64; csr.nrows()];
    parent[root as usize] = root as i64;
    traverse(csr, root, |u, v, _| {
        let fresh = parent[v as usize] < 0;
        if fresh {
            parent[v as usize] = i64::from(u);
        }
        fresh
    });
    parent
}

/// Check a parent array against the graph: root is its own parent, the
/// reached vertices are exactly the reachable ones, every parent edge
/// exists, and the BFS level relation holds (level(v) ==
/// level(parent(v)) + 1).
///
/// `csr` must be symmetric (`row(u)` holds `v` exactly as often as
/// `row(v)` holds `u`, which [`Csr::from_edges`] guarantees): the edge
/// `parent(v) -> v` exists iff `row(v)` holds `parent(v)`.
///
/// A tree that passes [`tree_is_bfs`] is valid and costs no traversal;
/// any other is handed to the reference check, whose error names the
/// first fault.
pub fn validate_parents(csr: &Csr, root: u64, parent: &[i64]) -> Result<(), String> {
    if tree_is_bfs(csr, root, parent) {
        Ok(())
    } else {
        reference_check(csr, root, parent)
    }
}

/// The Graph 500 specification's validation of a BFS tree, in one pass
/// over the rows and no traversal: the root is its own parent, every
/// reached vertex's parent chain ends at the root without a cycle (which
/// gives it a tree level), every arc joins two reached or two unreached
/// vertices whose levels differ by at most one, and every tree edge is
/// an arc. Levels so accepted are BFS distances: a chain is a path, so a
/// level is no less than the distance, and along a shortest path it
/// grows by at most one per arc. So this accepts exactly the trees
/// [`reference_check`] accepts.
fn tree_is_bfs(csr: &Csr, root: u64, parent: &[i64]) -> bool {
    const UNREACHED: i32 = -1;
    const ON_CHAIN: i32 = -2;
    let n = csr.nrows();
    if parent.len() < n || parent.get(root as usize) != Some(&(root as i64)) {
        return false;
    }
    let mut level = vec![UNREACHED; n];
    level[root as usize] = 0;
    let mut chain = Vec::new();
    for v in 0..n {
        if parent[v] < 0 || level[v] != UNREACHED {
            continue;
        }
        // Climb to a vertex of known level, marking the way.
        let mut w = v;
        while level[w] == UNREACHED {
            level[w] = ON_CHAIN;
            chain.push(w);
            match usize::try_from(parent[w]) {
                Ok(p) if p < n => w = p,
                _ => return false,
            }
        }
        if level[w] == ON_CHAIN {
            return false; // a cycle
        }
        let mut l = level[w];
        while let Some(u) = chain.pop() {
            l += 1;
            level[u] = l;
        }
    }
    (0..n).all(|u| {
        let (lu, p) = (level[u], parent[u]);
        let mut tree_edge = u as u64 == root || lu < 0;
        for &w in csr.row(u) {
            let lw = level[w as usize];
            if (lu < 0) != (lw < 0) || (lu - lw).abs() > 1 {
                return false;
            }
            tree_edge |= i64::from(w) == p;
        }
        tree_edge
    })
}

/// The check [`validate_parents`] makes of a tree it could not accept
/// at once: a reference BFS from `root`, then every vertex against it,
/// naming the first fault found.
fn reference_check(csr: &Csr, root: u64, parent: &[i64]) -> Result<(), String> {
    if parent[root as usize] != root as i64 {
        return Err(format!("root parent is {}", parent[root as usize]));
    }
    // Reference levels; `level[v] >= 0` is reachability.
    let mut level = vec![-1i64; csr.nrows()];
    level[root as usize] = 0;
    traverse(csr, root, |_, v, l| {
        let fresh = level[v as usize] < 0;
        if fresh {
            level[v as usize] = l;
        }
        fresh
    });
    for v in 0..csr.nrows() {
        match (parent[v] >= 0, level[v] >= 0) {
            (true, false) => return Err(format!("vertex {v} reached but unreachable")),
            (false, true) => return Err(format!("vertex {v} unreached but reachable")),
            (false, false) => continue,
            (true, true) => {}
        }
        if v as u64 == root {
            continue;
        }
        let p = parent[v] as usize;
        let (short, other) = if csr.row(p).len() <= csr.row(v).len() {
            (csr.row(p), v)
        } else {
            (csr.row(v), p)
        };
        if !short.contains(&(other as u32)) {
            return Err(format!("no edge {p} -> {v}"));
        }
        if level[v] != level[p] + 1 {
            return Err(format!(
                "level mismatch at {v}: level {} vs parent level {}",
                level[v], level[p]
            ));
        }
    }
    Ok(())
}

const CHUNK: usize = 256;
const FLUSH_PAIRS: usize = 512;
const TAG_BASE: i32 = 1_000;

fn edge_tag(thread: u32, level: u32) -> i32 {
    TAG_BASE + (thread as i32) * 4 + (level & 1) as i32
}

fn done_tag(thread: u32, level: u32) -> i32 {
    edge_tag(thread, level) + 2
}

/// `ceil(2^63 / d)`: `(v * reciprocal(d)) >> 63` is `v / d` for every
/// `u32` `v`. For `v < 2^32` and `d <= 2^31`, `v * ceil(2^63 / d) / 2^63`
/// exceeds `v / d` by less than `2^32 * d / (d * 2^63) = 2^-31 <= 1 / d`,
/// too little to carry it past the next multiple of `1 / d`.
fn reciprocal(d: u32) -> u64 {
    assert!((1..=1 << 31).contains(&d), "divisor {d} out of range");
    (1u64 << 63).div_ceil(u64::from(d))
}

struct Shared {
    /// Parent of each *local* vertex (global id / nranks), -1 unset.
    parent: Vec<i64>,
    /// Current frontier: global ids owned by this rank.
    frontier: Vec<u32>,
    next: Vec<u32>,
    traversed: u64,
    global_next: u64,
    level: u32,
}

/// Per-rank state of one hybrid BFS run. Create one per rank (wrapped in
/// `Arc`) and hand clones of it to each of the rank's threads, which all
/// call [`hybrid_bfs_thread`].
pub struct HybridBfs {
    /// Local rows (cyclic partition). Never written: every run over the
    /// same graph and rank count shares them.
    pub csr: Arc<Csr>,
    nranks: u32,
    /// `reciprocal(nranks)`, by which `place` divides.
    recip: u64,
    rank: u32,
    shared: Mutex<Shared>,
    cursor: AtomicUsize,
    barrier: SpinBarrier,
}

/// Result returned by thread 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybridStats {
    /// Total edges scanned across all ranks and threads.
    pub traversed_edges: u64,
    /// BFS depth.
    pub levels: u32,
    /// Vertices reached across all ranks (including the root).
    pub reached: u64,
}

impl HybridBfs {
    /// Build the per-rank state from the global edge list.
    pub fn new(el: &EdgeList, root: u64, rank: u32, nranks: u32, nthreads: u32) -> Self {
        let rows = Arc::new(Csr::partition_cyclic(el, rank, nranks));
        Self::over(rows, root, rank, nranks, nthreads)
    }

    /// The state of one run over rows partitioned earlier: `rows` is
    /// `Csr::partition_all(el, nranks)[rank]`. Allocates only what a run
    /// writes.
    pub fn over(rows: Arc<Csr>, root: u64, rank: u32, nranks: u32, nthreads: u32) -> Self {
        let mut shared = Shared {
            parent: vec![-1; rows.nrows()],
            frontier: Vec::new(),
            next: Vec::new(),
            traversed: 0,
            global_next: 0,
            level: 0,
        };
        if root % u64::from(nranks) == u64::from(rank) {
            shared.parent[(root / u64::from(nranks)) as usize] = root as i64;
            shared.frontier.push(root as u32);
        }
        Self {
            csr: rows,
            nranks,
            recip: reciprocal(nranks),
            rank,
            shared: Mutex::new(shared),
            cursor: AtomicUsize::new(0),
            barrier: SpinBarrier::new(nthreads),
        }
    }

    /// Owning rank and local row of global vertex `v`: `v mod nranks`
    /// and `v / nranks`, by one multiply with the reciprocal.
    fn place(&self, v: u32) -> (u32, usize) {
        let q = ((u128::from(v) * u128::from(self.recip)) >> 63) as u32;
        (v - q * self.nranks, q as usize)
    }

    /// Scan the frontier chunk beginning at `start` from `pos` — (slot in
    /// the chunk, edge in that slot's row) — until the chunk ends (`None`)
    /// or the send buffer of a rank fills (`Some(rank)`), leaving `pos`
    /// where the next section resumes; the frontier is not written during
    /// a compute phase. `edges` grows by the length of every row begun.
    ///
    /// One guard per section, not per edge: a world's threads run one at
    /// a time, and nothing in here suspends.
    fn scan_section(
        &self,
        start: usize,
        (slot, edge): &mut (usize, usize),
        edges: &mut u64,
        outbuf: &mut [Vec<(u32, u32)>],
    ) -> Option<u32> {
        let mut guard = self.shared.lock().unwrap_or_else(PoisonError::into_inner);
        let sh = &mut *guard;
        let chunk = &sh.frontier[start..(start + CHUNK).min(sh.frontier.len())];
        while let Some(&u) = chunk.get(*slot) {
            let row = self.csr.row(self.place(u).1);
            if *edge == 0 {
                *edges += row.len() as u64;
            }
            for (k, &v) in row[*edge..].iter().enumerate() {
                let (o, lv) = self.place(v);
                if o == self.rank {
                    if sh.parent[lv] < 0 {
                        sh.parent[lv] = i64::from(u);
                        sh.next.push(v);
                    }
                } else {
                    let buf = &mut outbuf[o as usize];
                    buf.push((v, u));
                    if buf.len() >= FLUSH_PAIRS {
                        *edge += k + 1;
                        return Some(o);
                    }
                }
            }
            (*slot, *edge) = (*slot + 1, 0);
        }
        None
    }

    /// Local parents (for validation); call after the run.
    pub fn parents_local(&self) -> Vec<i64> {
        self.shared
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .parent
            .clone()
    }
}

fn encode_pairs(pairs: &[(u32, u32)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(pairs.len() * 8);
    for &(v, u) in pairs {
        out.extend_from_slice(&v.to_le_bytes());
        out.extend_from_slice(&u.to_le_bytes());
    }
    out
}

/// Send `pairs` to rank `to` as one edge batch, leaving it empty.
fn send_batch(c: &Comm, to: u32, tag: i32, pairs: &mut Vec<(u32, u32)>) -> Request {
    let data = encode_pairs(pairs);
    pairs.clear();
    c.isend(to, tag, data.into())
}

fn decode_pairs(bytes: &[u8]) -> impl Iterator<Item = (u32, u32)> + '_ {
    bytes.chunks_exact(8).map(|c| {
        (
            u32::from_le_bytes(c[..4].try_into().expect("4 bytes")),
            u32::from_le_bytes(c[4..].try_into().expect("4 bytes")),
        )
    })
}

/// Run one thread's share of the hybrid BFS. All `nthreads` threads of
/// every rank must call this with their thread index; thread 0 returns
/// the global stats, others `None`.
///
/// `edge_ns` is the modelled cost of scanning one edge for *this thread*
/// (callers charge a higher cost for threads whose cores sit on a remote
/// socket from the graph's memory — the single-node scaling experiment's
/// NUMA effect).
pub fn hybrid_bfs_thread(
    bfs: &HybridBfs,
    h: &RankHandle,
    thread: u32,
    edge_ns: u64,
) -> Option<HybridStats> {
    let platform = h.platform().clone();
    let c = h.world_comm();
    let nranks = bfs.nranks;
    let mut my_traversed = 0u64;
    let mut levels = 0u32;
    // Every buffer is flushed empty by the end of a level.
    let mut outbuf: Vec<Vec<(u32, u32)>> = (0..nranks).map(|_| Vec::new()).collect();
    let mut batches_sent = vec![0u64; nranks as usize];
    loop {
        let level = bfs
            .shared
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .level;
        let etag = edge_tag(thread, level);
        // ---- compute phase: scan my chunks of the frontier ----
        let mut send_reqs: Vec<Request> = Vec::new();
        batches_sent.fill(0);
        loop {
            let start = bfs.cursor.fetch_add(CHUNK, Ordering::Relaxed);
            if start
                >= bfs
                    .shared
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .frontier
                    .len()
            {
                break;
            }
            // A full send buffer ends a section: the guard is gone by
            // the time `isend` suspends this thread.
            let (mut pos, mut edges_here) = ((0, 0), 0);
            while let Some(o) = bfs.scan_section(start, &mut pos, &mut edges_here, &mut outbuf) {
                send_reqs.push(send_batch(&c, o, etag, &mut outbuf[o as usize]));
                batches_sent[o as usize] += 1;
            }
            my_traversed += edges_here;
            platform.compute(edges_here * edge_ns);
            // Synchronize with the scheduler between chunks: the chunk
            // cursor is shared real state, so without a virtual-time
            // yield one thread would drain the whole frontier before its
            // peers (whose virtual clocks are behind) ever run.
            platform.yield_now();
        }
        // ---- flush remainders, then announce batch counts ----
        for (o, buf) in outbuf.iter_mut().enumerate() {
            if !buf.is_empty() {
                send_reqs.push(send_batch(&c, o as u32, etag, buf));
                batches_sent[o] += 1;
            }
        }
        if nranks > 1 {
            for o in 0..nranks {
                if o != bfs.rank {
                    send_reqs.push(c.isend(
                        o,
                        done_tag(thread, level),
                        batches_sent[o as usize].to_le_bytes().to_vec().into(),
                    ));
                }
            }
            drain_incoming(bfs, h, thread, level, &platform);
        }
        c.waitall(send_reqs);
        // ---- level barrier + frontier swap ----
        bfs.barrier.wait(platform.as_ref());
        let mut global_next = 0;
        if thread == 0 {
            let local_next = {
                let mut guard = bfs.shared.lock().unwrap_or_else(PoisonError::into_inner);
                let sh = &mut *guard;
                std::mem::swap(&mut sh.frontier, &mut sh.next);
                sh.next.clear();
                sh.level += 1;
                sh.frontier.len() as u64
            };
            bfs.cursor.store(0, Ordering::Release);
            global_next = h.allreduce_sum_u64(local_next);
            bfs.shared
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .global_next = global_next;
        }
        bfs.barrier.wait(platform.as_ref());
        if thread != 0 {
            global_next = bfs
                .shared
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .global_next;
        }
        levels += 1;
        if global_next == 0 {
            break;
        }
    }
    // ---- wind-down: aggregate stats ----
    {
        let mut sh = bfs.shared.lock().unwrap_or_else(PoisonError::into_inner);
        sh.traversed += my_traversed;
    }
    bfs.barrier.wait(platform.as_ref());
    if thread == 0 {
        let (local_traversed, local_reached) = {
            let sh = bfs.shared.lock().unwrap_or_else(PoisonError::into_inner);
            (
                sh.traversed,
                sh.parent.iter().filter(|&&p| p >= 0).count() as u64,
            )
        };
        let traversed_edges = h.allreduce_sum_u64(local_traversed);
        let reached = h.allreduce_sum_u64(local_reached);
        Some(HybridStats {
            traversed_edges,
            levels,
            reached,
        })
    } else {
        None
    }
}

/// Receive this thread's edge batches for the level until every peer's
/// DONE count is satisfied. See the module docs of `mtmpi-runtime` for
/// why prompt receive posting matters (delayed posting inflates the
/// unexpected queue — the N2N effect of §5.2).
fn drain_incoming(
    bfs: &HybridBfs,
    h: &RankHandle,
    thread: u32,
    level: u32,
    platform: &std::sync::Arc<dyn mtmpi_sim::Platform>,
) {
    let nranks = bfs.nranks;
    let c = h.world_comm();
    let etag = edge_tag(thread, level);
    let dtag = done_tag(thread, level);
    let mut done_reqs: Vec<Request> = (0..nranks)
        .filter(|&o| o != bfs.rank)
        .map(|o| c.irecv(Some(o), Some(dtag)))
        .collect();
    let mut expected = 0u64;
    let mut received = 0u64;
    let mut edge_req: Option<Request> = None;
    loop {
        // Collect DONE counts.
        let mut still = Vec::with_capacity(done_reqs.len());
        for r in done_reqs {
            match c.test(r) {
                TestOutcome::Done(m) => {
                    let b = m.data.as_bytes();
                    expected += u64::from_le_bytes(b[..8].try_into().expect("u64"));
                }
                TestOutcome::Pending(r) => still.push(r),
            }
        }
        done_reqs = still;
        // Keep exactly one edge receive posted while batches remain.
        if edge_req.is_none() && received < expected {
            edge_req = Some(c.irecv(None, Some(etag)));
        }
        if let Some(r) = edge_req.take() {
            match c.test(r) {
                TestOutcome::Done(m) => {
                    received += 1;
                    let bytes = m.data.as_bytes();
                    let mut newly = 0u64;
                    {
                        let mut sh = bfs.shared.lock().unwrap_or_else(PoisonError::into_inner);
                        for (v, u) in decode_pairs(bytes) {
                            let (o, lv) = bfs.place(v);
                            debug_assert_eq!(o, bfs.rank);
                            if sh.parent[lv] < 0 {
                                sh.parent[lv] = i64::from(u);
                                sh.next.push(v);
                                newly += 1;
                            }
                        }
                    }
                    platform.compute(8 * newly + (bytes.len() as u64 / 8) * 4);
                }
                TestOutcome::Pending(r) => edge_req = Some(r),
            }
        }
        if done_reqs.is_empty() && received >= expected && edge_req.is_none() {
            return;
        }
        platform.compute(150); // polling pause between test rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// `place` of a run over `nranks` ranks (one empty row, one thread).
    fn placer(nranks: u32) -> HybridBfs {
        let rows = Csr {
            offsets: vec![0, 0],
            targets: Vec::new(),
        };
        HybridBfs::over(Arc::new(rows), 0, 0, nranks, 1)
    }

    #[test]
    fn place_divides_exactly() {
        let mut rng = SmallRng::seed_from_u64(46);
        for d in (1..=64).chain([(1 << 31) - 1, 1 << 31]) {
            let bfs = placer(d);
            let fixed = [0, 1, d - 1, d, d + 1, u32::MAX - 1, u32::MAX];
            for v in fixed.into_iter().chain((0..4096).map(|_| rng.gen::<u32>())) {
                assert_eq!(
                    bfs.place(v),
                    (v % d, (v / d) as usize),
                    "{v} over {d} ranks"
                );
            }
        }
    }

    /// A graph, a root, and which single entry of the root's BFS tree to
    /// corrupt: `kind` 0 leaves the tree whole; 1 unsets `parent[v]`, 2
    /// makes `v` its own parent, 3 points `v` at `w`, 4 changes the
    /// root's parent. `v` is picked among the reached vertices when
    /// `reached` says so and there are any besides the root.
    fn case() -> impl Strategy<Value = (EdgeList, u64, u8, bool, prop::sample::Index, u64)> {
        (2u32..7).prop_flat_map(|scale| {
            let n = 1u64 << scale;
            (
                proptest::collection::vec((0..n, 0..n), 0..150),
                0..n,
                0u8..5,
                any::<bool>(),
                any::<prop::sample::Index>(),
                0..n,
            )
                .prop_map(move |(edges, root, kind, reached, v, w)| {
                    (EdgeList { scale, edges }, root, kind, reached, v, w)
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// The one-pass rules accept exactly what the reference check
        /// accepts, so `validate_parents` gives its verdict and error.
        #[test]
        fn one_pass_verdict_is_the_reference_verdict(c in case()) {
            let (el, root, kind, reached, pick, w) = c;
            let csr = Csr::from_edges(&el);
            let mut parent = bfs_serial(&csr, root);
            let tree: Vec<usize> = (0..parent.len())
                .filter(|&u| parent[u] >= 0 && u as u64 != root)
                .collect();
            let v = if reached && !tree.is_empty() {
                tree[pick.index(tree.len())]
            } else {
                pick.index(parent.len())
            };
            let w = w as i64;
            match kind {
                1 => parent[v] = -1,
                2 => parent[v] = v as i64,
                3 => parent[v] = w,
                4 => parent[root as usize] = if w == root as i64 { -1 } else { w },
                _ => {}
            }
            let reference = reference_check(&csr, root, &parent);
            prop_assert_eq!(tree_is_bfs(&csr, root, &parent), reference.is_ok());
            prop_assert_eq!(validate_parents(&csr, root, &parent), reference);
        }
    }
}
