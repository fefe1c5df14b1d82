//! Hybrid MPI+threads 3D 7-point stencil (heat equation), the paper's
//! §6.2.2 kernel.
//!
//! The global domain is decomposed across ranks along all three
//! dimensions ("our decomposition methodology tries to reduce the
//! internode communication by dividing the domain along all dimensions");
//! each rank's subdomain is further split among threads along the *least*
//! strided dimension (z slabs, so the per-thread data stays contiguous —
//! "we avoid splitting the process subdomain along the most strided
//! dimensions for better cache performance").
//!
//! Unlike `MPI_THREAD_FUNNELED` stencils, **every thread independently
//! performs its own halo communication** — nonblocking send/recv plus
//! `waitall` per iteration — and threads synchronize only at the end of
//! an iteration. Each thread has at most 8 requests in flight per
//! iteration, which is why the priority lock gains nothing over the
//! ticket lock here (§6.2.2): the per-iteration main-path entry rate is
//! negligible next to the progress-loop polling in `waitall`.
//!
//! The kernel keeps real `f64` data and Jacobi-updates it, so the
//! distributed result is validated cell-for-cell against the serial
//! reference. Phase timers give the Fig 11b breakdown: MPI (halo
//! exchange), computation, and thread synchronization.

use mtmpi_runtime::{MsgData, RankHandle, Request};
use mtmpi_sim::SpinBarrier;
use std::cell::UnsafeCell;
use std::sync::{Arc, Mutex, PoisonError};

/// Diffusion coefficient used by every run in the workspace.
pub const ALPHA: f64 = 0.1;

/// Deterministic initial condition as a function of *global* coordinates.
pub fn initial_value(x: usize, y: usize, z: usize) -> f64 {
    (((x * 31 + y) * 37 + z) % 97) as f64 / 97.0
}

/// Time breakdown of one rank (summed over its threads), in model ns —
/// the Fig 11b components.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStats {
    /// Time inside MPI calls (halo isend/irecv/waitall).
    pub mpi_ns: u64,
    /// Time computing the stencil.
    pub compute_ns: u64,
    /// Time waiting at the per-iteration thread barrier.
    pub sync_ns: u64,
}

impl PhaseStats {
    /// Merge another thread's times.
    pub fn merge(&mut self, o: &PhaseStats) {
        self.mpi_ns += o.mpi_ns;
        self.compute_ns += o.compute_ns;
        self.sync_ns += o.sync_ns;
    }

    /// Total accounted time.
    pub fn total_ns(&self) -> u64 {
        self.mpi_ns + self.compute_ns + self.sync_ns
    }
}

/// Problem + machine-mapping description.
#[derive(Debug, Clone)]
pub struct StencilConfig {
    /// Global domain cells per dimension (x, y, z).
    pub global: (usize, usize, usize),
    /// Process grid (px, py, pz); `px*py*pz` ranks.
    pub pgrid: (u32, u32, u32),
    /// Jacobi iterations.
    pub iters: u32,
    /// Threads per rank (z-slab decomposition).
    pub threads: u32,
    /// Modelled cost of one cell update, ns (≈8 flops + loads).
    pub cell_ns: u64,
}

impl StencilConfig {
    /// Total ranks.
    pub fn nranks(&self) -> u32 {
        self.pgrid.0 * self.pgrid.1 * self.pgrid.2
    }

    /// Per-rank local dims (requires divisibility).
    pub fn local_dims(&self) -> (usize, usize, usize) {
        let (gx, gy, gz) = self.global;
        let (px, py, pz) = self.pgrid;
        assert!(
            gx % px as usize == 0 && gy % py as usize == 0 && gz % pz as usize == 0,
            "global dims must divide by the process grid"
        );
        (gx / px as usize, gy / py as usize, gz / pz as usize)
    }

    /// Coordinates of a rank in the process grid.
    pub fn coords(&self, rank: u32) -> (u32, u32, u32) {
        let (px, py, _) = self.pgrid;
        (rank % px, (rank / px) % py, rank / (px * py))
    }

    /// Rank at grid coordinates, if inside the grid.
    pub fn rank_at(&self, cx: i64, cy: i64, cz: i64) -> Option<u32> {
        let (px, py, pz) = self.pgrid;
        if cx < 0
            || cy < 0
            || cz < 0
            || cx >= i64::from(px)
            || cy >= i64::from(py)
            || cz >= i64::from(pz)
        {
            return None;
        }
        Some((cx + i64::from(px) * (cy + i64::from(py) * cz)) as u32)
    }

    /// Total flops of the whole run (8 per cell update).
    pub fn total_flops(&self) -> u64 {
        let (gx, gy, gz) = self.global;
        (gx * gy * gz) as u64 * 8 * u64::from(self.iters)
    }
}

/// The six halo directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Xm,
    Xp,
    Ym,
    Yp,
    Zm,
    Zp,
}

const DIRS: [Dir; 6] = [Dir::Xm, Dir::Xp, Dir::Ym, Dir::Yp, Dir::Zm, Dir::Zp];

impl Dir {
    fn offset(self) -> (i64, i64, i64) {
        match self {
            Dir::Xm => (-1, 0, 0),
            Dir::Xp => (1, 0, 0),
            Dir::Ym => (0, -1, 0),
            Dir::Yp => (0, 1, 0),
            Dir::Zm => (0, 0, -1),
            Dir::Zp => (0, 0, 1),
        }
    }

    fn opposite(self) -> Dir {
        match self {
            Dir::Xm => Dir::Xp,
            Dir::Xp => Dir::Xm,
            Dir::Ym => Dir::Yp,
            Dir::Yp => Dir::Ym,
            Dir::Zm => Dir::Zp,
            Dir::Zp => Dir::Zm,
        }
    }

    fn index(self) -> usize {
        match self {
            Dir::Xm => 0,
            Dir::Xp => 1,
            Dir::Ym => 2,
            Dir::Yp => 3,
            Dir::Zm => 4,
            Dir::Zp => 5,
        }
    }
}

/// Halo-message tag: direction × thread-portion × iteration parity.
fn halo_tag(dir: Dir, portion: u32, iter: u32) -> i32 {
    2_000 + ((dir.index() as i32 * 256 + portion as i32) * 2 + (iter & 1) as i32)
}

struct Grid {
    data: UnsafeCell<Vec<f64>>,
}

// SAFETY: a Grid is only moved while no thread borrows its buffers (the
// owning RankStencil is built before the worker threads start).
unsafe impl Send for Grid {}
// SAFETY: threads write disjoint z-slabs between barriers; reads of the
// previous buffer are shared-read-only during the compute phase.
unsafe impl Sync for Grid {}

/// Per-rank stencil state shared by its threads.
pub struct RankStencil {
    cfg: StencilConfig,
    rank: u32,
    /// Local interior dims.
    nx: usize,
    ny: usize,
    nz: usize,
    bufs: [Grid; 2],
    barrier: SpinBarrier,
    stats: Mutex<PhaseStats>,
}

impl RankStencil {
    /// Allocate and initialize the rank's subdomain (ghost layer zeroed).
    pub fn new(cfg: &StencilConfig, rank: u32) -> Self {
        let (nx, ny, nz) = cfg.local_dims();
        let (cx, cy, cz) = cfg.coords(rank);
        let len = (nx + 2) * (ny + 2) * (nz + 2);
        let mut init = vec![0.0f64; len];
        let idx = |x: usize, y: usize, z: usize| ((z * (ny + 2)) + y) * (nx + 2) + x;
        for z in 1..=nz {
            for y in 1..=ny {
                for x in 1..=nx {
                    let gx = cx as usize * nx + (x - 1);
                    let gy = cy as usize * ny + (y - 1);
                    let gz = cz as usize * nz + (z - 1);
                    init[idx(x, y, z)] = initial_value(gx, gy, gz);
                }
            }
        }
        Self {
            cfg: cfg.clone(),
            rank,
            nx,
            ny,
            nz,
            bufs: [
                Grid {
                    data: UnsafeCell::new(init.clone()),
                },
                Grid {
                    data: UnsafeCell::new(init),
                },
            ],
            barrier: SpinBarrier::new(cfg.threads),
            stats: Mutex::new(PhaseStats::default()),
        }
    }

    #[inline]
    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        ((z * (self.ny + 2)) + y) * (self.nx + 2) + x
    }

    /// Neighbour rank in a direction, if any.
    fn neighbor(&self, dir: Dir) -> Option<u32> {
        let (cx, cy, cz) = self.cfg.coords(self.rank);
        let (dx, dy, dz) = dir.offset();
        self.cfg
            .rank_at(i64::from(cx) + dx, i64::from(cy) + dy, i64::from(cz) + dz)
    }

    /// Interior cells of the rank after the run (x-major), for
    /// validation.
    pub fn interior(&self) -> Vec<f64> {
        // SAFETY: called post-run, exclusive.
        let buf = unsafe { &*self.bufs[(self.cfg.iters % 2) as usize].data.get() };
        let mut out = Vec::with_capacity(self.nx * self.ny * self.nz);
        for z in 1..=self.nz {
            for y in 1..=self.ny {
                for x in 1..=self.nx {
                    out.push(buf[self.idx(x, y, z)]);
                }
            }
        }
        out
    }

    /// This thread's z range `[z0, z1)` (1-based interior coordinates).
    fn slab(&self, thread: u32) -> (usize, usize) {
        let t = thread as usize;
        let nth = self.cfg.threads as usize;
        let base = self.nz / nth;
        let extra = self.nz % nth;
        let z0 = 1 + t * base + t.min(extra);
        let z1 = z0 + base + usize::from(t < extra);
        (z0, z1)
    }
}

/// Extract a face plane from `buf` for sending.
#[allow(clippy::too_many_arguments)]
fn pack_face(st: &RankStencil, buf: &[f64], dir: Dir, z0: usize, z1: usize) -> Vec<u8> {
    let mut out: Vec<f64> = Vec::new();
    match dir {
        Dir::Xm | Dir::Xp => {
            let x = if dir == Dir::Xm { 1 } else { st.nx };
            for z in z0..z1 {
                for y in 1..=st.ny {
                    out.push(buf[st.idx(x, y, z)]);
                }
            }
        }
        Dir::Ym | Dir::Yp => {
            let y = if dir == Dir::Ym { 1 } else { st.ny };
            for z in z0..z1 {
                for x in 1..=st.nx {
                    out.push(buf[st.idx(x, y, z)]);
                }
            }
        }
        Dir::Zm | Dir::Zp => {
            let z = if dir == Dir::Zm { 1 } else { st.nz };
            for y in 1..=st.ny {
                for x in 1..=st.nx {
                    out.push(buf[st.idx(x, y, z)]);
                }
            }
        }
    }
    let mut bytes = Vec::with_capacity(out.len() * 8);
    for v in out {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    bytes
}

/// Write a received face into the ghost layer of `buf`.
fn unpack_ghost(st: &RankStencil, buf: &mut [f64], dir: Dir, z0: usize, z1: usize, bytes: &[u8]) {
    let vals: Vec<f64> = bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    let mut it = vals.into_iter();
    match dir {
        Dir::Xm | Dir::Xp => {
            let x = if dir == Dir::Xm { 0 } else { st.nx + 1 };
            for z in z0..z1 {
                for y in 1..=st.ny {
                    buf[st.idx(x, y, z)] = it.next().expect("face size");
                }
            }
        }
        Dir::Ym | Dir::Yp => {
            let y = if dir == Dir::Ym { 0 } else { st.ny + 1 };
            for z in z0..z1 {
                for x in 1..=st.nx {
                    buf[st.idx(x, y, z)] = it.next().expect("face size");
                }
            }
        }
        Dir::Zm | Dir::Zp => {
            let z = if dir == Dir::Zm { 0 } else { st.nz + 1 };
            for y in 1..=st.ny {
                for x in 1..=st.nx {
                    buf[st.idx(x, y, z)] = it.next().expect("face size");
                }
            }
        }
    }
}

/// Run one thread's share of the stencil. All threads of every rank call
/// this; thread 0 returns the rank's summed phase stats.
pub fn stencil_thread(st: &RankStencil, h: &RankHandle, thread: u32) -> Option<PhaseStats> {
    let platform = h.platform().clone();
    let c = h.world_comm();
    let (z0, z1) = st.slab(thread);
    let mut mine = PhaseStats::default();
    let top_thread = thread == st.cfg.threads - 1;
    let bottom_thread = thread == 0;
    for iter in 0..st.cfg.iters {
        let cur = (iter % 2) as usize;
        // SAFETY: `old` is written only in the previous iteration before
        // the barrier; during this phase all threads only read it (plus
        // each thread writes its own ghost entries of `old`, which no
        // other thread touches: x/y ghosts are per-slab, z ghosts belong
        // to the boundary threads).
        let old: &mut Vec<f64> = unsafe { &mut *st.bufs[cur].data.get() };
        // ---- halo exchange (each thread its own faces) ----
        let t_mpi = platform.now_ns();
        let mut recvs: Vec<(Dir, Request)> = Vec::new();
        let mut sends: Vec<Request> = Vec::new();
        for dir in DIRS {
            let (is_z, portion) = match dir {
                Dir::Zm => (true, 0u32),
                Dir::Zp => (true, 0u32),
                _ => (false, thread),
            };
            // z faces are exchanged only by the boundary threads.
            if matches!(dir, Dir::Zm) && !bottom_thread {
                continue;
            }
            if matches!(dir, Dir::Zp) && !top_thread {
                continue;
            }
            let _ = is_z;
            if let Some(nb) = st.neighbor(dir) {
                recvs.push((
                    dir,
                    c.irecv(Some(nb), Some(halo_tag(dir.opposite(), portion, iter))),
                ));
                let face = pack_face(st, old, dir, z0, z1);
                sends.push(c.isend(nb, halo_tag(dir, portion, iter), MsgData::Bytes(face)));
            }
        }
        let dirs: Vec<Dir> = recvs.iter().map(|(d, _)| *d).collect();
        let msgs = c.waitall(recvs.into_iter().map(|(_, r)| r).collect());
        for (dir, m) in dirs.into_iter().zip(msgs) {
            unpack_ghost(st, old, dir, z0, z1, m.data.as_bytes());
        }
        c.waitall(sends);
        mine.mpi_ns += platform.now_ns() - t_mpi;
        // ---- compute: Jacobi update of my slab ----
        let t_comp = platform.now_ns();
        {
            // SAFETY: each thread writes only its own slab of `new`.
            let new: &mut Vec<f64> = unsafe { &mut *st.bufs[1 - cur].data.get() };
            let mut cells = 0u64;
            for z in z0..z1 {
                for y in 1..=st.ny {
                    for x in 1..=st.nx {
                        let c = old[st.idx(x, y, z)];
                        let sum = old[st.idx(x - 1, y, z)]
                            + old[st.idx(x + 1, y, z)]
                            + old[st.idx(x, y - 1, z)]
                            + old[st.idx(x, y + 1, z)]
                            + old[st.idx(x, y, z - 1)]
                            + old[st.idx(x, y, z + 1)];
                        new[st.idx(x, y, z)] = c + ALPHA * (sum - 6.0 * c);
                        cells += 1;
                    }
                }
            }
            platform.compute(cells * st.cfg.cell_ns);
        }
        mine.compute_ns += platform.now_ns() - t_comp;
        // ---- end-of-iteration thread sync ----
        let t_sync = platform.now_ns();
        st.barrier.wait(platform.as_ref());
        mine.sync_ns += platform.now_ns() - t_sync;
    }
    st.stats
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .merge(&mine);
    st.barrier.wait(platform.as_ref());
    if thread == 0 {
        Some(*st.stats.lock().unwrap_or_else(PoisonError::into_inner))
    } else {
        None
    }
}

/// Serial reference: same domain, same iterations, zero Dirichlet
/// boundary.
pub fn stencil_serial(global: (usize, usize, usize), iters: u32) -> Vec<f64> {
    let (nx, ny, nz) = global;
    let idx = |x: usize, y: usize, z: usize| ((z * (ny + 2)) + y) * (nx + 2) + x;
    let len = (nx + 2) * (ny + 2) * (nz + 2);
    let mut a = vec![0.0f64; len];
    let mut b = vec![0.0f64; len];
    for z in 1..=nz {
        for y in 1..=ny {
            for x in 1..=nx {
                a[idx(x, y, z)] = initial_value(x - 1, y - 1, z - 1);
            }
        }
    }
    for _ in 0..iters {
        for z in 1..=nz {
            for y in 1..=ny {
                for x in 1..=nx {
                    let c = a[idx(x, y, z)];
                    let sum = a[idx(x - 1, y, z)]
                        + a[idx(x + 1, y, z)]
                        + a[idx(x, y - 1, z)]
                        + a[idx(x, y + 1, z)]
                        + a[idx(x, y, z - 1)]
                        + a[idx(x, y, z + 1)];
                    b[idx(x, y, z)] = c + ALPHA * (sum - 6.0 * c);
                }
            }
        }
        std::mem::swap(&mut a, &mut b);
    }
    let mut out = Vec::with_capacity(nx * ny * nz);
    for z in 1..=nz {
        for y in 1..=ny {
            for x in 1..=nx {
                out.push(a[idx(x, y, z)]);
            }
        }
    }
    out
}

/// Stitch per-rank interiors into the global x-major array.
pub fn assemble_global(cfg: &StencilConfig, per_rank: &[Arc<RankStencil>]) -> Vec<f64> {
    let (gx, gy, gz) = cfg.global;
    let (nx, ny, nz) = cfg.local_dims();
    let mut out = vec![0.0; gx * gy * gz];
    for (r, st) in per_rank.iter().enumerate() {
        let (cx, cy, cz) = cfg.coords(r as u32);
        let interior = st.interior();
        let mut it = interior.into_iter();
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let gxi = cx as usize * nx + x;
                    let gyi = cy as usize * ny + y;
                    let gzi = cz as usize * nz + z;
                    out[(gzi * gy + gyi) * gx + gxi] = it.next().expect("interior size");
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_geometry() {
        let cfg = StencilConfig {
            global: (8, 8, 8),
            pgrid: (2, 2, 2),
            iters: 1,
            threads: 2,
            cell_ns: 2,
        };
        assert_eq!(cfg.nranks(), 8);
        assert_eq!(cfg.local_dims(), (4, 4, 4));
        assert_eq!(cfg.coords(0), (0, 0, 0));
        assert_eq!(cfg.coords(7), (1, 1, 1));
        assert_eq!(cfg.rank_at(1, 1, 1), Some(7));
        assert_eq!(cfg.rank_at(-1, 0, 0), None);
        assert_eq!(cfg.rank_at(2, 0, 0), None);
    }

    #[test]
    fn slab_partition_covers_interior() {
        let cfg = StencilConfig {
            global: (4, 4, 10),
            pgrid: (1, 1, 1),
            iters: 1,
            threads: 3,
            cell_ns: 2,
        };
        let st = RankStencil::new(&cfg, 0);
        let mut covered = vec![false; st.nz];
        for t in 0..3 {
            let (z0, z1) = st.slab(t);
            for z in z0..z1 {
                assert!(!covered[z - 1], "overlap at z {z}");
                covered[z - 1] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "full coverage");
    }

    #[test]
    fn serial_conserves_roughly() {
        // Diffusion with zero boundary leaks energy but never grows it.
        let before: f64 = (0..6)
            .flat_map(|z| (0..6).flat_map(move |y| (0..6).map(move |x| initial_value(x, y, z))))
            .sum();
        let after: f64 = stencil_serial((6, 6, 6), 10).iter().sum();
        assert!(after <= before + 1e-9);
        assert!(after > 0.0);
    }

    #[test]
    fn dir_opposites() {
        for d in DIRS {
            assert_eq!(d.opposite().opposite(), d);
            let (a, b, c) = d.offset();
            let (x, y, z) = d.opposite().offset();
            assert_eq!((a + x, b + y, c + z), (0, 0, 0));
        }
    }
}
