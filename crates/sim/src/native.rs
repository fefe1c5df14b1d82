//! The native platform: real threads, real locks, wall-clock time.
//!
//! The same runtime and application code that runs under the virtual
//! platform runs here against the genuine lock implementations from
//! `mtmpi-locks`. Time is wall time divided by `time_scale` (model
//! nanoseconds), so tests can compress simulated work; the network
//! mailbox applies the same [`NetModel`] delays in model-time.

use crate::platform::{LockId, LockKind, Payload, Platform, PlatformReport, ThreadDesc};
use mtmpi_locks::{CsLock, FutexMutex, PathClass, PriorityTicketLock, TicketLock, Traced};
use mtmpi_net::NetModel;
use mtmpi_topology::ClusterTopology;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

struct Arriving {
    at: u64,
    seq: u64,
    payload: Payload,
}

impl PartialEq for Arriving {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Arriving {}
impl Ord for Arriving {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}
impl PartialOrd for Arriving {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct NetState {
    mailboxes: Vec<Mutex<BinaryHeap<Arriving>>>,
    nic_free: Vec<AtomicU64>,
    ep_node: Vec<u32>,
    seq: AtomicU64,
}

/// Lock `m` even if a worker panicked while holding it: no critical
/// section here can panic once it has begun to change its data, so none
/// leaves it half-updated.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A spawned-but-not-yet-run worker thread.
type PendingThread = (ThreadDesc, Box<dyn FnOnce() + Send>);

/// A registered critical-section lock with its grant statistics.
type TracedLock = Traced<Box<dyn CsLock>>;

/// Native execution platform.
pub struct NativePlatform {
    cluster: ClusterTopology,
    net: NetModel,
    /// Wall seconds per model second; < 1.0 compresses simulated work.
    time_scale: f64,
    epoch: Instant,
    /// Locks created so far; [`Platform::run`] moves them into `frozen`.
    locks: Mutex<Vec<TracedLock>>,
    /// The locks of the run, read by index on every critical-section
    /// entry and exit without a host lock in front of the one measured.
    frozen: OnceLock<Box<[TracedLock]>>,
    netstate: Mutex<NetState>,
    threads: Mutex<Vec<PendingThread>>,
    seed: u64,
    rng_salt: AtomicU64,
}

thread_local! {
    static NATIVE_RNG: RefCell<Option<SmallRng>> = const { RefCell::new(None) };
    static NATIVE_TID: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// Process-wide native thread-id source (stable ids for obs events and
/// stream binds).
static NEXT_NATIVE_TID: AtomicU64 = AtomicU64::new(0);

impl NativePlatform {
    /// Create a native platform. `time_scale` of 1.0 means `compute(n)`
    /// burns `n` wall nanoseconds; smaller values compress.
    #[expect(
        clippy::disallowed_methods,
        reason = "the native backend is the wall-clock platform"
    )]
    pub fn new(cluster: ClusterTopology, net: NetModel, time_scale: f64, seed: u64) -> Self {
        assert!(time_scale >= 0.0, "time scale must be non-negative");
        Self {
            cluster,
            net,
            time_scale,
            epoch: Instant::now(),
            locks: Mutex::new(Vec::new()),
            frozen: OnceLock::new(),
            netstate: Mutex::new(NetState {
                mailboxes: Vec::new(),
                nic_free: Vec::new(),
                ep_node: Vec::new(),
                seq: AtomicU64::new(0),
            }),
            threads: Mutex::new(Vec::new()),
            seed,
            rng_salt: AtomicU64::new(1),
        }
    }

    fn build_lock(&self, kind: LockKind) -> Box<dyn CsLock> {
        match kind {
            LockKind::Mutex => Box::new(FutexMutex::new()),
            LockKind::Ticket => Box::new(TicketLock::new()),
            LockKind::Priority => Box::new(PriorityTicketLock::new()),
        }
    }

    fn frozen_lock(&self, lock: LockId) -> &TracedLock {
        let locks = self.frozen.get().expect(
            "native platform: a lock is entered before `run` (locks are fixed when the run starts)",
        );
        &locks[lock.0]
    }

    fn wall_to_model(&self, wall_ns: u64) -> u64 {
        if self.time_scale == 0.0 {
            wall_ns // scale 0 means "compute is free"; keep time identity
        } else {
            (wall_ns as f64 / self.time_scale) as u64
        }
    }
}

impl Platform for NativePlatform {
    fn now_ns(&self) -> u64 {
        self.wall_to_model(self.epoch.elapsed().as_nanos() as u64)
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "the native backend is the wall-clock platform"
    )]
    fn compute(&self, ns: u64) {
        if self.time_scale == 0.0 {
            return;
        }
        let wall_target = (ns as f64 * self.time_scale) as u64;
        let start = Instant::now();
        // Spin for short waits, sleep for long ones.
        while (start.elapsed().as_nanos() as u64) < wall_target {
            let remaining = wall_target - start.elapsed().as_nanos() as u64;
            if remaining > 200_000 {
                std::thread::sleep(std::time::Duration::from_nanos(remaining / 2));
            } else {
                std::hint::spin_loop();
            }
        }
    }

    fn yield_now(&self) {
        std::thread::yield_now();
    }

    fn rng_u64(&self) -> u64 {
        NATIVE_RNG.with(|r| {
            let mut r = r.borrow_mut();
            if r.is_none() {
                let salt = self.rng_salt.fetch_add(1, Ordering::Relaxed);
                *r = Some(SmallRng::seed_from_u64(
                    self.seed ^ salt.wrapping_mul(0x9E37_79B9),
                ));
            }
            r.as_mut().expect("just set").gen()
        })
    }

    fn lock_create(&self, kind: LockKind) -> LockId {
        let mut locks = lock_unpoisoned(&self.locks);
        assert!(
            self.frozen.get().is_none(),
            "native platform: lock_create after `run` (locks are fixed when the run starts)"
        );
        locks.push(Traced::new(self.build_lock(kind)));
        LockId(locks.len() - 1)
    }

    fn lock_acquire(&self, lock: LockId, class: PathClass) {
        self.frozen_lock(lock).acquire(class);
    }

    fn lock_release(&self, lock: LockId, class: PathClass) {
        self.frozen_lock(lock).release(class);
    }

    fn register_endpoint(&self, node: u32) -> usize {
        assert!(node < self.cluster.nodes, "endpoint node out of range");
        let mut ns = lock_unpoisoned(&self.netstate);
        ns.ep_node.push(node);
        ns.mailboxes.push(Mutex::new(BinaryHeap::new()));
        while ns.nic_free.len() < self.cluster.nodes as usize {
            ns.nic_free.push(AtomicU64::new(0));
        }
        ns.ep_node.len() - 1
    }

    fn endpoint_count(&self) -> usize {
        lock_unpoisoned(&self.netstate).ep_node.len()
    }

    fn net_send(&self, src: usize, dst: usize, bytes: u64, payload: Payload) {
        let now = self.now_ns();
        let ns = lock_unpoisoned(&self.netstate);
        let src_node = ns.ep_node[src] as usize;
        let same = ns.ep_node[src] == ns.ep_node[dst];
        let mt = self.net.timing(same, bytes);
        // Advance the NIC watermark atomically (CAS loop).
        let nic = &ns.nic_free[src_node];
        let mut cur = nic.load(Ordering::Relaxed);
        let mut start;
        loop {
            start = cur.max(now);
            match nic.compare_exchange_weak(
                cur,
                start + mt.inject_ns,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
        let at = start + mt.inject_ns + mt.wire_ns;
        let seq = ns.seq.fetch_add(1, Ordering::Relaxed);
        lock_unpoisoned(&ns.mailboxes[dst]).push(Arriving { at, seq, payload });
    }

    fn net_poll(&self, endpoint: usize) -> Vec<Payload> {
        let now = self.now_ns();
        let ns = lock_unpoisoned(&self.netstate);
        let mut mb = lock_unpoisoned(&ns.mailboxes[endpoint]);
        let mut pkts = Vec::new();
        while mb.peek().is_some_and(|a| a.at <= now) {
            pkts.push(mb.pop().expect("peeked").payload);
        }
        pkts
    }

    fn net_pending(&self, endpoint: usize) -> bool {
        let ns = lock_unpoisoned(&self.netstate);
        let pending = !lock_unpoisoned(&ns.mailboxes[endpoint]).is_empty();
        pending
    }

    fn node_count(&self) -> Option<u32> {
        Some(self.cluster.nodes)
    }

    fn current_tid(&self) -> u64 {
        NATIVE_TID.with(|t| {
            if let Some(id) = t.get() {
                id
            } else {
                let id = NEXT_NATIVE_TID.fetch_add(1, Ordering::Relaxed);
                t.set(Some(id));
                id
            }
        })
    }

    fn spawn(&self, desc: ThreadDesc, f: Box<dyn FnOnce() + Send>) {
        assert!(
            desc.core.0 < self.cluster.node.total_cores(),
            "thread core out of range"
        );
        lock_unpoisoned(&self.threads).push((desc, f));
    }

    fn run(&self) -> PlatformReport {
        let locks = {
            // Held until `frozen` is set, so no `lock_create` slips between.
            let mut created = lock_unpoisoned(&self.locks);
            self.frozen
                .get_or_init(|| std::mem::take(&mut *created).into_boxed_slice())
        };
        let threads: Vec<_> = std::mem::take(&mut *lock_unpoisoned(&self.threads));
        let topo = self.cluster.node.clone();
        let handles: Vec<_> = threads
            .into_iter()
            .map(|(desc, f)| {
                let socket = topo.socket_of(desc.core);
                let core = desc.core;
                std::thread::Builder::new()
                    .name(desc.name)
                    .spawn(move || {
                        mtmpi_locks::set_current_core(core, socket);
                        f();
                    })
                    .expect("spawn worker")
            })
            .collect();
        for h in handles {
            h.join().expect("worker panicked");
        }
        let lock_grants = locks.iter().map(Traced::grants).collect();
        PlatformReport {
            end_ns: self.now_ns(),
            lock_grants,
            sched_trace_hash: 0,
            events: 0,
            handoffs: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtmpi_topology::presets::nehalem_cluster_scaled;

    fn platform() -> NativePlatform {
        NativePlatform::new(nehalem_cluster_scaled(1), NetModel::instant(), 0.0, 1)
    }

    #[test]
    #[should_panic(expected = "lock_create after `run`")]
    fn a_lock_created_after_the_run_panics() {
        let p = platform();
        p.run();
        p.lock_create(LockKind::Ticket);
    }
}
