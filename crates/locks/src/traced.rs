//! Acquisition tracing (the instrumentation of §4.3).
//!
//! [`Traced`] wraps any [`CsLock`] and feeds a [`GrantFold`] one [`Grant`]
//! per acquisition: who won, from which socket, how many threads were
//! waiting (total and per socket) at the moment of the grant, and how long
//! the winner waited. This is the native-platform equivalent of the
//! manual MPICH instrumentation the paper describes ("we manually
//! instrumented MPICH to trace the lock acquisition").
//!
//! Threads announce their (logical) core placement once via
//! [`set_current_core`]; the harness does this when it spawns workers.

use crate::path::PathClass;
use crate::raw::CsLock;
use mtmpi_metrics::{Grant, GrantFold};
use mtmpi_topology::{CoreId, SocketId};
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

thread_local! {
    static CURRENT_CORE: Cell<Option<(CoreId, SocketId)>> = const { Cell::new(None) };
    static THREAD_ID: Cell<Option<u32>> = const { Cell::new(None) };
}

static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(0);

/// Register the calling thread's logical core/socket placement (used by
/// traced locks). Harnesses call this right after
/// spawning a worker.
pub fn set_current_core(core: CoreId, socket: SocketId) {
    CURRENT_CORE.with(|c| c.set(Some((core, socket))));
}

/// The calling thread's registered placement, if any.
// Never inlined (like `swap_current_core`): on the virtual platform the
// caller may be a fiber that is suspended and resumed on another OS
// thread, so it must not keep this thread-local's address across calls.
#[inline(never)]
pub fn current_core() -> Option<(CoreId, SocketId)> {
    CURRENT_CORE.with(Cell::get)
}

/// Replace the calling thread's placement, returning the previous one.
/// `mtmpi-sim` uses it to carry a simulated thread's placement with its
/// fiber: installed before each resume, taken back out after.
#[inline(never)]
pub fn swap_current_core(new: Option<(CoreId, SocketId)>) -> Option<(CoreId, SocketId)> {
    CURRENT_CORE.with(|c| c.replace(new))
}

fn current_thread_id() -> u32 {
    THREAD_ID.with(|t| {
        if let Some(id) = t.get() {
            id
        } else {
            let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        }
    })
}

/// Fixed maximum socket count for waiter bookkeeping; 8 sockets is plenty
/// for the machines under study.
pub const MAX_SOCKETS: usize = 8;

/// A [`CsLock`] wrapper that folds the grant statistics.
pub struct Traced<L> {
    inner: L,
    /// Waiter counts per socket.
    waiting_per_socket: [AtomicU32; MAX_SOCKETS],
    waiting_total: AtomicU32,
    /// The fold, updated while holding the inner lock (so it sees grants
    /// in order and needs no extra synchronization beyond the UnsafeCell).
    grants: std::cell::UnsafeCell<GrantFold>,
}

// SAFETY: `grants` is only touched while the inner lock is held, so
// shared access is serialized; every other field is an atomic.
unsafe impl<L: CsLock> Sync for Traced<L> {}
// SAFETY: the grants cell owns its GrantFold outright; moving the wrapper
// moves it along with the (Send) inner lock.
unsafe impl<L: CsLock + Send> Send for Traced<L> {}

impl<L: CsLock> Traced<L> {
    /// Wrap a lock.
    pub fn new(inner: L) -> Self {
        Self {
            inner,
            waiting_per_socket: Default::default(),
            waiting_total: AtomicU32::new(0),
            grants: std::cell::UnsafeCell::new(GrantFold::new()),
        }
    }

    /// Threads currently blocked in `acquire` (instantaneous; racy by
    /// nature, exact once the system is quiescent or wedged).
    pub fn waiting_now(&self) -> u32 {
        self.waiting_total.load(Ordering::Acquire)
    }

    /// Per-socket breakdown of [`Self::waiting_now`].
    pub fn waiting_per_socket_now(&self) -> [u32; MAX_SOCKETS] {
        std::array::from_fn(|s| self.waiting_per_socket[s].load(Ordering::Acquire))
    }

    /// Copy of the grant statistics so far, taken while briefly holding
    /// the lock (safe any time; the passage itself is not counted).
    pub fn grants(&self) -> GrantFold {
        self.inner.acquire(PathClass::Main);
        // SAFETY: we hold the inner lock.
        let g = unsafe { (*self.grants.get()).clone() };
        self.inner.release(PathClass::Main);
        g
    }

    fn placement(&self) -> (CoreId, SocketId) {
        current_core().unwrap_or((CoreId(0), SocketId(0)))
    }
}

impl<L: CsLock> CsLock for Traced<L> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "Traced measures real wall time by design (host-timing wrapper)"
    )]
    fn acquire(&self, class: PathClass) {
        let (_, socket) = self.placement();
        let s = socket.0 as usize % MAX_SOCKETS;
        self.waiting_total.fetch_add(1, Ordering::AcqRel);
        self.waiting_per_socket[s].fetch_add(1, Ordering::AcqRel);
        let t0 = Instant::now();
        self.inner.acquire(class);
        // We hold the lock: snapshot contention *excluding ourselves*.
        self.waiting_total.fetch_sub(1, Ordering::AcqRel);
        self.waiting_per_socket[s].fetch_sub(1, Ordering::AcqRel);
        let waiting = self.waiting_total.load(Ordering::Acquire);
        let wait_ns = t0.elapsed().as_nanos() as u64;
        let grant = Grant {
            owner: current_thread_id(),
            socket,
            waiting,
            waiting_per_socket: &self.waiting_per_socket_now(),
            wait_ns,
        };
        // SAFETY: serialized by the inner lock which we currently hold.
        unsafe { (*self.grants.get()).record(grant) };
    }

    fn release(&self, class: PathClass) {
        self.inner.release(class);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket::TicketLock;
    use std::sync::Arc;

    #[test]
    fn records_every_acquisition() {
        let lock = Arc::new(Traced::new(TicketLock::new()));
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let lock = lock.clone();
                std::thread::spawn(move || {
                    set_current_core(CoreId(i), SocketId(i / 2));
                    for _ in 0..500 {
                        lock.acquire(PathClass::Main);
                        lock.release(PathClass::Main);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let grants = lock.grants();
        assert_eq!(grants.total(), 1500);
        assert_eq!(grants.grants_per_thread().len(), 3);
        for &count in grants.grants_per_thread().values() {
            assert_eq!(count, 500);
        }
    }

    #[test]
    fn placement_defaults_to_socket0() {
        let lock = Traced::new(TicketLock::new());
        lock.acquire(PathClass::Main);
        lock.release(PathClass::Main);
        let last = lock.grants().last().expect("one grant");
        assert_eq!(last.socket, SocketId(0));
    }

    #[test]
    fn waiting_counts_are_snapshotted() {
        // Single-threaded: no waiters ever.
        let lock = Traced::new(TicketLock::new());
        for _ in 0..10 {
            lock.acquire(PathClass::Main);
            lock.release(PathClass::Main);
        }
        let grants = lock.grants();
        assert_eq!(grants.total(), 10);
        // A grant with waiters would have been a bias sample.
        assert_eq!(grants.bias().samples, 0);
    }

    #[test]
    fn wait_counts_under_contention() {
        // Hold the lock while three waiters queue, so the counts are
        // deterministic: once all three are parked, release and watch
        // them drain FIFO (ticket lock) with waiting = 2, 1, 0.
        let lock = Arc::new(Traced::new(TicketLock::new()));
        // The holder shares socket 1 with one waiter.
        set_current_core(CoreId(9), SocketId(1));
        lock.acquire(PathClass::Main);
        let handles: Vec<_> = (0..3u32)
            .map(|i| {
                let lock = lock.clone();
                std::thread::spawn(move || {
                    // Distinct sockets so the per-socket breakdown is
                    // distinguishable: waiter i on socket i+1.
                    set_current_core(CoreId(i), SocketId(i + 1));
                    lock.acquire(PathClass::Main);
                    lock.release(PathClass::Main);
                })
            })
            .collect();
        while lock.waiting_now() < 3 {
            std::thread::yield_now();
        }
        // All three parked: one per socket 1..=3, none elsewhere.
        let per_socket = lock.waiting_per_socket_now();
        assert_eq!(&per_socket[1..4], &[1, 1, 1], "{per_socket:?}");
        assert_eq!(per_socket[0], 0);
        lock.release(PathClass::Main);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(lock.waiting_now(), 0);
        assert_eq!(lock.waiting_per_socket_now(), [0; MAX_SOCKETS]);
        let grants = lock.grants();
        assert_eq!(grants.total(), 4);
        // The holder's own grant is the first and so no sample (the
        // waiters may or may not have arrived by then); the drain is
        // exact. Its grants with waiting = 2 and 1 are the two samples —
        // a fair arbiter re-elects with 1/3 then 1/2 — and the last one
        // found nobody waiting (snapshots exclude the winner itself).
        let bias = grants.bias();
        assert_eq!(bias.samples, 2);
        assert!((bias.pc_fair - (1.0 / 3.0 + 1.0 / 2.0) / 2.0).abs() < 1e-12);
        assert_eq!(grants.last().expect("four grants").waiting, 0);
        // Per-socket view: at the first drain grant exactly one of the
        // three candidates (waiting or winning) sits on the holder's
        // socket; at the second nobody is left on the first winner's.
        assert!((bias.ps_fair - (1.0 / 3.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn thread_ids_are_unique_and_stable_under_concurrency() {
        // First call to acquire() assigns the thread id; racing eight
        // first-calls must still produce eight distinct ids, and a
        // thread's second acquisition must reuse its first id.
        let lock = Arc::new(Traced::new(TicketLock::new()));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let lock = lock.clone();
                std::thread::spawn(move || {
                    for _ in 0..2 {
                        lock.acquire(PathClass::Main);
                        lock.release(PathClass::Main);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let grants = lock.grants();
        let per_thread = grants.grants_per_thread();
        assert_eq!(per_thread.len(), 8, "ids collided: {per_thread:?}");
        assert!(per_thread.values().all(|&c| c == 2), "{per_thread:?}");
    }
}
