//! The [`Platform`] trait and its shared types.

use crate::errors::SimError;
use mtmpi_metrics::GrantFold;
use mtmpi_topology::CoreId;
use std::any::Any;

/// Opaque message payload carried through the platform mailbox. The
/// runtime downcasts it back to its packet type on receipt.
pub type Payload = Box<dyn Any + Send>;

/// Identifier of a platform-managed critical-section lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LockId(pub usize);

/// Which arbitration the lock uses — the paper's three contenders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockKind {
    /// NPTL-style barging mutex (the baseline under study).
    Mutex,
    /// FIFO ticket lock (remedy 1, §5.1).
    Ticket,
    /// Two-level priority ticket lock (remedy 2, §5.2).
    Priority,
}

/// Cost parameters of the virtual-platform lock model.
///
/// The *ratios* between these constants, not their absolute values, drive
/// the reproduced phenomena; defaults are calibrated so the §4.3 bias
/// factors land near the paper's (≈2× core, ≈1.25× socket for the mutex).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LockModelParams {
    /// Cost of acquiring a free, never-contended lock (local CAS).
    pub uncontended_ns: u64,
    /// Random jitter added to each contender's observation time in the
    /// mutex CAS race (models pipeline/coherence nondeterminism; small,
    /// so NUMA distances stay meaningful).
    pub jitter_ns: u64,
    /// Additional uniform jitter on the futex wake latency (kernel
    /// scheduling noise; large relative to `jitter_ns`).
    pub wake_jitter_ns: u64,
    /// Function-call + atomic overhead of an unlock-then-relock
    /// turnaround: the previous owner re-contending pays this before its
    /// CAS lands, which is what gives freshly-spinning waiters a chance.
    pub steal_overhead_ns: u64,
    /// How long a mutex waiter spins in user space before FUTEX_WAIT.
    pub spin_window_ns: u64,
    /// FUTEX_WAKE-to-userspace-retry latency for a sleeping waiter.
    pub wake_ns: u64,
    /// Maximum consecutive main-path grants while progress-path threads
    /// wait, for the priority model. The real Fig 7 lock bounds bursts
    /// structurally (a low-priority thread already queued on `ticket_B`
    /// slips in at a burst boundary); unbounded priority would starve
    /// the progress loop that *frees* requests.
    pub priority_burst: u32,
    /// Cost of re-fetching the critical section's *working set* (queue
    /// heads, request objects) when ownership moves to another core on
    /// the same socket. This is the real price of fair rotation — the
    /// runtime's structures are cache-hot only for the previous owner.
    pub migrate_same_socket_ns: u64,
    /// Same, when ownership crosses the socket boundary.
    pub migrate_cross_socket_ns: u64,
}

impl Default for LockModelParams {
    fn default() -> Self {
        Self {
            uncontended_ns: 15,
            jitter_ns: 60,
            wake_jitter_ns: 1_200,
            steal_overhead_ns: 60,
            priority_burst: 3,
            spin_window_ns: 300,
            wake_ns: 3_000,
            migrate_same_socket_ns: 350,
            migrate_cross_socket_ns: 800,
        }
    }
}

/// Placement of a worker thread.
#[derive(Debug, Clone)]
pub struct ThreadDesc {
    /// Human-readable name (shows up in deadlock diagnostics).
    pub name: String,
    /// Node index in the cluster.
    pub node: u32,
    /// Core within the node the thread is pinned to.
    pub core: CoreId,
}

/// What a completed run reports back.
#[derive(Debug, Default)]
pub struct PlatformReport {
    /// Virtual end time (or wall time in model-ns for the native
    /// platform): the latest time any worker finished.
    pub end_ns: u64,
    /// Grant statistics per lock, indexed by [`LockId`].
    pub lock_grants: Vec<GrantFold>,
    /// Order-sensitive FNV-1a 64 hash of every scheduler decision the
    /// virtual platform made (event dequeue order, grant outcomes).
    /// Same seed + same workload → same hash; any divergence in the
    /// schedule changes it. The native platform is not deterministic and
    /// reports 0.
    pub sched_trace_hash: u64,
    /// Scheduler events processed during the run (the quantity the fuel
    /// bound counts, and the numerator of any events-per-second rate).
    /// The native platform has no event loop and reports 0.
    pub events: u64,
    /// Transfers of control between distinct contexts (the stepping
    /// thread and each simulated thread) during the run, see
    /// `RunHandle::handoffs`: a deterministic count. The native platform
    /// schedules nothing itself and reports 0.
    pub handoffs: u64,
}

/// Execution platform abstraction. See the crate docs for the contract.
///
/// All methods except [`Platform::spawn`], [`Platform::lock_create`],
/// [`Platform::register_endpoint`] and [`Platform::run`] are called from
/// worker threads; the latter four are called from the controlling thread
/// before/around the run.
pub trait Platform: Send + Sync {
    /// Current time in nanoseconds (virtual, or scaled wall time).
    fn now_ns(&self) -> u64;

    /// Account for `ns` of local computation.
    fn compute(&self, ns: u64);

    /// Politely give other threads a chance (no-op in virtual time beyond
    /// a minimal advance).
    fn yield_now(&self);

    /// Deterministic-per-thread random number (virtual platform) or
    /// thread-local PRNG draw (native).
    fn rng_u64(&self) -> u64;

    /// Create a critical-section lock of the given kind. Pre-run only.
    fn lock_create(&self, kind: LockKind) -> LockId;

    /// Enter the critical section from the given path class.
    fn lock_acquire(&self, lock: LockId, class: mtmpi_locks::PathClass);

    /// Leave the critical section.
    fn lock_release(&self, lock: LockId, class: mtmpi_locks::PathClass);

    /// Register a communication endpoint (an MPI rank) living on `node`.
    /// Returns the endpoint id. Pre-run only.
    fn register_endpoint(&self, node: u32) -> usize;

    /// Number of registered endpoints.
    fn endpoint_count(&self) -> usize;

    /// Send `bytes` of payload from endpoint `src` to endpoint `dst`. The
    /// payload becomes visible to `net_poll(dst)` after the modelled
    /// network delay. Returns immediately (asynchronous injection).
    fn net_send(&self, src: usize, dst: usize, bytes: u64, payload: Payload);

    /// [`Platform::net_send`] with `extra_delay_ns` of additional
    /// in-flight latency on top of the modelled network delay. Used by
    /// fault injection to delay or reorder individual packets; the NIC
    /// occupancy (injection serialization) is unaffected — only the
    /// arrival time moves. Platforms that cannot model per-packet delay
    /// fall back to an undelayed send.
    fn net_send_delayed(
        &self,
        src: usize,
        dst: usize,
        bytes: u64,
        extra_delay_ns: u64,
        payload: Payload,
    ) {
        let _ = extra_delay_ns;
        self.net_send(src, dst, bytes, payload);
    }

    /// Drain all packets that have arrived at `endpoint` by now.
    fn net_poll(&self, endpoint: usize) -> Vec<Payload>;

    /// Whether any packet is in flight or queued for `endpoint`.
    fn net_pending(&self, endpoint: usize) -> bool;

    /// Number of cluster nodes this platform models, when known. Used by
    /// the runtime's world builder to validate rank→node placements
    /// before registering endpoints.
    fn node_count(&self) -> Option<u32> {
        None
    }

    /// Stable id of the calling worker thread (the thread of a recorded
    /// event, and a stream's bind claim); `u64::MAX` when the caller is
    /// not one of the platform's threads.
    fn current_tid(&self) -> u64 {
        u64::MAX
    }

    /// Register a worker thread. Pre-run only.
    fn spawn(&self, desc: ThreadDesc, f: Box<dyn FnOnce() + Send>);

    /// Bound the next run to at most `max_events` scheduler events
    /// (`None` = unlimited). On the virtual platform an exhausted bound
    /// fails the run with [`SimError::FuelExhausted`]; platforms without
    /// an event loop ignore the hint. Pre-run only.
    fn set_fuel(&self, _max_events: Option<u64>) {}

    /// Run all registered workers to completion and report.
    ///
    /// Panics (with the [`SimError`] rendering) on livelock/deadlock;
    /// use [`Platform::try_run`] for the typed surface.
    fn run(&self) -> PlatformReport;

    /// Like [`Platform::run`], but fuel exhaustion and deadlock come
    /// back as typed [`SimError`]s instead of panics. The default
    /// forwards to `run` for platforms that cannot fail this way.
    fn try_run(&self) -> Result<PlatformReport, SimError> {
        Ok(self.run())
    }
}
