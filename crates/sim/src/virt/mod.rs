//! The deterministic virtual-time platform.
//!
//! A run uses **no OS threads of its own**. Every simulated thread is a
//! fiber ([`fiber`]): its worker closure runs on a private stack, on
//! whichever OS thread is inside [`RunHandle::step`]. `step` runs the
//! event loop ([`Scheduler::advance`]) until an event resumes a simulated
//! thread, then switches onto its fiber and lends it the scheduler. From
//! there the loop runs on the fibers. At each synchronization point (lock
//! or network operation) the worker checks whether its own `Exec` event
//! would be the very next event the loop pops; if so it executes that
//! event in place ([`Scheduler::exec_inline`]) and runs on. Otherwise it
//! queues the event and runs the loop itself, on its own stack
//! ([`Scheduler::sync`]): an event that resumes it lets it run on, and
//! one that resumes another thread hands the run straight to that
//! thread's fiber ([`fiber::hand_off`]). A hand-off from one simulated
//! thread to the next is that one stack switch — a few nanoseconds, no
//! syscall — and a thread that is next after itself pays none. Only the
//! end of a quantum (budget, fuel, completion, a deadlock) and the end of
//! a worker's closure (returned or panicked) switch back to `step`.
//!
//! Local computation ([`Platform::compute`]) accumulates in the worker's
//! own context without touching the scheduler, so simulation cost scales
//! with synchronization frequency, not with simulated work.
//!
//! Determinism: events are processed strictly in `(virtual time,
//! sequence)` order by one loop over one queue. Worker interaction is
//! fully serialized, and all randomness (CAS-race jitter, per-thread RNG
//! streams) derives from the run's seed. Which OS thread steps a run is
//! transport, not a decision, and is not hashed.

pub mod arena;
pub mod calendar;
mod fiber;
pub(crate) mod vlock;

use crate::errors::{BlockedOn, BlockedThread, LockDiag, SimError};
use crate::platform::{
    LockId, LockKind, LockModelParams, Payload, Platform, PlatformReport, ThreadDesc,
};
use arena::Arena;
use calendar::CalendarQueue;
use fiber::{with_worker, Fiber};
use mtmpi_locks::PathClass;
use mtmpi_net::NetModel;
use mtmpi_topology::{ClusterTopology, CoreId, SocketId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::{Cell, RefCell};
use std::collections::BinaryHeap;
use std::sync::{Mutex, Once};
use vlock::{AcquireOutcome, GrantOutcome, ReleaseOutcome, VLock};

/// Operations a worker submits to the scheduler.
enum Op {
    /// Event-loop pass with no effect: lets other threads run up to
    /// this thread's current virtual time (used by `yield_now` so that
    /// busy-waits on shared memory stay live).
    Fence,
    LockAcquire {
        lock: usize,
        class: PathClass,
    },
    LockRelease {
        lock: usize,
    },
    NetSend {
        src: usize,
        dst: usize,
        bytes: u64,
        extra_delay_ns: u64,
        payload: Payload,
    },
    NetPoll {
        endpoint: usize,
    },
    NetPending {
        endpoint: usize,
    },
}

impl std::fmt::Debug for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::Fence => write!(f, "Fence"),
            Op::LockAcquire { lock, class } => write!(f, "LockAcquire({lock}, {class:?})"),
            Op::LockRelease { lock } => write!(f, "LockRelease({lock})"),
            Op::NetSend {
                src,
                dst,
                bytes,
                extra_delay_ns,
                ..
            } => {
                if *extra_delay_ns > 0 {
                    write!(f, "NetSend({src}->{dst}, {bytes}B, +{extra_delay_ns}ns)")
                } else {
                    write!(f, "NetSend({src}->{dst}, {bytes}B)")
                }
            }
            Op::NetPoll { endpoint } => write!(f, "NetPoll({endpoint})"),
            Op::NetPending { endpoint } => write!(f, "NetPending({endpoint})"),
        }
    }
}

/// What a resumed worker is handed: the virtual time it resumes at, plus
/// the result of the operation it submitted — or the order to unwind.
enum Reply {
    Go {
        now: u64,
    },
    Packets {
        now: u64,
        pkts: Vec<Payload>,
    },
    Flag {
        now: u64,
        v: bool,
    },
    /// The run is over (typed error, cancellation): unwind the worker.
    Abort,
}

impl Reply {
    fn now(&self) -> u64 {
        match self {
            Reply::Go { now } | Reply::Packets { now, .. } | Reply::Flag { now, .. } => *now,
            Reply::Abort => unreachable!("an abort reply carries no resume time"),
        }
    }
}

/// What a fiber hands the stepping thread when it switches back.
enum Yield {
    /// The event loop, running on the fiber, ended the quantum; the
    /// worker is suspended at a sync point.
    Stop(Result<StepOutcome, SimError>),
    /// The worker's closure returned at virtual time `at`.
    Retired { at: u64 },
    /// The worker's closure unwound, with this panic message.
    Panicked(String),
}

/// Where control goes when the event loop stops.
enum Pass {
    /// An event resumes simulated thread `.0` with reply `.1`.
    Resume(usize, Reply),
    /// The quantum is over.
    Stop(Result<StepOutcome, SimError>),
}

/// A simulated thread's own state. It lives with the thread's fiber, not
/// with an OS thread: [`with_worker`] finds the one the caller is running
/// on (`None` off a simulated thread: before `run()`, or on the stepping
/// thread).
struct WorkerCtx {
    tid: usize,
    base: Cell<u64>,
    offset: Cell<u64>,
    rng: RefCell<SmallRng>,
    /// Set by [`Reply::Abort`]; every later sync point unwinds again.
    aborted: Cell<bool>,
}

/// Panic payload used to unwind a worker when the run has shut down early
/// (fuel exhaustion / typed deadlock / cancellation). The worker wrapper
/// swallows it, and the process panic hook stays silent for it, so an
/// aborted run produces exactly one diagnostic: the [`SimError`].
struct SimAbort;

/// Install (once, process-wide) a panic hook that suppresses printing
/// for [`SimAbort`] unwinds and defers to the previous hook otherwise.
fn install_abort_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<SimAbort>().is_some() {
                return;
            }
            prev(info);
        }));
    });
}

impl WorkerCtx {
    fn now(&self) -> u64 {
        self.base.get() + self.offset.get()
    }

    fn compute(&self, ns: u64) {
        self.offset.set(self.offset.get() + ns);
    }

    /// Submit `op` and run the event loop on this fiber's stack until an
    /// event resumes this thread. An event that resumes another thread
    /// first hands the run to that thread's fiber, and this one waits to
    /// be handed it back; the end of the quantum suspends it until a later
    /// `step`.
    fn sync(&self, op: Op) -> Reply {
        if !self.aborted.get() {
            let at = self.now();
            let reply = match fiber::with_scheduler(|s| s.sync(at, self.tid, op)) {
                Pass::Resume(tid, reply) if tid == self.tid => reply,
                Pass::Resume(tid, reply) => fiber::hand_off(tid, reply),
                Pass::Stop(stop) => fiber::suspend(Yield::Stop(stop)),
            };
            match reply {
                Reply::Abort => self.aborted.set(true),
                reply => {
                    self.resume_at(reply.now());
                    return reply;
                }
            }
        }
        // The run stopped with a typed error (or was cancelled) and is
        // waiting for this worker to unwind.
        std::panic::panic_any(SimAbort);
    }

    fn resume_at(&self, now: u64) {
        self.base.set(now);
        self.offset.set(0);
    }
}

fn with_ctx<R>(f: impl FnOnce(&WorkerCtx) -> R) -> R {
    with_worker(|c| {
        f(c.expect(
            "virtual-platform operation outside a simulated thread (did you call it before run()?)",
        ))
    })
}

/// What a fiber runs: the worker closure, from the reply that started it
/// to its final yield. Catches every unwind — nothing may unwind off the
/// top of a fiber's stack.
fn worker_main(ctx: &WorkerCtx, first: Reply, f: Box<dyn FnOnce() + Send>) -> Yield {
    ctx.resume_at(first.now());
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(()) => Yield::Retired { at: ctx.now() },
        // A `SimAbort` unwind too: only `Fiber::drop` resumes with
        // `Reply::Abort`, and it discards the yield.
        Err(e) => Yield::Panicked(
            e.downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| e.downcast_ref::<&str>().copied())
                .unwrap_or("worker panicked")
                .to_owned(),
        ),
    }
}

/// Order-sensitive FNV-1a 64 accumulator over scheduler decisions.
///
/// Every event dequeued from the event queue (the dequeue order *is* the
/// scheduler's decision trace) folds its virtual time, kind, and payload
/// into the hash, and every lock grant folds the granted thread and
/// grant time. Which OS thread ran the loop is not a decision and is not
/// folded in. Two runs with identical seeds and workloads produce
/// byte-identical event sequences, hence equal hashes; any schedule
/// divergence — a different interleaving, a different grant winner, a
/// shifted arrival — changes it. Exposed per run as
/// [`PlatformReport::sched_trace_hash`] so replay identity can be
/// asserted without comparing full traces.
#[derive(Debug, Clone, Copy)]
struct SchedHash(u64);

impl SchedHash {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// `PRIME^k` for `k` in `0..=8`.
    const PRIME_POW: [u64; 9] = {
        let mut pow = [1u64; 9];
        let mut k = 1;
        while k < pow.len() {
            pow[k] = pow[k - 1].wrapping_mul(Self::PRIME);
            k += 1;
        }
        pow
    };

    /// FNV-1a over the 8 little-endian bytes of `word`. A zero byte's
    /// step is a multiply by `PRIME` (the xor is a no-op), so the run of
    /// zero high bytes folds into one multiply by `PRIME^k`: exact, and
    /// most words (times, tids, kinds) have few significant bytes.
    fn mix(&mut self, word: u64) {
        let significant = (u64::BITS - word.leading_zeros()).div_ceil(8) as usize;
        let mut h = self.0;
        for &b in &word.to_le_bytes()[..significant] {
            h = (h ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
        self.0 = h.wrapping_mul(Self::PRIME_POW[8 - significant]);
    }

    fn event(&mut self, ev: &Ev) {
        self.mix(ev.t);
        match ev.kind {
            EvKind::Start(tid) => {
                self.mix(1);
                self.mix(tid as u64);
            }
            EvKind::Exec(tid) => {
                self.mix(2);
                self.mix(tid as u64);
            }
            EvKind::Grant { lock, gen } => {
                self.mix(3);
                self.mix(lock as u64);
                self.mix(gen);
            }
        }
    }

    fn grant(&mut self, tid: usize, at: u64) {
        self.mix(4);
        self.mix(tid as u64);
        self.mix(at);
    }
}

/// Scheduler event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvKind {
    Start(usize),
    Exec(usize),
    Grant { lock: usize, gen: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ev {
    t: u64,
    seq: u64,
    kind: EvKind,
}

impl calendar::Keyed for Ev {
    fn time(&self) -> u64 {
        self.t
    }
    fn seq(&self) -> u64 {
        self.seq
    }
}

/// A mailbox entry: the ordering key of a packet in flight (or waiting)
/// plus the arena slot holding its payload. Keeping payloads out of the
/// per-mailbox heaps means heap sifting moves 20-byte keys, and payload
/// storage is recycled through the [`Arena`] free list — zero
/// per-message allocation in steady state.
struct MailKey {
    at: u64,
    seq: u64,
    slot: u32,
}

impl PartialEq for MailKey {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for MailKey {}
impl Ord for MailKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}
impl PartialOrd for MailKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct ThreadInfo {
    name: String,
    node: u32,
    core: CoreId,
    socket: SocketId,
}

/// Pre-run registration state.
struct Registration {
    lock_specs: Vec<LockKind>,
    endpoints: Vec<u32>, // node per endpoint
    threads: Vec<(ThreadDesc, Box<dyn FnOnce() + Send>)>,
}

/// The deterministic virtual-time platform. See module docs.
pub struct VirtualPlatform {
    cluster: ClusterTopology,
    net: NetModel,
    params: LockModelParams,
    seed: u64,
    reg: Mutex<Option<Registration>>,
    fuel: Mutex<Option<u64>>,
}

impl VirtualPlatform {
    /// Create a platform for the given cluster and network model.
    pub fn new(
        cluster: ClusterTopology,
        net: NetModel,
        params: LockModelParams,
        seed: u64,
    ) -> Self {
        Self {
            cluster,
            net,
            params,
            seed,
            reg: Mutex::new(Some(Registration {
                lock_specs: Vec::new(),
                endpoints: Vec::new(),
                threads: Vec::new(),
            })),
            fuel: Mutex::new(None),
        }
    }

    /// The cluster this platform models.
    pub fn cluster(&self) -> &ClusterTopology {
        &self.cluster
    }

    fn reg_mut<R>(&self, what: &str, f: impl FnOnce(&mut Registration) -> R) -> R {
        let mut g = self.reg.lock().unwrap();
        let reg = g
            .as_mut()
            .unwrap_or_else(|| panic!("{what} after run() started"));
        f(reg)
    }
}

impl Platform for VirtualPlatform {
    fn now_ns(&self) -> u64 {
        with_worker(|c| c.map_or(0, WorkerCtx::now))
    }

    fn compute(&self, ns: u64) {
        with_worker(|c| {
            if let Some(c) = c {
                c.compute(ns);
            }
        });
    }

    fn yield_now(&self) {
        // A real pass through the event loop (plus a minimal advance):
        // without it, a thread busy-waiting on shared memory would never
        // let its peers run. Pre-run (no worker context) it is a no-op.
        with_worker(|c| {
            if let Some(c) = c {
                c.compute(1);
                c.sync(Op::Fence);
            }
        });
    }

    fn rng_u64(&self) -> u64 {
        with_worker(|c| match c {
            Some(c) => c.rng.borrow_mut().gen(),
            None => SmallRng::seed_from_u64(self.seed).gen(),
        })
    }

    fn lock_create(&self, kind: LockKind) -> LockId {
        self.reg_mut("lock_create", |r| {
            r.lock_specs.push(kind);
            LockId(r.lock_specs.len() - 1)
        })
    }

    fn current_tid(&self) -> u64 {
        with_worker(|c| c.map_or(u64::MAX, |c| c.tid as u64))
    }

    fn node_count(&self) -> Option<u32> {
        Some(self.cluster.nodes)
    }

    fn lock_acquire(&self, lock: LockId, class: PathClass) {
        with_ctx(|c| {
            c.sync(Op::LockAcquire {
                lock: lock.0,
                class,
            });
        });
    }

    fn lock_release(&self, lock: LockId, _class: PathClass) {
        with_ctx(|c| {
            c.sync(Op::LockRelease { lock: lock.0 });
        });
    }

    fn register_endpoint(&self, node: u32) -> usize {
        assert!(node < self.cluster.nodes, "endpoint node out of range");
        self.reg_mut("register_endpoint", |r| {
            r.endpoints.push(node);
            r.endpoints.len() - 1
        })
    }

    fn endpoint_count(&self) -> usize {
        self.reg
            .lock()
            .unwrap()
            .as_ref()
            .map_or(0, |r| r.endpoints.len())
    }

    fn net_send(&self, src: usize, dst: usize, bytes: u64, payload: Payload) {
        self.net_send_delayed(src, dst, bytes, 0, payload);
    }

    fn net_send_delayed(
        &self,
        src: usize,
        dst: usize,
        bytes: u64,
        extra_delay_ns: u64,
        payload: Payload,
    ) {
        with_ctx(|c| {
            c.sync(Op::NetSend {
                src,
                dst,
                bytes,
                extra_delay_ns,
                payload,
            });
        });
    }

    fn net_poll(&self, endpoint: usize) -> Vec<Payload> {
        with_ctx(|c| match c.sync(Op::NetPoll { endpoint }) {
            Reply::Packets { pkts, .. } => pkts,
            _ => unreachable!("poll reply shape"),
        })
    }

    fn net_pending(&self, endpoint: usize) -> bool {
        with_ctx(|c| match c.sync(Op::NetPending { endpoint }) {
            Reply::Flag { v, .. } => v,
            _ => unreachable!("pending reply shape"),
        })
    }

    fn spawn(&self, desc: ThreadDesc, f: Box<dyn FnOnce() + Send>) {
        assert!(
            desc.core.0 < self.cluster.node.total_cores(),
            "thread core out of range"
        );
        assert!(desc.node < self.cluster.nodes, "thread node out of range");
        self.reg_mut("spawn", |r| r.threads.push((desc, f)));
    }

    fn set_fuel(&self, max_events: Option<u64>) {
        *self.fuel.lock().unwrap() = max_events;
    }

    fn run(&self) -> PlatformReport {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_run(&self) -> Result<PlatformReport, SimError> {
        let mut handle = self.start();
        // An effectively-unbounded budget: fuel or completion wins first.
        handle.step(u64::MAX)?;
        Ok(handle.finish())
    }
}

impl VirtualPlatform {
    /// Launch the registered threads and hand back a resumable
    /// [`RunHandle`] instead of running to completion. The handle is a
    /// `Send` work item: a worker pool (mtmpi-serve) can park it after a
    /// bounded [`RunHandle::step`] and resume it on a *different* OS
    /// thread. Launching spawns nothing: each simulated thread gets a
    /// recycled fiber stack (a panic naming the size if none can be
    /// mapped). [`Platform::try_run`] is exactly
    /// `start()` + `step(u64::MAX)` + `finish()`, so stepping in any
    /// quantum series produces the same event order, `end_ns`, and
    /// `sched_trace_hash` as a monolithic run.
    ///
    /// Panics if called twice (same contract as `run()`).
    pub fn start(&self) -> RunHandle {
        let reg = self
            .reg
            .lock()
            .unwrap()
            .take()
            .expect("run() may only be called once");
        let fuel = *self.fuel.lock().unwrap();
        RunHandle::launch(self, reg, fuel)
    }
}

/// The event-loop state of one run, a plain field of its [`RunHandle`].
/// No borrow of the platform survives `start()` (the network model is
/// cloned in), so a run is a movable, `Send` work item.
struct Scheduler {
    net: NetModel,
    /// Pending events: at most one `Start`/`Exec` per simulated thread
    /// plus the lock `Grant`s not yet due (packets wait in `mailboxes`).
    q: CalendarQueue<Ev>,
    seq: u64,
    vlocks: Vec<VLock>,
    mailboxes: Vec<BinaryHeap<MailKey>>,
    packets: Arena<Payload>,
    nic_free: Vec<u64>,
    ep_node: Vec<u32>,
    threads: Vec<ThreadInfo>,
    pending_op: Vec<Option<Op>>,
    live: usize,
    done: Vec<bool>,
    end_ns: u64,
    hash: SchedHash,
    fuel: Option<u64>,
    n_events: u64,
    /// Events the current [`RunHandle::step`] call may still execute.
    budget_left: u64,
    /// The context control is on: `None` is the stepping thread. A
    /// hand-off is a transfer between two distinct ones; a thread resumed
    /// by its own `Exec` event is not one.
    running: Option<usize>,
    /// Transfers of control between distinct contexts so far.
    handoffs: u64,
    /// Every simulated thread's fiber, by tid: where a hand-off goes.
    /// Owned by the [`RunHandle`]'s `fibers`.
    fibers: Vec<fiber::FiberRef>,
}

/// Progress report from one [`RunHandle::step`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The event budget ran out while threads are still live; call
    /// [`RunHandle::step`] again (from any thread) to continue.
    Pending,
    /// Every thread finished. [`RunHandle::finish`] yields the report.
    Done,
}

/// A launched-but-resumable simulation: the scheduler state and the
/// simulated threads' fibers of one [`VirtualPlatform::start`] call,
/// steppable in bounded event quanta.
///
/// The handle owns no OS thread. Everything a run does happens inside
/// [`RunHandle::step`], on the thread that calls it, so a pool can park a
/// run after a quantum and resume it elsewhere: the suspended fibers
/// travel with the handle. Exactly one thread may step a handle at a time
/// (guaranteed by `&mut self`).
///
/// Determinism contract: the event order consumed by `step` depends only
/// on the registered workload and seed, never on the quantum series —
/// `step(3)` four times hashes the same trace as `step(12)` once.
///
/// Dropping a handle before completion cancels the run: every suspended
/// worker is resumed once with an abort reply and unwinds quietly (the
/// same machinery as fuel/deadlock shutdown), so its closure's
/// destructors run; a worker that never started just drops its closure.
pub struct RunHandle {
    sched: Scheduler,
    /// One per simulated thread, by tid. Emptied by `abort()`.
    fibers: Vec<Fiber>,
    finished: bool,
    aborted: bool,
}

// SAFETY: a run is a movable work item. `Scheduler` is `Send` by
// construction; a `Fiber` is not, because it holds a suspended stack
// whose frames may contain anything the worker closure had live at its
// last sync point. Moving those frames to another OS thread is sound
// under this contract, which the closure's `Send` bound alone does not
// give:
// * a fiber runs only inside `step`/`drop` (`&mut self`/owned), so the
//   frames are only ever used by one OS thread at a time, and the move
//   itself synchronizes (whatever sends the handle);
// * the simulated thread's identity travels with the fiber, not with the
//   OS thread: its `WorkerCtx`, its `mtmpi_locks` placement and its
//   `mtmpi_obs` shard claim are installed into thread-local storage by
//   whatever switches onto the fiber (`fiber::resume` or
//   `fiber::hand_off`) and taken back out when it switches away, and are
//   read only through `#[inline(never)]` accessors, so no thread-local
//   address survives a suspension;
// * the one pointer into the handle a fiber keeps, to the `Scheduler`
//   `fiber::resume` lends the run, is held by one fiber at a time —
//   `fiber::hand_off` moves it on — for the length of that call only,
//   and null in every fiber whenever the handle can move: the fiber that
//   switches back to `step` has it cleared, and a handing fiber clears
//   its own. So a suspended fiber's frames hold no `&mut Scheduler`
//   either (`fiber::with_scheduler` refuses to suspend or hand off while
//   it lends one);
// * the scheduler's table of fiber addresses (`fiber::FiberRef`) points
//   into this same handle's `fibers`, and is read only inside `step`;
// * worker code holds nothing else that is bound to an OS thread across
//   a `Platform` suspension call — no host lock guard
//   (`std::sync::MutexGuard` must be released by the thread that locked),
//   no thread-local borrow. `mtmpi-lint` rule L007 enforces the guard
//   half workspace-wide.
unsafe impl Send for RunHandle {}

// The impl above must only be vouching for the fibers (the table's
// `FiberRef`s included): compile-time proof that a stray `Rc`/borrow in
// the scheduler can't ride along.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Scheduler>();
};

impl RunHandle {
    fn launch(platform: &VirtualPlatform, reg: Registration, fuel: Option<u64>) -> RunHandle {
        install_abort_hook();
        let topo = platform.cluster.node.clone();
        let handoff = platform.cluster.handoff;
        let vlocks: Vec<VLock> = reg
            .lock_specs
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                VLock::new(
                    kind,
                    platform.params,
                    topo.clone(),
                    handoff,
                    platform
                        .seed
                        .wrapping_add(0x9E37_79B9)
                        .wrapping_mul(i as u64 + 1),
                )
            })
            .collect();

        let n_threads = reg.threads.len();
        assert!(n_threads > 0, "run() with no registered threads");
        let infos = reg
            .threads
            .iter()
            .map(|(desc, _)| ThreadInfo {
                name: desc.name.clone(),
                node: desc.node,
                core: desc.core,
                socket: topo.socket_of(desc.core),
            })
            .collect();

        let fibers: Vec<Fiber> = reg
            .threads
            .into_iter()
            .enumerate()
            .map(|(tid, (desc, f))| {
                let worker = WorkerCtx {
                    tid,
                    base: Cell::new(0),
                    offset: Cell::new(0),
                    rng: RefCell::new(SmallRng::seed_from_u64(
                        platform.seed ^ (0xA5A5_5A5A_u64.wrapping_mul(tid as u64 + 1)),
                    )),
                    aborted: Cell::new(false),
                };
                // The placement travels with the fiber so traced locks and
                // the obs event layer stamp events with real core/socket,
                // matching the native platform's workers.
                Fiber::new(worker, (desc.core, topo.socket_of(desc.core)), f)
            })
            .collect();

        let mut sched = Scheduler {
            net: platform.net.clone(),
            q: CalendarQueue::new(),
            seq: 0,
            vlocks,
            mailboxes: (0..reg.endpoints.len())
                .map(|_| BinaryHeap::new())
                .collect(),
            packets: Arena::new(),
            nic_free: vec![0; platform.cluster.nodes as usize],
            ep_node: reg.endpoints,
            threads: infos,
            pending_op: (0..n_threads).map(|_| None).collect(),
            live: n_threads,
            done: vec![false; n_threads],
            end_ns: 0,
            hash: SchedHash::new(),
            fuel,
            n_events: 0,
            budget_left: 0,
            running: None,
            handoffs: 0,
            fibers: fibers.iter().map(Fiber::handle).collect(),
        };
        for tid in 0..n_threads {
            sched.push(0, EvKind::Start(tid));
        }

        RunHandle {
            sched,
            fibers,
            finished: false,
            aborted: false,
        }
    }

    /// Execute up to `budget` further scheduler events.
    ///
    /// The calling thread runs the event loop ([`Scheduler::advance`]) on
    /// its own stack until an event resumes a simulated thread, and
    /// switches onto that thread's fiber. From there the loop runs on the
    /// fibers ([`Scheduler::sync`]), each handing the run straight to the
    /// next, and control comes back here only when the quantum ends —
    /// budget, completion, fuel or deadlock — or a worker's closure
    /// returns or panics, on whichever fiber the run has reached. On
    /// return every worker is suspended at a sync point, not yet started,
    /// or finished.
    ///
    /// Errors (deadlock, [`SimError::FuelExhausted`]) abort the run —
    /// workers are unwound before the error returns, and the handle
    /// refuses further stepping. A worker panic is re-raised here as
    /// ``worker `<name>` panicked: <msg>``, likewise after every worker
    /// is unwound. A quantum boundary is *not* a deadlock probe: when the
    /// budget runs out the loop stops before it looks at the queue, so
    /// `Pending` never converts a would-be deadlock report into silence
    /// (the next `step` reports it).
    pub fn step(&mut self, budget: u64) -> Result<StepOutcome, SimError> {
        assert!(!self.aborted, "step() after the run aborted");
        if self.finished {
            return Ok(StepOutcome::Done);
        }
        let sched = &mut self.sched;
        sched.budget_left = budget;
        let stop = loop {
            let (tid, reply) = match sched.advance() {
                Pass::Resume(tid, reply) => (tid, reply),
                Pass::Stop(stop) => break stop,
            };
            match fiber::resume(&mut self.fibers, tid, reply, sched) {
                (_, Yield::Stop(stop)) => break stop,
                (tid, Yield::Retired { at }) => {
                    sched.done[tid] = true;
                    sched.live -= 1;
                    sched.end_ns = sched.end_ns.max(at);
                }
                (tid, Yield::Panicked(msg)) => {
                    sched.handoffs += 1;
                    let report = format!("worker `{}` panicked: {msg}", sched.threads[tid].name);
                    self.abort();
                    panic!("{report}");
                }
            }
        };
        sched.handoffs += u64::from(sched.running.take().is_some());
        match stop {
            Ok(outcome) => self.finished = outcome == StepOutcome::Done,
            Err(_) => self.abort(),
        }
        stop
    }

    /// Events executed so far (monotone across `step` calls).
    pub fn events(&self) -> u64 {
        self.sched.n_events
    }

    /// Latest virtual end time observed from finished threads.
    pub fn end_ns(&self) -> u64 {
        self.sched.end_ns
    }

    /// Transfers of control between distinct contexts so far — the
    /// stepping thread and each simulated thread are one context each —
    /// the stepping thread's hand-out and hand-back included.
    /// Deterministic for a given workload, seed and quantum series; at
    /// most one per event plus one per `step` call, and less by every
    /// event that resumed the thread that had just suspended.
    pub fn handoffs(&self) -> u64 {
        self.sched.handoffs
    }

    /// `true` once every thread has finished ([`StepOutcome::Done`]).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Produce the report of a completed run.
    /// Panics if the run has not reached [`StepOutcome::Done`].
    pub fn finish(mut self) -> PlatformReport {
        assert!(
            self.finished,
            "finish() before the run completed (step to Done first)"
        );
        let sched = &mut self.sched;
        PlatformReport {
            end_ns: sched.end_ns,
            lock_grants: std::mem::take(&mut sched.vlocks)
                .into_iter()
                .map(VLock::into_grants)
                .collect(),
            sched_trace_hash: sched.hash.0,
            events: sched.n_events,
            handoffs: sched.handoffs,
        }
    }

    /// Unwind every worker now (dropping a fiber cancels it), so the
    /// typed error or panic this precedes is the sole diagnostic and the
    /// workers are gone when it surfaces.
    fn abort(&mut self) {
        self.aborted = true;
        self.fibers.clear();
    }
}

impl Scheduler {
    fn push(&mut self, t: u64, kind: EvKind) {
        let seq = self.seq;
        self.seq += 1;
        self.q.push(Ev { t, seq, kind });
    }

    /// The event loop: execute queued events until one resumes a
    /// simulated thread or the quantum ends, counting the hand-off to the
    /// thread it resumes. Runs on the stack of the thread inside
    /// [`RunHandle::step`] at the start of a quantum and after a worker's
    /// closure ends, and on a worker's fiber from [`Scheduler::sync`].
    ///
    /// Events are popped one at a time, in `(t, seq)` order. Before each
    /// pop the loop stops if every thread has finished (events still
    /// queued then are stale grants, neither counted nor hashed), if the
    /// quantum's budget is spent, if the queue is empty (a deadlock), or
    /// if the fuel is spent (the error's `queued_events` counts the event
    /// that would have run).
    fn advance(&mut self) -> Pass {
        let stop = Pass::Stop;
        loop {
            if self.live == 0 {
                return stop(Ok(StepOutcome::Done));
            }
            if self.budget_left == 0 {
                return stop(Ok(StepOutcome::Pending));
            }
            let Some((t, _)) = self.q.peek_key() else {
                return stop(Err(self.deadlock_error()));
            };
            if let Some(f) = self.fuel.filter(|&f| self.n_events >= f) {
                return stop(Err(self.fuel_error(f, self.n_events, t, self.q.len())));
            }
            let ev = self.q.pop().expect("peeked");
            self.n_events += 1;
            self.budget_left -= 1;
            self.hash.event(&ev);
            if let Some((tid, reply)) = self.dispatch(ev) {
                self.handoffs += u64::from(self.running.replace(tid) != Some(tid));
                return Pass::Resume(tid, reply);
            }
        }
    }

    /// `tid`'s sync point at `at`, on the worker's own fiber: run its
    /// event in place if it is the next one ([`Scheduler::exec_inline`]),
    /// otherwise queue it, then run the loop until an event resumes a
    /// thread — this one or another — or the quantum ends. The queue sees
    /// the same pushes and pops whichever stack runs the loop, so the
    /// events, their order and the hash do not depend on it.
    fn sync(&mut self, at: u64, tid: usize, op: Op) -> Pass {
        match self.exec_inline(at, tid, op) {
            Ok(Some(reply)) => return Pass::Resume(tid, reply),
            Ok(None) => {}
            Err(op) => {
                self.pending_op[tid] = Some(op);
                self.push(at, EvKind::Exec(tid));
            }
        }
        self.advance()
    }

    /// Run `tid`'s sync point at `at` in place, on the worker's stack, when
    /// its `Exec` event is provably the next event [`Scheduler::advance`]
    /// would pop: the quantum and the fuel allow one more event, and
    /// every queued event is strictly later (a queued event at `at` has a
    /// smaller `seq` and goes first).
    /// The event is consumed exactly as `advance` + `dispatch` would —
    /// same `seq`, hash fold and counters — so the decision trace is
    /// unchanged; `Ok` holds the reply, or `None` for a thread the op left
    /// blocked (a queued or steal-pending acquire). Otherwise `Err` hands
    /// the op back, to be queued.
    fn exec_inline(&mut self, at: u64, tid: usize, op: Op) -> Result<Option<Reply>, Op> {
        let next = self.budget_left > 0
            && self.fuel.is_none_or(|f| self.n_events < f)
            && self.q.peek_key().is_none_or(|(t, _)| at < t);
        if !next {
            return Err(op);
        }
        let seq = self.seq;
        self.seq += 1;
        self.n_events += 1;
        self.budget_left -= 1;
        self.hash.event(&Ev {
            t: at,
            seq,
            kind: EvKind::Exec(tid),
        });
        Ok(self.exec(at, tid, op))
    }

    /// Execute one dequeued event; `Some` when it resumes a thread.
    fn dispatch(&mut self, ev: Ev) -> Option<(usize, Reply)> {
        match ev.kind {
            EvKind::Start(tid) => Some((tid, Reply::Go { now: ev.t })),
            EvKind::Exec(tid) => {
                let op = self.pending_op[tid].take().expect("exec without op");
                self.exec(ev.t, tid, op).map(|reply| (tid, reply))
            }
            EvKind::Grant { lock, gen } => match self.vlocks[lock].try_finalize(gen) {
                GrantOutcome::Stale => None,
                GrantOutcome::Granted { tid, at } => {
                    self.hash.grant(tid, at);
                    Some((tid, Reply::Go { now: at }))
                }
            },
        }
    }

    /// Execute `tid`'s submitted op at time `t`; `Some` resumes it (a
    /// queued lock acquire leaves it blocked until a later grant).
    fn exec(&mut self, t: u64, tid: usize, op: Op) -> Option<Reply> {
        match op {
            Op::Fence => Some(Reply::Go { now: t }),
            Op::LockAcquire { lock, class } => {
                let info = &self.threads[tid];
                match self.vlocks[lock].acquire(t, tid, info.core, info.socket, class) {
                    AcquireOutcome::Granted { at } => {
                        self.hash.grant(tid, at);
                        Some(Reply::Go { now: at })
                    }
                    AcquireOutcome::Queued => None,
                    AcquireOutcome::StealPending { at, gen } => {
                        self.push(at, EvKind::Grant { lock, gen });
                        None
                    }
                }
            }
            Op::LockRelease { lock } => {
                let info = &self.threads[tid];
                match self.vlocks[lock].release(t, tid, info.core, info.socket) {
                    ReleaseOutcome::Idle => {}
                    ReleaseOutcome::Scheduled { at, gen } => {
                        self.push(at, EvKind::Grant { lock, gen });
                    }
                }
                Some(Reply::Go { now: t })
            }
            Op::NetSend {
                src,
                dst,
                bytes,
                extra_delay_ns,
                payload,
            } => {
                let src_node = self.ep_node[src] as usize;
                let same = self.ep_node[src] == self.ep_node[dst];
                let mt = self.net.timing(same, bytes);
                let start = self.nic_free[src_node].max(t);
                self.nic_free[src_node] = start + mt.inject_ns;
                // Extra (fault-injected) delay happens in flight: the NIC
                // is released on schedule, only the arrival moves.
                let at = self.nic_free[src_node] + mt.wire_ns + extra_delay_ns;
                let seq = self.seq;
                self.seq += 1;
                let slot = self.packets.insert(payload);
                self.mailboxes[dst].push(MailKey { at, seq, slot });
                Some(Reply::Go { now: t })
            }
            Op::NetPoll { endpoint } => {
                let mut pkts = Vec::new();
                while self.mailboxes[endpoint].peek().is_some_and(|a| a.at <= t) {
                    let k = self.mailboxes[endpoint].pop().expect("peeked");
                    pkts.push(self.packets.take(k.slot));
                }
                Some(Reply::Packets { now: t, pkts })
            }
            Op::NetPending { endpoint } => {
                let v = !self.mailboxes[endpoint].is_empty();
                Some(Reply::Flag { now: t, v })
            }
        }
    }

    /// Snapshot every live thread's blocked state: parked in a lock
    /// queue, waiting on a submitted op, or runnable (its resume
    /// event is still queued). Index-vector based — iteration order is
    /// tid order, deterministically.
    fn blocked_threads(&self) -> Vec<BlockedThread> {
        let mut lock_of: Vec<Option<usize>> = vec![None; self.threads.len()];
        for (i, l) in self.vlocks.iter().enumerate() {
            for tid in l.waiter_tids() {
                lock_of[tid] = Some(i);
            }
            if let Some(tid) = l.pending_tid() {
                lock_of[tid] = Some(i);
            }
        }
        self.threads
            .iter()
            .enumerate()
            .filter(|&(tid, _)| !self.done[tid])
            .map(|(tid, info)| {
                let on = if let Some(lock) = lock_of[tid] {
                    BlockedOn::Lock { lock }
                } else if let Some(op) = &self.pending_op[tid] {
                    BlockedOn::Op {
                        desc: format!("{op:?}"),
                    }
                } else {
                    BlockedOn::Runnable
                };
                BlockedThread {
                    tid,
                    name: info.name.clone(),
                    node: info.node,
                    on,
                }
            })
            .collect()
    }

    /// `(endpoint, packets)` for every mailbox still holding packets.
    fn undelivered(&self) -> Vec<(usize, usize)> {
        self.mailboxes
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.is_empty())
            .map(|(i, m)| (i, m.len()))
            .collect()
    }

    fn deadlock_error(&self) -> SimError {
        SimError::Deadlock {
            threads: self.blocked_threads(),
            locks: self
                .vlocks
                .iter()
                .enumerate()
                .filter(|(_, l)| !l.is_idle())
                .map(|(i, l)| LockDiag {
                    lock: i,
                    pending: l.pending_tid(),
                    waiters: l.waiter_tids(),
                    queued: l.queued(),
                })
                .collect(),
            undelivered: self.undelivered(),
        }
    }

    fn fuel_error(&self, fuel: u64, executed: u64, now_ns: u64, queued: usize) -> SimError {
        SimError::FuelExhausted {
            fuel,
            executed,
            now_ns,
            queued_events: queued,
            threads: self.blocked_threads(),
            undelivered: self.undelivered(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{EvKind, SchedHash, StepOutcome, VirtualPlatform};
    use crate::platform::{LockKind, LockModelParams, Platform, ThreadDesc};
    use mtmpi_locks::PathClass;
    use mtmpi_net::NetModel;
    use mtmpi_topology::presets::nehalem_cluster_scaled;
    use mtmpi_topology::CoreId;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    #[test]
    fn events_queued_after_the_last_retirement_are_not_run() {
        // `tests/stepping.rs`'s hand-off-heavy world: sixteen threads
        // passing one barging mutex, the last retiring at 98 078 ns. Only
        // a stale lock `Grant` can outlive every thread, and no remaining
        // lock model leaves one behind: a mutex waiter robbed of its
        // hand-off is re-queued as in transit until that grant is due, so
        // its next grant comes later. So one is queued by hand, due 1 ns
        // after the last retirement, with a generation no hand-off
        // carries. The run ends at the retirement: popping the grant would
        // count one more event and fold it into the hash.
        for (quantum, handoffs) in [(1, 1184), (3, 785), (u64::MAX, 462)] {
            let p = Arc::new(VirtualPlatform::new(
                nehalem_cluster_scaled(2),
                NetModel::qdr(),
                LockModelParams::default(),
                0x16,
            ));
            let lock = p.lock_create(LockKind::Mutex);
            for i in 0..16u32 {
                let p2 = p.clone();
                let desc = ThreadDesc {
                    name: format!("t{i}"),
                    node: 0,
                    core: CoreId(i % 8),
                };
                p.spawn(
                    desc,
                    Box::new(move || {
                        for round in 0..12u64 {
                            p2.lock_acquire(lock, PathClass::Main);
                            p2.compute(40 + round);
                            p2.lock_release(lock, PathClass::Main);
                            p2.compute(150 + u64::from(i) * 13);
                            p2.yield_now();
                        }
                    }),
                );
            }
            let mut h = p.start();
            h.sched.push(
                98_079,
                EvKind::Grant {
                    lock: lock.0,
                    gen: u64::MAX,
                },
            );
            while h.step(quantum).expect("no deadlock") == StepOutcome::Pending {}
            let r = h.finish();
            assert_eq!(
                (r.events, r.handoffs, r.end_ns, r.sched_trace_hash),
                (816, handoffs, 98_078, 8_172_738_309_353_957_238),
                "quantum {quantum}"
            );
        }
    }

    /// The byte-wise FNV-1a step `SchedHash::mix` replaces.
    fn bytewise(mut h: u64, word: u64) -> u64 {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(SchedHash::PRIME);
        }
        h
    }

    fn mixed(h: u64, word: u64) -> u64 {
        let mut s = SchedHash(h);
        s.mix(word);
        s.0
    }

    #[test]
    fn mix_equals_the_bytewise_fold() {
        // Every count of significant bytes, 0 through 8, at both ends.
        let mut words = vec![0, 1, 0xff, 0x100, 1 << 56, u64::MAX];
        for bytes in 1..=8u32 {
            let top = 8 * bytes;
            words.push(1 << (top - 8));
            words.push(u64::MAX >> (64 - top));
        }
        for word in words {
            for h in [SchedHash::OFFSET, 0, u64::MAX] {
                assert_eq!(mixed(h, word), bytewise(h, word), "{h:#x} {word:#x}");
            }
        }
        let mut rng = SmallRng::seed_from_u64(0xF1A5);
        let (mut fast, mut slow) = (SchedHash::new(), SchedHash::OFFSET);
        for _ in 0..10_000 {
            // Uniform in the number of significant bytes, not in value.
            let word = rng.gen::<u64>() >> (8 * rng.gen_range(0..8u32));
            fast.mix(word);
            slow = bytewise(slow, word);
            assert_eq!(fast.0, slow, "after {word:#x}");
        }
    }
}
