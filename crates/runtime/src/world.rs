//! World construction and the critical-section discipline.
//!
//! Since the VCI work, a process is a pool of *shards* (virtual
//! communication interfaces): each shard owns its own endpoint, its own
//! critical-section lock, and its own [`SharedState`] (match queues,
//! sequence/ack space, retransmit queue, histograms). With one VCI —
//! the default — the layout, platform-call order, and code paths are
//! exactly the pre-VCI runtime's, so unsharded runs stay byte-identical.

use crate::costs::RuntimeCosts;
use crate::errors::{BuildError, StreamBindError};
use crate::ledger::SharedLedger;
use crate::state::SharedState;
use crate::stats::RankStats;
use crate::vci::VciMap;
use mtmpi_locks::PathClass;
use mtmpi_net::FaultPlan;
use mtmpi_obs::{CsKind, CsOp, Event, EventKind, RingRecorder};
use mtmpi_sim::{LockId, LockKind, Platform};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One virtual communication interface of one MPI process: an
/// independent slice of the runtime with its own critical section.
pub(crate) struct Shard {
    pub(crate) endpoint: usize,
    pub(crate) cs_queue: LockId,
    /// Platform clock at this shard's last mailbox poll — the
    /// work-stealing starvation signal. Monitoring only (plain
    /// store/load, never a synchronization hand-off).
    pub(crate) last_poll_ns: AtomicU64,
    /// Stream claim word: 0 = unbound, otherwise `tid + 1` of the one
    /// thread owning this stream shard. Bind is a CAS(0 → tid+1,
    /// AcqRel); unbind quiesces, then stores 0 with Release so the next
    /// binder's Acquire sees every plain write made while bound. Always
    /// 0 on regular (non-stream) shards.
    pub(crate) stream_owner: AtomicU64,
    state: UnsafeCell<SharedState>,
}

/// One MPI process: its shards plus the cross-shard accounting that no
/// single shard lock could guard.
pub(crate) struct Process {
    /// Shards in VCI order: the sharded VCIs, then the stream shards.
    pub(crate) shards: Vec<Shard>,
    /// Life-cycle ledger for *multi-shard* wildcard receives (requests
    /// fanned out to every shard). Their transitions happen under
    /// varying shard locks — or none — so the counters are atomic.
    pub(crate) wild: SharedLedger,
}

// SAFETY: each shard's `state` is only accessed through
// `WorldInner::cs_on` (which holds that shard's queue lock), through
// `WorldInner::stream_pass` (whose caller is the single thread holding
// the shard's stream claim word, with Release/Acquire publication at
// each bind/unbind hand-off), or through the post-run diagnostics
// methods. `wild`, `last_poll_ns`, and `stream_owner` are atomic.
unsafe impl Send for Process {}
// SAFETY: same contract as Send — the per-shard queue lock (or, for a
// stream shard, the claim word) serializes all shared access to that
// shard's `state`.
unsafe impl Sync for Process {}

/// Map a lock path class onto the obs event model's path enum (the two
/// crates cannot share the type without a dependency cycle).
pub(crate) fn obs_path(class: PathClass) -> mtmpi_obs::Path {
    match class {
        PathClass::Main => mtmpi_obs::Path::Main,
        PathClass::Progress => mtmpi_obs::Path::Progress,
    }
}

pub(crate) struct WorldInner {
    pub(crate) platform: Arc<dyn Platform>,
    pub(crate) costs: RuntimeCosts,
    pub(crate) procs: Vec<Process>,
    pub(crate) liveness_limit_ns: u64,
    /// Arbitration of the CS locks (stamped into CS span events).
    pub(crate) lock: LockKind,
    /// Envelope → VCI routing (count 1 = the unsharded global CS).
    /// Routes only across the sharded VCIs — stream shards sit past the
    /// map's range and are reached solely through a bound
    /// [`crate::Stream`].
    pub(crate) vci_map: VciMap,
    /// Stream shards appended after the sharded VCIs (0 = none; the
    /// pre-stream layout, byte-identical to PR-5 builds).
    pub(crate) streams: u32,
    /// Structured-event recorder; `None` is recording off and costs one
    /// branch per record site.
    pub(crate) recorder: Option<Arc<RingRecorder>>,
    /// Set when the platform run failed (fuel exhaustion, deadlock).
    /// An aborted run has in-flight requests *by definition* — they are
    /// the content of the error snapshot, not leaks — so the drop-time
    /// quiescence check stands down. See [`World::mark_aborted`].
    pub(crate) aborted: AtomicBool,
}

impl WorldInner {
    /// Record an event stamped with `t_ns`. The kind closure runs only
    /// when a recorder is installed.
    #[inline]
    pub(crate) fn rec_at(&self, t_ns: u64, kind: impl FnOnce() -> EventKind) {
        if let Some(r) = &self.recorder {
            let (core, socket) = mtmpi_locks::current_core().map_or((0, 0), |(c, s)| (c.0, s.0));
            r.record(Event::stamped(
                t_ns,
                self.platform.current_tid(),
                core,
                socket,
                kind(),
            ));
        }
    }

    /// Record an event stamped with the current platform clock.
    #[inline]
    pub(crate) fn rec_now(&self, kind: impl FnOnce() -> EventKind) {
        if self.recorder.is_some() {
            self.rec_at(self.platform.now_ns(), kind);
        }
    }

    /// Number of *sharded* VCIs per rank (excludes stream shards, so
    /// every `0..vci_n()` sweep — wildcard fan-out, work stealing,
    /// multi-shard free — never touches another thread's stream).
    #[inline]
    pub(crate) fn vci_n(&self) -> u32 {
        self.vci_map.count()
    }

    /// Total shards per rank: sharded VCIs plus stream shards. The
    /// post-run sweeps (stats, leak checks) cover this full range.
    #[inline]
    pub(crate) fn shard_total(&self) -> u32 {
        self.vci_map.count() + self.streams
    }

    /// Pool index of stream `sid` of a rank (stream shards sit after
    /// the sharded VCIs).
    #[inline]
    pub(crate) fn stream_shard(&self, sid: u32) -> u32 {
        self.vci_n() + sid
    }

    /// One shard of one rank.
    #[inline]
    pub(crate) fn shard(&self, rank: u32, vci: u32) -> &Shard {
        &self.procs[rank as usize].shards[vci as usize]
    }

    /// Route a fully known envelope (send side, or a selective receive)
    /// to its VCI.
    #[inline]
    pub(crate) fn vci_for(&self, comm: crate::types::CommId, src: u32, dst: u32, tag: i32) -> u32 {
        self.vci_map.select_for(comm.0, src, dst, tag)
    }

    /// Run `f` with the shard state under that shard's queue lock,
    /// charging the acquisition and feeding the dangling sampler (the
    /// §4.4 sampling interval is "successive lock acquisitions"). Wait
    /// and hold times go to the always-on per-shard histograms; reading
    /// the clock never advances virtual time, so this does not perturb
    /// results. `op` names the runtime operation this passage serves —
    /// it is stamped into the CS span event so the prof layer can
    /// attribute blocked time to what the holder was doing. The
    /// observability path is derived from `class`; blocking waits
    /// spinning on the progress class use [`Self::cs_on`] to report
    /// [`mtmpi_obs::Path::WaitSpin`] instead.
    pub(crate) fn cs<R>(
        &self,
        rank: u32,
        vci: u32,
        class: PathClass,
        op: CsOp,
        f: impl FnOnce(&mut SharedState) -> R,
    ) -> R {
        self.cs_on(rank, vci, class, obs_path(class), op, f)
    }

    /// [`Self::cs`] with an explicit observability path. Lock arbitration
    /// still follows `class` (a wait-spinner *is* a low-priority entrant,
    /// paper Fig 6a); only the event/histogram attribution differs.
    pub(crate) fn cs_on<R>(
        &self,
        rank: u32,
        vci: u32,
        class: PathClass,
        opath: mtmpi_obs::Path,
        op: CsOp,
        f: impl FnOnce(&mut SharedState) -> R,
    ) -> R {
        let p = self.shard(rank, vci);
        let t_req = self.platform.now_ns();
        self.platform.lock_acquire(p.cs_queue, class);
        let t_acq = self.platform.now_ns();
        // SAFETY: we hold the queue lock for this shard.
        let st = unsafe { &mut *p.state.get() };
        st.cs_acquisitions += 1;
        st.cs_wait_ns.record(t_acq.saturating_sub(t_req));
        let d = st.dangling_now;
        st.dangling.sample(d);
        let r = f(st);
        let t_rel = self.platform.now_ns();
        st.cs_hold_ns.record(t_rel.saturating_sub(t_acq));
        self.platform.lock_release(p.cs_queue, class);
        self.rec_at(t_rel, || EventKind::CsSpan {
            lock: p.cs_queue.0 as u32,
            kind: match self.lock {
                LockKind::Mutex => CsKind::Mutex,
                LockKind::Ticket => CsKind::Ticket,
                LockKind::Priority => CsKind::Priority,
            },
            path: opath,
            op,
            vci,
            t_req,
            t_acq,
        });
        r
    }

    /// Owner-mode passage through a stream-bound shard: the CS-equivalent
    /// of [`Self::cs_on`] with **no lock at all** — the caller *is* the
    /// thread whose id sits in the shard's claim word, so the state is
    /// private by construction. Wait time is recorded as 0 (there is
    /// nothing to wait on) and the span is attributed to
    /// [`mtmpi_obs::Path::Stream`] so lock-path metrics never mix
    /// lock-free passages in.
    ///
    /// # Safety
    ///
    /// The caller must be the bound owner of stream shard `shard_idx`
    /// (its claim word holds the caller's `tid + 1`). The live
    /// [`crate::Stream`] handle is the capability that proves this.
    pub(crate) unsafe fn stream_pass<R>(
        &self,
        rank: u32,
        shard_idx: u32,
        op: CsOp,
        f: impl FnOnce(&mut SharedState) -> R,
    ) -> R {
        let p = self.shard(rank, shard_idx);
        let t_acq = self.platform.now_ns();
        // SAFETY: caller contract — this thread owns the claim word, so
        // no other thread can be inside this shard's state.
        let st = unsafe { &mut *p.state.get() };
        st.cs_acquisitions += 1;
        st.cs_wait_ns.record(0);
        let d = st.dangling_now;
        st.dangling.sample(d);
        let r = f(st);
        let t_rel = self.platform.now_ns();
        st.cs_hold_ns.record(t_rel.saturating_sub(t_acq));
        self.rec_at(t_rel, || EventKind::CsSpan {
            lock: p.cs_queue.0 as u32,
            kind: CsKind::Stream,
            path: mtmpi_obs::Path::Stream,
            op,
            vci: shard_idx,
            t_req: t_acq,
            t_acq,
        });
        r
    }

    /// Claim stream `sid` of `rank` for the calling thread. The CAS
    /// acquires (pairing with the Release store of the previous owner's
    /// unbind) so every plain write the old owner made inside the shard
    /// is visible before the new owner's first [`Self::stream_pass`].
    pub(crate) fn try_bind_stream(&self, rank: u32, sid: u32) -> Result<(), StreamBindError> {
        if sid >= self.streams {
            return Err(StreamBindError::OutOfRange {
                rank,
                sid,
                streams: self.streams,
            });
        }
        let sh = self.shard(rank, self.stream_shard(sid));
        // Off a platform thread there is no id to claim with (and
        // `u64::MAX + 1` would wrap to the free word, 0).
        let Some(me) = self.platform.current_tid().checked_add(1) else {
            return Err(StreamBindError::NoThread { rank, sid });
        };
        match sh
            .stream_owner
            .compare_exchange(0, me, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => Ok(()),
            Err(_) => Err(StreamBindError::AlreadyBound { rank, sid }),
        }
    }

    /// Publish the bound thread's plain-state writes and drop the claim.
    /// Callers must have quiesced the stream first (drained its mailbox,
    /// freed or cancelled its requests) — the Release store is the
    /// publication edge the next binder's Acquire CAS synchronizes with.
    pub(crate) fn release_stream(&self, rank: u32, sid: u32) {
        self.shard(rank, self.stream_shard(sid))
            .stream_owner
            .store(0, Ordering::Release);
    }

    pub(crate) fn nranks(&self) -> u32 {
        self.procs.len() as u32
    }

    /// Post-run read of one shard's state. Only sound once all workers
    /// have finished (after `platform.run()` returns).
    pub(crate) unsafe fn state_post_run(&self, rank: u32, vci: u32) -> &SharedState {
        // SAFETY: caller guarantees all workers have quiesced, so no
        // thread can be inside `cs` mutating the state concurrently.
        unsafe { &*self.shard(rank, vci).state.get() }
    }
}

impl Drop for WorldInner {
    /// Debug-build leak check: when the last `World`/`RankHandle` clone
    /// goes away, every issued request must have completed its
    /// Issue→(Post)→Complete→Free life cycle (paper Fig 3b). A dropped
    /// `Request` handle or a lost completion panics here with the
    /// per-rank [`crate::LeakReport`]. Quiescence is checked *per
    /// VCI* — each shard's ledger must balance on its own — plus the
    /// process-level wildcard ledger for multi-shard receives.
    fn drop(&mut self) {
        if !cfg!(debug_assertions)
            || std::thread::panicking()
            || self.aborted.load(Ordering::Acquire)
        {
            return;
        }
        for (rank, p) in self.procs.iter_mut().enumerate() {
            for (vci, sh) in p.shards.iter().enumerate() {
                // SAFETY: `&mut self` proves no other thread can be
                // inside a CS, so the plain read is sound.
                let st = unsafe { &*sh.state.get() };
                if let Err(report) = st.ledger.check_quiescent() {
                    panic!("rank {rank} vci {vci} leaked requests at World drop: {report}");
                }
            }
            if let Err(report) = p.wild.snapshot().check_quiescent() {
                panic!("rank {rank} leaked wildcard (multi-VCI) requests at World drop: {report}");
            }
        }
    }
}

/// The set of MPI processes sharing a platform. Cheap to clone.
#[derive(Clone)]
pub struct World {
    pub(crate) inner: Arc<WorldInner>,
}

/// Builder for [`World`].
pub struct WorldBuilder {
    platform: Arc<dyn Platform>,
    ranks: u32,
    node_of: Box<dyn Fn(u32) -> u32>,
    lock: LockKind,
    costs: RuntimeCosts,
    window_bytes: usize,
    liveness_limit_ns: u64,
    expect_rma: bool,
    recorder: Option<Arc<RingRecorder>>,
    fault_plan: Option<FaultPlan>,
    vci_map: VciMap,
    streams: u32,
    fuel: Option<u64>,
}

impl World {
    /// Mark the run as aborted (fuel exhaustion, deadlock): threads were
    /// stopped mid-operation, so the drop-time request-leak check would
    /// fire on state that is *diagnosis*, not leakage. Callers returning
    /// a typed [`mtmpi_sim::SimError`] must flip this before the last
    /// `World` clone drops.
    pub fn mark_aborted(&self) {
        self.inner.aborted.store(true, Ordering::Release);
    }

    /// Start building a world on `platform`.
    pub fn builder(platform: Arc<dyn Platform>) -> WorldBuilder {
        WorldBuilder {
            platform,
            ranks: 1,
            node_of: Box::new(|_| 0),
            lock: LockKind::Mutex,
            costs: RuntimeCosts::default(),
            window_bytes: 0,
            liveness_limit_ns: 120_000_000_000, // 120 virtual seconds
            expect_rma: false,
            recorder: None,
            fault_plan: None,
            vci_map: VciMap::new(1),
            streams: 0,
            fuel: None,
        }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> u32 {
        self.inner.nranks()
    }

    /// Number of sharded virtual communication interfaces per rank
    /// (excludes stream shards — see [`Self::streams`]).
    pub fn vci_count(&self) -> u32 {
        self.inner.vci_n()
    }

    /// Number of stream shards per rank (0 unless the world was built
    /// with [`WorldBuilder::streams`]).
    pub fn streams(&self) -> u32 {
        self.inner.streams
    }

    /// Handle for issuing MPI calls as `rank`. Clone it into each of the
    /// rank's threads.
    pub fn rank(&self, rank: u32) -> RankHandle {
        assert!(rank < self.nranks(), "rank out of range");
        RankHandle {
            world: self.inner.clone(),
            rank,
        }
    }

    /// The queue-lock id of a rank's VCI 0 (to pair with
    /// [`mtmpi_sim::PlatformReport::lock_grants`]). See
    /// [`Self::lock_of_vci`] for the other shards.
    pub fn lock_of(&self, rank: u32) -> LockId {
        self.lock_of_vci(rank, 0)
    }

    /// The queue-lock id of one shard of a rank.
    pub fn lock_of_vci(&self, rank: u32, vci: u32) -> LockId {
        self.inner.shard(rank, vci).cs_queue
    }

    /// Unified introspection snapshot of a rank: every profiling metric
    /// the runtime keeps, merged across its VCIs *and* stream shards
    /// (plus the wildcard ledger), in one struct. **Post-run only**
    /// (after `platform.run()` has returned).
    pub fn stats(&self, rank: u32) -> RankStats {
        let mut out = self.vci_stats(rank, 0);
        for vci in 1..self.inner.shard_total() {
            let s = self.vci_stats(rank, vci);
            out.cs_acquisitions += s.cs_acquisitions;
            out.cs_wait_ns.merge(&s.cs_wait_ns);
            out.cs_hold_ns.merge(&s.cs_hold_ns);
            out.msg_latency_ns.merge(&s.msg_latency_ns);
            out.dangling.merge(&s.dangling);
            out.ledger.merge(&s.ledger);
            out.max_unexpected = out.max_unexpected.max(s.max_unexpected);
            out.max_posted = out.max_posted.max(s.max_posted);
        }
        out.ledger
            .merge(&self.inner.procs[rank as usize].wild.snapshot());
        out
    }

    /// Introspection snapshot of one shard of a rank (the per-VCI view
    /// of [`Self::stats`]; excludes the process-level wildcard ledger).
    /// **Post-run only.**
    pub fn vci_stats(&self, rank: u32, vci: u32) -> RankStats {
        // SAFETY: documented post-run contract.
        let st = unsafe { self.inner.state_post_run(rank, vci) };
        RankStats {
            lock: self.inner.lock,
            cs_acquisitions: st.cs_acquisitions,
            cs_wait_ns: st.cs_wait_ns.clone(),
            cs_hold_ns: st.cs_hold_ns.clone(),
            msg_latency_ns: st.msg_latency_ns.clone(),
            dangling: st.dangling.clone(),
            ledger: st.ledger,
            max_unexpected: st.max_unexpected,
            max_posted: st.max_posted,
            window: st.win_mem.clone(),
        }
    }
}

impl WorldBuilder {
    /// Number of MPI ranks (default 1). Zero is rejected by
    /// [`Self::build`].
    pub fn ranks(mut self, n: u32) -> Self {
        self.ranks = n;
        self
    }

    /// Map each rank to a cluster node (default: all on node 0).
    pub fn rank_on_node(mut self, f: impl Fn(u32) -> u32 + 'static) -> Self {
        self.node_of = Box::new(f);
        self
    }

    /// Critical-section arbitration method (default mutex — the paper's
    /// baseline). With several VCIs, every shard uses this arbitration
    /// for its own lock.
    pub fn lock(mut self, kind: LockKind) -> Self {
        self.lock = kind;
        self
    }

    /// Override the runtime cost model.
    pub fn costs(mut self, c: RuntimeCosts) -> Self {
        self.costs = c;
        self
    }

    /// Give every rank an RMA window of `bytes` bytes.
    pub fn window_bytes(mut self, bytes: usize) -> Self {
        self.window_bytes = bytes;
        self
    }

    /// Declare that this world will service one-sided operations, so
    /// [`Self::build`] can reject a zero-byte window up front instead of
    /// letting the first `put` fault at the target.
    pub fn expect_rma(mut self, on: bool) -> Self {
        self.expect_rma = on;
        self
    }

    /// Install a structured-event recorder (see [`mtmpi_obs`]). Without
    /// one, recording is off and event sites cost a single branch.
    pub fn recorder(mut self, r: Arc<RingRecorder>) -> Self {
        self.recorder = Some(r);
        self
    }

    /// Abort blocking waits after this much virtual/model time (a
    /// liveness guard that turns communication bugs into loud failures).
    pub fn liveness_limit_ns(mut self, ns: u64) -> Self {
        self.liveness_limit_ns = ns;
        self
    }

    /// Bound the run to at most `max_events` scheduler events (the x07
    /// determinism contract): on the virtual platform an exhausted bound
    /// fails `try_run` with `SimError::FuelExhausted` carrying a
    /// per-thread blocked-state snapshot, instead of spinning forever.
    /// Complements [`Self::liveness_limit_ns`]: fuel counts *events*, so
    /// a tight livelock (which advances virtual time only slowly) trips
    /// it long before the virtual-time guard.
    pub fn fuel(mut self, max_events: u64) -> Self {
        self.fuel = Some(max_events);
        self
    }

    /// Inject deterministic link faults (see [`mtmpi_net::FaultPlan`])
    /// and enable the runtime's recovery machinery: sequenced sends with
    /// cumulative acks, a retransmit queue with exponential backoff, and
    /// typed error escalation. An inert plan ([`FaultPlan::is_active`]
    /// false, e.g. [`FaultPlan::none`]) leaves the runtime exactly on its
    /// fault-free fast paths — byte-identical results to not calling this
    /// at all.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Shard every rank's runtime state into the virtual communication
    /// interfaces `map` routes across (default `VciMap::new(1)` — the
    /// paper's single global critical section). A zero-VCI map is
    /// rejected by [`Self::build`].
    pub fn vci_map(mut self, map: VciMap) -> Self {
        self.vci_map = map;
        self
    }

    /// Give every rank `n` stream shards (default 0): single-owner VCIs
    /// a thread binds to with [`RankHandle::stream`] for the lock-free
    /// fast path. They extend the pool *after* the sharded VCIs, so
    /// `streams(0)` leaves the build byte-identical to a pre-stream
    /// world. Unbound and wildcard traffic still needs the sharded path,
    /// so a zero-count [`Self::vci_map`] with streams fails
    /// [`Self::build`] as [`BuildError::StreamsWithoutVcis`].
    pub fn streams(mut self, n: u32) -> Self {
        self.streams = n;
        self
    }

    /// Construct the world: validates the configuration, then registers
    /// one endpoint and one lock per rank *per VCI* on the platform, in (rank, vci) order — the
    /// creation order is part of the deterministic-replay contract.
    pub fn build(self) -> Result<World, BuildError> {
        if self.ranks == 0 {
            return Err(BuildError::ZeroRanks);
        }
        let vci_count = self.vci_map.count();
        if self.streams > 0 && vci_count == 0 {
            return Err(BuildError::StreamsWithoutVcis {
                streams: self.streams,
            });
        }
        if vci_count == 0 {
            return Err(BuildError::ZeroVcis);
        }
        if self.expect_rma && self.window_bytes == 0 {
            return Err(BuildError::ZeroWindowWithRma);
        }
        if let Some(f) = self.fuel {
            self.platform.set_fuel(Some(f));
        }
        let platform_nodes = self.platform.node_count();
        let active_plan = self.fault_plan.filter(FaultPlan::is_active);
        let mut procs = Vec::with_capacity(self.ranks as usize);
        for r in 0..self.ranks {
            let node = (self.node_of)(r);
            if let Some(nodes) = platform_nodes {
                if node >= nodes {
                    return Err(BuildError::NodeOutOfRange {
                        rank: r,
                        node,
                        nodes,
                    });
                }
            }
            // Stream shards extend the pool after the sharded VCIs, with
            // the same per-shard platform registrations (endpoint + lock
            // ids) so the symmetric same-index endpoint pairing of
            // `send_data` holds for stream↔stream traffic too. Their
            // locks exist but are never taken: a bound stream reaches
            // its state through `stream_pass`. With `streams == 0` the
            // creation sequence is exactly the PR-5 one (byte-identity).
            let shards = (0..vci_count + self.streams)
                .map(|vci| {
                    let endpoint = self.platform.register_endpoint(node);
                    let cs_queue = self.platform.lock_create(self.lock);
                    Shard {
                        endpoint,
                        cs_queue,
                        last_poll_ns: AtomicU64::new(0),
                        stream_owner: AtomicU64::new(0),
                        // RMA state is pinned to VCI 0 (one window per rank,
                        // one token space); other shards carry none.
                        state: UnsafeCell::new(SharedState::new(
                            self.ranks,
                            if vci == 0 { self.window_bytes } else { 0 },
                            active_plan.clone(),
                        )),
                    }
                })
                .collect();
            procs.push(Process {
                shards,
                wild: SharedLedger::new(),
            });
        }
        Ok(World {
            inner: Arc::new(WorldInner {
                platform: self.platform,
                costs: self.costs,
                procs,
                liveness_limit_ns: self.liveness_limit_ns,
                lock: self.lock,
                vci_map: self.vci_map,
                streams: self.streams,
                recorder: self.recorder,
                aborted: AtomicBool::new(false),
            }),
        })
    }
}

/// Per-thread handle for issuing MPI calls as one rank.
#[derive(Clone)]
pub struct RankHandle {
    pub(crate) world: Arc<WorldInner>,
    pub(crate) rank: u32,
}

impl RankHandle {
    /// This handle's rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Total ranks in the world.
    pub fn nranks(&self) -> u32 {
        self.world.nranks()
    }

    /// The platform (for `compute`, `now_ns`, …).
    pub fn platform(&self) -> &Arc<dyn Platform> {
        &self.world.platform
    }
}
