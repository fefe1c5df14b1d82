//! Virtual-time critical-section arbitration models.
//!
//! Each [`VLock`] models one critical section of one MPI process. The
//! scheduler drives it with `acquire`/`release`/`try_finalize` calls at
//! virtual times; the model decides **who gets the lock next and when**,
//! which is precisely the arbitration dimension the paper studies.
//!
//! ## The mutex model (NPTL, §2.2 of the paper)
//!
//! A waiter first *spins* in user space for a short window, then goes to
//! *sleep* (futex). On release:
//!
//! * every still-spinning waiter observes the freed cache line after the
//!   hand-off latency from the releaser's core to its own (plus jitter) —
//!   cache-close threads observe first;
//! * the longest-sleeping waiter is woken, but needs `wake_ns` (µs-scale)
//!   to get back to user space;
//! * the earliest observer wins the CAS. Crucially, the hand-off stays
//!   **preemptible** until it completes: a thread that *requests* the lock
//!   in that window (typically the previous owner coming back — its core
//!   already caches the line) can steal it. A woken sleeper that loses
//!   re-spins briefly and sleeps again ("the thread that wakes up again
//!   competes to acquire the lock and the same process repeats").
//!
//! Monopolization and NUMA bias are *emergent* here, exactly as on real
//! hardware: nothing in the model names a preferred thread.
//!
//! ## The ticket model (§5.1)
//!
//! Strict FIFO; the hand-off to the head waiter costs the cache-line
//! transfer latency between the releaser's and the winner's cores — which
//! is why the ticket lock pays more inter-socket traffic than a
//! monopolizing mutex at low concurrency (Fig 5b, scatter, 2 threads).
//!
//! ## The priority model (§5.2)
//!
//! A burst counter: while progress-path waiters exist, the oldest
//! main-path waiter wins up to `priority_burst` (3 by default)
//! consecutive grants, then the oldest progress-path waiter is served
//! and the count restarts. With waiters of one class only, it is FIFO
//! within that class. This is not the three-ticket-lock construction of
//! Fig 7 (`mtmpi_locks::PriorityTicketLock`); replacing it with that
//! lock's grant order is ROADMAP items 10 and 19.

use crate::platform::{LockKind, LockModelParams};
use mtmpi_locks::PathClass;
use mtmpi_metrics::{Grant, GrantFold};
use mtmpi_topology::{CoreId, HandoffLatencies, NodeTopology, SocketId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// A thread waiting for the lock.
#[derive(Debug, Clone)]
struct Waiter {
    tid: usize,
    core: CoreId,
    socket: SocketId,
    class: PathClass,
    /// When the thread started waiting (spin window is measured from
    /// here; re-queued mutex losers get this refreshed).
    enq_ns: u64,
    /// When the thread *first* started waiting (for wait-time stats).
    first_enq_ns: u64,
}

#[derive(Debug)]
enum State {
    /// Nobody holds or is being handed the lock.
    Free,
    /// `tid` holds the lock.
    Held { tid: usize },
    /// `winner` will own the lock at time `at` unless preempted.
    HandOff { winner: Waiter, at: u64 },
}

/// Result of an acquire call.
#[derive(Debug)]
pub(crate) enum AcquireOutcome {
    /// The lock was free; the caller owns it from time `at`.
    Granted { at: u64 },
    /// The caller is queued; it will be resumed by a later grant.
    Queued,
    /// Mutex steal: the caller preempted a pending hand-off and will own
    /// the lock at `at`; the scheduler must schedule `Grant(gen)` at `at`.
    StealPending { at: u64, gen: u64 },
}

/// Result of a release call.
#[derive(Debug)]
pub(crate) enum ReleaseOutcome {
    /// No waiters; the lock is free.
    Idle,
    /// A hand-off is pending; schedule `Grant(gen)` at `at`.
    Scheduled { at: u64, gen: u64 },
}

/// Result of finalizing a scheduled grant.
#[derive(Debug)]
pub(crate) enum GrantOutcome {
    /// The hand-off was preempted (stale generation); ignore.
    Stale,
    /// `tid` owns the lock from `at`; resume it.
    Granted { tid: usize, at: u64 },
}

/// One modelled critical section.
#[derive(Debug)]
pub(crate) struct VLock {
    kind: LockKind,
    params: LockModelParams,
    topo: NodeTopology,
    handoff: HandoffLatencies,
    state: State,
    waiters: VecDeque<Waiter>,
    grants: GrantFold,
    /// Scratch for [`Self::record_grant`]: waiters per socket.
    per_socket: Vec<u32>,
    gen: u64,
    /// Core/socket of the last thread to hold the lock (the cache line's
    /// home until someone else takes it).
    last_owner: Option<(CoreId, SocketId)>,
    /// Thread id of the last owner (for the working-set migration cost).
    last_tid: Option<usize>,
    prio_burst: u32,
    rng: SmallRng,
}

impl VLock {
    pub(crate) fn new(
        kind: LockKind,
        params: LockModelParams,
        topo: NodeTopology,
        handoff: HandoffLatencies,
        seed: u64,
    ) -> Self {
        Self {
            kind,
            params,
            per_socket: vec![0; topo.sockets as usize],
            topo,
            handoff,
            state: State::Free,
            waiters: VecDeque::new(),
            grants: GrantFold::new(),
            gen: 0,
            last_owner: None,
            last_tid: None,
            prio_burst: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Latency for `core` to observe/fetch the lock line last touched by
    /// `last_owner` (or the uncontended cost if the line is unowned).
    fn fetch_latency(&self, core: CoreId) -> u64 {
        match self.last_owner {
            Some((lo, _)) => self
                .params
                .uncontended_ns
                .max(self.handoff.between(&self.topo, lo, core)),
            None => self.params.uncontended_ns,
        }
    }

    /// Working-set migration penalty charged when ownership changes
    /// threads: the new owner's first touches of the runtime's shared
    /// structures miss in its private caches.
    fn migration_cost(&self, tid: usize, socket: SocketId) -> u64 {
        match (self.last_tid, self.last_owner) {
            (Some(prev_tid), Some((_, prev_socket))) if prev_tid != tid => {
                if prev_socket == socket {
                    self.params.migrate_same_socket_ns
                } else {
                    self.params.migrate_cross_socket_ns
                }
            }
            _ => 0,
        }
    }

    fn jitter(&mut self) -> u64 {
        if self.params.jitter_ns == 0 {
            0
        } else {
            self.rng.gen_range(0..=self.params.jitter_ns)
        }
    }

    fn wake_jitter(&mut self) -> u64 {
        if self.params.wake_jitter_ns == 0 {
            0
        } else {
            self.rng.gen_range(0..=self.params.wake_jitter_ns)
        }
    }

    fn record_grant(&mut self, w: &Waiter, at: u64) {
        self.per_socket.fill(0);
        for q in &self.waiters {
            self.per_socket[q.socket.0 as usize] += 1;
        }
        self.grants.record(Grant {
            owner: w.tid as u32,
            socket: w.socket,
            waiting: self.waiters.len() as u32,
            waiting_per_socket: &self.per_socket,
            wait_ns: at.saturating_sub(w.first_enq_ns),
        });
    }

    /// A thread requests the lock at time `t`.
    pub(crate) fn acquire(
        &mut self,
        t: u64,
        tid: usize,
        core: CoreId,
        socket: SocketId,
        class: PathClass,
    ) -> AcquireOutcome {
        let me = Waiter {
            tid,
            core,
            socket,
            class,
            enq_ns: t,
            first_enq_ns: t,
        };
        match &self.state {
            State::Free => {
                let at = t + self.fetch_latency(core) + self.migration_cost(tid, socket);
                self.record_grant(&me, at);
                self.state = State::Held { tid };
                self.last_owner = Some((core, socket));
                self.last_tid = Some(tid);
                AcquireOutcome::Granted { at }
            }
            State::Held { .. } => {
                self.waiters.push_back(me);
                AcquireOutcome::Queued
            }
            State::HandOff { winner, at } => {
                let pending_at = *at;
                let loser = winner.clone();
                if self.kind == LockKind::Mutex {
                    // CAS race: the newcomer observes the free line after
                    // the fetch latency from the *releaser's* core, plus
                    // the lock-call turnaround overhead.
                    let t_obs = t
                        + self.params.steal_overhead_ns
                        + self.fetch_latency(core)
                        + self.jitter();
                    if t_obs < pending_at {
                        // Steal: the pending winner goes back to waiting
                        // (it notices the failed CAS around the time it
                        // would have acquired).
                        let mut loser = loser;
                        loser.enq_ns = pending_at;
                        self.waiters.push_back(loser);
                        self.state = State::HandOff {
                            winner: me,
                            at: t_obs,
                        };
                        self.gen += 1;
                        return AcquireOutcome::StealPending {
                            at: t_obs,
                            gen: self.gen,
                        };
                    }
                }
                self.waiters.push_back(me);
                AcquireOutcome::Queued
            }
        }
    }

    /// The holder releases at time `t` from `core`.
    pub(crate) fn release(
        &mut self,
        t: u64,
        tid: usize,
        core: CoreId,
        socket: SocketId,
    ) -> ReleaseOutcome {
        match &self.state {
            State::Held { tid: owner } if *owner == tid => {}
            other => panic!("release by non-owner thread {tid}: state {other:?}"),
        }
        self.last_owner = Some((core, socket));
        if self.waiters.is_empty() {
            self.state = State::Free;
            return ReleaseOutcome::Idle;
        }
        let (idx, at) = self.select_winner(t, core);
        let winner = self.waiters.remove(idx).expect("selected index valid");
        self.state = State::HandOff { winner, at };
        self.gen += 1;
        ReleaseOutcome::Scheduled { at, gen: self.gen }
    }

    /// Choose the next owner among `self.waiters`; returns (index, time).
    fn select_winner(&mut self, t: u64, rel_core: CoreId) -> (usize, u64) {
        match self.kind {
            LockKind::Ticket => {
                let w = &self.waiters[0];
                let at = t + self.handoff.between(&self.topo, rel_core, w.core);
                (0, at)
            }
            LockKind::Priority => {
                // Main-path waiters are served first, but a burst of
                // consecutive main grants is bounded: at the boundary the
                // oldest progress-path waiter (the one holding a ticket_B
                // slot in the real lock) gets through.
                let main = self.waiters.iter().position(|w| w.class == PathClass::Main);
                let progress = self
                    .waiters
                    .iter()
                    .position(|w| w.class == PathClass::Progress);
                let idx = match (main, progress) {
                    (Some(m), Some(p)) => {
                        if self.prio_burst < self.params.priority_burst {
                            self.prio_burst += 1;
                            m
                        } else {
                            self.prio_burst = 0;
                            p
                        }
                    }
                    // No progress waiter is being passed over: this is
                    // not a "burst" in the starvation sense.
                    (Some(m), None) => m,
                    (None, Some(p)) => {
                        self.prio_burst = 0;
                        p
                    }
                    (None, None) => unreachable!("release with waiters"),
                };
                let at = t + self
                    .handoff
                    .between(&self.topo, rel_core, self.waiters[idx].core);
                (idx, at)
            }
            LockKind::Mutex => self.select_mutex_winner(t, rel_core),
        }
    }

    fn select_mutex_winner(&mut self, t: u64, rel_core: CoreId) -> (usize, u64) {
        let spin_window = self.params.spin_window_ns;
        // FUTEX_WAKE side effect: every unlock with sleepers wakes the
        // head of the futex queue (the longest-asleep waiter), which will
        // arrive back in user space `wake_ns` later. Waking is *not*
        // selection: the woken thread must still win the CAS race, and
        // across a monopolization burst woken challengers accumulate —
        // which is what bounds burst length on real NPTL.
        let wake_at = t + self.params.wake_ns + self.wake_jitter();
        if let Some((i, _)) = self
            .waiters
            .iter()
            .enumerate()
            .filter(|(_, w)| t >= w.enq_ns + spin_window) // sleeping now
            .min_by_key(|(_, w)| w.enq_ns)
        {
            self.waiters[i].enq_ns = wake_at; // in transit until then
        }
        // CAS race among user-space waiters: spinning ones observe the
        // release after the hand-off latency; in-transit ones (woken
        // sleepers) CAS on arrival.
        let mut best: Option<(usize, u64)> = None;
        let n = self.waiters.len();
        for i in 0..n {
            let (enq, core) = (self.waiters[i].enq_ns, self.waiters[i].core);
            let t_obs = if t < enq {
                // In transit: CASes on arrival; the line needs fetching.
                enq + self.fetch_latency(core) + self.jitter()
            } else if t < enq + spin_window {
                // Spinning now: observes the release after the hand-off
                // latency from the releaser's core.
                t + self.handoff.between(&self.topo, rel_core, core) + self.jitter()
            } else {
                continue; // asleep in the kernel
            };
            if best.is_none_or(|(_, b)| t_obs < b) {
                best = Some((i, t_obs));
            }
        }
        best.expect("release with waiters must have a live candidate (one was just woken)")
    }

    /// Finalize a scheduled grant if still current.
    pub(crate) fn try_finalize(&mut self, gen: u64) -> GrantOutcome {
        if gen != self.gen {
            return GrantOutcome::Stale;
        }
        match std::mem::replace(&mut self.state, State::Free) {
            State::HandOff { winner, at } => {
                let at = at + self.migration_cost(winner.tid, winner.socket);
                self.record_grant(&winner, at);
                self.state = State::Held { tid: winner.tid };
                self.last_owner = Some((winner.core, winner.socket));
                self.last_tid = Some(winner.tid);
                GrantOutcome::Granted {
                    tid: winner.tid,
                    at,
                }
            }
            other => {
                self.state = other;
                GrantOutcome::Stale
            }
        }
    }

    /// Number of threads currently queued.
    pub(crate) fn queued(&self) -> usize {
        self.waiters.len()
    }

    /// Whether the lock is idle (free, no waiters, no hand-off).
    pub(crate) fn is_idle(&self) -> bool {
        matches!(self.state, State::Free) && self.waiters.is_empty()
    }

    /// Names of waiting thread ids (deadlock diagnostics).
    pub(crate) fn waiter_tids(&self) -> Vec<usize> {
        self.waiters.iter().map(|w| w.tid).collect()
    }

    /// Pending hand-off winner, if any (deadlock diagnostics).
    pub(crate) fn pending_tid(&self) -> Option<usize> {
        match &self.state {
            State::HandOff { winner, .. } => Some(winner.tid),
            _ => None,
        }
    }

    /// Extract the grant statistics.
    pub(crate) fn into_grants(self) -> GrantFold {
        self.grants
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtmpi_topology::presets::nehalem_node;

    fn lock(kind: LockKind) -> VLock {
        VLock::new(
            kind,
            LockModelParams::default(),
            nehalem_node(),
            HandoffLatencies::NEHALEM,
            42,
        )
    }

    fn place(tid: usize) -> (CoreId, SocketId) {
        (CoreId(tid as u32), SocketId(tid as u32 / 4))
    }

    #[test]
    fn free_acquire_grants_immediately() {
        let mut l = lock(LockKind::Ticket);
        let (c, s) = place(0);
        match l.acquire(100, 0, c, s, PathClass::Main) {
            AcquireOutcome::Granted { at } => assert_eq!(at, 100 + 15),
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn ticket_is_fifo() {
        let mut l = lock(LockKind::Ticket);
        let (c0, s0) = place(0);
        assert!(matches!(
            l.acquire(0, 0, c0, s0, PathClass::Main),
            AcquireOutcome::Granted { .. }
        ));
        for tid in 1..4 {
            let (c, s) = place(tid);
            assert!(matches!(
                l.acquire(10, tid, c, s, PathClass::Main),
                AcquireOutcome::Queued
            ));
        }
        // Release: head (tid 1) must win despite tid 3 being... also queued.
        match l.release(1000, 0, c0, s0) {
            ReleaseOutcome::Scheduled { at, gen } => {
                // tid 1 is same socket as 0: hand-off 25ns.
                assert_eq!(at, 1025);
                match l.try_finalize(gen) {
                    GrantOutcome::Granted { tid, .. } => assert_eq!(tid, 1),
                    o => panic!("unexpected {o:?}"),
                }
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn priority_prefers_main_path() {
        let mut l = lock(LockKind::Priority);
        let (c0, s0) = place(0);
        assert!(matches!(
            l.acquire(0, 0, c0, s0, PathClass::Main),
            AcquireOutcome::Granted { .. }
        ));
        let (c1, s1) = place(1);
        let (c2, s2) = place(2);
        assert!(matches!(
            l.acquire(5, 1, c1, s1, PathClass::Progress),
            AcquireOutcome::Queued
        ));
        assert!(matches!(
            l.acquire(10, 2, c2, s2, PathClass::Main),
            AcquireOutcome::Queued
        ));
        match l.release(100, 0, c0, s0) {
            ReleaseOutcome::Scheduled { gen, .. } => match l.try_finalize(gen) {
                GrantOutcome::Granted { tid, .. } => {
                    assert_eq!(tid, 2, "main-path waiter must beat earlier progress waiter");
                }
                o => panic!("unexpected {o:?}"),
            },
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn mutex_steal_by_fast_returner() {
        let mut l = lock(LockKind::Mutex);
        let (c0, s0) = place(0);
        let (c7, s7) = place(7); // remote socket
        assert!(matches!(
            l.acquire(0, 0, c0, s0, PathClass::Main),
            AcquireOutcome::Granted { .. }
        ));
        // Remote thread queues at t=10 and will be asleep by t=310.
        assert!(matches!(
            l.acquire(10, 7, c7, s7, PathClass::Main),
            AcquireOutcome::Queued
        ));
        // Owner releases at t=10_000: waiter 7 is asleep, wake ~2500ns.
        let (at_sleepy, gen) = match l.release(10_000, 0, c0, s0) {
            ReleaseOutcome::Scheduled { at, gen } => (at, gen),
            o => panic!("unexpected {o:?}"),
        };
        assert!(
            at_sleepy >= 12_500,
            "sleeping waiter pays the wake latency, got {at_sleepy}"
        );
        // Previous owner comes back at t=10_100 — inside the wake window —
        // and steals (same-core fetch ≈ 15-35ns ≪ 2500ns).
        match l.acquire(10_100, 0, c0, s0, PathClass::Main) {
            AcquireOutcome::StealPending { at, gen: g2 } => {
                assert!(at < at_sleepy);
                assert!(g2 > gen);
                assert!(
                    matches!(l.try_finalize(gen), GrantOutcome::Stale),
                    "old grant stale"
                );
                match l.try_finalize(g2) {
                    GrantOutcome::Granted { tid, .. } => assert_eq!(tid, 0, "monopolization"),
                    o => panic!("unexpected {o:?}"),
                }
            }
            o => panic!("expected steal, got {o:?}"),
        }
        // Thread 7 is back in the waiters queue, not lost.
        assert_eq!(l.waiter_tids(), vec![7]);
    }

    #[test]
    fn ticket_never_stolen() {
        let mut l = lock(LockKind::Ticket);
        let (c0, s0) = place(0);
        let (c4, s4) = place(4);
        assert!(matches!(
            l.acquire(0, 0, c0, s0, PathClass::Main),
            AcquireOutcome::Granted { .. }
        ));
        assert!(matches!(
            l.acquire(10, 4, c4, s4, PathClass::Main),
            AcquireOutcome::Queued
        ));
        let gen = match l.release(1_000, 0, c0, s0) {
            ReleaseOutcome::Scheduled { gen, .. } => gen,
            o => panic!("unexpected {o:?}"),
        };
        // Old owner tries to barge during the hand-off; it must queue.
        assert!(matches!(
            l.acquire(1_001, 0, c0, s0, PathClass::Main),
            AcquireOutcome::Queued
        ));
        match l.try_finalize(gen) {
            GrantOutcome::Granted { tid, .. } => assert_eq!(tid, 4, "FIFO respected"),
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn mutex_prefers_spinning_local_over_remote() {
        let mut l = lock(LockKind::Mutex);
        let (c0, s0) = place(0);
        assert!(matches!(
            l.acquire(0, 0, c0, s0, PathClass::Main),
            AcquireOutcome::Granted { .. }
        ));
        // Two fresh (spinning) waiters: core 1 (same socket), core 4
        // (remote). Release within their spin windows.
        let (c1, s1) = place(1);
        let (c4, s4) = place(4);
        assert!(matches!(
            l.acquire(100, 1, c1, s1, PathClass::Main),
            AcquireOutcome::Queued
        ));
        assert!(matches!(
            l.acquire(100, 4, c4, s4, PathClass::Main),
            AcquireOutcome::Queued
        ));
        // Run many trials statistically via fresh locks (jitter matters).
        // Same-socket observation 25+U(0,20) vs remote 120+U(0,20): local
        // must always win here since 45 < 120.
        match l.release(200, 0, c0, s0) {
            ReleaseOutcome::Scheduled { gen, .. } => match l.try_finalize(gen) {
                GrantOutcome::Granted { tid, .. } => assert_eq!(tid, 1),
                o => panic!("unexpected {o:?}"),
            },
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn idle_release_and_reacquire() {
        let mut l = lock(LockKind::Mutex);
        let (c0, s0) = place(0);
        assert!(matches!(
            l.acquire(0, 0, c0, s0, PathClass::Main),
            AcquireOutcome::Granted { .. }
        ));
        assert!(matches!(l.release(100, 0, c0, s0), ReleaseOutcome::Idle));
        assert!(l.is_idle());
        // Re-acquire by the same core is cheap (line still local).
        match l.acquire(200, 0, c0, s0, PathClass::Main) {
            AcquireOutcome::Granted { at } => assert_eq!(at, 215),
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "non-owner")]
    fn release_by_non_owner_panics() {
        let mut l = lock(LockKind::Ticket);
        let (c0, s0) = place(0);
        assert!(matches!(
            l.acquire(0, 0, c0, s0, PathClass::Main),
            AcquireOutcome::Granted { .. }
        ));
        let (c1, s1) = place(1);
        let _ = l.release(10, 1, c1, s1);
    }

    #[test]
    fn grants_record_waiting_counts() {
        let mut l = lock(LockKind::Ticket);
        let (c0, s0) = place(0);
        assert!(matches!(
            l.acquire(0, 0, c0, s0, PathClass::Main),
            AcquireOutcome::Granted { .. }
        ));
        for tid in 1..4 {
            let (c, s) = place(tid);
            assert!(matches!(
                l.acquire(1, tid, c, s, PathClass::Main),
                AcquireOutcome::Queued
            ));
        }
        if let ReleaseOutcome::Scheduled { gen, .. } = l.release(100, 0, c0, s0) {
            let _ = l.try_finalize(gen);
        }
        let grants = l.into_grants();
        assert_eq!(grants.total(), 2);
        // Second acquisition saw 2 remaining waiters.
        assert_eq!(grants.last().expect("two grants").waiting, 2);
    }
}
