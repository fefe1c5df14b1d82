//! Typed failures of the deterministic virtual platform.
//!
//! The x07-style determinism contract (SNIPPETS.md §2): a run either
//! completes, or it fails with a *typed, replayable* error carrying the
//! full per-thread blocked-state snapshot — never with a wall-clock
//! timeout or a silent hang. Two failure modes exist:
//!
//! * [`SimError::FuelExhausted`] — the fuel bound
//!   (`WorldBuilder::fuel(max_events)`) ran out. This is how livelocks
//!   (threads spinning in `try_wait`, each spin re-pushing events
//!   forever) become deterministic diagnoses instead of hung test
//!   suites: the same seed + same fuel always stops on the same event,
//!   with the same snapshot.
//! * [`SimError::Deadlock`] — the event queue drained while threads are
//!   still live, i.e. every live thread is parked in a lock queue and no
//!   grant is scheduled. (A recv/recv deadlock never takes this shape:
//!   the wait loops *spin*, re-pushing events, so only the fuel bound
//!   catches it — see the fuel contract in DESIGN.md §16.)

use std::fmt;

/// What a live thread is blocked on at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockedOn {
    /// Parked in the waiter queue (or pending grant) of a platform lock.
    Lock {
        /// Lock index (`LockId.0`).
        lock: usize,
    },
    /// Submitted an operation whose `Exec` event is still queued — the
    /// thread is mid-round-trip with the scheduler. `desc` is the op's
    /// debug rendering (e.g. `NetPoll(3)`), which is what names the
    /// mailbox/endpoint a spinning receiver is polling.
    Op {
        /// Debug rendering of the pending operation.
        desc: String,
    },
    /// A queued event (start or grant) will resume this thread; it is
    /// runnable, just not yet scheduled.
    Runnable,
}

impl fmt::Display for BlockedOn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockedOn::Lock { lock } => write!(f, "blocked on lock {lock}"),
            BlockedOn::Op { desc } => write!(f, "op pending: {desc}"),
            BlockedOn::Runnable => write!(f, "runnable (event queued)"),
        }
    }
}

/// One live thread's state in a failure snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedThread {
    /// Platform thread id (spawn order).
    pub tid: usize,
    /// The `ThreadDesc` name (`r0t1`, `r2prog`, …).
    pub name: String,
    /// Cluster node the thread runs on.
    pub node: u32,
    /// What it is blocked on.
    pub on: BlockedOn,
}

impl fmt::Display for BlockedThread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "thread {} `{}` (node {}) — {}",
            self.tid, self.name, self.node, self.on
        )
    }
}

/// One non-idle lock's state in a deadlock snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockDiag {
    /// Lock index (`LockId.0`).
    pub lock: usize,
    /// Thread with a grant in flight, if any.
    pub pending: Option<usize>,
    /// Threads parked in the waiter queue.
    pub waiters: Vec<usize>,
    /// Queue depth.
    pub queued: usize,
}

/// Typed failure of a virtual-platform run ([`crate::Platform::try_run`]).
///
/// Both variants carry enough state to act on without re-running: every
/// live thread's name, placement, and blocked-on target, plus the
/// mailboxes still holding undelivered packets. The legacy
/// [`crate::Platform::run`] panics with the [`fmt::Display`] rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The fuel bound ran out before every thread finished.
    FuelExhausted {
        /// The configured bound (events).
        fuel: u64,
        /// Events executed (equals `fuel`).
        executed: u64,
        /// Virtual time of the first unexecuted event.
        now_ns: u64,
        /// Events still queued when execution stopped.
        queued_events: usize,
        /// Snapshot of every live thread.
        threads: Vec<BlockedThread>,
        /// `(endpoint, packets)` for mailboxes with undelivered packets.
        undelivered: Vec<(usize, usize)>,
    },
    /// The event queue drained while threads are still live.
    Deadlock {
        /// Snapshot of every live thread.
        threads: Vec<BlockedThread>,
        /// Every non-idle lock.
        locks: Vec<LockDiag>,
        /// `(endpoint, packets)` for mailboxes with undelivered packets.
        undelivered: Vec<(usize, usize)>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::FuelExhausted {
                fuel,
                executed,
                now_ns,
                queued_events,
                threads,
                undelivered,
            } => {
                writeln!(
                    f,
                    "virtual platform fuel exhausted: {executed} events executed \
                     (fuel {fuel}), t={now_ns} ns, {queued_events} event(s) still queued"
                )?;
                for t in threads {
                    writeln!(f, "  {t}")?;
                }
                for (ep, n) in undelivered {
                    writeln!(f, "  mailbox {ep}: {n} undelivered packet(s)")?;
                }
                write!(
                    f,
                    "  (livelock or under-fueled run: raise the fuel bound via \
                     WorldBuilder::fuel, or fix the spin)"
                )
            }
            SimError::Deadlock {
                threads,
                locks,
                undelivered,
            } => {
                writeln!(f, "virtual platform deadlock: no runnable events")?;
                for l in locks {
                    writeln!(
                        f,
                        "  lock {}: pending={:?} waiters={:?} ({} queued)",
                        l.lock, l.pending, l.waiters, l.queued
                    )?;
                }
                for t in threads {
                    writeln!(f, "  {t}")?;
                }
                for (ep, n) in undelivered {
                    writeln!(f, "  mailbox {ep}: {n} undelivered packet(s)")?;
                }
                write!(
                    f,
                    "  (every live thread is parked and no grant is scheduled)"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuel_display_names_threads_and_mailboxes() {
        let e = SimError::FuelExhausted {
            fuel: 100,
            executed: 100,
            now_ns: 4200,
            queued_events: 3,
            threads: vec![
                BlockedThread {
                    tid: 0,
                    name: "r0t0".into(),
                    node: 0,
                    on: BlockedOn::Op {
                        desc: "NetPoll(0)".into(),
                    },
                },
                BlockedThread {
                    tid: 1,
                    name: "r1t0".into(),
                    node: 1,
                    on: BlockedOn::Runnable,
                },
            ],
            undelivered: vec![(1, 2)],
        };
        let s = e.to_string();
        assert!(s.contains("fuel exhausted"));
        assert!(s.contains("`r0t0`") && s.contains("`r1t0`"));
        assert!(s.contains("NetPoll(0)"));
        assert!(s.contains("mailbox 1: 2 undelivered"));
    }

    #[test]
    fn deadlock_display_names_locks_and_waiters() {
        let e = SimError::Deadlock {
            threads: vec![BlockedThread {
                tid: 3,
                name: "r0t3".into(),
                node: 0,
                on: BlockedOn::Lock { lock: 1 },
            }],
            locks: vec![LockDiag {
                lock: 1,
                pending: None,
                waiters: vec![3],
                queued: 1,
            }],
            undelivered: vec![],
        };
        let s = e.to_string();
        assert!(s.contains("deadlock"));
        assert!(s.contains("lock 1"));
        assert!(s.contains("`r0t3`") && s.contains("blocked on lock 1"));
    }
}
