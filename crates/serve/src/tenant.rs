//! The tenant cell: one slot per admitted world, guarded by an atomic
//! `Idle → Pending → Running` state word.
//!
//! The state word is the entire synchronization story of the pool
//! (katana's shard-scheduler shape, SNIPPETS.md §1):
//!
//! * **enqueue only from `Idle`** — `try_enqueue` CASes `IDLE→PENDING`;
//!   exactly one caller wins, so a tenant appears in the FIFO at most
//!   once (no double-enqueue) and a lost CAS means someone else already
//!   queued it (no lost wakeup);
//! * **`Pending→Running` hand-off publishes the work item** — the
//!   parking worker writes [`TenantWork`] non-atomically while it holds
//!   the `RUNNING` claim, then parks with a `Release` store; the next
//!   worker's `AcqRel` CAS to `RUNNING` synchronizes with that store
//!   (through the intervening `IDLE→PENDING` RMW — release sequences
//!   chain through RMWs), so the resumed tenant state is fully visible
//!   on a *different* OS thread;
//! * **`Done` is terminal** — a `Release` store after the report is
//!   written; the collector Acquire-loads it before reading reports.
//!
//! `crates/serve/tests/loom_state.rs` model-checks exactly this
//! protocol (same field name, values, and orderings), and mtmpi-lint's
//! L001/L002 pin the `tenant_state` orderings in this source.

use crate::config::JobSpec;
use mtmpi::TenantRun;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU8, Ordering};

/// Tenant is not queued and not held by any worker; its cell may be
/// claimed for enqueue.
pub const IDLE: u8 = 0;
/// Tenant sits in the FIFO work queue awaiting a worker.
pub const PENDING: u8 = 1;
/// A worker holds the tenant and is stepping its event loop.
pub const RUNNING: u8 = 2;
/// Terminal: the tenant finished (or failed) and its report is written.
pub const DONE: u8 = 3;

/// What a tenant slot holds over its life cycle.
pub enum TenantWork {
    /// Admitted but not yet launched: the world (and its fiber stacks)
    /// materializes lazily at the first quantum, so queued tenants cost
    /// nothing until a worker reaches them.
    Queued(JobSpec),
    /// Launched: the parked run plus scheduling bookkeeping (boxed —
    /// a live run dwarfs the other variants, and the box keeps the
    /// per-tenant cell small for the thousands of queued tenants).
    Live(Box<LiveTenant>),
    /// Finished: the report, awaiting collection.
    Finished(TenantReport),
    /// Transient placeholder while a worker converts `Live` into
    /// `Finished`; never observable outside that worker's claim.
    Taken,
}

/// A launched tenant between quanta.
pub struct LiveTenant {
    /// The resolved spec (id, seed, template).
    pub spec: JobSpec,
    /// The parked `Send` run (harness layer).
    pub run: TenantRun,
    /// Extracts the template's deterministic payload metric from the
    /// finished outcome (messages moved, RMA ops, BFS edges traversed).
    pub payload: Box<dyn FnOnce(&mtmpi::RunOutcome) -> u64 + Send>,
    /// Quantum grants so far (== `step` calls).
    pub grants: u64,
    /// Wall nanoseconds spent `RUNNING` on any worker.
    pub hold_ns: u64,
}

/// Per-tenant result: the deterministic fields feed the byte-identical
/// digest ([`TenantReport::digest_line`]); the wall-clock fields feed
/// aggregate fairness/latency only and never enter the digest.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant id.
    pub id: u32,
    /// The tenant's world seed.
    pub seed: u64,
    /// Template label.
    pub template: &'static str,
    /// Virtual completion time of the tenant's world.
    pub end_ns: u64,
    /// Scheduler events the world executed.
    pub events: u64,
    /// The world's deterministic schedule hash (replay identity).
    pub sched_trace_hash: u64,
    /// Quantum grants the service gave this tenant
    /// (`ceil(events / quantum)` — deterministic).
    pub grants: u64,
    /// Template payload metric (msgs / ops / traversed edges).
    pub payload: u64,
    /// Median critical-section wait across the tenant's ranks (virtual).
    pub cs_wait_p50_ns: u64,
    /// p99 critical-section wait (virtual).
    pub cs_wait_p99_ns: u64,
    /// Total blamed CS wait from the prof attribution (0 unless the
    /// service ran with `trace`).
    pub blame_wait_ns: u64,
    /// Typed failure rendering (`None` = completed).
    pub error: Option<String>,
    /// Wall ns spent `RUNNING` (not in the digest).
    pub hold_ns: u64,
    /// Wall ns from service start to completion (not in the digest).
    pub latency_ns: u64,
}

impl TenantReport {
    /// The deterministic per-tenant record: everything here is a pure
    /// function of (service seed, tenant id, template, quantum) — equal
    /// across reruns *and across worker counts*.
    pub fn digest_line(&self) -> String {
        match &self.error {
            None => format!(
                "tenant={:05} tpl={} seed={:016x} end_ns={} events={} hash={:016x} grants={} payload={} cs_p50={} cs_p99={} blame={}",
                self.id,
                self.template,
                self.seed,
                self.end_ns,
                self.events,
                self.sched_trace_hash,
                self.grants,
                self.payload,
                self.cs_wait_p50_ns,
                self.cs_wait_p99_ns,
                self.blame_wait_ns,
            ),
            Some(e) => {
                // One line, stable: typed SimErrors render deterministic
                // text for a fixed seed/workload.
                let flat = e.replace('\n', " | ");
                format!("tenant={:05} tpl={} seed={:016x} ERROR {}", self.id, self.template, self.seed, flat)
            }
        }
    }
}

/// One admitted tenant: the state word plus the work item it guards.
pub struct TenantCell {
    /// The `Idle→Pending→Running` guard. All access to `work` is
    /// serialized by holding the `RUNNING` claim (or by being the
    /// collector after workers joined).
    tenant_state: AtomicU8,
    work: UnsafeCell<TenantWork>,
}

// SAFETY: `work` is only touched by the worker that won the
// `PENDING→RUNNING` CAS (exclusive until its park/complete store) or by
// the collector after every worker joined; the Release/Acquire pairs on
// `tenant_state` publish the writes across threads.
unsafe impl Send for TenantCell {}
// SAFETY: same contract as Send — the state-word protocol serializes
// all access to `work`.
unsafe impl Sync for TenantCell {}

impl TenantCell {
    /// A freshly admitted (idle, unlaunched) tenant.
    pub fn new(spec: JobSpec) -> Self {
        Self {
            tenant_state: AtomicU8::new(IDLE),
            work: UnsafeCell::new(TenantWork::Queued(spec)),
        }
    }

    /// Claim the enqueue right: `IDLE→PENDING`. Exactly one concurrent
    /// caller succeeds; the winner (and only the winner) must push the
    /// tenant onto the FIFO.
    pub fn try_enqueue(&self) -> bool {
        self.tenant_state
            .compare_exchange(IDLE, PENDING, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Take the run claim after dequeueing: `PENDING→RUNNING`. The
    /// Acquire success ordering synchronizes with the parking worker's
    /// Release store, publishing the tenant's work item to this thread.
    /// Panics if the tenant was not `PENDING` — a dequeued id is always
    /// pending, anything else is a scheduler protocol bug.
    pub fn begin_running(&self) {
        self.tenant_state
            .compare_exchange(PENDING, RUNNING, Ordering::AcqRel, Ordering::Acquire)
            .expect("dequeued tenant must be PENDING");
    }

    /// Park a still-runnable tenant: publish the work item and drop the
    /// claim (`RUNNING→IDLE`, Release). The parker then re-enqueues via
    /// [`TenantCell::try_enqueue`] like any other scheduler.
    pub fn park_idle(&self) {
        self.tenant_state.store(IDLE, Ordering::Release);
    }

    /// Terminal transition: publish the report (`RUNNING→DONE`,
    /// Release).
    pub fn complete(&self) {
        self.tenant_state.store(DONE, Ordering::Release);
    }

    /// Current state (Acquire: pairs with the publishing stores).
    pub fn state(&self) -> u8 {
        self.tenant_state.load(Ordering::Acquire)
    }

    /// Exclusive access to the work item.
    ///
    /// # Safety
    /// The caller must hold the `RUNNING` claim (its own successful
    /// [`TenantCell::begin_running`], with no intervening park/complete)
    /// — or be the post-join collector, when no worker can hold a claim.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn work_mut(&self) -> &mut TenantWork {
        // SAFETY: exclusivity is the caller's contract (doc above); the
        // state-word protocol makes the claim unique.
        unsafe { &mut *self.work.get() }
    }

    /// Consume the cell into its final work item (post-join collection).
    pub fn into_work(self) -> TenantWork {
        self.work.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JobTemplate;

    fn spec() -> JobSpec {
        JobSpec {
            id: 7,
            seed: 0xAB,
            template: JobTemplate::Pt2pt { msgs: 1, bytes: 8 },
        }
    }

    #[test]
    fn enqueue_is_exclusive_until_parked() {
        let c = TenantCell::new(spec());
        assert_eq!(c.state(), IDLE);
        assert!(c.try_enqueue());
        assert!(!c.try_enqueue(), "no double-enqueue from PENDING");
        c.begin_running();
        assert!(!c.try_enqueue(), "no enqueue while RUNNING");
        c.park_idle();
        assert!(c.try_enqueue(), "parked tenant is enqueueable again");
    }

    #[test]
    fn done_is_terminal_for_enqueue() {
        let c = TenantCell::new(spec());
        assert!(c.try_enqueue());
        c.begin_running();
        c.complete();
        assert_eq!(c.state(), DONE);
        assert!(!c.try_enqueue());
    }

    #[test]
    fn digest_line_is_stable_shape() {
        let r = TenantReport {
            id: 3,
            seed: 0x1122,
            template: "pt2pt",
            end_ns: 999,
            events: 42,
            sched_trace_hash: 0xDEAD_BEEF,
            grants: 6,
            payload: 8,
            cs_wait_p50_ns: 10,
            cs_wait_p99_ns: 20,
            blame_wait_ns: 0,
            error: None,
            hold_ns: 123,
            latency_ns: 456,
        };
        let line = r.digest_line();
        assert!(line.contains("tenant=00003"));
        assert!(line.contains("hash=00000000deadbeef"));
        assert!(
            !line.contains("123") && !line.contains("456"),
            "wall-clock fields must stay out of the digest"
        );
    }
}
