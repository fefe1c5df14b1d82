//! The worker pool: strictly-FIFO tenant scheduling with quantum-based
//! cooperative yielding.
//!
//! Workers are dedicated OS threads blocking on one queue (condvar) or
//! the shutdown signal. A dequeued tenant is stepped for at most the
//! configured event quantum, then either re-enqueued at the *back* of
//! the FIFO (runnable ⇒ round-robin fairness), or completed. Tenant
//! worlds launch lazily at their first quantum, and completion of one
//! tenant admits the next, so the `max_live` window bounds the fiber
//! stacks and memory of thousands-of-tenants runs (a world owns no OS
//! thread; the pool's workers are the only threads there are).
//!
//! Determinism: a tenant is an isolated deterministic world, and the
//! pool only ever *interleaves* tenants — it never shares state between
//! them — so every tenant-visible outcome (virtual end time, event
//! count, `sched_trace_hash`, quantum-grant count) is independent of
//! worker count, queue order, and wall-clock timing. The service-level
//! digest ([`ServeReport::tenant_digest`]) is byte-identical across
//! reruns and across pool sizes; only wall-clock aggregates (events/s,
//! hold-time Gini, completion latency) vary.

use crate::config::ServeConfig;
use crate::jobs;
use crate::report::ServeReport;
use crate::tenant::{TenantCell, TenantReport, TenantWork, DONE};
use mtmpi::StepOutcome;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// FIFO of pending tenant ids plus the shutdown latch, under one lock.
struct WorkQueue {
    fifo: VecDeque<u32>,
    shutdown: bool,
}

/// Shared pool state.
struct Pool {
    cfg: ServeConfig,
    cells: Vec<TenantCell>,
    queue: Mutex<WorkQueue>,
    available: Condvar,
    /// Tenants that reached `DONE`.
    completed: AtomicU32,
    /// Next tenant id to admit when a slot frees (starts at the initial
    /// admission window).
    next_admit: AtomicU32,
    /// Service epoch for wall-clock latency accounting.
    t0: Instant,
}

impl Pool {
    /// Enqueue `id` if (and only if) it is idle. The CAS makes this
    /// idempotent and race-free: of any number of concurrent callers,
    /// exactly one pushes.
    fn schedule(&self, id: u32) {
        if self.cells[id as usize].try_enqueue() {
            let mut q = self.queue.lock().unwrap();
            q.fifo.push_back(id);
            drop(q);
            self.available.notify_one();
        }
    }

    /// A tenant completed: admit the next one, or shut the pool down if
    /// every tenant is done.
    fn on_complete(&self) {
        let done = self.completed.fetch_add(1, Ordering::AcqRel) + 1;
        let next = self.next_admit.fetch_add(1, Ordering::AcqRel);
        if next < self.cfg.tenants {
            self.schedule(next);
        }
        if done == self.cfg.tenants {
            let mut q = self.queue.lock().unwrap();
            q.shutdown = true;
            drop(q);
            self.available.notify_all();
        }
    }

    /// Worker body: drain the FIFO, honoring shutdown only once the
    /// queue is empty — the dequeue-before-shutdown order is what makes
    /// the shutdown-vs-dequeue race lose no tenant.
    fn worker_loop(self: &Arc<Self>) {
        loop {
            let id = {
                let mut q = self.queue.lock().unwrap();
                loop {
                    if let Some(id) = q.fifo.pop_front() {
                        break id;
                    }
                    if q.shutdown {
                        return;
                    }
                    q = self.available.wait(q).unwrap();
                }
            };
            self.run_quantum(id);
        }
    }

    /// Step tenant `id` for one quantum.
    fn run_quantum(&self, id: u32) {
        let cell = &self.cells[id as usize];
        cell.begin_running();
        // SAFETY: this thread holds the RUNNING claim until the
        // park/complete store below — access is exclusive.
        let work = unsafe { cell.work_mut() };

        let started = Instant::now();
        if let TenantWork::Queued(spec) = work {
            // First quantum: materialize the world (takes a fiber stack
            // per simulated thread; none runs before the first step).
            *work = TenantWork::Live(Box::new(jobs::launch(spec, self.cfg.fuel, self.cfg.trace)));
        }
        let TenantWork::Live(lt) = work else {
            unreachable!("RUNNING tenant must be live");
        };

        lt.grants += 1;
        let stepped = lt.run.step(self.cfg.quantum);
        lt.hold_ns += started.elapsed().as_nanos() as u64;

        match stepped {
            Ok(StepOutcome::Pending) => {
                // Publish the parked state, then requeue at the back of
                // the FIFO like any other scheduler would.
                cell.park_idle();
                self.schedule(id);
            }
            Ok(StepOutcome::Done) => {
                let report = finish_report(work, self.t0);
                *work = TenantWork::Finished(report);
                cell.complete();
                self.on_complete();
            }
            Err(e) => {
                let report = error_report(work, self.t0, &e.to_string());
                *work = TenantWork::Finished(report);
                cell.complete();
                self.on_complete();
            }
        }
    }
}

/// Build the success report for a just-finished live tenant.
fn finish_report(work: &mut TenantWork, t0: Instant) -> TenantReport {
    let TenantWork::Live(lt) = std::mem::replace(work, TenantWork::Taken) else {
        unreachable!("finished tenant must be live");
    };
    let out = lt.run.finish();
    let mut cs_wait = mtmpi_metrics::Histogram::new();
    for r in 0..out.nranks {
        cs_wait.merge(&out.stats(r).cs_wait_ns);
    }
    let blame_wait_ns = out.timeline.as_ref().map_or(0, |t| {
        mtmpi_prof::BlameMatrix::from_timeline(t).total_wait_ns
    });
    let payload = (lt.payload)(&out);
    TenantReport {
        id: lt.spec.id,
        seed: lt.spec.seed,
        template: lt.spec.template.label(),
        end_ns: out.end_ns,
        events: out.report.events,
        sched_trace_hash: out.report.sched_trace_hash,
        grants: lt.grants,
        payload,
        cs_wait_p50_ns: cs_wait.p50(),
        cs_wait_p99_ns: cs_wait.p99(),
        blame_wait_ns,
        error: None,
        hold_ns: lt.hold_ns,
        latency_ns: t0.elapsed().as_nanos() as u64,
    }
}

/// Build the failure report for a tenant whose step returned a typed
/// [`mtmpi::SimError`].
fn error_report(work: &mut TenantWork, t0: Instant, err: &str) -> TenantReport {
    let TenantWork::Live(lt) = std::mem::replace(work, TenantWork::Taken) else {
        unreachable!("failed tenant must be live");
    };
    TenantReport {
        id: lt.spec.id,
        seed: lt.spec.seed,
        template: lt.spec.template.label(),
        end_ns: lt.run.end_ns(),
        events: lt.run.events(),
        sched_trace_hash: 0,
        grants: lt.grants,
        payload: 0,
        cs_wait_p50_ns: 0,
        cs_wait_p99_ns: 0,
        blame_wait_ns: 0,
        error: Some(err.to_string()),
        hold_ns: lt.hold_ns,
        latency_ns: t0.elapsed().as_nanos() as u64,
    }
}

/// Run the service to completion: admit `cfg.tenants` tenants, schedule
/// them on `cfg.workers` OS-thread workers in `cfg.quantum`-event
/// grants, and collect every per-tenant report.
pub fn serve(cfg: &ServeConfig) -> ServeReport {
    cfg.validate();
    let cells: Vec<TenantCell> = (0..cfg.tenants)
        .map(|id| TenantCell::new(cfg.tenant_spec(id)))
        .collect();
    let initial = cfg.max_live.min(cfg.tenants);
    let pool = Arc::new(Pool {
        cfg: cfg.clone(),
        cells,
        queue: Mutex::new(WorkQueue {
            fifo: VecDeque::new(),
            shutdown: false,
        }),
        available: Condvar::new(),
        completed: AtomicU32::new(0),
        next_admit: AtomicU32::new(initial),
        t0: Instant::now(),
    });

    for id in 0..initial {
        pool.schedule(id);
    }

    let workers: Vec<_> = (0..cfg.workers)
        .map(|w| {
            let pool = pool.clone();
            std::thread::Builder::new()
                .name(format!("serve-w{w}"))
                .spawn(move || pool.worker_loop())
                .expect("spawn serve worker")
        })
        .collect();
    for w in workers {
        w.join().expect("serve worker panicked");
    }

    let wall_ns = pool.t0.elapsed().as_nanos() as u64;
    let pool = Arc::into_inner(pool).expect("all workers joined");
    let mut tenants = Vec::with_capacity(pool.cells.len());
    for cell in pool.cells {
        assert_eq!(cell.state(), DONE, "pool drained with unfinished tenant");
        match cell.into_work() {
            TenantWork::Finished(r) => tenants.push(r),
            _ => unreachable!("DONE tenant must carry a report"),
        }
    }
    tenants.sort_by_key(|r| r.id);
    ServeReport {
        workers: cfg.workers,
        quantum: cfg.quantum,
        wall_ns,
        tenants,
    }
}
