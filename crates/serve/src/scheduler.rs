//! The worker pool: strictly-FIFO tenant scheduling with quantum-based
//! cooperative yielding.
//!
//! The pool's entire shared state is one mutex over the FIFO of tenants,
//! the next admission and the finished reports, plus one condvar. A
//! worker pops the front tenant and owns it while it steps it for at
//! most the configured event quantum; then it hands the tenant back to
//! the *back* of the FIFO (runnable ⇒ round-robin fairness), or hands in
//! its report and admits the next tenant. Tenant worlds launch lazily at
//! their first grant, and completion of one tenant admits the next, so
//! the `max_live` window bounds the fiber stacks and memory of
//! thousands-of-tenants runs (a world owns no OS thread; the pool's
//! workers are the only threads there are).
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
use crate::tenant::{Tenant, TenantReport};
use mtmpi::StepOutcome;
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// What a grant leaves its worker holding: the parked tenant, or the
/// report of a tenant that finished or failed.
type Handback = ControlFlow<TenantReport, Tenant>;

/// Everything the workers share. A tenant a worker holds is in neither
/// `fifo` nor `reports`.
struct Shared {
    fifo: VecDeque<Tenant>,
    /// Next tenant id to admit when a tenant reports.
    next_admit: u32,
    reports: Vec<TenantReport>,
}

struct Pool<'a> {
    cfg: &'a ServeConfig,
    shared: Mutex<Shared>,
    /// Signalled once, when the last report lands.
    drained: Condvar,
    /// Service epoch for wall-clock latency accounting.
    t0: Instant,
}

impl Pool<'_> {
    fn worker_loop(&self) {
        let mut handback = None;
        while let Some(tenant) = self.exchange(handback) {
            handback = Some(self.grant(tenant));
        }
    }

    /// Under the lock: hand back what the last grant left, then take the
    /// front tenant — `None` once every tenant has reported. Pushing and
    /// popping in one critical section means no hand-back lengthens the
    /// FIFO, so a worker that finds it empty has nothing to run until
    /// the last report wakes every waiter to exit.
    fn exchange(&self, handback: Option<Handback>) -> Option<Tenant> {
        let tenants = self.cfg.tenants as usize;
        let mut s = self.shared.lock().expect("serve pool lock");
        match handback {
            None => {}
            Some(ControlFlow::Continue(parked)) => s.fifo.push_back(parked),
            Some(ControlFlow::Break(report)) => {
                s.reports.push(report);
                if s.next_admit < self.cfg.tenants {
                    let spec = self.cfg.tenant_spec(s.next_admit);
                    s.fifo.push_back(Tenant::Queued(spec));
                    s.next_admit += 1;
                }
                if s.reports.len() == tenants {
                    self.drained.notify_all();
                }
            }
        }
        let mut s = self
            .drained
            .wait_while(s, |s| s.fifo.is_empty() && s.reports.len() < tenants)
            .expect("serve pool lock");
        s.fifo.pop_front()
    }

    /// Step `tenant` for one quantum, launching it first if this is its
    /// first grant.
    #[expect(
        clippy::disallowed_methods,
        reason = "the wall hold is host telemetry, kept out of the tenant digest"
    )]
    fn grant(&self, tenant: Tenant) -> Handback {
        let started = Instant::now();
        let mut lt = match tenant {
            // First grant: materialize the world (takes a fiber stack per
            // simulated thread; none runs before the first step).
            Tenant::Queued(spec) => Box::new(jobs::launch(spec, self.cfg.fuel, self.cfg.trace)),
            Tenant::Live(lt) => lt,
        };
        lt.grants += 1;
        let stepped = lt.run.step(self.cfg.quantum);
        lt.hold_ns += started.elapsed().as_nanos() as u64;
        match stepped {
            Ok(StepOutcome::Pending) => ControlFlow::Continue(Tenant::Live(lt)),
            Ok(StepOutcome::Done) => ControlFlow::Break(lt.into_report(Ok(()), self.t0)),
            Err(e) => ControlFlow::Break(lt.into_report(Err(e), self.t0)),
        }
    }
}

/// Run the service to completion: admit `cfg.tenants` tenants, schedule
/// them on `cfg.workers` OS-thread workers in `cfg.quantum`-event
/// grants, and collect every per-tenant report.
#[expect(
    clippy::disallowed_methods,
    reason = "sojourn and wall time are host telemetry, kept out of the tenant digest"
)]
pub fn serve(cfg: &ServeConfig) -> ServeReport {
    cfg.validate();
    let initial = cfg.max_live.min(cfg.tenants);
    let pool = Pool {
        cfg,
        shared: Mutex::new(Shared {
            fifo: (0..initial)
                .map(|id| Tenant::Queued(cfg.tenant_spec(id)))
                .collect(),
            next_admit: initial,
            reports: Vec::with_capacity(cfg.tenants as usize),
        }),
        drained: Condvar::new(),
        t0: Instant::now(),
    };
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..cfg.workers)
            .map(|w| {
                std::thread::Builder::new()
                    .name(format!("serve-w{w}"))
                    .spawn_scoped(s, || pool.worker_loop())
                    .expect("spawn serve worker")
            })
            .collect();
        // Join explicitly: the scope's own wait ends when a worker's
        // closure returns, before its thread exits and hands its malloc
        // arena back, so back-to-back `serve` calls would start their
        // workers on fresh arenas and grow the heap.
        for w in workers {
            w.join().expect("serve worker panicked");
        }
    });
    let wall_ns = pool.t0.elapsed().as_nanos() as u64;
    let mut tenants = pool.shared.into_inner().expect("serve pool lock").reports;
    tenants.sort_by_key(|r| r.id);
    ServeReport {
        workers: cfg.workers,
        quantum: cfg.quantum,
        wall_ns,
        tenants,
    }
}
