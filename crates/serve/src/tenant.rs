//! A tenant is a value: a [`JobSpec`] until its first grant, then a
//! launched world between grants, then a [`TenantReport`].
//!
//! The pool moves tenants through its one mutex, and a tenant has
//! exactly one owner at any moment — the FIFO, or the worker that popped
//! it — so nothing about a tenant is shared and nothing guards it.

use crate::config::JobSpec;
use mtmpi::{SimError, TenantRun};
use std::time::Instant;

/// A tenant in the FIFO.
pub(crate) enum Tenant {
    /// Admitted but not yet launched: the world (and its fiber stacks)
    /// materializes lazily at the first grant, so queued tenants cost
    /// nothing until a worker reaches them.
    Queued(JobSpec),
    /// Launched and parked between grants (boxed: a live run dwarfs a
    /// spec).
    Live(Box<LiveTenant>),
}

/// A launched tenant.
pub(crate) struct LiveTenant {
    /// The resolved spec (id, seed, template).
    pub spec: JobSpec,
    /// The parked `Send` run (harness layer).
    pub run: TenantRun,
    /// Extracts the template's deterministic payload metric from the
    /// finished outcome (messages moved, RMA ops, BFS edges traversed).
    pub payload: Box<dyn FnOnce(&mtmpi::RunOutcome) -> u64 + Send>,
    /// Quantum grants so far (== `step` calls).
    pub grants: u64,
    /// Wall nanoseconds spent held by a worker.
    pub hold_ns: u64,
}

impl LiveTenant {
    /// The report of a tenant whose last grant ended it: `Ok` when its
    /// world reached `Done` (finished here, blame included), the typed
    /// error when the grant failed. `t0` is the service epoch.
    pub(crate) fn into_report(self, stepped: Result<(), SimError>, t0: Instant) -> TenantReport {
        let mut report = TenantReport {
            id: self.spec.id,
            seed: self.spec.seed,
            template: self.spec.template.label(),
            end_ns: self.run.end_ns(),
            events: self.run.events(),
            sched_trace_hash: 0,
            grants: self.grants,
            payload: 0,
            cs_wait_p50_ns: 0,
            cs_wait_p99_ns: 0,
            blame_wait_ns: 0,
            error: None,
            hold_ns: self.hold_ns,
            latency_ns: 0,
        };
        match stepped {
            Err(e) => report.error = Some(e.to_string()),
            Ok(()) => {
                let out = self.run.finish();
                let mut cs_wait = mtmpi_metrics::Histogram::new();
                for r in 0..out.nranks {
                    cs_wait.merge(&out.stats(r).cs_wait_ns);
                }
                report.end_ns = out.end_ns;
                report.events = out.report.events;
                report.sched_trace_hash = out.report.sched_trace_hash;
                report.cs_wait_p50_ns = cs_wait.p50();
                report.cs_wait_p99_ns = cs_wait.p99();
                report.blame_wait_ns = out.timeline.as_ref().map_or(0, |t| {
                    mtmpi_prof::BlameMatrix::from_timeline(t).total_wait_ns
                });
                report.payload = (self.payload)(&out);
            }
        }
        report.latency_ns = t0.elapsed().as_nanos() as u64;
        report
    }
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
    /// Wall ns spent held by a worker (not in the digest).
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

#[cfg(test)]
mod tests {
    use super::*;

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
