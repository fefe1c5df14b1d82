//! Service-level results: per-tenant reports plus cross-tenant
//! fairness, throughput, and the deterministic digest.

use crate::tenant::TenantReport;
use mtmpi_metrics::fairness::gini;

/// Everything one [`crate::serve`] call produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Pool size the run used.
    pub workers: u32,
    /// Event quantum the run used.
    pub quantum: u64,
    /// Wall-clock duration of the whole service run.
    pub wall_ns: u64,
    /// Per-tenant reports, ordered by tenant id.
    pub tenants: Vec<TenantReport>,
}

impl ServeReport {
    /// Tenants that failed with a typed error.
    pub fn failed(&self) -> u32 {
        self.tenants.iter().filter(|t| t.error.is_some()).count() as u32
    }

    /// Total scheduler events executed across all tenants.
    pub fn total_events(&self) -> u64 {
        self.tenants.iter().map(|t| t.events).sum()
    }

    /// Aggregate wall-clock event throughput of the pool.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.total_events() as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Gini index over per-tenant *quantum-grant* counts: the
    /// deterministic fairness scalar (0 = every tenant got the same
    /// number of grants; on a uniform workload this is ~0 by
    /// construction, and the fig gate requires < 0.2).
    pub fn grant_gini(&self) -> f64 {
        let counts: Vec<u64> = self.tenants.iter().map(|t| t.grants).collect();
        gini(&counts)
    }

    /// Gini index over per-tenant wall *hold* time (ns spent held by a
    /// worker) — the cross-tenant analogue of the paper's per-thread
    /// lock monopolization index. Wall-clock derived, so it is printed
    /// and never written to a BENCH document.
    pub fn hold_gini(&self) -> f64 {
        let holds: Vec<u64> = self.tenants.iter().map(|t| t.hold_ns).collect();
        gini(&holds)
    }

    /// p99 tenant completion latency (wall ns from service start).
    pub fn p99_latency_ns(&self) -> u64 {
        if self.tenants.is_empty() {
            return 0;
        }
        let mut lat: Vec<u64> = self.tenants.iter().map(|t| t.latency_ns).collect();
        lat.sort_unstable();
        let idx = (lat.len() * 99).div_ceil(100).saturating_sub(1);
        lat[idx]
    }

    /// The byte-identical per-tenant digest: one line per tenant in id
    /// order, deterministic fields only. Equal across reruns with the
    /// same seed *and across worker counts* — the service determinism
    /// contract CI `cmp`s.
    pub fn tenant_digest(&self) -> String {
        let mut s = String::new();
        for t in &self.tenants {
            s.push_str(&t.digest_line());
            s.push('\n');
        }
        s
    }

    /// FNV-1a 64 over the digest bytes: the service-level analogue of
    /// `sched_trace_hash`, for compact equality assertions.
    pub fn digest_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.tenant_digest().as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// One-paragraph human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} tenants on {} workers (quantum {} ev): {:.0} ev/s wall, \
             grant-gini {:.4}, hold-gini {:.4}, p99 latency {:.1} ms, {} failed",
            self.tenants.len(),
            self.workers,
            self.quantum,
            self.events_per_sec(),
            self.grant_gini(),
            self.hold_gini(),
            self.p99_latency_ns() as f64 / 1e6,
            self.failed(),
        )
    }
}
