//! # mtmpi-serve — multi-tenant service harness
//!
//! Runs **thousands of concurrent simulated worlds ("tenants") on a
//! fixed pool of dedicated OS-thread workers** — the ROADMAP's
//! "millions of users" service shape over the deterministic platform.
//!
//! Architecture (the FIFO-and-quantum shape of katana's shard
//! scheduler, SNIPPETS.md §1):
//!
//! * a tenant is a value — its spec until the first grant, then a
//!   parked [`mtmpi::TenantRun`] (the `Send` work item of the harness) —
//!   owned by exactly one of the FIFO or the worker stepping it;
//! * one mutex over the FIFO of tenants, the next admission and the
//!   finished reports, plus one condvar, is the pool's entire shared
//!   state, feeding `workers` dedicated OS threads;
//! * a worker steps a tenant's event loop for at most a
//!   [`ServeConfig::quantum`]-event grant (the fuel machinery is the
//!   preemption point), then pushes it back — cooperative round-robin,
//!   no tenant monopolizes a core;
//! * completion admits the next tenant ([`ServeConfig::max_live`]
//!   window), so worlds/threads materialize lazily and the footprint
//!   stays bounded at any tenant count.
//!
//! Determinism contract: tenants are isolated worlds, so **every
//! tenant-visible outcome is independent of worker count and quantum
//! interleaving** — [`ServeReport::tenant_digest`] is byte-identical
//! across reruns and across pool sizes. Cross-tenant fairness
//! (quantum-grant Gini, wall hold-time Gini) and throughput/latency are
//! first-class outputs on [`ServeReport`].
//!
//! ```
//! use mtmpi_serve::{serve, JobTemplate, ServeConfig};
//!
//! let cfg = ServeConfig::new(2, 16)
//!     .quantum(256)
//!     .templates(vec![JobTemplate::Pt2pt { msgs: 4, bytes: 64 }]);
//! let report = serve(&cfg);
//! assert_eq!(report.failed(), 0);
//! assert!(report.grant_gini() < 0.2, "uniform tenants, fair grants");
//! // Same config ⇒ byte-identical per-tenant results, any pool size:
//! let again = serve(&ServeConfig { workers: 1, ..cfg });
//! assert_eq!(report.tenant_digest(), again.tenant_digest());
//! ```

pub mod config;
mod jobs;
pub mod report;
pub mod scheduler;
pub mod tenant;

pub use config::{JobSpec, JobTemplate, ServeConfig};
pub use report::ServeReport;
pub use scheduler::serve;
pub use tenant::TenantReport;
