//! # mtmpi — MPI+Threads runtime-contention reproduction
//!
//! Facade crate for the reproduction of *MPI+Threads: Runtime Contention
//! and Remedies* (PPoPP'15). It re-exports the workspace layers and adds
//! the experiment harness every figure binary and example uses:
//!
//! * [`Method`] — the paper's legend entries (mutex / ticket / priority /
//!   single, plus the extra baselines);
//! * [`Experiment`]/[`RunConfig`] — "run this closure on `nodes` ×
//!   `ranks_per_node` × `threads_per_rank` with binding B and method M,
//!   deterministically, and hand back traces and profiles";
//! * [`prelude`] — one-line import for applications.
//!
//! ```
//! use mtmpi::prelude::*;
//!
//! let exp = Experiment::quick(2); // 2 nodes, paper-grade defaults
//! let out = exp.run(
//!     RunConfig::new(Method::Ticket).ranks_per_node(1).threads_per_rank(2),
//!     |ctx| {
//!         // Every (rank, thread) runs this body; ops issue through
//!         // the communicator-first surface.
//!         let c = ctx.rank.world_comm();
//!         if c.rank() == 0 {
//!             c.send(1, ctx.thread as i32, MsgData::Synthetic(64));
//!         } else {
//!             c.recv(Some(0), Some(ctx.thread as i32));
//!         }
//!     },
//! );
//! assert!(out.end_ns > 0);
//! ```

pub mod harness;
pub mod method;

pub use harness::{Experiment, ObsConfig, RunConfig, RunOutcome, TenantRun, ThreadCtx};
pub use method::Method;
pub use mtmpi_sim::{SimError, StepOutcome};

/// Convenient glob import for examples and benches.
pub mod prelude {
    pub use crate::harness::{Experiment, ObsConfig, RunConfig, RunOutcome, TenantRun, ThreadCtx};
    pub use crate::method::Method;
    pub use mtmpi_metrics::{summary, BiasAnalysis, Histogram, Series, Table};
    pub use mtmpi_obs::{chrome_trace, jsonl, CsStats, RunRecord, Sink, Timeline};
    pub use mtmpi_runtime::prelude::*;
    pub use mtmpi_sim::{SimError, StepOutcome};
    pub use mtmpi_topology::{Binding, BindingPolicy};
}
