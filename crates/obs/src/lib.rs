//! # mtmpi-obs — structured observability for the runtime layers
//!
//! The paper's analyses (bias factors §4.3, dangling requests §4.4,
//! main-vs-progress paths Fig 6a) all depend on *seeing inside* the
//! runtime. This crate is the shared substrate for that: a low-overhead
//! typed-event layer the locks, runtime, and harness thread their
//! telemetry through, with deterministic exporters on top.
//!
//! * [`event`] — the event model: critical-section spans (wait/hold with
//!   lock kind, path class, core/socket), request life-cycle transitions
//!   (Issue → Post → Complete → Free), progress-engine poll batches, and
//!   RMA service events, all stamped with the platform clock.
//! * [`recorder`] — the [`RingRecorder`]: single-writer per-thread
//!   shards, drained once after the run into a [`Timeline`]. The runtime
//!   holds an `Option<Arc<RingRecorder>>`; `None` is recording off and
//!   costs one branch per site.
//! * [`export`] — Chrome trace-event JSON (loadable in `chrome://tracing`
//!   and Perfetto) and JSONL.
//! * [`summary`] — p50/p99/max summaries of [`mtmpi_metrics::Histogram`]
//!   and the [`Sink`] the bench layer uses to collect per-run records
//!   into `BENCH_*.json`.
//!
//! Clock domain: events carry whatever `Platform::now_ns` returns —
//! virtual nanoseconds on the virtual platform (bit-deterministic per
//! seed), scaled wall time on the native one. Reading the clock never
//! *advances* virtual time (only `Platform::compute` does), so enabling
//! the recorder does not perturb virtual-platform results.

pub mod event;
pub mod export;
pub mod json;
pub mod recorder;
pub mod summary;

pub use event::{CsKind, CsOp, Event, EventKind, FaultKind, Path, ReqPhase, RmaKind};
pub use export::{chrome_trace, flow_id, jsonl, ChromeDoc, VCI_LANE_TID_BASE};
pub use recorder::{
    swap_shard_claim, CsSpanView, RingRecorder, ShardClaim, Timeline, TimelineWindows,
    DEFAULT_SHARD_CAP,
};
pub use summary::{CsStats, RunRecord, Sink, TimelineClaim};
