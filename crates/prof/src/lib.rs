//! # mtmpi-prof — attribution analysis over `mtmpi-obs` timelines
//!
//! The paper's diagnostic act is *attribution*: Figs 2–4 do not just show
//! slow pt2pt latency, they show **which** thread monopolized the
//! critical section (bias factors), **why** waiters starved, and
//! **where** a message's latency went. `mtmpi-obs` records the raw
//! spans; this crate turns them into answers:
//!
//! * [`blame`] — the **blame matrix**: every CS wait span is charged to
//!   the concurrent holder's `(thread, path, op)`, yielding per-pair
//!   blocked-by nanoseconds, per-thread acquisition shares, a Gini
//!   monopolization index, and the progress-path starvation ratio —
//!   the §4.2–4.3 analysis reconstructed from traces alone.
//! * [`decomp`] — the **critical-path decomposition** of mean message
//!   latency into CS-wait / CS-hold / poll-batch / network segments.
//! * [`window`] — **windowed aggregation**: per-virtual-ms snapshots of
//!   wait quantiles and acquisition shares, powering `xtask top` and the
//!   Perfetto counter track.
//! * [`report`] — [`ProfReport`]: one run's blame + decomposition +
//!   windows, with deterministic JSON / counter-track / Prometheus
//!   exposition renderings (all hand-rolled; the workspace carries no
//!   JSON or HTTP dependency).
//! * [`json`] — a minimal JSON *value* parser (the consuming side of the
//!   artifacts the bench layer writes; `xtask`'s gates compare those
//!   artifacts as texts and use it to name the first differing path).
//! * [`top`] — `xtask top`, the one human view of a profile: rendered
//!   from a figure's `prof` blocks (decomposition, top blocked-by pairs,
//!   acquisition shares, windowed aggregation) as fixed-width tables.

pub mod blame;
pub mod decomp;
pub mod json;
pub mod report;
pub mod top;
pub mod window;

pub use blame::{
    vci_loads, BlameCell, BlameMatrix, BlameRow, HolderKey, Starvation, ThreadShare, VciLoad,
};
pub use decomp::LatencyDecomp;
pub use json::Json;
pub use report::ProfReport;
pub use top::top_report;
pub use window::{default_window_ns, WindowRow, Windows};
