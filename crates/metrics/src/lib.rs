//! Analysis metrics from the paper.
//!
//! * [`grants`] — the per-lock [`GrantFold`]: constant-size running
//!   statistics fed one [`Grant`] per critical-section passage by the
//!   instrumented locks (native) and the virtual-platform arbitration
//!   models alike.
//! * [`bias`] — the §4.3 fairness analysis: core-level probability `Pc`
//!   (same thread re-acquires) and socket-level probability `Ps` (next
//!   owner on same socket), for the observed arbitration and for the ideal
//!   fair arbitration, and their ratios (the *bias factors* of Fig 3a).
//! * [`dangling`] — the §4.4 dangling-request metric: completed-but-unfreed
//!   requests sampled at lock acquisitions.
//! * [`fairness`] — the Gini monopolization index used by the prof
//!   layer's blame matrix.
//! * [`hist`] — log2-bucketed histograms (CS wait/hold, message latency)
//!   with p50/p99/max summaries, cheap enough to keep always-on.
//! * [`series`] — simple labelled series and statistics helpers.
//! * [`table`] — fixed-width table rendering used by every figure
//!   binary so outputs look like the paper's data.

pub mod bias;
pub mod dangling;
pub mod fairness;
pub mod grants;
pub mod hist;
pub mod series;
pub mod table;

pub use bias::{BiasAnalysis, BiasFactors};
pub use dangling::DanglingSampler;
pub use fairness::gini;
pub use grants::{FifoViolation, Grant, GrantFold, LastGrant};
pub use hist::Histogram;
pub use series::{summary, Series, Summary};
pub use table::Table;
