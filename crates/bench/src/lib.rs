//! Shared benchmark workloads for the figure binaries.
//!
//! Every workload is a faithful re-implementation of the benchmark the
//! paper used:
//!
//! * [`throughput`] — the multithreaded windowed streaming benchmark
//!   derived from `osu_bw` (§4.1): windows of 64 nonblocking operations,
//!   `waitall`, and a per-window ack; messages share one tag so any
//!   receiver thread's posted receive matches any arrival.
//! * [`latency`] — the multithreaded ping-pong derived from
//!   `osu_latency` (§6.1.1).
//! * [`n2n`] — the all-to-all streaming benchmark of §5.2, where every
//!   thread exchanges windows with *every* peer rank; here source
//!   selectivity makes prompt receive posting matter.
//! * [`rma`] — the ARMCI-style contiguous put/get/accumulate sweep with
//!   an asynchronous progress thread (§6.1.2).
//!
//! All run on the virtual platform through [`mtmpi::Experiment`], so
//! results are deterministic per seed and independent of the host.

pub mod latency;
pub mod n2n;
pub mod report;
pub mod rma;
pub mod throughput;
pub mod util;

pub use latency::{latency_run, latency_series, LatencyResult};
pub use n2n::{n2n_run, n2n_series};
pub use report::{trace_mode, Fig};
pub use rma::{rma_run, rma_series, RmaOpKind};
pub use throughput::{
    stream_throughput_run, throughput_run, throughput_series, vci_throughput_run, ThroughputParams,
    ThroughputResult, WINDOW,
};
pub use util::{msg_sizes, print_figure_header, rma_sizes};
