//! The multithreaded point-to-point throughput benchmark (osu_bw
//! derivative, §4.1).

use mtmpi::prelude::*;

/// Requests per window, as in the paper.
pub const WINDOW: usize = 64;
/// Ack tag base (data messages use tag 0; ack for thread j is `ACK + j`).
const ACK: i32 = 100;
/// Ack tag base for the VCI sweep. Divisible by every swept VCI count,
/// so under tag routing thread `j`'s ack lives on the same shard as its
/// data (`(VCI_ACK + j) % c == j % c`) and no thread straddles shards.
const VCI_ACK: i32 = 800;

/// One throughput measurement.
#[derive(Debug, Clone)]
pub struct ThroughputResult {
    /// Aggregate message rate, messages/second.
    pub rate: f64,
    /// Mean dangling requests on the receiving rank (§4.4 metric).
    pub dangling_avg: f64,
    /// Bias analysis of the receiving rank's critical section.
    pub bias: BiasAnalysis,
    /// Virtual run time, ns.
    pub end_ns: u64,
    /// Total messages moved.
    pub messages: u64,
    /// Scheduler decision-trace hash of the run — a pure function of the
    /// seed and workload.
    pub sched_trace_hash: u64,
    /// Simulator events the run executed.
    pub events: u64,
}

/// Parameters of a throughput run.
#[derive(Debug, Clone)]
pub struct ThroughputParams {
    /// Payload bytes per message.
    pub size: u64,
    /// Threads per rank.
    pub threads: u32,
    /// Windows per thread.
    pub windows: u32,
    /// Thread binding.
    pub binding: BindingPolicy,
    /// Run label override (`None` = the method label). Labels key
    /// timeline retention and baseline diffing, so sweeps whose runs
    /// differ in more than the method (e.g. fault rates) must set one
    /// per point to keep each point's timeline.
    pub run_label: Option<String>,
}

impl ThroughputParams {
    /// Paper-like defaults: compact binding, window count scaled down
    /// with size so large-message runs stay bounded.
    pub fn new(size: u64, threads: u32) -> Self {
        let windows = if size >= 256 * 1024 {
            2
        } else if size >= 16 * 1024 {
            3
        } else {
            6
        };
        Self {
            size,
            threads,
            windows,
            binding: BindingPolicy::Compact,
            run_label: None,
        }
    }

    /// Override the binding.
    pub fn binding(mut self, b: BindingPolicy) -> Self {
        self.binding = b;
        self
    }

    /// Override the window count.
    pub fn windows(mut self, w: u32) -> Self {
        self.windows = w;
        self
    }

    /// Override the run label recorded in bench output.
    pub fn label(mut self, l: impl Into<String>) -> Self {
        self.run_label = Some(l.into());
        self
    }
}

/// The measurement every variant reports: receiver-side (rank 1)
/// dangling and bias — for a sharded rank the bias of its shard-0 lock,
/// the only shard when unsharded and the RMA/home shard otherwise.
fn result(out: &RunOutcome, windows: u32) -> ThroughputResult {
    let messages = u64::from(out.threads_per_rank) * u64::from(windows) * WINDOW as u64;
    ThroughputResult {
        rate: out.msg_rate(messages),
        dangling_avg: out.dangling(1).average(),
        bias: out.grants(1).bias(),
        end_ns: out.end_ns,
        messages,
        sched_trace_hash: out.report.sched_trace_hash,
        events: out.report.events,
    }
}

/// Run the benchmark: rank 0 (node 0) streams to rank 1 (node 1), `threads`
/// threads per rank, window/ack flow control.
pub fn throughput_run(exp: &Experiment, method: Method, p: ThroughputParams) -> ThroughputResult {
    let size = p.size;
    let windows = p.windows;
    let mut cfg = RunConfig::new(method)
        .nodes(2)
        .ranks_per_node(1)
        .threads_per_rank(p.threads)
        .binding(p.binding);
    if let Some(l) = p.run_label {
        cfg = cfg.label(l);
    }
    let out = exp.run(cfg, move |ctx| {
        let h = ctx.rank.world_comm();
        let j = ctx.thread as i32;
        if h.rank() == 0 {
            // Sender: window of isends, waitall, wait for the ack.
            for _ in 0..windows {
                let reqs: Vec<_> = (0..WINDOW)
                    .map(|_| h.isend(1, 0, MsgData::Synthetic(size)))
                    .collect();
                h.waitall(reqs);
                let _ = h.recv(Some(1), Some(ACK + j));
            }
        } else {
            // Receiver: window of irecvs (shared tag: any thread's
            // receive matches any arrival), waitall, ack.
            for _ in 0..windows {
                let reqs: Vec<_> = (0..WINDOW).map(|_| h.irecv(Some(0), Some(0))).collect();
                h.waitall(reqs);
                h.send(0, ACK + j, MsgData::Synthetic(1));
            }
        }
    });
    result(&out, windows)
}

/// Sweep message sizes for one method/thread-count; returns a
/// [`Series`] of (size, rate in 10³ msgs/s) — the paper's y axis unit.
pub fn throughput_series(
    exp: &Experiment,
    method: Method,
    threads: u32,
    binding: BindingPolicy,
    sizes: &[u64],
) -> Series {
    let label = if method == Method::Single {
        "Single".to_owned()
    } else {
        format!("{}{}", method.label(), binding_suffix(binding))
    };
    let mut s = Series::new(label);
    for &size in sizes {
        let r = throughput_run(
            exp,
            method,
            ThroughputParams::new(size, threads).binding(binding),
        );
        s.push(size as f64, r.rate / 1e3);
    }
    s
}

/// Run the per-thread-tag variant used by the VCI sweep: thread `j` of
/// the sender streams windows of tag-`j` isends and waits for an ack on
/// tag `ACK + j`; thread `j` of the receiver posts tag-`j` irecvs. With
/// `vci_count > 1` the world routes by tag ([`VciMap::by_tag`]), so each
/// thread's traffic lives on shard `j % vci_count` and the global
/// critical section is partitioned; with `vci_count == 1` the identical
/// workload runs against the classic single CS.
pub fn vci_throughput_run(
    exp: &Experiment,
    method: Method,
    p: ThroughputParams,
    vci_count: u32,
) -> ThroughputResult {
    let size = p.size;
    let windows = p.windows;
    let mut cfg = RunConfig::new(method)
        .nodes(2)
        .ranks_per_node(1)
        .threads_per_rank(p.threads)
        .binding(p.binding);
    if vci_count > 1 {
        cfg = cfg.vci_map(VciMap::by_tag(vci_count));
    }
    if let Some(l) = p.run_label {
        cfg = cfg.label(l);
    }
    let out = exp.run(cfg, move |ctx| {
        let h = ctx.rank.world_comm();
        let j = ctx.thread as i32;
        if h.rank() == 0 {
            for _ in 0..windows {
                let reqs: Vec<_> = (0..WINDOW)
                    .map(|_| h.isend(1, j, MsgData::Synthetic(size)))
                    .collect();
                h.waitall(reqs);
                let _ = h.recv(Some(1), Some(VCI_ACK + j));
            }
        } else {
            for _ in 0..windows {
                let reqs: Vec<_> = (0..WINDOW).map(|_| h.irecv(Some(0), Some(j))).collect();
                h.waitall(reqs);
                h.send(0, VCI_ACK + j, MsgData::Synthetic(1));
            }
        }
    });
    result(&out, windows)
}

/// Run the stream-bound variant: thread `j` of each rank binds stream
/// `j` (`ctx.rank.stream_at(j)`) and issues everything through it, so
/// the whole window/ack exchange rides the single-owner lock-free path.
/// Stream shards pair by index across ranks — sender thread `j`'s
/// traffic lands on the receiver's stream `j`, which receiver thread `j`
/// owns — so the workload partitions perfectly with zero CS passages on
/// any shared shard. The lock `method` only arbitrates the one residual
/// sharded VCI (idle here); it is kept as a parameter so figures can
/// label the series consistently.
pub fn stream_throughput_run(
    exp: &Experiment,
    method: Method,
    p: ThroughputParams,
) -> ThroughputResult {
    let size = p.size;
    let windows = p.windows;
    let mut cfg = RunConfig::new(method)
        .nodes(2)
        .ranks_per_node(1)
        .threads_per_rank(p.threads)
        .binding(p.binding)
        .streams(p.threads);
    if let Some(l) = p.run_label {
        cfg = cfg.label(l);
    }
    let out = exp.run(cfg, move |ctx| {
        let s = ctx.rank.stream_at(ctx.thread);
        let j = ctx.thread as i32;
        if s.rank() == 0 {
            for _ in 0..windows {
                let reqs: Vec<_> = (0..WINDOW)
                    .map(|_| s.isend(1, j, MsgData::Synthetic(size)))
                    .collect();
                s.waitall(reqs);
                let _ = s.recv(Some(1), Some(VCI_ACK + j));
            }
        } else {
            for _ in 0..windows {
                let reqs: Vec<_> = (0..WINDOW).map(|_| s.irecv(Some(0), Some(j))).collect();
                s.waitall(reqs);
                s.send(0, VCI_ACK + j, MsgData::Synthetic(1));
            }
        }
    });
    result(&out, windows)
}

fn binding_suffix(b: BindingPolicy) -> &'static str {
    match b {
        BindingPolicy::Compact => "",
        BindingPolicy::Scatter => "_Scatter",
    }
}
