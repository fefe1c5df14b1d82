//! `pt2pt_figure` — the figure path users run: a `Fig`, the §4.1
//! windowed throughput benchmark over lock methods × threads × sizes
//! with event capture on, then `Fig::finish`.
//!
//! Why: every scheduler event costs two worker hand-offs, all three
//! `vlock` arbitration models run, and the runtime CS body and recorder
//! append do nearly all the remaining work.

use super::{drive, Outcome, Pass, Trace, Workload};
use crate::span::self_total;
use mtmpi::prelude::*;
use mtmpi_bench::{throughput_run, Fig, ThroughputParams, WINDOW};

pub const METHODS: [Method; 3] = [Method::Mutex, Method::Ticket, Method::Priority];
pub const THREADS: [u32; 3] = [2, 4, 8];
pub const SIZES: [u64; 3] = [1, 1024, 16 * 1024];
/// Windows per thread in every cell. `ThroughputParams::new` defaults to
/// 6/6/3 by size; one window per cell sizes an iteration to about three
/// quarters of a second on one pinned CPU.
pub const WINDOWS: u32 = 1;

/// Ack tag base of `mtmpi_bench::throughput` (private there).
const ACK: i32 = 100;

pub struct Pt2ptFigure {
    seed: u64,
}

/// The grid of one `throughput_run` call, as `throughput_run` builds it.
pub fn cell_cfg(method: Method, p: &ThroughputParams) -> RunConfig {
    RunConfig::new(method)
        .nodes(2)
        .ranks_per_node(1)
        .threads_per_rank(p.threads)
        .binding(p.binding)
}

/// The per-thread body of `throughput_run`: rank 0 streams windows of
/// isends to rank 1 and waits for the per-window ack. `throughput_run`
/// does not expose its run for stepping, so the traced pass repeats the
/// body here; `(end_ns, sched_trace_hash)` must match the real one.
pub fn cell_body(size: u64, windows: u32) -> impl Fn(ThreadCtx) + Send + Sync + 'static {
    move |ctx| {
        let h = ctx.rank.world_comm();
        let j = ctx.thread as i32;
        if h.rank() == 0 {
            for _ in 0..windows {
                let reqs: Vec<_> = (0..WINDOW)
                    .map(|_| h.isend(1, 0, MsgData::Synthetic(size)))
                    .collect();
                h.waitall(reqs);
                let _ = h.recv(Some(1), Some(ACK + j));
            }
        } else {
            for _ in 0..windows {
                let reqs: Vec<_> = (0..WINDOW).map(|_| h.irecv(Some(0), Some(0))).collect();
                h.waitall(reqs);
                h.send(0, ACK + j, MsgData::Synthetic(1));
            }
        }
    }
}

/// Messages one cell delivers.
pub fn cell_messages(p: &ThroughputParams) -> u64 {
    u64::from(p.threads) * u64::from(p.windows) * WINDOW as u64
}

impl Workload for Pt2ptFigure {
    const NAME: &'static str = "pt2pt_figure";

    fn setup(seed: u64, _trace: &mut Trace) -> Self {
        Self { seed }
    }

    fn iterate(&mut self, trace: &mut Trace) -> Outcome {
        let fig = Fig::new(Self::NAME);
        let exp = fig.wire(Experiment::with_seed(2, self.seed));
        let mut out = Outcome {
            ok: true,
            ..Outcome::default()
        };
        for method in METHODS {
            for threads in THREADS {
                for size in SIZES {
                    let p = ThroughputParams::new(size, threads).windows(WINDOWS);
                    let messages = cell_messages(&p);
                    let (end_ns, hash) = if trace.is_on() {
                        let cfg = cell_cfg(method, &p);
                        let run = drive(&exp, cfg, cell_body(size, p.windows), trace);
                        (run.end_ns, run.report.sched_trace_hash)
                    } else {
                        let r = throughput_run(&exp, method, p);
                        out.ok &= r.messages == messages;
                        (r.end_ns, r.sched_trace_hash)
                    };
                    out.ops += messages;
                    out.digest.extend([end_ns, hash]);
                    trace.laps.lap();
                }
            }
        }
        // Writes results/BENCH_<id>.json and results/<id>.prom under the
        // child's scratch cwd: prof analysis + JSON + file writes.
        trace.spans.scope("bench.fig_finish", |_| fig.finish());
        for file in [
            "results/BENCH_pt2pt_figure.json",
            "results/pt2pt_figure.prom",
        ] {
            let len = std::fs::metadata(file).map_or(0, |m| m.len());
            out.ok &= len > 0;
            out.digest.push(len);
        }
        out
    }

    fn ledger(&mut self, pass: &Pass, out: &mut Vec<(&'static str, f64)>) {
        let ns = self_total(pass.trace.spans.spans(), "bench.fig_finish");
        out.push(("bench.fig_finish_ms", ns / 1e6));
    }
}
