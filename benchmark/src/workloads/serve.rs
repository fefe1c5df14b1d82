//! `serve_pool` — `mtmpi_serve::serve` on one worker over thousands of
//! tiny mixed pt2pt / RMA / BFS tenant worlds, recorder off.
//!
//! Why: at ~120 scheduler events per world, building the world,
//! spawning and joining its threads, launching and finishing it are the
//! per-op cost, and it is the only workload on the RMA + progress-thread
//! path and the tenant state machine. Same `sim` layer as
//! `pt2pt_figure`, used as many short worlds instead of a few long ones.

use super::{count_world, Outcome, Pass, Trace, Workload};
use crate::stats::{percentile, tail_permille};
use mtmpi::prelude::*;
use mtmpi_graph500::{generate_kronecker, hybrid_bfs_thread, HybridBfs, HybridStats};
use mtmpi_metrics::Histogram;
use mtmpi_serve::tenant::TenantReport;
use mtmpi_serve::{serve, JobSpec, JobTemplate, ServeConfig, ServeReport};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Tenants per iteration, served as [`BATCHES`] calls of `serve` over
/// equal shares of them. One call is the finest stretch of this workload
/// the benchmark can time from outside, and a tenth of a second of work
/// fits between two disturbances of a shared host far more often than a
/// whole second does (see README, "Why the fastest laps").
pub const TENANTS: u32 = 1000;
pub const BATCHES: u32 = 10;
pub const QUANTUM: u64 = 256;
pub const MAX_LIVE: u32 = 64;

/// `fig_serve`'s mixed template rotation.
pub fn config(workers: u32, tenants: u32, seed: u64) -> ServeConfig {
    ServeConfig::new(workers, tenants)
        .quantum(QUANTUM)
        .max_live(MAX_LIVE)
        .seed(seed)
        .templates(vec![
            JobTemplate::Pt2pt { msgs: 4, bytes: 64 },
            JobTemplate::Rma { ops: 3, bytes: 64 },
            JobTemplate::Bfs {
                scale: 4,
                threads: 2,
            },
        ])
}

pub struct ServePool {
    /// One configuration per batch, each with its own seed.
    cfgs: Vec<ServeConfig>,
    /// The reports `serve` itself produced in the last untraced iteration.
    last: Vec<ServeReport>,
}

type Payload = Box<dyn FnOnce() -> u64>;

/// Launch one tenant parked, as `mtmpi_serve`'s private `jobs::launch`
/// does (same grids, bodies and payload metrics; fuel as configured).
/// The traced pass needs the run in hand to time its three seams; the
/// per-tenant digest line proves the copy is faithful.
fn launch(spec: &JobSpec, fuel: Option<u64>) -> (TenantRun, Payload) {
    let mut exp = Experiment::with_seed(
        if matches!(spec.template, JobTemplate::Bfs { .. }) {
            1
        } else {
            2
        },
        spec.seed,
    );
    if let Some(f) = fuel {
        exp = exp.fuel(f);
    }
    let two_ranks = RunConfig::new(Method::Mutex)
        .nodes(2)
        .ranks_per_node(1)
        .threads_per_rank(1);
    match spec.template {
        JobTemplate::Pt2pt { msgs, bytes } => {
            let run = exp.try_start(two_ranks, move |ctx| {
                let c = ctx.rank.world_comm();
                for round in 0..msgs {
                    let tag = round as i32;
                    if c.rank() == 0 {
                        c.send(1, tag, MsgData::Synthetic(bytes));
                        let _ = c.recv(Some(1), Some(tag));
                    } else {
                        let _ = c.recv(Some(0), Some(tag));
                        c.send(0, tag, MsgData::Synthetic(bytes));
                    }
                }
            });
            (run, Box::new(move || u64::from(msgs) * 2))
        }
        JobTemplate::Rma { ops, bytes } => {
            let cfg = two_ranks
                .window_bytes((bytes as usize).max(8))
                .progress_thread(true);
            let run = exp.try_start(cfg, move |ctx| {
                let h = &ctx.rank;
                if h.rank() != 0 {
                    let _ = h.world_comm().recv(Some(0), Some(900));
                    return;
                }
                for _ in 0..ops {
                    h.put(1, 0, MsgData::Synthetic(bytes));
                }
                h.world_comm().send(1, 900, MsgData::Synthetic(0));
            });
            (run, Box::new(move || u64::from(ops)))
        }
        JobTemplate::Bfs { scale, threads } => {
            let threads = threads.max(1);
            let el = generate_kronecker(scale, 8, spec.seed);
            let bfs = Arc::new(HybridBfs::new(&el, el.edges[0].0, 0, 1, threads));
            let stats: Arc<Mutex<Option<HybridStats>>> = Arc::default();
            let s2 = stats.clone();
            let cfg = RunConfig::new(Method::Ticket)
                .nodes(1)
                .ranks_per_node(1)
                .threads_per_rank(threads);
            let run = exp.try_start(cfg, move |ctx| {
                let edge_ns = if ctx.thread >= 4 { 5 } else { 4 };
                if let Some(s) = hybrid_bfs_thread(&bfs, &ctx.rank, ctx.thread, edge_ns) {
                    *s2.lock().expect("stats lock") = Some(s);
                }
            });
            let payload = move || {
                let s = stats.lock().expect("stats lock");
                s.map_or(0, |s| s.traversed_edges)
            };
            (run, Box::new(payload))
        }
    }
}

struct Live {
    spec: JobSpec,
    run: TenantRun,
    payload: Payload,
    grants: u64,
}

/// `serve` with one worker, on this thread, through the public stepping
/// API: FIFO of tenant ids, lazy launch at the first grant, at most
/// [`QUANTUM`] events per grant, re-enqueue at the back, completion
/// admits the next tenant. Produces the same `ServeReport` digest.
fn serve_by_hand(cfg: &ServeConfig, trace: &mut Trace) -> ServeReport {
    let mut live: Vec<Option<Live>> = (0..cfg.tenants).map(|_| None).collect();
    let mut reports: Vec<Option<TenantReport>> = (0..cfg.tenants).map(|_| None).collect();
    let initial = cfg.max_live.min(cfg.tenants);
    let mut fifo: VecDeque<u32> = (0..initial).collect();
    let mut next_admit = initial;
    while let Some(id) = fifo.pop_front() {
        let slot = &mut live[id as usize];
        let lt = slot.get_or_insert_with(|| {
            let spec = cfg.tenant_spec(id);
            let (run, payload) = trace.spans.scope("core.start", |_| launch(&spec, cfg.fuel));
            Live {
                spec,
                run,
                payload,
                grants: 0,
            }
        });
        lt.grants += 1;
        let o = trace.spans.open("sim.step");
        let stepped = lt.run.step(cfg.quantum).unwrap_or_else(|e| panic!("{e}"));
        if let Some(ns) = trace.spans.close(o) {
            trace.quanta_ns.push(ns);
        }
        if stepped == StepOutcome::Pending {
            fifo.push_back(id);
            continue;
        }
        let lt = slot.take().expect("live tenant");
        let out = trace.spans.scope("core.finish", |_| lt.run.finish());
        count_world(&out, &mut trace.counts);
        let mut cs_wait = Histogram::new();
        for r in 0..out.nranks {
            cs_wait.merge(&out.stats(r).cs_wait_ns);
        }
        reports[id as usize] = Some(TenantReport {
            id,
            seed: lt.spec.seed,
            template: lt.spec.template.label(),
            end_ns: out.end_ns,
            events: out.report.events,
            sched_trace_hash: out.report.sched_trace_hash,
            grants: lt.grants,
            payload: (lt.payload)(),
            cs_wait_p50_ns: cs_wait.p50(),
            cs_wait_p99_ns: cs_wait.p99(),
            blame_wait_ns: 0,
            error: None,
            hold_ns: 0,
            latency_ns: 0,
        });
        if next_admit < cfg.tenants {
            fifo.push_back(next_admit);
            next_admit += 1;
        }
    }
    ServeReport {
        workers: 1,
        quantum: cfg.quantum,
        wall_ns: 0,
        tenants: reports
            .into_iter()
            .map(|r| r.expect("every tenant finished"))
            .collect(),
    }
}

impl Workload for ServePool {
    const NAME: &'static str = "serve_pool";

    fn setup(seed: u64, _trace: &mut Trace) -> Self {
        let cfgs = (0..BATCHES)
            .map(|b| {
                let batch_seed =
                    seed.wrapping_add(u64::from(b).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                config(1, TENANTS / BATCHES, batch_seed)
            })
            .collect();
        Self {
            cfgs,
            last: Vec::new(),
        }
    }

    fn iterate(&mut self, trace: &mut Trace) -> Outcome {
        let mut out = Outcome {
            ok: true,
            ..Outcome::default()
        };
        let mut reports = Vec::with_capacity(self.cfgs.len());
        for cfg in &self.cfgs {
            let report = if trace.is_on() {
                serve_by_hand(cfg, trace)
            } else {
                serve(cfg)
            };
            trace.laps.lap();
            out.ops += report.tenants.len() as u64;
            out.digest.extend([
                report.digest_hash(),
                report.total_events(),
                report.tenants.iter().map(|t| t.grants).sum(),
            ]);
            out.ok &= report.failed() == 0 && report.tenants.len() as u32 == cfg.tenants;
            reports.push(report);
        }
        if !trace.is_on() {
            self.last = reports;
        }
        out
    }

    fn ledger(&mut self, _pass: &Pass, out: &mut Vec<(&'static str, f64)>) {
        assert!(
            !self.last.is_empty(),
            "an untraced iteration ran before the ledger"
        );
        let tenants: Vec<&TenantReport> = self.last.iter().flat_map(|r| &r.tenants).collect();
        let wall_s = self
            .last
            .iter()
            .map(|r| r.wall_ns as f64 / 1e9)
            .sum::<f64>();
        let events: u64 = self.last.iter().map(ServeReport::total_events).sum();
        let hold_us: Vec<f64> = tenants.iter().map(|t| t.hold_ns as f64 / 1e3).collect();
        let sojourn_ms: Vec<f64> = tenants.iter().map(|t| t.latency_ns as f64 / 1e6).collect();
        assert!(
            tail_permille(tenants.len()) >= 990,
            "{} tenants cannot support a p99 (ten samples beyond it)",
            tenants.len()
        );
        let hold_s: f64 = tenants.iter().map(|t| t.hold_ns as f64 / 1e9).sum();
        out.extend([
            ("serve.us_per_tenant", wall_s * 1e6 / tenants.len() as f64),
            ("serve.events_per_s", events as f64 / wall_s),
            ("serve.hold_p50_us", percentile(&hold_us, 500)),
            ("serve.hold_p99_us", percentile(&hold_us, 990)),
            ("serve.sojourn_p99_ms", percentile(&sojourn_ms, 990)),
            // One worker in every batch.
            ("serve.busy_frac", hold_s / wall_s),
            (
                "serve.grants",
                tenants.iter().map(|t| t.grants).sum::<u64>() as f64,
            ),
        ]);
    }
}
