//! Job templates: each [`JobSpec`] expands to a complete simulated
//! world (experiment grid + per-thread body) launched parked via
//! [`Experiment::try_start`], never run monolithically — the service
//! scheduler owns all stepping.

use crate::config::{JobSpec, JobTemplate};
use crate::tenant::LiveTenant;
use mtmpi::prelude::*;
use std::sync::{Arc, Mutex};

/// Launch `spec` as a parked run. Worlds are intentionally small (a few
/// hundred to a few thousand scheduler events): the service's scale
/// axis is *tenant count*, not per-tenant size.
pub(crate) fn launch(spec: JobSpec, fuel: Option<u64>, trace: bool) -> LiveTenant {
    let (run, payload) = match spec.template {
        JobTemplate::Pt2pt { msgs, bytes } => launch_pt2pt(&spec, fuel, trace, msgs, bytes),
        JobTemplate::Rma { ops, bytes } => launch_rma(&spec, fuel, trace, ops, bytes),
        JobTemplate::Bfs { scale, threads } => launch_bfs(&spec, fuel, trace, scale, threads),
    };
    LiveTenant {
        spec,
        run,
        payload,
        grants: 0,
        hold_ns: 0,
    }
}

fn experiment(nodes: u32, seed: u64, fuel: Option<u64>, trace: bool) -> Experiment {
    let mut exp = Experiment::with_seed(nodes, seed).trace(trace);
    if let Some(f) = fuel {
        exp = exp.fuel(f);
    }
    exp
}

type Launched = (TenantRun, Box<dyn FnOnce(&RunOutcome) -> u64 + Send>);

/// Two ranks, one thread each, `msgs` ping-pong rounds.
fn launch_pt2pt(spec: &JobSpec, fuel: Option<u64>, trace: bool, msgs: u32, bytes: u64) -> Launched {
    let exp = experiment(2, spec.seed, fuel, trace);
    let run = exp.try_start(
        RunConfig::new(Method::Mutex)
            .nodes(2)
            .ranks_per_node(1)
            .threads_per_rank(1),
        move |ctx| {
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
        },
    );
    (run, Box::new(move |_| u64::from(msgs) * 2))
}

/// Origin + passive target with an async progress thread (§6 shape).
fn launch_rma(spec: &JobSpec, fuel: Option<u64>, trace: bool, ops: u32, bytes: u64) -> Launched {
    let exp = experiment(2, spec.seed, fuel, trace);
    let run = exp.try_start(
        RunConfig::new(Method::Mutex)
            .nodes(2)
            .ranks_per_node(1)
            .threads_per_rank(1)
            .window_bytes((bytes as usize).max(8))
            .progress_thread(true),
        move |ctx| {
            let h = &ctx.rank;
            if h.rank() != 0 {
                // Passive target: the blocking receive keeps the
                // progress engine turning until the origin's epoch ends.
                let _ = h.world_comm().recv(Some(0), Some(900));
                return;
            }
            for _ in 0..ops {
                h.put(1, 0, MsgData::Synthetic(bytes));
            }
            h.world_comm().send(1, 900, MsgData::Synthetic(0));
        },
    );
    (run, Box::new(move |_| u64::from(ops)))
}

/// Single-rank hybrid BFS on a tiny Kronecker graph; payload metric is
/// the deterministic traversed-edge count.
fn launch_bfs(
    spec: &JobSpec,
    fuel: Option<u64>,
    trace: bool,
    scale: u32,
    threads: u32,
) -> Launched {
    use mtmpi_graph500::{generate_kronecker, hybrid_bfs_thread, HybridBfs};
    let threads = threads.max(1);
    let el = generate_kronecker(scale, 8, spec.seed);
    let root = el.edges[0].0;
    let bfs = Arc::new(HybridBfs::new(&el, root, 0, 1, threads));
    let stats: Arc<Mutex<Option<mtmpi_graph500::HybridStats>>> = Arc::new(Mutex::new(None));
    let exp = experiment(1, spec.seed, fuel, trace);
    let (b2, s2) = (bfs, stats.clone());
    let run = exp.try_start(
        RunConfig::new(Method::Ticket)
            .nodes(1)
            .ranks_per_node(1)
            .threads_per_rank(threads),
        move |ctx| {
            // Same per-edge cost split as fig10a: threads on the remote
            // socket pay extra for the graph's memory.
            let edge_ns = if ctx.thread >= 4 { 5 } else { 4 };
            if let Some(s) = hybrid_bfs_thread(&b2, &ctx.rank, ctx.thread, edge_ns) {
                *s2.lock().expect("stats lock") = Some(s);
            }
        },
    );
    let payload = move |_: &RunOutcome| {
        let s = stats.lock().expect("stats lock");
        s.map_or(0, |s| s.traversed_edges)
    };
    (run, Box::new(payload))
}
