//! Stand-alone probes: layer costs no workload isolates by itself. Each
//! drives one public surface with as little around it as possible.

use crate::span::self_total;
use crate::stats::{median, min_max};
use crate::workloads::pt2pt::{cell_body, cell_cfg};
use crate::workloads::{drive, Trace};
use mtmpi::prelude::*;
use mtmpi_bench::ThroughputParams;
use mtmpi_sim::{CalendarQueue, Keyed};
use std::time::Instant;

/// Windows per thread of the recorder-on/off cell (8-thread Mutex, 1 B):
/// a quarter of the timeline `profile_export` records.
pub const CELL_WINDOWS: u32 = 3;

fn platform(seed: u64) -> Arc<VirtualPlatform> {
    Arc::new(VirtualPlatform::new(
        presets::nehalem_cluster_scaled(1),
        NetModel::qdr(),
        LockModelParams::default(),
        seed,
    ))
}

/// A world of `threads` simulated threads whose bodies only
/// `compute(100); yield_now()` `yields` times: every scheduler event is
/// one worker → scheduler → worker hand-off and nothing else. Returns
/// host ns per event.
fn handoff_ns_per_event(seed: u64, threads: u32, yields: u32) -> f64 {
    let p = platform(seed);
    let cores = p.cluster().node.total_cores();
    for t in 0..threads {
        let w: Arc<dyn Platform> = p.clone();
        p.spawn(
            ThreadDesc {
                name: format!("h{t}"),
                node: 0,
                core: CoreId(t % cores),
            },
            Box::new(move || {
                for _ in 0..yields {
                    w.compute(100);
                    w.yield_now();
                }
            }),
        );
    }
    let mut run = p.start();
    let t0 = Instant::now();
    run.step(u64::MAX).unwrap_or_else(|e| panic!("{e}"));
    let ns = t0.elapsed().as_nanos() as f64;
    let events = run.events();
    run.finish();
    ns / events as f64
}

/// Worlds of `threads` empty-body simulated threads: spawn, start, run
/// to completion, join. Returns host µs per simulated thread.
fn spawn_join_us_per_thread(seed: u64, worlds: u32, threads: u32) -> f64 {
    let t0 = Instant::now();
    for w in 0..worlds {
        let p = platform(seed ^ u64::from(w));
        let cores = p.cluster().node.total_cores();
        for t in 0..threads {
            p.spawn(
                ThreadDesc {
                    name: format!("e{t}"),
                    node: 0,
                    core: CoreId(t % cores),
                },
                Box::new(|| ()),
            );
        }
        let mut run = p.start();
        run.step(u64::MAX).unwrap_or_else(|e| panic!("{e}"));
        run.finish();
    }
    t0.elapsed().as_secs_f64() * 1e6 / f64::from(worlds * threads)
}

/// The scheduler's event record: `(t, seq)` key padded to 40 bytes.
#[derive(Clone, Copy)]
struct It {
    t: u64,
    seq: u64,
    _kind: [u64; 3],
}

impl Keyed for It {
    fn time(&self) -> u64 {
        self.t
    }
    fn seq(&self) -> u64 {
        self.seq
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `fig_scale`'s hold model on the bare [`CalendarQueue`]: `resident`
/// events, each step batch-pops one timestamp and pushes a successor per
/// popped event on a tie-heavy 256 ns grid with a 1-in-64 far-future
/// jump. Warmed for three turnovers, then `ops` timed. Returns host ns
/// per popped event.
fn queue_ns_per_op(seed: u64, resident: u64, ops: u64) -> f64 {
    const WINDOW_NS: u64 = 512 * 1024;
    let mut rng = seed ^ 0x5EED;
    let mut delta = move || {
        let r = splitmix64(&mut rng);
        if r.is_multiple_of(64) {
            (2 + (r >> 8) % 8) * WINDOW_NS
        } else {
            ((r >> 8) % 2048) * 256
        }
    };
    let mut q = CalendarQueue::new();
    let mut seq = 0u64;
    let mut push = |q: &mut CalendarQueue<It>, t: u64| {
        q.push(It {
            t,
            seq,
            _kind: [seq; 3],
        });
        seq += 1;
    };
    for _ in 0..resident {
        let t = delta();
        push(&mut q, t);
    }
    let mut buf: Vec<It> = Vec::new();
    let mut churn = |target: u64| -> u64 {
        let mut popped = 0;
        while popped < target {
            buf.clear();
            let n = q.pop_batch(&mut buf) as u64;
            assert!(n > 0, "resident set never empties");
            for it in &buf {
                let t = it.t + delta();
                push(&mut q, t);
            }
            popped += n;
        }
        popped
    };
    churn(3 * resident);
    let t0 = Instant::now();
    let popped = std::hint::black_box(churn(ops));
    t0.elapsed().as_nanos() as f64 / popped as f64
}

/// The `probes` child: the four `sim` probes (each the median of
/// three), then the recorder cell.
pub fn all(seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let med3 = |f: &dyn Fn() -> f64| median(&[f(), f(), f()]);
    let handoff = med3(&|| handoff_ns_per_event(seed, 16, 2000));
    out.extend([
        ("sim.handoff_ns_per_event", handoff),
        (
            "sim.handoff_ns_per_event_t64",
            med3(&|| handoff_ns_per_event(seed, 64, 500)),
        ),
        (
            "sim.queue_ns_per_op",
            med3(&|| queue_ns_per_op(seed, 32 * 1024, 1_000_000)),
        ),
        (
            "sim.spawn_join_us_per_thread",
            med3(&|| spawn_join_us_per_thread(seed, 200, 4)),
        ),
    ]);
    recorder_cell(seed, handoff, out);
}

/// What one run of the recorder cell cost and produced.
struct CellRun {
    step_ns: f64,
    finish_ns: f64,
    wall_s: f64,
    events: u64,
    hash: u64,
}

fn cell_run(seed: u64, recorder: bool) -> CellRun {
    let exp = Experiment::with_seed(2, seed).trace(recorder);
    let p = ThroughputParams::new(1, 8).windows(CELL_WINDOWS);
    let mut trace = Trace::on();
    let t0 = Instant::now();
    let out = drive(
        &exp,
        cell_cfg(Method::Mutex, &p),
        cell_body(p.size, p.windows),
        &mut trace,
    );
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(trace.counts.dropped, 0, "recorder dropped on the cell");
    let spans = trace.spans.spans();
    CellRun {
        step_ns: self_total(spans, "sim.step"),
        finish_ns: self_total(spans, "core.finish"),
        wall_s,
        events: out.report.events,
        hash: out.report.sched_trace_hash,
    }
}

/// One 8-thread Mutex pt2pt cell, stepped with the recorder on and off
/// (three alternating pairs, medians): what a recorded event costs the
/// stepping loop, what draining the recorder costs `finish`, and — by
/// subtracting the bare hand-off — what the runtime's critical-section
/// body costs. All three are differences of measured times and labelled
/// as derived in the README.
fn recorder_cell(seed: u64, handoff_ns: f64, out: &mut Vec<(&'static str, f64)>) {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        on.push(cell_run(seed, true));
        off.push(cell_run(seed, false));
    }
    let events = off[0].events as f64;
    for r in on.iter().chain(&off) {
        assert_eq!(
            (r.events, r.hash),
            (off[0].events, off[0].hash),
            "the recorder perturbed the schedule"
        );
    }
    let med = |runs: &[CellRun], f: &dyn Fn(&CellRun) -> f64| {
        median(&runs.iter().map(f).collect::<Vec<_>>())
    };
    let step_off = med(&off, &|r| r.step_ns);
    out.extend([
        (
            "obs.record_ns_per_event",
            (med(&on, &|r| r.step_ns) - step_off) / events,
        ),
        (
            "obs.drain_us",
            (med(&on, &|r| r.finish_ns) - med(&off, &|r| r.finish_ns)) / 1e3,
        ),
        ("runtime.body_ns_per_event", step_off / events - handoff_ns),
        ("host.pinned_cell_s", med(&off, &|r| r.wall_s)),
    ]);
}

/// Tenants per multi-worker `serve` run of the `unpinned` child.
const MC_TENANTS: u32 = 500;

fn max_over_min(v: &[f64]) -> f64 {
    let (lo, hi) = min_max(v);
    hi / lo
}

/// The `unpinned` child, run with no CPU affinity set: the recorder-off
/// cell three times, and `serve` on one worker per allowed CPU five
/// times. Medians and max ÷ min; the parent divides by the pinned
/// numbers. Informational: unpinned runs do not repeat within a tenth,
/// which is why no workload is measured this way.
pub fn unpinned(seed: u64, nproc: u32, out: &mut Vec<(&'static str, f64)>) {
    let cell: Vec<f64> = (0..3).map(|_| cell_run(seed, false).wall_s).collect();
    let cfg = crate::workloads::serve::config(nproc, MC_TENANTS, seed);
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let r = mtmpi_serve::serve(&cfg);
            assert_eq!(r.failed(), 0, "multi-worker serve failed tenants");
            f64::from(MC_TENANTS) / (r.wall_ns as f64 / 1e9)
        })
        .collect();
    out.extend([
        ("host.nproc", f64::from(nproc)),
        ("host.unpinned_cell_s", median(&cell)),
        ("host.unpinned_spread", max_over_min(&cell)),
        ("serve.mc_tenants_per_s", median(&rates)),
        ("serve.mc_spread", max_over_min(&rates)),
    ]);
}
