//! The four workloads and what they share: the [`Workload`] contract,
//! the [`Trace`] a traced pass records into, and [`drive`], the one place
//! that launches, steps and finishes a simulated world.

pub mod bfs;
pub mod profile;
pub mod pt2pt;
pub mod serve;

use crate::span::Spans;
use mtmpi::prelude::*;
use mtmpi_metrics::Histogram;
use std::time::Instant;

/// Scheduler events per `step` call when the benchmark drives a world
/// itself. A traced pass records one `sim.step` span per call.
pub const QUANTUM: u64 = 1024;

/// Workload names, in the order every table and trace uses.
pub const NAMES: [&str; 4] = [
    pt2pt::Pt2ptFigure::NAME,
    profile::ProfileExport::NAME,
    bfs::BfsCompute::NAME,
    serve::ServePool::NAME,
];

/// What one iteration produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Workload operations completed (messages, timeline events, edges,
    /// tenants) — fixed by the inputs, never scheduler events.
    pub ops: u64,
    /// The deterministic outputs (virtual end times, schedule hashes,
    /// digests, export lengths). Every iteration of one seed must
    /// reproduce the reference iteration's digest exactly.
    pub digest: Vec<u64>,
    /// Checks an iteration can make on its own (parents validate, blame
    /// conserves, no tenant failed).
    pub ok: bool,
}

/// Deterministic counts of the worlds a traced pass drove.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub worlds: u64,
    pub events: u64,
    pub cs_passages: u64,
    /// Σ virtual end time over the worlds.
    pub virt_end_ns: u64,
    pub cs_wait: Histogram,
    pub recorded: u64,
    pub dropped: u64,
}

/// Wall time of an iteration, cut into laps: a workload calls
/// [`Laps::lap`] after every stretch of work it can tell apart from
/// outside (a pt2pt cell, a traversal, a batch of tenants, an export), at
/// the same places in every iteration. The end-to-end protocol keeps each
/// lap's fastest time over all iterations (see `runner::end_to_end`).
pub struct Laps {
    mark: Instant,
    /// Seconds per lap of the iteration in progress.
    pub walls: Vec<f64>,
}

impl Laps {
    fn new() -> Self {
        Self {
            mark: Instant::now(),
            walls: Vec::new(),
        }
    }

    /// Start an iteration: forget the last one's laps, restart the clock.
    pub fn restart(&mut self) {
        self.walls.clear();
        self.mark = Instant::now();
    }

    /// End the lap in progress and start the next.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.walls.push((now - self.mark).as_secs_f64());
        self.mark = now;
    }
}

/// A traced pass: host-clock spans, the wall time of every `step` call,
/// and the deterministic counts of the worlds behind them. Traced or not,
/// it also carries the iteration's [`Laps`].
pub struct Trace {
    pub spans: Spans,
    pub counts: Counts,
    pub quanta_ns: Vec<u64>,
    pub laps: Laps,
}

impl Trace {
    pub fn on() -> Self {
        Self {
            spans: Spans::on(),
            counts: Counts::default(),
            quanta_ns: Vec::new(),
            laps: Laps::new(),
        }
    }

    pub fn off() -> Self {
        Self {
            spans: Spans::off(),
            ..Self::on()
        }
    }

    pub fn is_on(&self) -> bool {
        self.spans.is_on()
    }
}

/// One benchmark workload. `setup` builds the inputs from the seed;
/// `iterate` runs the program on them once. With the trace off,
/// `iterate` takes the path users take; with it on, it does the same
/// work with every call into a layer wrapped in a span (and, where the
/// user path is one opaque call, through the public stepping API
/// instead) — the digest proves the two did the same thing.
pub trait Workload: Sized {
    const NAME: &'static str;
    fn setup(seed: u64, trace: &mut Trace) -> Self;
    fn iterate(&mut self, trace: &mut Trace) -> Outcome;
    /// Layer metrics only this workload can measure, computed after its
    /// traced pass.
    fn ledger(&mut self, pass: &Pass, out: &mut Vec<(&'static str, f64)>);
}

/// What a traced pass hands to [`Workload::ledger`].
pub struct Pass<'a> {
    /// Spans and counts of the traced setup and iteration.
    pub trace: &'a Trace,
    /// Outcome of the traced iteration.
    pub traced: &'a Outcome,
    /// Wall seconds of the untraced iteration timed just before it.
    pub plain_wall_s: f64,
}

/// Launch `body` on the grid `cfg`, step it to completion in
/// [`QUANTUM`]-event grants, and collect it — `Experiment::try_run` cut
/// at its three public seams so each gets a span. Untraced, it is
/// `try_run` with a finite quantum (hash-neutral by the stepping
/// contract).
pub fn drive<F>(exp: &Experiment, cfg: RunConfig, body: F, trace: &mut Trace) -> RunOutcome
where
    F: Fn(ThreadCtx) + Send + Sync + 'static,
{
    let o = trace.spans.open("core.start");
    let mut run = exp.try_start(cfg, body);
    trace.spans.close(o);
    loop {
        let o = trace.spans.open("sim.step");
        let stepped = run.step(QUANTUM).unwrap_or_else(|e| panic!("{e}"));
        if let Some(ns) = trace.spans.close(o) {
            trace.quanta_ns.push(ns);
        }
        if stepped == StepOutcome::Done {
            break;
        }
    }
    let o = trace.spans.open("core.finish");
    let out = run.finish();
    trace.spans.close(o);
    if trace.is_on() {
        count_world(&out, &mut trace.counts);
    }
    out
}

/// Fold one finished world into the pass's deterministic counts.
pub fn count_world(out: &RunOutcome, c: &mut Counts) {
    c.worlds += 1;
    c.events += out.report.events;
    c.virt_end_ns += out.end_ns;
    for r in 0..out.nranks {
        let st = out.stats(r);
        c.cs_passages += st.cs_acquisitions;
        c.cs_wait.merge(&st.cs_wait_ns);
    }
    if let Some(t) = &out.timeline {
        c.recorded += t.len() as u64;
        c.dropped += t.dropped;
    }
}
