//! What a child process does with one workload: the end-to-end protocol
//! (spans off) and the traced ledger pass (spans on).

use crate::metrics::{unit_of, Report, Value};
use crate::procfs::{cpu_times, peak_rss_mib};
use crate::span::{check_nesting, self_total, self_total_under, trace_doc, trace_events};
use crate::stats::{median, median_and_tail, min_max};
use crate::workloads::{Outcome, Pass, Trace, Workload, NAMES};
use std::time::{Duration, Instant};

/// Set-ups (input construction + untimed reference iteration) per run;
/// `setup_s` is the fastest.
const SETUPS: usize = 7;
/// Timed iterations per run, at least; more while `--seconds` lasts.
const MIN_ITERATIONS: usize = 5;

fn same(a: &Outcome, b: &Outcome) -> bool {
    a.ok && b.ok && a.ops == b.ops && a.digest == b.digest
}

/// The end-to-end protocol: closed loop, one client, spans off. Builds
/// the inputs and runs the untimed reference iteration [`SETUPS`] times,
/// then times whole iterations until `seconds` have passed (at least
/// [`MIN_ITERATIONS`]). An iteration that does not reproduce the
/// reference's deterministic outputs counts all its ops as failed.
///
/// Throughput and CPU are those of the **undisturbed iteration**: every
/// workload cuts its iteration into laps (`Laps`), the same ones every
/// time, and the undisturbed iteration is the sum over the laps of each
/// lap's fastest time in the run. On a shared host interference only ever
/// adds time — a vCPU that is descheduled or throttled stretches whatever
/// it touches — and a lap of tens of milliseconds escapes it far more
/// often than an iteration of most of a second, so this repeats between
/// runs where the median, and even the fastest whole iteration, do not
/// (see README, "Why the fastest laps"). The rates of the fastest, median
/// and slowest whole iterations are reported beside it. Set-up time is
/// that of the fastest set-up.
pub fn end_to_end<W: Workload>(seed: u64, seconds: f64) -> Report {
    let mut off = Trace::off();
    let mut setup_s = Vec::new();
    let mut state: Option<(W, Outcome)> = None;
    let mut stable = true;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let mut w = W::setup(seed, &mut off);
        let reference = w.iterate(&mut off);
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some((_, first)) = &state {
            stable &= same(first, &reference);
        }
        state = Some((w, reference));
    }
    let (mut w, reference) = state.expect("SETUPS > 0");
    stable &= reference.ok && reference.ops > 0;

    let mut walls = Vec::new();
    let mut fastest_laps: Vec<f64> = Vec::new();
    let mut report = Report::default();
    let budget = Duration::from_secs_f64(seconds);
    let cpu0 = cpu_times();
    let start = Instant::now();
    while walls.len() < MIN_ITERATIONS || start.elapsed() < budget {
        off.laps.restart();
        let out = std::hint::black_box(w.iterate(&mut off));
        off.laps.lap();
        let laps = &off.laps.walls;
        walls.push(laps.iter().sum::<f64>());
        if fastest_laps.is_empty() {
            fastest_laps.clone_from(laps);
        }
        assert_eq!(
            laps.len(),
            fastest_laps.len(),
            "every iteration has the same laps"
        );
        for (best, &lap) in fastest_laps.iter_mut().zip(laps) {
            *best = best.min(lap);
        }
        report.attempted += reference.ops;
        if !(stable && same(&reference, &out)) {
            report.failed += reference.ops;
        }
    }
    let cpu = cpu_times().since(cpu0);
    eprintln!("[{}] set-ups {setup_s:.3?} s", W::NAME);
    eprintln!("[{}] iterations {walls:.3?} s", W::NAME);
    eprintln!("[{}] fastest laps {fastest_laps:.4?} s", W::NAME);

    let ops = reference.ops as f64;
    let undisturbed: f64 = fastest_laps.iter().sum();
    let (fastest, slowest) = min_max(&walls);
    let (setup_min, setup_max) = min_max(&setup_s);
    report.push(
        "setup_s",
        Value::new(setup_min, "s").with_spread(setup_min, median(&setup_s), setup_max, SETUPS),
    );
    report.push(
        "ops_per_s",
        Value::new(ops / undisturbed, "ops/s").with_spread(
            ops / slowest,
            ops / median(&walls),
            ops / fastest,
            walls.len(),
        ),
    );
    // CPU seconds of the undisturbed iteration: its wall times the timed
    // phase's CPU utilisation. /proc CPU time ticks at 10 ms — several
    // per cent of one iteration — so it is read once over the whole
    // phase, where it resolves to a tenth of a per cent.
    let utilisation = cpu.total_s() / walls.iter().sum::<f64>();
    report.push("cpu_s", Value::new(undisturbed * utilisation, "s"));
    report.push("peak_rss_mb", Value::new(peak_rss_mib(), "MiB"));
    report
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced pass: set up once, run the reference iteration, time one
/// untraced and one traced iteration, and turn the spans and counts into
/// the workload's column of the layer ledger. Writes `trace.json` into
/// the current directory.
pub fn traced<W: Workload>(seed: u64) -> Report {
    let mut trace = Trace::on();
    let mut off = Trace::off();

    let o = trace.spans.open("bench.setup");
    let mut w = W::setup(seed, &mut trace);
    trace.spans.close(o);
    let reference = w.iterate(&mut off);

    let cpu0 = cpu_times();
    let t0 = Instant::now();
    let plain = w.iterate(&mut off);
    let plain_wall_s = t0.elapsed().as_secs_f64();
    let cpu = cpu_times().since(cpu0);

    let o = trace.spans.open("bench.iteration");
    let iteration = o.id().expect("tracing is on");
    let traced = w.iterate(&mut trace);
    let traced_wall_ns = trace.spans.close(o).expect("tracing is on") as f64;

    let mut report = Report {
        attempted: 2 * reference.ops,
        ..Report::default()
    };
    let faithful = same(&reference, &plain) && same(&reference, &traced);
    if !(faithful && trace.counts.dropped == 0) {
        report.failed = report.attempted;
    }

    let spans = trace.spans.spans();
    check_nesting(spans).unwrap_or_else(|e| panic!("{e}"));
    let world_ns = |name: &str| self_total(spans, name);
    let (start_ns, step_ns, finish_ns) = (
        world_ns("core.start"),
        world_ns("sim.step"),
        world_ns("core.finish"),
    );
    let c = &trace.counts;
    let (events, worlds, ops) = (c.events as f64, c.worlds as f64, reference.ops as f64);
    let quanta_us: Vec<f64> = trace.quanta_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let (q50, qpct, qtail) = median_and_tail(&quanta_us);
    let share = |name: &str| self_total_under(spans, name, Some(iteration)) / traced_wall_ns;

    let mut metrics: Vec<(&'static str, f64)> = vec![
        ("sim.events", events),
        ("sim.events_per_op", ratio(events, ops)),
        (
            "sim.events_per_s",
            ratio(events, (start_ns + step_ns + finish_ns) / 1e9),
        ),
        ("sim.step_ns_per_event", ratio(step_ns, events)),
        ("sim.quantum_p50_us", q50),
        ("sim.quantum_tail_us", qtail),
        ("sim.quantum_tail_pct", qpct),
        ("sim.quantum_samples", quanta_us.len() as f64),
        ("core.start_us_per_world", ratio(start_ns / 1e3, worlds)),
        ("core.finish_us_per_world", ratio(finish_ns / 1e3, worlds)),
        ("core.start_share", share("core.start")),
        ("core.step_share", share("sim.step")),
        ("core.finish_share", share("core.finish")),
        ("runtime.cs_passages", c.cs_passages as f64),
        (
            "runtime.cs_passages_per_op",
            ratio(c.cs_passages as f64, ops),
        ),
        ("runtime.virt_end_ns", c.virt_end_ns as f64),
        ("runtime.virt_cs_wait_p99_ns", c.cs_wait.p99() as f64),
        ("obs.events_recorded", c.recorded as f64),
        ("obs.dropped", c.dropped as f64),
        (
            "bench.trace_overhead_frac",
            (traced_wall_ns / 1e9 - plain_wall_s) / plain_wall_s,
        ),
        ("host.user_s", cpu.user_s),
        ("host.sys_s", cpu.sys_s),
        ("host.sys_frac", ratio(cpu.sys_s, cpu.total_s())),
    ];
    w.ledger(
        &Pass {
            trace: &trace,
            traced: &traced,
            plain_wall_s,
        },
        &mut metrics,
    );
    for (name, v) in metrics {
        report.push(name, Value::new(v, unit_of(name)));
    }

    let pid = NAMES
        .iter()
        .position(|n| *n == W::NAME)
        .expect("known workload");
    let doc = trace_doc(&trace_events(spans, W::NAME, pid));
    std::fs::write("trace.json", doc).unwrap_or_else(|e| panic!("write trace.json: {e}"));
    report
}
