//! `xtask trace <fig>` — run one figure binary with tracing enabled,
//! validate its machine-readable outputs, and check that they replay.
//!
//! Runs `cargo run --release -p mtmpi-bench --bin <fig> -- --trace` in
//! the workspace root **twice**, then checks that
//! `results/BENCH_<fig>.json` and `results/<fig>.trace.json` exist, are
//! valid JSON (`mtmpi_prof::Json::parse` — validation = parse), and have
//! the expected shape (an `"id"` field and a run with a `"prof"` block
//! in the bench summary, a non-empty `"traceEvents"` array in the trace),
//! that the figure kept exactly one timeline per run configuration (one
//! Chrome process and one `"prof"` block each — a figure that records
//! every run, or loses a kept one, fails here), and that
//! `results/<fig>.trace.json` and `results/<fig>.prom` are
//! byte-identical between the two same-seed runs (`run::same_text`, the
//! compare every gate uses): a trace document is a pure function of the
//! seed, like a BENCH document.

use crate::run::{read_text, run_fig, same_text};
use mtmpi_prof::Json;
use std::collections::BTreeSet;
use std::path::Path;

/// Validate one output file: parses as JSON (`Json::parse` is the
/// workspace's one validator) and has the expected shape.
fn check_file(path: &Path, shape: &str, has_shape: fn(&Json) -> bool) -> Result<u64, String> {
    let text = read_text(path)?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: invalid JSON: {e}", path.display()))?;
    if !has_shape(&doc) {
        return Err(format!("{}: missing {shape}", path.display()));
    }
    Ok(text.len() as u64)
}

fn bench_shape(doc: &Json) -> bool {
    let runs = doc.get("runs").and_then(Json::as_array).unwrap_or_default();
    doc.get("id").is_some() && runs.iter().any(|r| r.get("prof").is_some())
}

fn trace_shape(doc: &Json) -> bool {
    let events = doc.get("traceEvents").and_then(Json::as_array);
    events.is_some_and(|a| !a.is_empty())
}

/// The figure kept one timeline per `(label, threads, nodes)`
/// configuration of its runs: that many runs carry a `prof` block and
/// the trace names that many Chrome processes.
fn retention(bench: &str, trace: &str) -> Result<(), String> {
    let doc = Json::parse(bench)?;
    let runs = doc.get("runs").and_then(Json::as_array).unwrap_or_default();
    let config = |r: &Json| format!("{:?}", ["label", "threads", "nodes"].map(|k| r.get(k)));
    let want = runs.iter().map(config).collect::<BTreeSet<_>>().len();
    let profiled = runs.iter().filter(|r| r.get("prof").is_some()).count();
    let processes = trace.matches("\"name\":\"process_name\"").count();
    if (profiled, processes) == (want, want) {
        println!("xtask trace: OK one timeline per configuration ({want})");
        return Ok(());
    }
    Err(format!(
        "{want} configurations, {profiled} prof blocks, {processes} trace processes"
    ))
}

pub fn run_trace(fig: &str, root: &Path) -> Result<(), String> {
    let bench = root.join(format!("results/BENCH_{fig}.json"));
    let trace = root.join(format!("results/{fig}.trace.json"));
    let prom = root.join(format!("results/{fig}.prom"));
    let run = |round: u32| -> Result<[String; 2], String> {
        println!("xtask trace: running {fig} --trace (run {round} of 2) ...");
        run_fig(fig, root, &["--trace"])?;
        Ok([read_text(&trace)?, read_text(&prom)?])
    };
    let (first, second) = (run(1)?, run(2)?);
    let checks = [
        (
            &bench,
            "\"id\" or a run with a \"prof\" block",
            bench_shape as fn(&Json) -> bool,
        ),
        (&trace, "a non-empty \"traceEvents\" array", trace_shape),
    ];
    // Check everything before failing, so one run reports everything.
    let mut failed = 0;
    for (path, shape, has_shape) in checks {
        match check_file(path, shape, has_shape) {
            Ok(bytes) => println!("xtask trace: OK {} ({bytes} bytes)", path.display()),
            Err(e) => {
                eprintln!("xtask trace: FAIL {e}");
                failed += 1;
            }
        }
    }
    if let Err(e) = read_text(&bench).and_then(|b| retention(&b, &second[0])) {
        eprintln!("xtask trace: FAIL retention: {e}");
        failed += 1;
    }
    for (path, (a, b)) in [&trace, &prom].into_iter().zip(first.iter().zip(&second)) {
        let path = path.display();
        match same_text(&format!("same-seed runs of {path}"), a, b) {
            Ok(()) => {
                let fnv = b.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, byte| {
                    (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
                });
                println!(
                    "xtask trace: REPLAY OK {path} (len {}, fnv1a {fnv:016x})",
                    b.len()
                );
            }
            Err(e) => {
                eprintln!("xtask trace: FAIL {e}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        return Err(format!("{failed} check(s) failed"));
    }
    println!(
        "xtask trace: open {} in Perfetto (ui.perfetto.dev) or chrome://tracing",
        trace.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_are_recognised() {
        let bench = Json::parse(r#"{"id":"f","runs":[{"prof":{}}]}"#).unwrap();
        assert!(bench_shape(&bench));
        assert!(!bench_shape(
            &Json::parse(r#"{"id":"f","runs":[{}]}"#).unwrap()
        ));
        assert!(trace_shape(
            &Json::parse(r#"{"traceEvents":[{}]}"#).unwrap()
        ));
        assert!(!trace_shape(&Json::parse(r#"{"traceEvents":[]}"#).unwrap()));
    }

    #[test]
    fn retention_wants_one_timeline_per_config() {
        // Two sizes of one configuration, one of another.
        let bench = |second: &str| {
            format!(
                r#"{{"runs":[{{"label":"mutex","threads":2,"nodes":1,"prof":{{}}}},
                {{"label":"mutex","threads":2,"nodes":1{second}}},
                {{"label":"mutex","threads":4,"nodes":1,"prof":{{}}}}]}}"#
            )
        };
        let trace = |n| r#"{"name":"process_name"},"#.repeat(n);
        assert_eq!(retention(&bench(""), &trace(2)), Ok(()));
        assert!(retention(&bench(r#","prof":{}"#), &trace(2)).is_err());
        assert!(retention(&bench(""), &trace(3)).is_err());
    }
}
