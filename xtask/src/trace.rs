//! `xtask trace <fig>` — run one figure binary with tracing enabled and
//! validate its machine-readable outputs.
//!
//! Runs `cargo run --release -p mtmpi-bench --bin <fig> -- --quick` with
//! `MTMPI_TRACE=1` in the workspace root, then checks that
//! `results/BENCH_<fig>.json` and `results/<fig>.trace.json` exist, are
//! valid JSON (`mtmpi_prof::Json::parse` — validation = parse), and have
//! the expected shape (an `"id"` field and a run with a `"prof"` block
//! in the bench summary, a non-empty `"traceEvents"` array in the trace).

use crate::run::{read_text, run_fig};
use mtmpi_prof::Json;
use std::path::Path;

/// Validate one output file: exists, parses as JSON (`Json::parse` is
/// the workspace's one validator), and has the expected shape.
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

pub fn run_trace(fig: &str, root: &Path) -> Result<(), String> {
    println!("xtask trace: running {fig} --quick with MTMPI_TRACE=1 ...");
    run_fig(fig, root, &[("MTMPI_TRACE", "1")])?;
    let bench = root.join(format!("results/BENCH_{fig}.json"));
    let trace = root.join(format!("results/{fig}.trace.json"));
    let checks = [
        (
            &bench,
            "\"id\" or a run with a \"prof\" block",
            bench_shape as fn(&Json) -> bool,
        ),
        (&trace, "a non-empty \"traceEvents\" array", trace_shape),
    ];
    // Check both files before failing, so one run reports everything.
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
    if failed > 0 {
        return Err(format!("{failed} output file(s) invalid"));
    }
    println!(
        "xtask trace: open {} in Perfetto (ui.perfetto.dev) or chrome://tracing",
        trace.display()
    );
    Ok(())
}
