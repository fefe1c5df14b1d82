//! Workspace automation: `cargo run -p xtask -- <command>`.
//!
//! Commands:
//!
//! * `trace <fig>` — run one `mtmpi-bench` figure binary (e.g. `fig2a`)
//!   with event tracing enabled, twice, then validate that
//!   `results/BENCH_<fig>.json` and `results/<fig>.trace.json` were
//!   written and are well-formed JSON of the expected shape (parsed with
//!   `mtmpi_prof::Json`, the workspace's one JSON reader), and that the
//!   trace and `results/<fig>.prom` are byte-identical between the two
//!   same-seed runs. See [`trace`].
//!
//! * `bench-diff` — the one figure gate: run every figure with a
//!   `BENCH_<fig>.json` under `results/baseline/` once and require each of its baseline files to equal the fresh file of the
//!   same name under `results/`; a mismatch names the first differing
//!   `$`-path or line. See [`bench`]. `bench-diff` and `trace` compare
//!   texts through one routine, `run::same_text`.
//!
//! * `top <fig>` — render the human view of `results/BENCH_<fig>.json`'s
//!   profiles: per profiled run, where message latency went, who blocked
//!   whom, acquisition shares, and who held the runtime critical section
//!   when (the document stores the profile only as data).
//!
//! * `lint` — run mtmpi-lint, the concurrency-contract static analysis
//!   (rules L001–L003, L005 and L007: Relaxed hand-off mutations,
//!   Acquire-less published loads, nested critical sections, panics on
//!   typed-error paths, host guards across a simulated-thread
//!   suspension), over the whole workspace. The determinism bans are
//!   clippy's, from the root `clippy.toml`.
//!   Exit code 1 on any finding. Accept a deliberate site with
//!   `// lint: allow(L00x) <why>` on the same or preceding line. See
//!   DESIGN.md §13 and `crates/lint`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod bench;
#[cfg(test)]
mod claims;
mod run;
mod trace;

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/xtask.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask has a parent")
        .to_path_buf()
}

/// The mtmpi-lint gate. Exit-code contract (unchanged since the
/// original regex pass): 0 when clean, 1 on any finding; findings go to
/// stdout, the failure summary to stderr.
fn run_lint(root: &Path) -> Result<(), String> {
    let report = mtmpi_lint::run(root);
    print!("{}", report.render_text());
    if report.ok() {
        Ok(())
    } else {
        Err(format!("{} finding(s)", report.findings.len()))
    }
}

const USAGE: &str = "usage: cargo run -p xtask -- <command>\n\n\
    lint         mtmpi-lint static analysis (L001–L003, L005, L007)\n\
    trace <fig>  run a figure binary traced, twice: validate its JSON outputs and that the\n\
    \x20            trace and .prom replay byte for byte (e.g. trace fig2a)\n\
    bench-diff   run every figure baselined in results/baseline/ once: each fresh\n\
    \x20            output must equal its committed text\n\
    top <fig>    profile view of results/BENCH_<fig>.json: latency decomposition,\n\
    \x20            blocked-by pairs, acquisition shares, windowed contention";

/// Run `cmd` with its arguments; `Err` is the failure line to print.
fn dispatch(cmd: &str, mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let root = workspace_root();
    let unknown = |a: &str| Err(format!("unknown argument {a:?}\n{USAGE}"));
    let missing = || format!("missing argument\n{USAGE}");
    match cmd {
        "lint" => match args.next() {
            Some(a) => unknown(&a),
            None => run_lint(&root),
        },
        "trace" => trace::run_trace(&args.next().ok_or_else(missing)?, &root),
        "bench-diff" => match args.next() {
            Some(a) => unknown(&a),
            None => bench::run_baseline_gate(&root),
        },
        "top" => bench::run_top(&args.next().ok_or_else(missing)?, &root),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    match dispatch(&cmd, args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xtask {cmd}: FAIL {e}");
            ExitCode::FAILURE
        }
    }
}
