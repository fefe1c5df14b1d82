//! `xtask bench-diff` and `xtask top` — the regression gate and the
//! terminal contention viewer over `results/BENCH_*.json`.
//!
//! `bench-diff [--baseline <dir>] [--quick]` compares every
//! `BENCH_<fig>.json` committed under the baseline directory (default
//! `results/baseline/`) against the corresponding fresh copy in
//! `results/`, using `mtmpi_prof::bench_diff`: per-run quantiles within
//! their tolerance table, every `sched_trace_hash` and every scalar
//! exactly. With `--quick`, each baselined figure binary is re-run in
//! quick mode first, so the command is self-contained in CI. The verdict
//! is written to `results/bench-diff.md`; the exit code is nonzero on
//! any breaching metric, missing run, or missing file. To accept an
//! intentional change, regenerate and commit the baseline (see
//! EXPERIMENTS.md).
//!
//! `top <fig>` renders the windowed contention view (`mtmpi_prof::top`)
//! of an already-generated `results/BENCH_<fig>.json`.

use crate::run::{read_text, run_fig};
use mtmpi_prof::{bench_diff, top_report, DiffOptions, DiffReport};
use std::path::Path;

/// Baselined figure ids: every `BENCH_<fig>.json` under `dir`, sorted.
fn baseline_figs(dir: &Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut figs: Vec<String> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let fig = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
            Some(fig.to_owned())
        })
        .collect();
    figs.sort();
    figs
}

/// One figure's verdict: its tolerance report, or why there is none.
fn gate_fig(
    fig: &str,
    root: &Path,
    baseline_dir: &Path,
    rerun: bool,
) -> Result<DiffReport, String> {
    let base = read_text(&baseline_dir.join(format!("BENCH_{fig}.json")))?;
    if rerun {
        println!("xtask bench-diff: running {fig} --quick ...");
        run_fig(fig, root, &[])?;
    }
    let cur = read_text(&root.join(format!("results/BENCH_{fig}.json"))).map_err(|e| {
        format!(
            "{e} — run `cargo run --release -p mtmpi-bench --bin {fig} -- --quick` or pass --quick"
        )
    })?;
    bench_diff(&base, &cur, &DiffOptions::default())
}

/// The gate. `baseline` is relative to `root` unless absolute.
pub fn run_bench_diff(root: &Path, baseline: &Path, quick: bool) -> Result<(), String> {
    let baseline_dir = if baseline.is_absolute() {
        baseline.to_path_buf()
    } else {
        root.join(baseline)
    };
    let figs = baseline_figs(&baseline_dir);
    if figs.is_empty() {
        return Err(format!(
            "no BENCH_*.json baselines under {} — \
             run the figure binaries and copy results/BENCH_*.json there first",
            baseline_dir.display()
        ));
    }
    println!(
        "xtask bench-diff: gating {} figure(s) against {}: {}",
        figs.len(),
        baseline_dir.display(),
        figs.join(", ")
    );

    let mut md = String::from("# bench-diff\n\n");
    let mut failures = 0usize;
    for fig in &figs {
        match gate_fig(fig, root, &baseline_dir, quick) {
            Ok(report) => {
                println!(
                    "xtask bench-diff: {fig}: {} — {} compared, {} skipped, {} failure(s)",
                    if report.ok() { "PASS" } else { "FAIL" },
                    report.compared,
                    report.skipped,
                    report.failures.len()
                );
                for f in &report.failures {
                    eprintln!("xtask bench-diff:   {f}");
                }
                if !report.ok() {
                    failures += 1;
                }
                md.push_str(&report.markdown());
                md.push('\n');
            }
            Err(e) => {
                eprintln!("xtask bench-diff: FAIL {fig}: {e}");
                md.push_str(&format!("## {fig} — FAIL\n\n{e}\n\n"));
                failures += 1;
            }
        }
    }

    let md_path = root.join("results/bench-diff.md");
    if std::fs::create_dir_all(root.join("results")).is_ok() {
        match std::fs::write(&md_path, &md) {
            Ok(()) => println!("xtask bench-diff: wrote {}", md_path.display()),
            Err(e) => eprintln!("xtask bench-diff: cannot write {}: {e}", md_path.display()),
        }
    }
    if failures > 0 {
        return Err(format!("{failures} figure(s) breaching"));
    }
    println!("xtask bench-diff: PASS ({} figure(s))", figs.len());
    Ok(())
}

/// The viewer.
pub fn run_top(fig: &str, root: &Path) -> Result<(), String> {
    let text = read_text(&root.join(format!("results/BENCH_{fig}.json"))).map_err(|e| {
        format!("{e} — run `cargo run --release -p mtmpi-bench --bin {fig} -- --quick` first")
    })?;
    print!("{}", top_report(&text)?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_listing_extracts_fig_ids() {
        let dir = std::env::temp_dir().join(format!("xtask-bd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_fig2a.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_fig6a.json"), "{}").unwrap();
        std::fs::write(dir.join("README.md"), "").unwrap();
        assert_eq!(baseline_figs(&dir), vec!["fig2a", "fig6a"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_baseline_dir_is_empty() {
        assert!(baseline_figs(Path::new("/nonexistent/nowhere")).is_empty());
    }
}
