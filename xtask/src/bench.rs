//! `xtask bench-diff` and `xtask top` — the baseline gate and the
//! terminal contention viewer over `results/BENCH_*.json`.
//!
//! `bench-diff` re-runs every figure with a `BENCH_<fig>.json` committed
//! under `results/baseline/` in quick mode and requires the fresh
//! `results/BENCH_<fig>.json` to equal the committed text, byte for
//! byte ([`same_text`]). A BENCH document is a pure function of the
//! seed, so any difference is a behaviour change; the failure names the
//! first differing `$`-path. A change that moves a document refreshes
//! its baseline in the same commit (see EXPERIMENTS.md).
//!
//! `top <fig>` renders the windowed contention view (`mtmpi_prof::top`)
//! of an already-generated `results/BENCH_<fig>.json`.

use crate::run::{check_all, read_text, run_fig, same_text};
use mtmpi_prof::top_report;
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

/// Re-run `fig` and compare its fresh document with the committed one.
fn gate_fig(fig: &str, root: &Path) -> Result<(), String> {
    let file = format!("BENCH_{fig}.json");
    let baseline = read_text(&root.join("results/baseline").join(&file))?;
    println!("xtask bench-diff: running {fig} --quick ...");
    run_fig(fig, root, &[])?;
    let fresh = read_text(&root.join("results").join(&file))?;
    let what = format!("results/{file} and its baseline");
    same_text(&what, &baseline, &fresh)
}

/// The gate: fresh text == committed text, for every baseline.
pub fn run_baseline_gate(root: &Path) -> Result<(), String> {
    let figs = baseline_figs(&root.join("results/baseline"));
    if figs.is_empty() {
        return Err("no BENCH_*.json under results/baseline/".to_owned());
    }
    println!(
        "xtask bench-diff: gating {} figure(s) against results/baseline/: {}",
        figs.len(),
        figs.join(", ")
    );
    check_all("bench-diff", &figs, |f| f, |f| gate_fig(f, root))
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
