//! `xtask bench-diff` and `xtask top` — the figure gate and the
//! terminal contention viewer over `results/BENCH_*.json`.
//!
//! `bench-diff` is the one figure gate, and `results/baseline/` is its
//! table: `BENCH_<fig>.json` names a gated figure, and any other
//! `<fig>.<rest>` file there (e.g. `fig_serve.tenants.txt`) belongs to
//! that figure. Each figure runs once, with its files first deleted from
//! `results/`; then each must equal the fresh `results/<same name>`,
//! byte for byte ([`same_text`]). A figure's outputs are a pure function
//! of the seed, so any difference is a behaviour change; the failure
//! names the first differing `$`-path (JSON) or line. A change that
//! moves an output refreshes its baseline in the same commit (see
//! EXPERIMENTS.md).
//!
//! `top <fig>` renders the human view of an already-generated
//! `results/BENCH_<fig>.json` (`mtmpi_prof::top`): per profiled run, the
//! latency decomposition, top blocked-by pairs, acquisition shares and
//! windowed contention table, read from the run's `prof` block — the
//! document stores a profile only as data.

use crate::run::{check_fig_name, read_text, run_fig, same_text};
use mtmpi_prof::top_report;
use std::collections::BTreeMap;
use std::path::Path;

/// A gated figure and the baseline files its run must reproduce.
type Gate = (String, Vec<String>);

/// The figure a `BENCH_<fig>.json` file name names.
fn bench_fig(name: &str) -> Option<&str> {
    name.strip_prefix("BENCH_")?.strip_suffix(".json")
}

/// The gate's table: every file under `dir`, grouped by the figure that
/// writes it, figures sorted. A file that names no gated figure is an
/// error, not skipped. A missing `dir` lists nothing.
fn baseline_figs(dir: &Path) -> Result<Vec<Gate>, String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(Vec::new());
    };
    let mut names: Vec<String> = entries
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let mut figs: BTreeMap<String, Vec<String>> = names
        .iter()
        .filter_map(|n| Some((bench_fig(n)?.to_owned(), Vec::new())))
        .collect();
    let mut orphans = Vec::new();
    for name in names {
        let fig = bench_fig(&name).or_else(|| Some(name.split_once('.')?.0));
        match fig.and_then(|f| figs.get_mut(f)) {
            Some(files) => files.push(name),
            None => orphans.push(name),
        }
    }
    if !orphans.is_empty() {
        return Err(format!(
            "no gated figure for {} under {} (a baseline is BENCH_<fig>.json, \
             or <fig>.<rest> beside one)",
            orphans.join(", "),
            dir.display()
        ));
    }
    Ok(figs.into_iter().collect())
}

/// Run `fig` once; each of its baseline files must equal the fresh file
/// of the same name under `results/`. Copies left by an earlier run are
/// deleted first, so a file the run no longer writes fails as unread.
fn gate_fig(fig: &str, files: &[String], root: &Path) -> Result<(), String> {
    let fresh = |file: &String| root.join("results").join(file);
    for file in files {
        if let Err(e) = std::fs::remove_file(fresh(file)) {
            if e.kind() != std::io::ErrorKind::NotFound {
                return Err(format!("cannot delete {}: {e}", fresh(file).display()));
            }
        }
    }
    println!("xtask bench-diff: running {fig} ...");
    run_fig(fig, root, &[])?;
    files.iter().try_for_each(|file| {
        let baseline = read_text(&root.join("results/baseline").join(file))?;
        let fresh = read_text(&fresh(file))?;
        same_text(
            &format!("results/{file} and its baseline"),
            &baseline,
            &fresh,
        )
    })
}

/// The gate: fresh text == committed text, for every baseline file.
/// Every figure runs before the gate fails, so one run reports them all.
pub fn run_baseline_gate(root: &Path) -> Result<(), String> {
    let figs = baseline_figs(&root.join("results/baseline"))?;
    if figs.is_empty() {
        return Err("no BENCH_*.json under results/baseline/".to_owned());
    }
    let names: Vec<&str> = figs.iter().map(|(fig, _)| fig.as_str()).collect();
    println!(
        "xtask bench-diff: gating {} figure(s), {} file(s) against results/baseline/: {}",
        figs.len(),
        figs.iter().map(|(_, files)| files.len()).sum::<usize>(),
        names.join(", ")
    );
    let mut failed = Vec::new();
    for (fig, files) in &figs {
        match gate_fig(fig, files, root) {
            Ok(()) => println!("xtask bench-diff: {fig}: PASS"),
            Err(e) => {
                eprintln!("xtask bench-diff: {fig}: FAIL {e}");
                failed.push(fig.as_str());
            }
        }
    }
    if failed.is_empty() {
        return Ok(());
    }
    Err(format!(
        "{} of {}: {}",
        failed.len(),
        figs.len(),
        failed.join(", ")
    ))
}

/// The viewer. `fig` passes the figure-name check before it names a file.
pub fn run_top(fig: &str, root: &Path) -> Result<(), String> {
    check_fig_name(fig)?;
    let text = read_text(&root.join(format!("results/BENCH_{fig}.json")))
        .map_err(|e| format!("{e} — run `cargo run --release -p mtmpi-bench --bin {fig}` first"))?;
    print!("{}", top_report(&text)?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh directory holding `files`, each empty.
    fn listing(tag: &str, files: &[&str]) -> Result<Vec<Gate>, String> {
        let dir = std::env::temp_dir().join(format!("xtask-bd-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for f in files {
            std::fs::write(dir.join(f), "").unwrap();
        }
        let figs = baseline_figs(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
        figs
    }

    fn gate(fig: &str, files: &[&str]) -> Gate {
        (
            fig.to_owned(),
            files.iter().map(|f| (*f).to_owned()).collect(),
        )
    }

    #[test]
    fn a_figures_files_group_into_one_run() {
        let figs = listing("group", &["fig_serve.tenants.txt", "BENCH_fig_serve.json"]);
        assert_eq!(
            figs,
            Ok(vec![gate(
                "fig_serve",
                &["BENCH_fig_serve.json", "fig_serve.tenants.txt"]
            )])
        );
    }

    #[test]
    fn a_file_naming_no_gated_figure_fails_the_listing() {
        for orphan in ["README.md", "fig_x.tenants.txt", "BENCH_fig_x.txt"] {
            let err = listing("orphan", &["BENCH_fig2a.json", orphan]).unwrap_err();
            assert!(
                err.starts_with(&format!("no gated figure for {orphan} under ")),
                "{err}"
            );
        }
    }

    #[test]
    fn figures_come_back_sorted_each_listed_once() {
        let figs = listing(
            "sorted",
            &[
                "BENCH_fig6a.json",
                "fig2a.prom",
                "BENCH_fig2a.json",
                "BENCH_fig10a.json",
            ],
        );
        assert_eq!(
            figs,
            Ok(vec![
                gate("fig10a", &["BENCH_fig10a.json"]),
                gate("fig2a", &["BENCH_fig2a.json", "fig2a.prom"]),
                gate("fig6a", &["BENCH_fig6a.json"]),
            ])
        );
    }

    #[test]
    fn top_refuses_names_that_are_not_figures() {
        for fig in ["../x", "--flag"] {
            let err = run_top(fig, Path::new("/nonexistent/nowhere")).unwrap_err();
            assert!(err.starts_with("figure name must be alphanumeric"), "{err}");
        }
    }

    #[test]
    fn missing_baseline_dir_is_empty() {
        assert_eq!(baseline_figs(Path::new("/nonexistent/nowhere")), Ok(vec![]));
    }
}
