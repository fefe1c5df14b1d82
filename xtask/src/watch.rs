//! `xtask watch <fig>` — run one figure binary with the `prof::live`
//! online collector enabled, rendering periodic live-stats snapshots,
//! and validate the Prometheus-style export it leaves behind.
//!
//! The command runs `cargo run --release -p mtmpi-bench --bin <fig> --
//! --quick` with `MTMPI_LIVE=1` and `MTMPI_LIVE_OUT=results/<fig>.live.prom`
//! set, so every run in the figure appends its end-of-run gauge block to
//! the `.live.prom` file. By default `MTMPI_LIVE_WATCH=1` is also set
//! and the collector prints a live text snapshot (top blame cells,
//! recent windows, starvation ratio) to stderr every few virtual
//! milliseconds; `--headless` suppresses the periodic rendering and
//! keeps only the export — that is what CI uses.
//!
//! Note: the collector is a simulated thread, so `MTMPI_LIVE=1` runs
//! have a different (still deterministic) schedule than untraced ones.
//! Watch output is for interactive inspection — never for baselines.

use crate::run::{read_text, run_fig, valid_fig_name};
use std::path::Path;

/// Validate a `.live.prom` export: non-empty, every non-comment line is
/// `name{labels} value` (or `name value`) with an `mtmpi_live_` prefix
/// and a parseable finite value. Returns the number of sample lines.
pub fn validate_prom(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value: {line:?}", lineno + 1))?;
        let name = name_part.split('{').next().unwrap_or(name_part);
        if !name.starts_with("mtmpi_live_") {
            return Err(format!(
                "line {}: metric {name:?} is not mtmpi_live_-prefixed",
                lineno + 1
            ));
        }
        if name_part.contains('{') && !name_part.ends_with('}') {
            return Err(format!("line {}: unterminated label set", lineno + 1));
        }
        let v: f64 = value_part
            .parse()
            .map_err(|_| format!("line {}: bad value {value_part:?}", lineno + 1))?;
        if !v.is_finite() {
            return Err(format!("line {}: non-finite value {v}", lineno + 1));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no mtmpi_live_ samples in export".to_string());
    }
    Ok(samples)
}

pub fn run_watch(fig: &str, headless: bool, root: &Path) -> Result<(), String> {
    // Checked before the export path below is derived from it.
    if !valid_fig_name(fig) {
        return Err(format!("figure name must be alphanumeric (got {fig:?})"));
    }
    let prom = root.join(format!("results/{fig}.live.prom"));
    // Start from a clean export: the harness appends one block per run.
    std::fs::create_dir_all(prom.parent().expect("results dir"))
        .and_then(|()| std::fs::write(&prom, ""))
        .map_err(|e| format!("cannot truncate {}: {e}", prom.display()))?;
    println!(
        "xtask watch: running {fig} --quick with MTMPI_LIVE=1{} ...",
        if headless {
            " (headless)"
        } else {
            ", live snapshots on stderr"
        }
    );
    let out = prom.display().to_string();
    let mut env = vec![("MTMPI_LIVE", "1"), ("MTMPI_LIVE_OUT", out.as_str())];
    if !headless {
        env.push(("MTMPI_LIVE_WATCH", "1"));
    }
    run_fig(fig, root, &env)?;
    let text = read_text(&prom)?;
    let n = validate_prom(&text).map_err(|e| format!("{}: {e}", prom.display()))?;
    println!(
        "xtask watch: OK {} ({n} samples, {} bytes)",
        prom.display(),
        text.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_well_formed_export() {
        let text = "# mtmpi-live run label=fig2a threads=4 nodes=2\n\
                    mtmpi_live_watermark_ns 1234567\n\
                    mtmpi_live_blame_ns{tid=\"3\",path=\"p2p\",op=\"enqueue\",vci=\"0\"} 42\n\
                    mtmpi_live_starvation_ratio 0.25\n";
        assert_eq!(validate_prom(text), Ok(3));
    }

    #[test]
    fn rejects_empty_foreign_or_malformed_exports() {
        assert!(validate_prom("").is_err());
        assert!(validate_prom("# only comments\n").is_err());
        assert!(validate_prom("other_metric 1\n").is_err());
        assert!(validate_prom("mtmpi_live_x notanumber\n").is_err());
        assert!(validate_prom("mtmpi_live_x{open=\"1\" 2\n").is_err());
        assert!(validate_prom("mtmpi_live_x inf\n").is_err());
    }
}
