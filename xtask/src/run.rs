//! The two things every xtask command does: run cargo in the workspace
//! root, and read a result file back.

use std::path::Path;
use std::process::Command;

/// Run `cargo <args>` in `root`.
pub fn cargo(root: &Path, args: &[&str]) -> Result<(), String> {
    let status = Command::new("cargo")
        .args(args)
        .current_dir(root)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("cargo {} exited with {status}", args.join(" ")))
    }
}

/// Figure names are plain binary names; anything else (path separators,
/// dashes that cargo would parse as flags) is rejected before it
/// reaches the command line.
pub fn valid_fig_name(fig: &str) -> bool {
    !fig.is_empty() && fig.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Run one `mtmpi-bench` figure binary in quick mode, passing it `extra`
/// after `--quick`; its outputs land in `results/`.
pub fn run_fig(fig: &str, root: &Path, extra: &[&str]) -> Result<(), String> {
    if !valid_fig_name(fig) {
        return Err(format!("figure name must be alphanumeric (got {fig:?})"));
    }
    let args = [
        "run",
        "--release",
        "-q",
        "-p",
        "mtmpi-bench",
        "--bin",
        fig,
        "--",
        "--quick",
    ];
    cargo(root, &[&args, extra].concat())
}

/// Read a result file, naming it in the error.
pub fn read_text(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig_name_is_sanitised() {
        assert!(valid_fig_name("fig2a"));
        assert!(valid_fig_name("ablation_locks"));
        assert!(!valid_fig_name("../evil"));
        assert!(!valid_fig_name("--flag"));
        assert!(!valid_fig_name(""));
        assert!(run_fig("--flag", Path::new("."), &[]).is_err());
    }
}
