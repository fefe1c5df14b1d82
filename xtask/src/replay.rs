//! `xtask replay-gate <name|all>` — the determinism gates: run a figure
//! binary twice with the same seed and require the two runs to agree.
//!
//! Every gate is one row of [`GATES`]: the test suite that must pass
//! first, the figure binary, and any extra result files that must be
//! byte-identical. A BENCH document is a pure function of the seed, so
//! every file of the two runs is compared as text by [`same_text`].

use crate::run::{cargo, check_all, read_text, run_fig, same_text};
use std::path::Path;

struct Gate {
    name: &'static str,
    /// `cargo test --release -q` arguments run first (empty: none).
    suite: &'static [&'static str],
    fig: &'static str,
    /// Files under `results/` that must replay byte for byte.
    extra: &'static [&'static str],
}

/// A gate with no extra files.
const fn gate(name: &'static str, suite: &'static [&'static str], fig: &'static str) -> Gate {
    Gate {
        name,
        suite,
        fig,
        extra: &[],
    }
}

const INTEGRATION: &str = "mtmpi-integration-tests";

const GATES: [Gate; 6] = [
    gate("faults", &[], "fig_fault"),
    gate("vci", &["-p", INTEGRATION, "--test", "vci"], "fig_vci"),
    gate(
        "stream",
        &["-p", INTEGRATION, "--test", "streams"],
        "fig_stream",
    ),
    gate("scale", &["-p", INTEGRATION, "--test", "fuel"], "fig_scale"),
    Gate {
        extra: &["fig_serve.tenants.txt"],
        ..gate("serve", &["-p", "mtmpi-serve"], "fig_serve")
    },
    gate("bfs", &["-p", "mtmpi-graph500"], "fig10a"),
];

fn run_gate(g: &Gate, root: &Path) -> Result<(), String> {
    if !g.suite.is_empty() {
        cargo(root, &[&["test", "--release", "-q"], g.suite].concat())?;
    }
    let results = root.join("results");
    let files: Vec<_> = std::iter::once(format!("BENCH_{}.json", g.fig))
        .chain(g.extra.iter().map(|f| (*f).to_owned()))
        .map(|f| results.join(f))
        .collect();
    let run = || -> Result<Vec<String>, String> {
        println!(
            "xtask replay-gate: {}: running {} --quick ...",
            g.name, g.fig
        );
        run_fig(g.fig, root, &[])?;
        files.iter().map(|f| read_text(f)).collect()
    };
    let (first, second) = (run()?, run()?);
    files
        .iter()
        .zip(first.iter().zip(&second))
        .try_for_each(|(f, (a, b))| same_text(&format!("same-seed runs of {}", f.display()), a, b))
}

pub fn run_replay_gate(which: &str, root: &Path) -> Result<(), String> {
    let gates: Vec<&Gate> = GATES
        .iter()
        .filter(|g| which == "all" || g.name == which)
        .collect();
    if gates.is_empty() {
        let names: Vec<&str> = GATES.iter().map(|g| g.name).collect();
        return Err(format!(
            "unknown gate {which:?} (one of: all, {})",
            names.join(", ")
        ));
    }
    check_all("replay-gate", &gates, |g| g.name, |g| run_gate(g, root))
}
