//! `xtask replay-gate <name|all>` — the determinism gates: run a figure
//! binary twice with the same seed and require the two runs to agree.
//!
//! Every gate is one row of [`GATES`]: the test suite that must pass
//! first, the figure binary, and any extra result files that must be
//! byte-identical. A BENCH document is a pure function of the seed, so
//! the two `results/BENCH_<fig>.json` documents are compared as texts.

use crate::run::{cargo, read_text, run_fig};
use mtmpi_prof::Json;
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

/// Path (below the two roots) at which two trees first differ, `None`
/// when equal. Only names the spot in a failure message; the gate itself
/// is text equality.
fn first_diff(a: &Json, b: &Json) -> Option<String> {
    match (a, b) {
        (Json::Obj(x), Json::Obj(y)) if x.len() == y.len() => {
            x.iter().zip(y).find_map(|((ka, va), (kb, vb))| {
                let rest = if ka != kb {
                    Some(String::new())
                } else {
                    first_diff(va, vb)
                };
                rest.map(|rest| format!(".{ka}{rest}"))
            })
        }
        (Json::Arr(x), Json::Arr(y)) if x.len() == y.len() => x
            .iter()
            .zip(y)
            .enumerate()
            .find_map(|(i, (va, vb))| first_diff(va, vb).map(|rest| format!("[{i}]{rest}"))),
        _ => (a != b).then(String::new),
    }
}

/// Compare two same-seed `BENCH_*.json` texts.
fn replay_mismatch(first: &str, second: &str) -> Result<(), String> {
    if first == second {
        return Ok(());
    }
    let at = first_diff(&Json::parse(first)?, &Json::parse(second)?);
    Err(format!(
        "same-seed documents differ at ${}",
        at.unwrap_or_default()
    ))
}

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
    replay_mismatch(&first[0], &second[0])?;
    match (1..files.len()).find(|&i| first[i] != second[i]) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{} differs between same-seed runs",
            files[i].display()
        )),
    }
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
    // Run every selected gate before failing, so `all` reports them all.
    let mut failed = Vec::new();
    for g in gates {
        match run_gate(g, root) {
            Ok(()) => println!("xtask replay-gate: {}: PASS", g.name),
            Err(e) => {
                eprintln!("xtask replay-gate: {}: FAIL {e}", g.name);
                failed.push(g.name);
            }
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("gate(s) failed: {}", failed.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "{\"id\":\"fig_serve\",\"sched_trace_hash\":\"00aa\",\
        \"series\":[{\"label\":\"grants\",\"points\":[[64,602]]}],\
        \"scalars\":{\"serve_wall_ms_w1\":12.5,\"serve_total_events\":100}}";

    #[test]
    fn any_changed_member_fails_the_document_gate() {
        assert_eq!(replay_mismatch(DOC, DOC), Ok(()));
        let moved = DOC.replace("\"serve_total_events\":100", "\"serve_total_events\":101");
        let err = replay_mismatch(DOC, &moved).unwrap_err();
        assert!(err.ends_with("$.scalars.serve_total_events"), "{err}");
        // No name buys slack: a scalar that looks host-timed fails too.
        let wall = DOC.replace("\"serve_wall_ms_w1\":12.5", "\"serve_wall_ms_w1\":99");
        let err = replay_mismatch(DOC, &wall).unwrap_err();
        assert!(err.ends_with("$.scalars.serve_wall_ms_w1"), "{err}");
        let point = DOC.replace("[64,602]", "[64,603]");
        assert!(replay_mismatch(DOC, &point).is_err());
        let gone = DOC.replace("\"serve_wall_ms_w1\":12.5,", "");
        assert!(replay_mismatch(DOC, &gone).is_err());
    }
}
