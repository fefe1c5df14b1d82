//! What every xtask gate does: run a figure binary in the workspace
//! root, read a result file back, and compare it with the text it must
//! equal.

use mtmpi_prof::Json;
use std::path::Path;
use std::process::Command;

/// Figure names are plain binary names; anything else (path separators,
/// dashes that cargo would parse as flags) is rejected before it
/// reaches a command line or a file path.
pub fn check_fig_name(fig: &str) -> Result<(), String> {
    if !fig.is_empty() && fig.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        Ok(())
    } else {
        Err(format!("figure name must be alphanumeric (got {fig:?})"))
    }
}

/// Run one `mtmpi-bench` figure binary, passing it `extra`; its outputs
/// land in `results/`.
pub fn run_fig(fig: &str, root: &Path, extra: &[&str]) -> Result<(), String> {
    check_fig_name(fig)?;
    let args = [
        "run",
        "--release",
        "-q",
        "-p",
        "mtmpi-bench",
        "--bin",
        fig,
        "--",
    ];
    let args = [&args, extra].concat();
    let status = Command::new("cargo")
        .args(&args)
        .current_dir(root)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("cargo {} exited with {status}", args.join(" ")))
    }
}

/// Read a result file, naming it in the error.
pub fn read_text(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// The one compare every gate uses: `got` must equal `expected` byte for
/// byte. `what` names the pair in the error, which also names the first
/// differing spot: a `$`-path with the values on each side when both
/// texts are JSON, else a 1-based line.
pub fn same_text(what: &str, expected: &str, got: &str) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let path = match (Json::parse(expected), Json::parse(got)) {
        (Ok(a), Ok(b)) => first_diff(&a, &b)
            .map(|(path, x, y)| format!("${path}: {} \u{2192} {}", leaf(x), leaf(y))),
        _ => None,
    };
    let at = path.unwrap_or_else(|| {
        let same = expected
            .lines()
            .zip(got.lines())
            .take_while(|(x, y)| x == y);
        format!("line {}", same.count() + 1)
    });
    Err(format!("{what} differ at {at}"))
}

/// Where two trees first differ, `None` when equal: the path below the
/// roots and the value each side holds there (`None`: absent). A
/// container whose length changed is named at its first member or
/// element that only one side has.
type Spot<'a> = (String, Option<&'a Json>, Option<&'a Json>);

fn first_diff<'a>(a: &'a Json, b: &'a Json) -> Option<Spot<'a>> {
    let nest = |step: String, (rest, x, y): Spot<'a>| (step + &rest, x, y);
    match (a, b) {
        (Json::Obj(x), Json::Obj(y)) => {
            for ((ka, va), (kb, vb)) in x.iter().zip(y) {
                if ka != kb {
                    // Added, dropped or moved: name the member one side lacks.
                    return Some(match a.get(kb) {
                        None => (format!(".{kb}"), None, Some(vb)),
                        Some(_) => (format!(".{ka}"), Some(va), b.get(ka)),
                    });
                }
                if let Some(spot) = first_diff(va, vb) {
                    return Some(nest(format!(".{ka}"), spot));
                }
            }
            let (k, _) = x.get(y.len()).or(y.get(x.len()))?;
            Some((format!(".{k}"), a.get(k), b.get(k)))
        }
        (Json::Arr(x), Json::Arr(y)) => {
            for (i, (va, vb)) in x.iter().zip(y).enumerate() {
                if let Some(spot) = first_diff(va, vb) {
                    return Some(nest(format!("[{i}]"), spot));
                }
            }
            let i = x.len().min(y.len());
            (x.len() != y.len()).then(|| (format!("[{i}]"), x.get(i), y.get(i)))
        }
        _ => (a != b).then(|| (String::new(), Some(a), Some(b))),
    }
}

/// A value as a failure line shows it; containers are elided.
fn leaf(v: Option<&Json>) -> String {
    match v {
        None => "absent".to_owned(),
        Some(Json::Null) => "null".to_owned(),
        Some(Json::Bool(b)) => b.to_string(),
        Some(Json::Num(n)) => n.to_string(),
        Some(Json::Str(s)) => format!("{s:?}"),
        Some(Json::Arr(_)) => "[…]".to_owned(),
        Some(Json::Obj(_)) => "{…}".to_owned(),
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
        assert_eq!(same_text("doc", DOC, DOC), Ok(()));
        let moved = DOC.replace("\"serve_total_events\":100", "\"serve_total_events\":101");
        let err = same_text("doc", DOC, &moved).unwrap_err();
        assert!(
            err.ends_with("$.scalars.serve_total_events: 100 \u{2192} 101"),
            "{err}"
        );
        // No name buys slack: a scalar that looks host-timed fails too.
        let wall = DOC.replace("\"serve_wall_ms_w1\":12.5", "\"serve_wall_ms_w1\":99");
        let err = same_text("doc", DOC, &wall).unwrap_err();
        assert!(
            err.ends_with("$.scalars.serve_wall_ms_w1: 12.5 \u{2192} 99"),
            "{err}"
        );
        let hash = DOC.replace("\"00aa\"", "\"00ab\"");
        let err = same_text("doc", DOC, &hash).unwrap_err();
        assert!(
            err.ends_with("$.sched_trace_hash: \"00aa\" \u{2192} \"00ab\""),
            "{err}"
        );
        let point = DOC.replace("[64,602]", "[64,603]");
        assert!(same_text("doc", DOC, &point).is_err());
        let gone = DOC.replace("\"serve_wall_ms_w1\":12.5,", "");
        assert!(same_text("doc", DOC, &gone).is_err());
    }

    /// The committed baseline the gate compares against, and one
    /// perturbation of it: `from` → `to` at its first occurrence.
    fn perturbed(from: &str, to: &str) -> (&'static str, String) {
        let base = include_str!("../../results/baseline/BENCH_fig2a.json");
        let got = base.replacen(from, to, 1);
        assert_ne!(got, base, "{from:?} is not in the baseline");
        (base, got)
    }

    /// Each perturbation leaves every hash and scalar alone, so only the
    /// text compare sees it.
    #[test]
    fn a_moved_member_the_hashes_miss_fails_at_its_path() {
        let doc = "results/BENCH_fig2a.json and its baseline";
        for (from, to, at) in [
            // Run 0's p99 +1.3 % at 846 samples.
            (
                "\"p50\":255,\"p99\":3950,",
                "\"p50\":255,\"p99\":4000,",
                "$.runs[0].cs_hold.p99: 3950 \u{2192} 4000",
            ),
            (
                "\"unattributed_ns\":6480,",
                "\"unattributed_ns\":6481,",
                "$.runs[0].prof.blame.rows[0].unattributed_ns: 6480 \u{2192} 6481",
            ),
            (
                "[64,2385.3894893775623]",
                "[64,2400]",
                "$.series[0].points[3][1]: 2385.3894893775623 \u{2192} 2400",
            ),
            // An added member fails too: a refresh adds it to the baseline.
            (
                "\"unattributed_ns\":6480,\"cells\"",
                "\"unattributed_ns\":6480,\"own_ns\":0,\"cells\"",
                "$.runs[0].prof.blame.rows[0].own_ns: absent \u{2192} 0",
            ),
        ] {
            let (base, got) = perturbed(from, to);
            assert_eq!(same_text(doc, base, base), Ok(()));
            let err = same_text(doc, base, &got).unwrap_err();
            assert_eq!(err, format!("{doc} differ at {at}"));
        }
    }

    #[test]
    fn a_length_change_is_named_at_the_first_extra_entry() {
        let (base, got) = perturbed("}}],\"series\"", "}},{\"label\":\"new\"}],\"series\"");
        let err = same_text("doc", base, &got).unwrap_err();
        assert!(err.ends_with("at $.runs[44]: absent \u{2192} {…}"), "{err}");
        let err = same_text("doc", &got, base).unwrap_err();
        assert!(err.ends_with("at $.runs[44]: {…} \u{2192} absent"), "{err}");
        let err = same_text("doc", "{\"a\":1,\"b\":2}", "{\"a\":1}").unwrap_err();
        assert!(err.ends_with("at $.b: 2 \u{2192} absent"), "{err}");
    }

    #[test]
    fn non_json_text_is_named_by_line() {
        let prom = "# HELP x\nx 1\ny 2\n";
        assert_eq!(same_text("prom", prom, prom), Ok(()));
        let err = same_text("prom", prom, "# HELP x\nx 1\ny 3\n").unwrap_err();
        assert_eq!(err, "prom differ at line 3");
        // Equal trees in different texts fall back to the line too.
        let err = same_text("doc", "{\"a\":1}", "{\"a\": 1}").unwrap_err();
        assert_eq!(err, "doc differ at line 1");
        let err = same_text("prom", prom, "# HELP x\nx 1\ny 2\nz 4\n").unwrap_err();
        assert_eq!(err, "prom differ at line 4");
    }

    #[test]
    fn fig_name_is_sanitised() {
        assert!(check_fig_name("fig2a").is_ok());
        assert!(check_fig_name("fig_vci").is_ok());
        assert!(check_fig_name("../evil").is_err());
        assert!(check_fig_name("--flag").is_err());
        assert!(check_fig_name("").is_err());
        assert!(run_fig("--flag", Path::new("."), &[]).is_err());
    }
}
