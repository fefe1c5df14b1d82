//! Fixture tests: every rule demonstrably fires, on exactly
//! the sites its fixture marks, and allow comments suppress it.
//!
//! Each fixture under `crates/lint/fixtures/` annotates its expected
//! findings with a trailing `// FIRE: L00x` marker and its suppressed
//! sites with `// ALLOWED: L00x`, so the expectations live next to the
//! code they describe and survive fixture edits. A rule that stops
//! firing (or fires somewhere new) fails the comparison here.

use mtmpi_lint::rules::{self, CsContext};
use mtmpi_lint::SourceFile;
use std::path::Path;

/// Parse a fixture, assigning it a synthetic workspace path that puts
/// it in the right rule scope.
fn fixture(name: &str, scoped_path: &str) -> (SourceFile, String) {
    let disk = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let src =
        std::fs::read_to_string(&disk).unwrap_or_else(|e| panic!("read {}: {e}", disk.display()));
    (SourceFile::parse(Path::new(scoped_path), &src), src)
}

/// 1-based lines carrying a `// <marker>: <rule>` annotation.
fn marked_lines(src: &str, marker: &str, rule: &str) -> Vec<u32> {
    let tag = format!("// {marker}: {rule}");
    src.lines()
        .enumerate()
        .filter(|(_, l)| l.contains(&tag))
        .map(|(i, _)| (i + 1) as u32)
        .collect()
}

/// Run the catalogue on one parsed fixture; returns (kept, suppressed)
/// line lists for `rule` — mirroring the engine's allow filtering.
fn findings(file: &SourceFile, rule: &str) -> (Vec<u32>, Vec<u32>) {
    let ctx = if rule == "L003" {
        rules::cs_entering_fns(&[file])
    } else {
        CsContext::default()
    };
    let (mut kept, mut suppressed) = (Vec::new(), Vec::new());
    for d in rules::check_file(file, &ctx) {
        if d.rule != rule {
            panic!("fixture for {rule} tripped {}: {d}", d.rule);
        }
        if file.allowed(d.rule, d.line) {
            suppressed.push(d.line);
        } else {
            kept.push(d.line);
        }
    }
    (kept, suppressed)
}

/// The shared per-rule assertion: surviving findings == FIRE markers,
/// suppressed findings == ALLOWED markers, and both sets non-empty
/// (a fixture that proves nothing is a bug here, not a pass).
fn assert_fixture(name: &str, scoped_path: &str, rule: &str) {
    let (file, src) = fixture(name, scoped_path);
    let (kept, suppressed) = findings(&file, rule);
    let fire = marked_lines(&src, "FIRE", rule);
    let allowed = marked_lines(&src, "ALLOWED", rule);
    assert!(!fire.is_empty(), "{name}: no FIRE markers");
    assert_eq!(kept, fire, "{name}: {rule} findings vs FIRE markers");
    assert_eq!(
        suppressed, allowed,
        "{name}: {rule} suppressed sites vs ALLOWED markers"
    );
}

#[test]
fn l001_relaxed_handoff_mutations() {
    assert_fixture("l001.rs", "crates/locks/src/fixture_l001.rs", "L001");
}

#[test]
fn l002_acquireless_published_loads() {
    assert_fixture("l002.rs", "crates/locks/src/fixture_l002.rs", "L002");
}

#[test]
fn l003_nested_critical_sections() {
    assert_fixture("l003.rs", "crates/runtime/src/fixture_l003.rs", "L003");
}

#[test]
fn l003_fixpoint_marks_the_right_fns() {
    let (file, _) = fixture("l003.rs", "crates/runtime/src/fixture_l003.rs");
    let ctx = rules::cs_entering_fns(&[&file]);
    assert!(
        ctx.entering.contains("helper_enters"),
        "helper_enters reaches w.cs() and must be marked"
    );
    assert!(
        !ctx.entering.contains("innocent_helper"),
        "innocent_helper never touches a CS"
    );
}

#[test]
fn l003_out_of_scope_path_is_skipped() {
    // The same source under a non-runtime path produces no L003.
    let (file, _) = fixture("l003.rs", "crates/bench/src/fixture_l003.rs");
    let ctx = rules::cs_entering_fns(&[&file]);
    let diags = rules::check_file(&file, &ctx);
    assert!(diags.is_empty(), "L003 is scoped to the runtime: {diags:?}");
}

#[test]
fn l005_panics_on_typed_error_paths() {
    assert_fixture("l005.rs", "crates/runtime/src/fixture_l005.rs", "L005");
}

#[test]
fn l007_guards_across_suspensions() {
    assert_fixture("l007.rs", "crates/graph500/src/fixture_l007.rs", "L007");
}

#[test]
fn diagnostics_are_deterministic() {
    // Two parses of the same fixture yield identical ordered output —
    // the lint's own replay contract.
    let a = fixture("l007.rs", "crates/graph500/src/fixture_l007.rs").0;
    let b = fixture("l007.rs", "crates/graph500/src/fixture_l007.rs").0;
    let ctx = CsContext::default();
    let da: Vec<String> = rules::check_file(&a, &ctx)
        .iter()
        .map(|d| d.to_string())
        .collect();
    let db: Vec<String> = rules::check_file(&b, &ctx)
        .iter()
        .map(|d| d.to_string())
        .collect();
    assert_eq!(da, db);
}
