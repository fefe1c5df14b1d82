//! Whole-tree gate: the committed workspace stays lint-clean, and a
//! seeded violation is guaranteed to fail the run — the two halves of
//! the CI contract (`cargo run -p xtask -- lint` exits 0 today, and
//! would not if someone broke a concurrency contract).

use mtmpi_lint::rules::{L003_SCOPE, L005_SCOPE};
use mtmpi_lint::{engine, SourceFile};
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    // crates/lint → workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn workspace_has_no_findings() {
    let report = mtmpi_lint::run(&root());
    assert!(
        report.ok(),
        "findings — fix, or allow with a justification:\n{}",
        report.render_text()
    );
    assert!(
        report.files_scanned > 100,
        "suspiciously few files scanned ({}) — did file discovery break?",
        report.files_scanned
    );
}

#[test]
fn every_scoped_rule_names_directories_that_exist() {
    // A prefix whose directory is gone would silently check nothing.
    for (rule, scope) in [("L003", L003_SCOPE), ("L005", L005_SCOPE)] {
        for prefix in scope {
            assert!(
                root().join(prefix).is_dir(),
                "{rule} scope names `{prefix}`, which is not a directory"
            );
        }
    }
}

/// A hand-off store with `Relaxed`, as someone would actually type it.
const SEEDED: &str = r#"
use std::sync::atomic::{AtomicU32, Ordering};
pub struct S { state: AtomicU32 }
impl S {
    pub fn unlock(&self) {
        self.state.store(0, Ordering::Relaxed);
    }
}
"#;

#[test]
fn seeding_a_violation_fails_the_run() {
    let mut files = engine::load_workspace(&root());
    let before = engine::check_files(&files).len();
    files.push(SourceFile::parse(
        Path::new("crates/runtime/src/seeded_violation.rs"),
        SEEDED,
    ));
    let after = engine::check_files(&files);
    assert_eq!(
        after.len(),
        before + 1,
        "the seeded Relaxed hand-off store must add exactly one finding"
    );
    let d = after
        .iter()
        .find(|d| d.path == "crates/runtime/src/seeded_violation.rs")
        .expect("finding points at the seeded file");
    assert_eq!(d.rule, "L001");
}

/// The workspace's determinism bans (DESIGN.md §13), which clippy
/// enforces from the root `clippy.toml`.
const CLIPPY_TOML: &str = include_str!("../../../clippy.toml");

/// The rules `xtask lint` runs; an allow comment naming any other id
/// accepts nothing.
const LIVE_RULES: &[&str] = &["L001", "L002", "L003", "L005", "L007"];

#[test]
fn determinism_bans_live_in_clippy_toml() {
    let (methods, types) = CLIPPY_TOML
        .split_once("\ndisallowed-types")
        .expect("clippy.toml has a disallowed-types list");
    for path in [
        "std::time::Instant::now",
        "std::env::var",
        "std::env::var_os",
        "std::env::vars",
        "std::env::vars_os",
    ] {
        let entry = format!("path = \"{path}\"");
        assert!(methods.contains(&entry), "disallowed-methods lost `{path}`");
    }
    for path in [
        "std::time::SystemTime",
        "std::collections::HashMap",
        "std::collections::HashSet",
    ] {
        let entry = format!("path = \"{path}\"");
        assert!(types.contains(&entry), "disallowed-types lost `{path}`");
    }
    // A retired rule's allow comment would only look like an exemption.
    for file in engine::load_workspace(&root()) {
        for allow in &file.allows {
            for rule in &allow.rules {
                // A doc's placeholder (`L00x`) is not an id.
                let is_id = rule.len() == 4 && rule[1..].bytes().all(|b| b.is_ascii_digit());
                assert!(
                    !is_id || LIVE_RULES.contains(&rule.as_str()),
                    "{}:{} allows `{rule}`, which no rule checks",
                    file.path,
                    allow.line
                );
            }
        }
    }
}
