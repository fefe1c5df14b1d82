//! Whole-tree gate: the committed workspace stays lint-clean, and a
//! seeded violation is guaranteed to fail the run — the two halves of
//! the CI contract (`cargo run -p xtask -- lint` exits 0 today, and
//! would not if someone broke a concurrency contract).

use mtmpi_lint::baseline::{self, BaselineEntry};
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
fn workspace_has_no_unbaselined_findings() {
    let report = mtmpi_lint::run(&root()).expect("baseline parses");
    assert!(
        report.ok(),
        "unbaselined findings — fix, allow with justification, or baseline:\n{}",
        report.render_text()
    );
    assert!(
        report.stale.is_empty(),
        "stale baseline entries — prune them:\n{}",
        report.render_text()
    );
    assert!(
        report.files_scanned > 100,
        "suspiciously few files scanned ({}) — did file discovery break?",
        report.files_scanned
    );
}

/// A hand-off store with `Relaxed`, as someone would actually type it.
const SEEDED: &str = r#"
use std::sync::atomic::{AtomicBool, Ordering};
pub struct S { locked: AtomicBool }
impl S {
    pub fn unlock(&self) {
        self.locked.store(false, Ordering::Relaxed);
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

/// Hash-order iteration in an application kernel, whose walk order
/// would feed virtual time.
const SEEDED_HASH_ORDER: &str = r#"
use std::collections::HashMap;
pub fn walk_starts(shard: &HashMap<u64, u32>) -> Vec<u64> {
    shard.keys().copied().collect()
}
"#;

#[test]
fn seeding_hash_order_iteration_in_a_kernel_fails_the_run() {
    let mut files = engine::load_workspace(&root());
    let before = engine::check_files(&files).len();
    files.push(SourceFile::parse(
        Path::new("crates/assembly/src/seeded_violation.rs"),
        SEEDED_HASH_ORDER,
    ));
    let after = engine::check_files(&files);
    assert_eq!(
        after.len(),
        before + 1,
        "the seeded hash-order iteration must add exactly one finding"
    );
    let d = after
        .iter()
        .find(|d| d.path == "crates/assembly/src/seeded_violation.rs")
        .expect("finding points at the seeded file");
    assert_eq!(d.rule, "L004");
}

#[test]
fn baselining_the_seeded_violation_silences_it() {
    let seeded = SourceFile::parse(Path::new("crates/runtime/src/seeded_violation.rs"), SEEDED);
    let diags = engine::check_files(std::slice::from_ref(&seeded));
    assert_eq!(diags.len(), 1);
    let entry = BaselineEntry {
        rule: diags[0].rule.to_string(),
        fingerprint: diags[0].fingerprint(),
        path: diags[0].path.clone(),
        snippet: diags[0].snippet.trim().to_string(),
    };
    let (fresh, baselined, stale) = baseline::apply(diags, &[entry]);
    assert!(fresh.is_empty(), "baselined finding still fresh: {fresh:?}");
    assert_eq!(baselined.len(), 1);
    assert!(stale.is_empty());
}

#[test]
fn json_report_is_well_formed_enough() {
    let report = mtmpi_lint::run(&root()).expect("baseline parses");
    let json = report.render_json();
    assert!(json.starts_with("{\"version\":1,"));
    assert!(json.ends_with('}'));
    // All six rules are described for downstream tooling.
    for id in ["L001", "L002", "L003", "L004", "L005", "L006", "L007"] {
        assert!(json.contains(&format!("\"id\":\"{id}\"")), "missing {id}");
    }
}
