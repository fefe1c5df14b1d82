//! Whole-tree gate: the committed workspace stays lint-clean, and a
//! seeded violation is guaranteed to fail the run — the two halves of
//! the CI contract (`cargo run -p xtask -- lint` exits 0 today, and
//! would not if someone broke a concurrency contract).

use mtmpi_lint::rules::{L003_SCOPE, L004_SCOPE, L005_SCOPE};
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
    for (rule, scope) in [
        ("L003", L003_SCOPE),
        ("L004", L004_SCOPE),
        ("L005", L005_SCOPE),
    ] {
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
