//! The workspace engine: file discovery, rule orchestration, allow
//! application, and report rendering.

use crate::diag::Diagnostic;
use crate::rules::{self, CsContext, L003_SCOPE};
use crate::source::SourceFile;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Directory subtrees never scanned (deliberate violations live in the
/// fixtures; `target/` is build output).
const EXCLUDED: &[&str] = &["crates/lint/fixtures", "target"];

/// Roots scanned for `.rs` sources, relative to the workspace root.
const SCAN_ROOTS: &[&str] = &["crates", "xtask/src", "tests", "examples"];

/// The lint run's outcome.
#[derive(Debug)]
pub struct Report {
    pub files_scanned: usize,
    /// Findings no allow comment covers — each fails the run.
    pub findings: Vec<Diagnostic>,
}

impl Report {
    /// Whether the run passes (no findings).
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable rendering (one diagnostic per line, summary last).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.findings {
            let _ = writeln!(out, "{d}");
        }
        let _ = writeln!(
            out,
            "mtmpi-lint: {} files, {} finding(s)",
            self.files_scanned,
            self.findings.len(),
        );
        out
    }
}

/// Collect `.rs` files under `dir` recursively, sorted, skipping
/// excluded subtrees.
fn rust_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        if EXCLUDED.iter().any(|e| rel.starts_with(e)) {
            continue;
        }
        if p.is_dir() {
            rust_files(root, &p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Parse every scanned source file under `root`.
pub fn load_workspace(root: &Path) -> Vec<SourceFile> {
    let mut files = Vec::new();
    for scan in SCAN_ROOTS {
        rust_files(root, &root.join(scan), &mut files);
    }
    files
        .iter()
        .filter_map(|p| {
            let src = std::fs::read_to_string(p).ok()?;
            let rel = p.strip_prefix(root).unwrap_or(p);
            Some(SourceFile::parse(rel, &src))
        })
        .collect()
}

/// Run the full rule catalogue over already-parsed files, applying
/// allow comments.
pub fn check_files(files: &[SourceFile]) -> Vec<Diagnostic> {
    // L003's interprocedural context: fixpoint over the scoped crate.
    let scoped: Vec<&SourceFile> = files
        .iter()
        .filter(|f| rules::in_scope(&f.path, L003_SCOPE))
        .collect();
    let cs: CsContext = rules::cs_entering_fns(&scoped);
    let mut diags = Vec::new();
    for f in files {
        diags.extend(
            rules::check_file(f, &cs)
                .into_iter()
                .filter(|d| !f.allowed(d.rule, d.line)),
        );
    }
    diags.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    diags
}

/// Run the engine over the workspace at `root`.
pub fn run(root: &Path) -> Report {
    let files = load_workspace(root);
    Report {
        files_scanned: files.len(),
        findings: check_files(&files),
    }
}
