//! The workspace engine: file discovery, rule orchestration, allow
//! application, baseline matching, and report rendering.

use crate::baseline::{self, BaselineEntry};
use crate::diag::Diagnostic;
use crate::rules::{self, CsContext, L003_SCOPE};
use crate::source::SourceFile;
use mtmpi_obs::json::Writer;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Location of the committed baseline, relative to the workspace root.
pub const BASELINE_PATH: &str = "crates/lint/baseline.txt";

/// Directory subtrees never scanned (deliberate violations live in the
/// fixtures; `target/` is build output).
const EXCLUDED: &[&str] = &["crates/lint/fixtures", "target"];

/// Roots scanned for `.rs` sources, relative to the workspace root.
const SCAN_ROOTS: &[&str] = &["crates", "xtask/src", "tests", "examples"];

/// The lint run's outcome.
#[derive(Debug)]
pub struct Report {
    pub files_scanned: usize,
    /// Diagnostics not covered by the baseline — these fail the run.
    pub fresh: Vec<Diagnostic>,
    /// Diagnostics matched (and silenced) by baseline entries.
    pub baselined: Vec<Diagnostic>,
    /// Baseline entries that matched nothing — prune them.
    pub stale: Vec<BaselineEntry>,
}

impl Report {
    /// Whether the run passes (no unbaselined findings).
    pub fn ok(&self) -> bool {
        self.fresh.is_empty()
    }

    /// Human-readable rendering (one diagnostic per line, summary last).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.fresh {
            let _ = writeln!(out, "{d}");
        }
        for e in &self.stale {
            let _ = writeln!(
                out,
                "warning: stale baseline entry {} {:016x} {} :: {}",
                e.rule, e.fingerprint, e.path, e.snippet
            );
        }
        let _ = writeln!(
            out,
            "mtmpi-lint: {} files, {} finding(s) ({} baselined, {} stale baseline entr{})",
            self.files_scanned,
            self.fresh.len(),
            self.baselined.len(),
            self.stale.len(),
            if self.stale.len() == 1 { "y" } else { "ies" },
        );
        out
    }

    /// Machine-readable rendering (RFC 8259), through the workspace's
    /// one JSON writer.
    pub fn render_json(&self) -> String {
        let mut w = Writer::default();
        w.raw("{\"version\":1,\"rules\":[");
        for (i, r) in rules::RULES.iter().enumerate() {
            w.comma(i)
                .label("{\"id\":", r.id)
                .string(",\"summary\":", r.summary)
                .raw("}");
        }
        w.raw("],\"diagnostics\":[");
        let fresh = self.fresh.iter().map(|d| (d, false));
        let all = fresh.chain(self.baselined.iter().map(|d| (d, true)));
        for (i, (d, baselined)) in all.enumerate() {
            w.comma(i).raw(&d.to_json(baselined));
        }
        w.uint("],\"summary\":{\"files\":", self.files_scanned as u64)
            .uint(",\"fresh\":", self.fresh.len() as u64)
            .uint(",\"baselined\":", self.baselined.len() as u64)
            .uint(",\"stale\":", self.stale.len() as u64)
            .raw("}}");
        w.finish()
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
/// allow comments but NOT the baseline (callers decide).
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

/// Run the engine over the workspace at `root` against its committed
/// baseline. `Err` only on a corrupt baseline file.
pub fn run(root: &Path) -> Result<Report, String> {
    let files = load_workspace(root);
    let diags = check_files(&files);
    let baseline_text = std::fs::read_to_string(root.join(BASELINE_PATH)).unwrap_or_default();
    let entries = baseline::parse(&baseline_text)?;
    let (fresh, baselined, stale) = baseline::apply(diags, &entries);
    Ok(Report {
        files_scanned: files.len(),
        fresh,
        baselined,
        stale,
    })
}

/// Regenerate the baseline from the current tree (allow comments still
/// applied) and write it to [`BASELINE_PATH`]. Returns the entry count.
pub fn update_baseline(root: &Path) -> std::io::Result<usize> {
    let files = load_workspace(root);
    let diags = check_files(&files);
    std::fs::write(root.join(BASELINE_PATH), baseline::render(&diags))?;
    Ok(diags.len())
}
