//! The rule catalogue. Each rule is a function from a parsed
//! [`SourceFile`] (plus, for L003, cross-file context) to diagnostics;
//! the engine applies path scoping and allow comments.
//!
//! | id   | guards                                                        |
//! |------|---------------------------------------------------------------|
//! | L001 | no `Relaxed` mutation of lock hand-off / claim-token fields   |
//! | L002 | no `Relaxed` (Acquire-less) load of cross-thread published state |
//! | L003 | no nested critical-section entry (the two-shard-lock ban)     |
//! | L005 | no panic/unwrap/expect on typed-error (`try_*`) paths         |
//! | L007 | no host lock/`RefCell` guard held across a simulated-thread suspension |

use crate::diag::Diagnostic;
use crate::source::SourceFile;

mod l001_relaxed_handoff;
mod l002_acquireless_load;
mod l003_nested_cs;
mod l005_panic_paths;
mod l007_guard_across_suspension;

pub use l003_nested_cs::{cs_entering_fns, CsContext};

/// Run every rule applicable to `file` (path scoping included),
/// returning raw diagnostics — allow comments are applied by the
/// engine, not here, so tests can see everything.
pub fn check_file(file: &SourceFile, cs: &CsContext) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    out.extend(l001_relaxed_handoff::check(file));
    out.extend(l002_acquireless_load::check(file));
    if in_scope(&file.path, L003_SCOPE) {
        out.extend(l003_nested_cs::check(file, cs));
    }
    if in_scope(&file.path, L005_SCOPE) {
        out.extend(l005_panic_paths::check(file));
    }
    out.extend(l007_guard_across_suspension::check(file));
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Crates with typed `MpiError` paths (the `try_*` family).
pub const L005_SCOPE: &[&str] = &["crates/runtime/src/"];

/// The critical-section discipline lives in the runtime.
pub const L003_SCOPE: &[&str] = &["crates/runtime/src/"];

/// Whether `path` (workspace-relative, `/`-separated) falls under one
/// of the scope prefixes.
pub fn in_scope(path: &str, scope: &[&str]) -> bool {
    scope.iter().any(|p| path.starts_with(p))
}
