//! L003 — nested critical-section entry: the two-shard-lock ban.
//!
//! The VCI design (DESIGN.md §12) is deadlock-free *by discipline*, not
//! by ordering: **no thread ever holds two shard locks**. Cross-shard
//! hand-offs go through the lock-free claim token instead. This rule
//! flags any code that can enter a second critical section while one is
//! held:
//!
//! 1. a direct `cs`/`cs_on`/`lock_acquire` call inside
//!    the argument extent (i.e. the state closure) of an enclosing
//!    `cs`/`cs_on` call, and
//! 2. interprocedurally, a *free-function* call inside that closure to
//!    any function that (transitively) enters a critical section —
//!    computed as a fixpoint over the scoped crate's call graph. Only
//!    free calls propagate: the runtime's in-CS helpers are free
//!    functions by convention, and method names (`get`, `put`, …)
//!    collide with std-container methods on a name-based graph.

use crate::diag::Diagnostic;
use crate::source::{matching, SourceFile};
use std::collections::BTreeSet;

/// The primitive entry points into a shard's critical section.
const PRIMITIVES: &[&str] = &["cs", "cs_on", "lock_acquire"];

/// Cross-file context: the names of functions known to (transitively)
/// enter a critical section.
#[derive(Debug, Default)]
pub struct CsContext {
    pub entering: BTreeSet<String>,
}

impl CsContext {
    /// Whether a call to `name` enters a CS. Primitives count in either
    /// call form; non-primitive names only as *free* calls, because the
    /// name-based graph cannot distinguish `state.get()` (a std-container
    /// method) from the RMA `fn get` that takes the CS — method-name
    /// collisions would otherwise mark half the crate as entering. The
    /// runtime's in-CS helpers are free functions by convention, so free
    /// calls are exactly the edges worth following.
    fn enters(&self, name: &str, method: bool) -> bool {
        PRIMITIVES.contains(&name) || (!method && self.entering.contains(name))
    }
}

/// Whether `toks[i]` begins a call: `name(` as a free call or `.name(`
/// as a method call (index `i` is the name ident itself). Returns the
/// callee name and whether it was method-style.
fn call_at(file: &SourceFile, i: usize) -> Option<(&str, bool)> {
    let toks = file.toks();
    let name = toks[i].ident()?;
    if !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    // `fn name(` is a definition, not a call.
    if i > 0 && toks[i - 1].is_ident("fn") {
        return None;
    }
    let method = i > 0 && toks[i - 1].is_punct('.');
    Some((name, method))
}

/// Fixpoint over one crate's files: the set of function names whose
/// bodies (transitively) reach a CS primitive. Name-based, so two
/// same-named functions merge — conservative in the flagging direction,
/// which is what a lint wants.
pub fn cs_entering_fns(files: &[&SourceFile]) -> CsContext {
    let mut ctx = CsContext::default();
    loop {
        let mut grew = false;
        for file in files {
            for f in &file.fns {
                if ctx.entering.contains(&f.name) {
                    continue;
                }
                let (open, close) = f.body;
                let directly_enters = (open..=close).any(|i| {
                    call_at(file, i)
                        .is_some_and(|(name, method)| name != f.name && ctx.enters(name, method))
                });
                if directly_enters {
                    ctx.entering.insert(f.name.clone());
                    grew = true;
                }
            }
        }
        if !grew {
            return ctx;
        }
    }
}

pub fn check(file: &SourceFile, ctx: &CsContext) -> Vec<Diagnostic> {
    let toks = file.toks();
    let mut out = Vec::new();
    // Outer CS entries: `.cs(` / `.cs_on(` method calls whose argument
    // extent carries the state closure.
    for i in 0..toks.len() {
        let is_outer = toks[i].is_punct('.')
            && toks
                .get(i + 1)
                .and_then(|t| t.ident())
                .is_some_and(|n| n == "cs" || n == "cs_on")
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('));
        if !is_outer {
            continue;
        }
        let close = matching(toks, i + 2);
        let mut j = i + 3;
        while j < close {
            if let Some((name, method)) = call_at(file, j) {
                let inner_primitive = PRIMITIVES.contains(&name) && method;
                let inner_fn = !method && ctx.entering.contains(name);
                if inner_primitive || inner_fn {
                    let line = toks[j].line;
                    out.push(Diagnostic {
                        rule: "L003",
                        path: file.path.clone(),
                        line,
                        msg: format!(
                            "`{name}` can enter a second critical section inside a `{}` closure \
                             (no thread may hold two shard locks)",
                            toks[i + 1].ident().unwrap_or("cs")
                        ),
                        snippet: file.lexed.line_text(line).to_string(),
                    });
                }
            }
            j += 1;
        }
    }
    out
}
