//! L007 — a host guard held across a simulated-thread suspension.
//!
//! Simulated threads are fibers (DESIGN.md §16): every `Platform` call
//! that goes through the scheduler — and so every runtime call built on
//! one (`isend`, `test`, `waitall`, …) — suspends the calling worker, and the
//! OS thread goes on to run the event loop and other workers of the same
//! world. A `Mutex`/`RwLock`/`RefCell` guard that is still alive at that
//! point belongs to *host* state those other workers share, so the next
//! worker that wants it deadlocks the world's one OS thread against
//! itself — and under `mtmpi-serve` the suspended worker may be resumed
//! by a different pool thread, where a `std::sync::MutexGuard` would be
//! unlocked by a thread that never locked it (it is `!Send` for exactly
//! that reason).
//!
//! The rule flags a named `let` binding whose initializer *is* a guard —
//! it ends in `.lock()`, `.read()`, `.write()`, `.borrow()` or
//! `.borrow_mut()` (argument-less), optionally followed by `?`,
//! `.unwrap()`, `.expect(..)` or `.unwrap_or_else(..)` — when a
//! suspension call follows before the binding's block closes or
//! `drop(<name>)` releases it. Temporaries (`m.lock().push(x);`,
//! `let n = *m.lock();`, `let n = m.lock().len();`) die with their
//! statement and are not flagged. Name-based like the rest of the
//! catalogue: a suspension call inside a closure that is merely *defined*
//! under the guard is flagged too — scope the guard or justify the site.

use crate::diag::Diagnostic;
use crate::lexer::Tok;
use crate::source::{matching, SourceFile};

/// Argument-less methods whose result is a guard over host state.
const GUARD_METHODS: &[&str] = &["lock", "read", "write", "borrow", "borrow_mut"];

/// Result adaptors that pass a guard through.
const PASS_THROUGH: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

/// `Platform` methods that suspend the calling simulated thread, the
/// sync point inside the virtual platform they all funnel into, and the
/// runtime entry points application kernels call instead of `Platform`
/// (each enters a critical section, so each suspends).
pub const SUSPENSIONS: &[&str] = &[
    "lock_acquire",
    "lock_release",
    "yield_now",
    "net_send",
    "net_send_delayed",
    "net_poll",
    "net_pending",
    "sync",
    "isend",
    "irecv",
    "test",
    "waitall",
    "allreduce_sum_u64",
];

/// End (exclusive) of the initializer of the `let` whose `=` is at `eq`:
/// the `;` — or the `else` of a `let … else` — at nesting depth 0.
fn init_end(toks: &[Tok], eq: usize) -> Option<usize> {
    let mut j = eq + 1;
    while j < toks.len() {
        if toks[j].is_punct('(') || toks[j].is_punct('[') || toks[j].is_punct('{') {
            j = matching(toks, j);
        } else if toks[j].is_punct(';') || toks[j].is_ident("else") {
            return Some(j);
        } else if toks[j].is_punct(')') || toks[j].is_punct(']') || toks[j].is_punct('}') {
            return None;
        }
        j += 1;
    }
    None
}

/// The method call `.name(args)` whose `)` is `toks[end - 1]`, within
/// `toks[start..end]`: the name, whether `args` is empty, and the index of
/// the `.`.
fn trailing_call(toks: &[Tok], start: usize, end: usize) -> Option<(&str, bool, usize)> {
    if end == 0 || !toks[end - 1].is_punct(')') {
        return None;
    }
    let mut depth = 0usize;
    let open = (start..end).rev().find(|&j| {
        if toks[j].is_punct(')') {
            depth += 1;
        } else if toks[j].is_punct('(') {
            depth -= 1;
        }
        depth == 0
    })?;
    let dot = open.checked_sub(2).filter(|&d| d >= start)?;
    let name = toks[open - 1].ident().filter(|_| toks[dot].is_punct('.'))?;
    Some((name, open + 2 == end, dot))
}

/// Whether `toks[start..end]` (a `let` initializer) evaluates to a guard:
/// walking back over `?` and pass-through adaptors, it ends in an
/// argument-less guard method call, and it does not start by
/// dereferencing the guard away.
fn is_guard_expr(toks: &[Tok], start: usize, mut end: usize) -> bool {
    if toks[start].is_punct('*') {
        return false;
    }
    loop {
        while end > start && toks[end - 1].is_punct('?') {
            end -= 1;
        }
        match trailing_call(toks, start, end) {
            Some((name, no_args, _)) if GUARD_METHODS.contains(&name) => return no_args,
            Some((name, _, dot)) if PASS_THROUGH.contains(&name) => end = dot,
            _ => return false,
        }
    }
}

/// Index of the `}` closing the innermost block that contains `idx`.
fn enclosing_block_end(toks: &[Tok], idx: usize) -> usize {
    let mut depth = 0usize;
    for j in (0..idx).rev() {
        if toks[j].is_punct('}') {
            depth += 1;
        } else if toks[j].is_punct('{') {
            if depth == 0 {
                return matching(toks, j);
            }
            depth -= 1;
        }
    }
    toks.len().saturating_sub(1)
}

pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    let toks = file.toks();
    let mut out = Vec::new();
    for i in 0..toks.len() {
        // `if let` / `while let` bind for a block of their own, not a scope.
        let conditional = i > 0 && (toks[i - 1].is_ident("if") || toks[i - 1].is_ident("while"));
        if !toks[i].is_ident("let") || conditional {
            continue;
        }
        // Pattern: everything up to the `=`; the binding's name is its
        // last identifier (`g`, `mut g`, `Ok(g)`), and a bare `_` binds
        // nothing.
        let Some(eq) =
            (i + 1..toks.len()).find(|&j| toks[j].is_punct('=') || toks[j].is_punct(';'))
        else {
            continue;
        };
        if !toks[eq].is_punct('=') {
            continue;
        }
        let Some(name) = toks[i + 1..eq]
            .iter()
            .take_while(|t| !t.is_punct(':'))
            .filter_map(Tok::ident)
            .filter(|n| *n != "mut" && *n != "ref")
            .last()
        else {
            continue;
        };
        let Some(end) = init_end(toks, eq) else {
            continue;
        };
        if name == "_" || !is_guard_expr(toks, eq + 1, end) {
            continue;
        }
        let scope_end = enclosing_block_end(toks, i);
        // `scope_end` is a `}`, so three-token windows below stay in range.
        let released = (end..scope_end.saturating_sub(3)).find(|&j| {
            toks[j].is_ident("drop")
                && toks[j + 1].is_punct('(')
                && toks[j + 2].is_ident(name)
                && toks[j + 3].is_punct(')')
        });
        let live = end..released.unwrap_or(scope_end.saturating_sub(2));
        let suspension = live.into_iter().find(|&j| {
            toks[j].is_punct('.')
                && toks[j + 1]
                    .ident()
                    .is_some_and(|n| SUSPENSIONS.contains(&n))
                && toks[j + 2].is_punct('(')
        });
        if let Some(j) = suspension {
            let line = toks[i].line;
            out.push(Diagnostic {
                rule: "L007",
                path: file.path.clone(),
                line,
                msg: format!(
                    "host guard `{name}` is still held when `{}` (line {}) suspends the \
                     simulated thread: scope it or `drop({name})` first",
                    toks[j + 1].ident().unwrap_or("?"),
                    toks[j + 1].line
                ),
                snippet: file.lexed.line_text(line).to_string(),
            });
        }
    }
    out
}
