//! L001 — `Relaxed` mutation of a lock hand-off or claim-token field.
//!
//! The store (or RMW) that transfers ownership — a ticket lock's
//! `now_serving`, a futex mutex's `state` word, the VCI wildcard claim
//! token, the multi-request `ready` flag — is the Release half of the
//! edge that makes the critical section's writes visible to the next
//! owner. `Ordering::Relaxed` there is a missing Release: the successor
//! can acquire the lock yet read stale data.
//! This rule is the engine descendant of the original `xtask lint`
//! regex pass, now token-accurate and workspace-wide.

use crate::diag::Diagnostic;
use crate::source::{effective_relaxed, matching, receiver_field, SourceFile};

/// Fields through which lock ownership or a cross-shard completion is
/// transferred. (The monitoring-only `last_poll_ns` is deliberately
/// absent: it is documented as never carrying a hand-off.)
pub const HANDOFF_FIELDS: &[&str] = &[
    "now_serving",     // ticket / priority ticket grant counter
    "state",           // futex mutex word
    "already_blocked", // priority lock's burst hand-off flag
    "grant",           // generic grant words
    "claim",           // VCI wildcard claim token (NONE→COMPLETER/CANCELLER)
    "ready",           // multi-request completion publication flag
    "stream_owner",    // stream claim word (bind CAS / unbind Release)
];

/// Mutating atomic operations. Loads are L002's concern.
const MUTATING_OPS: &[&str] = &[
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "compare_exchange",
    "compare_exchange_weak",
];

pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    let toks = file.toks();
    let mut out = Vec::new();
    for i in 0..toks.len() {
        // Pattern: `.` <mutating-op> `(` … `)` with a hand-off receiver
        // and an effective Relaxed ordering.
        if !toks[i].is_punct('.') {
            continue;
        }
        let Some(op) = toks.get(i + 1).and_then(|t| t.ident()) else {
            continue;
        };
        if !MUTATING_OPS.contains(&op) || !toks.get(i + 2).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let Some(field) = receiver_field(toks, i) else {
            continue;
        };
        if !HANDOFF_FIELDS.contains(&field) {
            continue;
        }
        let close = matching(toks, i + 2);
        let is_cas = op.starts_with("compare_exchange");
        if effective_relaxed(&toks[i + 2..=close], is_cas) {
            let line = toks[i].line;
            out.push(Diagnostic {
                rule: "L001",
                path: file.path.clone(),
                line,
                msg: format!("Relaxed `{op}` on hand-off field `{field}` (missing Release edge)"),
                snippet: file.lexed.line_text(line).to_string(),
            });
        }
    }
    out
}
