//! L004 — nondeterminism sources in the deterministic core crates.
//!
//! The replay contract (DESIGN.md §11/§12, enforced byte-for-byte by
//! the faults/vci CI smoke jobs) requires every run-affecting input in
//! `sim`/`runtime`/`net`/`vci`/`locks`, in the experiment harness
//! (`core`), in the figure harness (`bench`) whose `BENCH_*.json`
//! documents are replayed, and in the application kernels
//! (`assembly`/`graph500`/`stencil`), to derive from the seed and the
//! virtual clock. Banned in production code there:
//!
//! * wall-clock reads: `Instant::now`, `SystemTime` (any use);
//! * OS entropy: `thread_rng`, `rand::random`, `from_entropy`;
//! * inherited environment: `env::{var, var_os, vars, vars_os}` — a
//!   shell's leftover variable must not move a hash (`env::args` is
//!   explicit input and stays legal);
//! * hash-order iteration: `.iter()`/`.keys()`/`.values()`/`.drain()`/
//!   `.retain()`/`.into_iter()`/`for … in` over a binding whose
//!   declared type (in the same file) is `HashMap`/`HashSet`.
//!   Membership ops (`insert`/`remove`/`contains`/`get`/`entry`) are
//!   deterministic and stay legal — switch to `BTreeMap`/`BTreeSet` if
//!   you need to iterate in an output path.
//!
//! `#[cfg(test)]`/`#[test]` regions are exempt. The native (wall-clock)
//! platform backend is the intended allowlist user:
//! `// lint: allow(L004) native backend measures real time by design`.

use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::source::SourceFile;
use std::collections::BTreeSet;

/// Iteration methods whose order is the hasher's, not the program's.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
];

pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    let toks = file.toks();
    let mut out = Vec::new();
    let mut diag = |line: u32, msg: String| {
        out.push(Diagnostic {
            rule: "L004",
            path: file.path.clone(),
            line,
            msg,
            snippet: file.lexed.line_text(line).to_string(),
        });
    };

    // `use` statement extents: imports don't execute — a file may
    // import `SystemTime` solely for its `#[cfg(test)]` module. Uses
    // are flagged where they run, not where they are named.
    let mut use_ranges: Vec<(usize, usize)> = Vec::new();
    for i in 0..toks.len() {
        if toks[i].is_ident("use") {
            let end = (i + 1..toks.len())
                .find(|&j| toks[j].is_punct(';'))
                .unwrap_or(toks.len() - 1);
            use_ranges.push((i, end));
        }
    }
    let in_use = |i: usize| use_ranges.iter().any(|&(a, b)| a <= i && i <= b);

    // Pass 1: banned calls/types by name.
    for i in 0..toks.len() {
        if file.in_test_region(i) || in_use(i) {
            continue;
        }
        let Some(w) = toks[i].ident() else { continue };
        match w {
            "Instant"
                if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|t| t.is_ident("now")) =>
            {
                diag(
                    toks[i].line,
                    "wall-clock `Instant::now` in a deterministic crate (use the virtual clock)"
                        .to_string(),
                );
            }
            "SystemTime" => diag(
                toks[i].line,
                "`SystemTime` in a deterministic crate (derive time from the virtual clock)"
                    .to_string(),
            ),
            "thread_rng" | "from_entropy" => diag(
                toks[i].line,
                format!("OS entropy via `{w}` in a deterministic crate (seed a SmallRng instead)"),
            ),
            "env"
                if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && toks
                        .get(i + 3)
                        .and_then(|t| t.ident())
                        .is_some_and(|f| matches!(f, "var" | "var_os" | "vars" | "vars_os")) =>
            {
                diag(
                    toks[i].line,
                    "environment read in a deterministic crate (take the value as an \
                     argument or a builder setting)"
                        .to_string(),
                );
            }
            "random" if i >= 3 && toks[i - 1].is_punct(':') && toks[i - 3].is_ident("rand") => {
                diag(
                    toks[i].line,
                    "OS entropy via `rand::random` in a deterministic crate".to_string(),
                );
            }
            _ => {}
        }
    }

    // Pass 2: hash-order iteration over HashMap/HashSet bindings.
    let hashed = hashed_bindings(file);
    if hashed.is_empty() {
        return out;
    }
    for i in 0..toks.len() {
        if file.in_test_region(i) {
            continue;
        }
        // `.method(` on a hashed receiver.
        if toks[i].is_punct('.') && toks.get(i + 2).is_some_and(|t| t.is_punct('(')) {
            if let Some(m) = toks.get(i + 1).and_then(|t| t.ident()) {
                if ITER_METHODS.contains(&m) {
                    if let Some(field) = crate::source::receiver_field(toks, i) {
                        if hashed.contains(field) {
                            diag(
                                toks[i].line,
                                format!(
                                    "hash-order iteration (`.{m}()`) over `{field}` \
                                     ({}) — order is per-process, not per-seed",
                                    "HashMap/HashSet"
                                ),
                            );
                        }
                    }
                }
            }
        }
        // `for pat in [&[mut]] <chain ending in a hashed name> {`.
        // Regions containing a call (`(`) are left to the method pass
        // above, so `for k in map.keys()` is not double-flagged.
        if toks[i].is_ident("for") {
            let in_pos = (i + 1..toks.len().min(i + 40)).find(|&j| toks[j].is_ident("in"));
            if let Some(in_pos) = in_pos {
                let mut j = in_pos + 1;
                let mut last_ident: Option<&str> = None;
                let mut has_call = false;
                while j < toks.len() && j < in_pos + 30 && !toks[j].is_punct('{') {
                    match &toks[j].kind {
                        TokKind::Punct('(') => has_call = true,
                        TokKind::Ident(w) if w != "mut" => last_ident = Some(w),
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(name) = last_ident {
                    if !has_call && hashed.contains(name) {
                        diag(
                            toks[i].line,
                            format!(
                                "hash-order `for` iteration over `{name}` (HashMap/HashSet) — \
                                 order is per-process, not per-seed"
                            ),
                        );
                    }
                }
            }
        }
    }
    out
}

/// Names bound to `HashMap`/`HashSet` anywhere in the file: struct
/// fields / params with an ascribed hash type, and `let` bindings
/// initialised from `HashMap::…`/`HashSet::…`.
fn hashed_bindings(file: &SourceFile) -> BTreeSet<String> {
    let toks = file.toks();
    let mut out = BTreeSet::new();
    for i in 0..toks.len() {
        let TokKind::Ident(name) = &toks[i].kind else {
            continue;
        };
        // `name: …HashMap/HashSet…` — scan the type region up to a
        // statement/field boundary at angle-depth zero.
        if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            let mut angle = 0i32;
            let mut j = i + 2;
            while j < toks.len() && j < i + 40 {
                match &toks[j].kind {
                    TokKind::Punct('<') => angle += 1,
                    TokKind::Punct('>') => angle -= 1,
                    TokKind::Punct(',' | ';' | '=' | '{' | ')') if angle <= 0 => break,
                    TokKind::Ident(t) if t == "HashMap" || t == "HashSet" => {
                        out.insert(name.clone());
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // `let [mut] name = …HashMap/HashSet::…ctor…;`
        if toks[i].is_ident("let") {
            let mut k = i + 1;
            if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            if let Some(TokKind::Ident(bound)) = toks.get(k).map(|t| &t.kind) {
                if toks.get(k + 1).is_some_and(|t| t.is_punct('=')) {
                    let mut j = k + 2;
                    while j < toks.len() && j < k + 20 && !toks[j].is_punct(';') {
                        if toks[j].is_ident("HashMap") || toks[j].is_ident("HashSet") {
                            out.insert(bound.clone());
                            break;
                        }
                        j += 1;
                    }
                }
            }
        }
    }
    out
}
