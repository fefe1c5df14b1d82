//! Structural view of one lexed file: function items, `#[cfg(test)]`
//! regions, per-site allow comments, and the token-walk helpers the
//! rules share (matching delimiters, receiver-chain field extraction,
//! `Ordering` argument classification).

use crate::lexer::{lex, Lexed, Tok, TokKind};
use std::path::Path;

/// One `fn` item: its name and the token span of its body block
/// (`body.0` is the index of the `{`, `body.1` of the matching `}`).
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    pub body: (usize, usize),
}

/// A per-site suppression parsed from a comment:
/// `// lint: allow(L005) justification…` (several ids may be listed,
/// comma-separated).
#[derive(Debug, Clone)]
pub struct Allow {
    /// 1-based line the comment covers. A diagnostic on this line or
    /// the immediately following one is suppressed.
    pub line: u32,
    pub rules: Vec<String>,
    /// Free-text justification following the rule list (may be empty —
    /// the fixture tests and review culture, not the engine, enforce
    /// writing one).
    pub justification: String,
}

/// One parsed source file, ready for the rule catalogue.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (stable across
    /// platforms — it feeds diagnostics).
    pub path: String,
    pub lexed: Lexed,
    pub fns: Vec<FnItem>,
    /// Token-index ranges (inclusive `{`..`}`) under `#[cfg(test)]` or
    /// `#[test]` — rules about production error paths skip these.
    pub test_regions: Vec<(usize, usize)>,
    pub allows: Vec<Allow>,
}

impl SourceFile {
    /// Parse one file's source text.
    pub fn parse(path: &Path, src: &str) -> Self {
        let lexed = lex(src);
        let fns = collect_fns(&lexed.toks);
        let test_regions = collect_test_regions(&lexed.toks);
        let allows = collect_allows(&lexed);
        Self {
            path: path.to_string_lossy().replace('\\', "/"),
            lexed,
            fns,
            test_regions,
            allows,
        }
    }

    /// Whether the token at `idx` lies inside a `#[cfg(test)]`/`#[test]`
    /// region.
    pub fn in_test_region(&self, idx: usize) -> bool {
        self.test_regions.iter().any(|&(a, b)| a <= idx && idx <= b)
    }

    /// Whether a diagnostic of `rule` at `line` is suppressed by an
    /// allow comment on the same or the preceding line.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| (a.line == line || a.line + 1 == line) && a.rules.iter().any(|r| r == rule))
    }

    pub fn toks(&self) -> &[Tok] {
        &self.lexed.toks
    }
}

/// Index of the delimiter matching the opener at `open` (`(`↔`)`,
/// `{`↔`}`, `[`↔`]`). Returns the last token index if unbalanced.
pub fn matching(toks: &[Tok], open: usize) -> usize {
    let (o, c) = match toks[open].kind {
        TokKind::Punct('(') => ('(', ')'),
        TokKind::Punct('{') => ('{', '}'),
        TokKind::Punct('[') => ('[', ']'),
        _ => return open,
    };
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Walk backwards from `end` (exclusive) over a field/method receiver
/// chain (`self.now_serving.0`, `shards[vci].last_poll_ns`, …) and
/// return the *field name* the chain ends with: the last plain
/// identifier, skipping numeric tuple projections and index brackets.
pub fn receiver_field(toks: &[Tok], end: usize) -> Option<&str> {
    let mut j = end;
    loop {
        if j == 0 {
            return None;
        }
        j -= 1;
        match &toks[j].kind {
            // `.0` / `.1` tuple projection: skip it and its dot.
            TokKind::Num => {
                if j >= 1 && toks[j - 1].is_punct('.') {
                    j -= 1;
                    continue;
                }
                return None;
            }
            // `…[idx]` indexing: skip the balanced brackets.
            TokKind::Punct(']') => {
                let mut depth = 0usize;
                while j > 0 {
                    if toks[j].is_punct(']') {
                        depth += 1;
                    } else if toks[j].is_punct('[') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j -= 1;
                }
            }
            TokKind::Ident(name) => return Some(name),
            _ => return None,
        }
    }
}

/// The memory-ordering idents recognised in call arguments.
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Classify the orderings named in a call's argument tokens, in
/// positional order. Both `Ordering::Relaxed` and a bare imported
/// `Relaxed` are recognised.
pub fn orderings_in(toks: &[Tok]) -> Vec<&str> {
    toks.iter()
        .filter_map(|t| t.ident())
        .filter(|w| ORDERINGS.contains(w))
        .collect()
}

/// Whether a mutating call with these argument tokens has an effective
/// `Relaxed` ordering. For `compare_exchange{,_weak}` only the success
/// ordering (the first of the two trailing orderings) counts — a
/// `Relaxed` *failure* ordering is idiomatic.
pub fn effective_relaxed(arg_toks: &[Tok], is_cas: bool) -> bool {
    let ords = orderings_in(arg_toks);
    if is_cas {
        ords.first() == Some(&"Relaxed")
    } else {
        ords.contains(&"Relaxed")
    }
}

/// Collect every `fn` item (free functions, methods, nested fns) with
/// its body span. Bodyless trait-method declarations are skipped.
fn collect_fns(toks: &[Tok]) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("fn") {
            if let Some(TokKind::Ident(name)) = toks.get(i + 1).map(|t| &t.kind) {
                // Scan for the body `{` at zero paren/bracket depth; a
                // `;` first means a declaration without a body.
                let mut paren = 0i32;
                let mut bracket = 0i32;
                let mut j = i + 2;
                while j < toks.len() {
                    match toks[j].kind {
                        TokKind::Punct('(') => paren += 1,
                        TokKind::Punct(')') => paren -= 1,
                        TokKind::Punct('[') => bracket += 1,
                        TokKind::Punct(']') => bracket -= 1,
                        TokKind::Punct('{') if paren == 0 && bracket == 0 => {
                            out.push(FnItem {
                                name: name.clone(),
                                body: (j, matching(toks, j)),
                            });
                            break;
                        }
                        TokKind::Punct(';') if paren == 0 && bracket == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
            }
        }
        i += 1;
    }
    out
}

/// Find every `#[cfg(test)]` / `#[test]` attribute and record the brace
/// extent of the item it gates (module or function).
fn collect_test_regions(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 4 < toks.len() {
        let is_cfg_test = toks[i].is_punct('#')
            && toks[i + 1].is_punct('[')
            && ((toks[i + 2].is_ident("cfg")
                && toks[i + 3].is_punct('(')
                && toks[i + 4].is_ident("test"))
                || (toks[i + 2].is_ident("test") && toks[i + 3].is_punct(']')));
        if is_cfg_test {
            // Skip to the gated item's opening brace (ignoring braces
            // inside any further attribute lists).
            let mut j = matching_attr_end(toks, i + 1) + 1;
            // Further attributes on the same item.
            while j + 1 < toks.len() && toks[j].is_punct('#') && toks[j + 1].is_punct('[') {
                j = matching_attr_end(toks, j + 1) + 1;
            }
            let mut paren = 0i32;
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Punct('(') => paren += 1,
                    TokKind::Punct(')') => paren -= 1,
                    TokKind::Punct('{') if paren == 0 => {
                        out.push((j, matching(toks, j)));
                        break;
                    }
                    TokKind::Punct(';') if paren == 0 => break,
                    _ => {}
                }
                j += 1;
            }
        }
        i += 1;
    }
    out
}

/// End index of the `[...]` attribute list opening at `open_bracket`.
fn matching_attr_end(toks: &[Tok], open_bracket: usize) -> usize {
    matching(toks, open_bracket)
}

/// Parse allow comments: `lint: allow(L001, L005) justification`.
fn collect_allows(lexed: &Lexed) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let text = c.text.as_str();
        if let Some(p) = text.find("lint: allow(") {
            let rest = &text[p + "lint: allow(".len()..];
            if let Some(close) = rest.find(')') {
                let rules: Vec<String> = rest[..close]
                    .split(',')
                    .map(|r| r.trim().to_string())
                    .filter(|r| !r.is_empty())
                    .collect();
                let justification = rest[close + 1..].trim().to_string();
                if !rules.is_empty() {
                    out.push(Allow {
                        line: c.end_line,
                        rules,
                        justification,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse(Path::new("t.rs"), src)
    }

    #[test]
    fn fns_and_bodies() {
        let f = parse("impl X { fn a(&self) -> u32 { 1 } }\nfn b<T: Into<u8>>(x: [u8; 4]) { {} }");
        let names: Vec<&str> = f.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        for item in &f.fns {
            assert!(f.toks()[item.body.0].is_punct('{'));
            assert!(f.toks()[item.body.1].is_punct('}'));
        }
    }

    #[test]
    fn trait_decl_without_body_is_skipped() {
        let f = parse("trait T { fn no_body(&self) -> u8; fn with_body(&self) {} }");
        let names: Vec<&str> = f.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["with_body"]);
    }

    #[test]
    fn cfg_test_regions() {
        let f = parse("fn prod() {}\n#[cfg(test)]\nmod tests {\n fn t() {}\n}");
        assert_eq!(f.test_regions.len(), 1);
        let t = f.fns.iter().find(|x| x.name == "t").unwrap();
        assert!(f.in_test_region(t.body.0));
        let p = f.fns.iter().find(|x| x.name == "prod").unwrap();
        assert!(!f.in_test_region(p.body.0));
    }

    #[test]
    fn test_attr_gates_a_fn() {
        let f = parse("#[test]\nfn check() { x.iter(); }");
        assert_eq!(f.test_regions.len(), 1);
    }

    #[test]
    fn receiver_fields() {
        let f = parse("self.now_serving.0.store(1, o); shards[vci].last_poll_ns.load(o);");
        let toks = f.toks();
        // Find the `store` and `load` idents, extract their receivers.
        let store = toks.iter().position(|t| t.is_ident("store")).unwrap();
        assert_eq!(receiver_field(toks, store - 1), Some("now_serving"));
        let load = toks.iter().position(|t| t.is_ident("load")).unwrap();
        assert_eq!(receiver_field(toks, load - 1), Some("last_poll_ns"));
    }

    #[test]
    fn allow_comments() {
        let f = parse(
            "// lint: allow(L002, L005) deliberate relaxed peek\nx.load(Relaxed);\ny.store(1, Relaxed);",
        );
        assert!(f.allowed("L002", 2));
        assert!(f.allowed("L005", 2));
        assert!(!f.allowed("L001", 2));
        assert!(!f.allowed("L002", 3));
    }

    #[test]
    fn cas_success_ordering() {
        let f = parse("c.compare_exchange(a, b, Ordering::Acquire, Ordering::Relaxed)");
        let toks = f.toks();
        let open = toks.iter().position(|t| t.is_punct('(')).unwrap();
        let close = matching(toks, open);
        assert!(!effective_relaxed(&toks[open..=close], true));
        assert!(effective_relaxed(&toks[open..=close], false));
    }
}
