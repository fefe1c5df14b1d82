//! A minimal Rust lexer: the front end of mtmpi-lint.
//!
//! The real `syn` crate is unavailable offline (this workspace vendors
//! no external code — see `crates/shims/README.md`), so the lint engine
//! carries its own token-level front end. It does **not** parse Rust —
//! it produces a flat stream of spanned tokens with comments and string
//! bodies separated out, which is exactly the fidelity the rule
//! catalogue needs: rules match token *patterns* (`.store(` on a
//! hand-off field with a `Relaxed` argument, …) and never confuse code
//! with comment or string contents the way the old regex pass could have.
//!
//! Handled faithfully: line (`//`) and nested block (`/* */`) comments,
//! string/byte/raw-string literals (`"…"`, `b"…"`, `r#"…"#`, …), char
//! literals vs. lifetimes (`'a'` vs. `'a`), numeric literals, idents,
//! and single-char punctuation. Every token carries its 1-based line.

/// Kind of one lexed token. String/char/number payloads are not kept —
/// no rule inspects literal contents, only their presence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `unsafe`, `Ordering`, …).
    Ident(String),
    /// One punctuation character (`.`, `(`, `<`, `#`, …).
    Punct(char),
    /// String literal of any flavour (plain/byte/raw/C).
    Str,
    /// Char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// Numeric literal (integer or float, any base/suffix).
    Num,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
}

/// One token with its source position.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    /// 1-based line of the token's first character.
    pub line: u32,
}

impl Tok {
    /// The identifier text, if this token is an ident.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }

    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.ident() == Some(s)
    }
}

/// One comment (line or block). Block comments spanning several lines
/// record the full range so comment-run logic can treat every covered
/// line as commented.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based first line.
    pub start_line: u32,
    /// 1-based last line (== `start_line` for `//` comments).
    pub end_line: u32,
    /// Comment body (without the `//` / `/*` markers).
    pub text: String,
}

/// The lexed form of one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
    /// The raw source split into lines (for diagnostics' snippets).
    pub lines: Vec<String>,
}

impl Lexed {
    /// The trimmed source text of a 1-based line (empty if out of range).
    pub fn line_text(&self, line: u32) -> &str {
        self.lines
            .get(line as usize - 1)
            .map_or("", |l| l.as_str().trim())
    }
}

/// Lex `src` into tokens + comments. Never fails: unterminated
/// constructs simply end at EOF (the lint pass runs on code that
/// rustc already accepted, so this is a non-issue in practice).
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut out = Lexed {
        lines: src.lines().map(str::to_string).collect(),
        ..Lexed::default()
    };
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Advance over `chars[i..j]`, counting newlines.
    macro_rules! bump_to {
        ($j:expr) => {{
            for k in i..$j {
                if b[k] == '\n' {
                    line += 1;
                }
            }
            i = $j;
        }};
    }

    while i < b.len() {
        let c = b[i];
        // Whitespace.
        if c.is_whitespace() {
            if c == '\n' {
                line += 1;
            }
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && b.get(i + 1) == Some(&'/') {
            let start = i + 2;
            let mut j = start;
            while j < b.len() && b[j] != '\n' {
                j += 1;
            }
            out.comments.push(Comment {
                start_line: line,
                end_line: line,
                text: b[start..j].iter().collect(),
            });
            bump_to!(j);
            continue;
        }
        // Block comment (nested).
        if c == '/' && b.get(i + 1) == Some(&'*') {
            let start_line = line;
            let mut depth = 1usize;
            let mut j = i + 2;
            let mut text = String::new();
            while j < b.len() && depth > 0 {
                if b[j] == '/' && b.get(j + 1) == Some(&'*') {
                    depth += 1;
                    j += 2;
                } else if b[j] == '*' && b.get(j + 1) == Some(&'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    text.push(b[j]);
                    j += 1;
                }
            }
            bump_to!(j);
            out.comments.push(Comment {
                start_line,
                end_line: line,
                text,
            });
            continue;
        }
        // Identifier / keyword — or a raw/byte string prefix.
        if c.is_alphabetic() || c == '_' {
            let mut j = i;
            while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                j += 1;
            }
            let word: String = b[i..j].iter().collect();
            // Raw / byte string prefixes: r"", r#""#, b"", br"", c"", …
            let is_str_prefix = matches!(word.as_str(), "r" | "b" | "br" | "rb" | "c" | "cr");
            if is_str_prefix && j < b.len() && (b[j] == '"' || b[j] == '#') {
                let raw = word.contains('r') || word.contains('c');
                if raw {
                    // Count hashes, then scan to `"` + same hashes.
                    let mut hashes = 0usize;
                    let mut k = j;
                    while k < b.len() && b[k] == '#' {
                        hashes += 1;
                        k += 1;
                    }
                    if b.get(k) == Some(&'"') {
                        k += 1;
                        'scan: while k < b.len() {
                            if b[k] == '"' {
                                let mut h = 0usize;
                                while b.get(k + 1 + h) == Some(&'#') {
                                    h += 1;
                                }
                                if h >= hashes {
                                    k += 1 + hashes;
                                    break 'scan;
                                }
                            }
                            k += 1;
                        }
                        let tline = line;
                        bump_to!(k);
                        out.toks.push(Tok {
                            kind: TokKind::Str,
                            line: tline,
                        });
                        continue;
                    }
                } else {
                    // b"…" with escapes.
                    let tline = line;
                    let k = scan_quoted(&b, j, '"');
                    bump_to!(k);
                    out.toks.push(Tok {
                        kind: TokKind::Str,
                        line: tline,
                    });
                    continue;
                }
            }
            // b'x' byte char.
            if word == "b" && j < b.len() && b[j] == '\'' {
                let tline = line;
                let k = scan_quoted(&b, j, '\'');
                bump_to!(k);
                out.toks.push(Tok {
                    kind: TokKind::Char,
                    line: tline,
                });
                continue;
            }
            out.toks.push(Tok {
                kind: TokKind::Ident(word),
                line,
            });
            i = j;
            continue;
        }
        // Number.
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < b.len() {
                let d = b[j];
                let float_dot = d == '.' && b.get(j + 1).is_some_and(char::is_ascii_digit);
                if d.is_alphanumeric() || d == '_' || float_dot {
                    j += 1;
                } else {
                    break;
                }
            }
            out.toks.push(Tok {
                kind: TokKind::Num,
                line,
            });
            i = j;
            continue;
        }
        // String literal.
        if c == '"' {
            let tline = line;
            let j = scan_quoted(&b, i, '"');
            bump_to!(j);
            out.toks.push(Tok {
                kind: TokKind::Str,
                line: tline,
            });
            continue;
        }
        // Lifetime or char literal.
        if c == '\'' {
            let next = b.get(i + 1).copied();
            let after = b.get(i + 2).copied();
            let is_lifetime = next.is_some_and(|n| n.is_alphabetic() || n == '_')
                && after != Some('\'')
                // 'a' is a char; 'ab is impossible so ident-char after
                // the first means lifetime ('static).
                || (next.is_some_and(|n| n.is_alphabetic() || n == '_')
                    && b.get(i + 2).is_some_and(|a| a.is_alphanumeric() || *a == '_'));
            if is_lifetime {
                let mut j = i + 1;
                while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                    j += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Lifetime,
                    line,
                });
                i = j;
                continue;
            }
            let tline = line;
            let j = scan_quoted(&b, i, '\'');
            bump_to!(j);
            out.toks.push(Tok {
                kind: TokKind::Char,
                line: tline,
            });
            continue;
        }
        // Single-char punctuation.
        out.toks.push(Tok {
            kind: TokKind::Punct(c),
            line,
        });
        i += 1;
    }
    out
}

/// Scan a quoted literal starting at the opening quote `chars[open]`,
/// honouring backslash escapes. Returns the index one past the closing
/// quote (or EOF).
fn scan_quoted(chars: &[char], open: usize, quote: char) -> usize {
    let mut j = open + 1;
    while j < chars.len() {
        match chars[j] {
            '\\' => j += 2,
            c if c == quote => return j + 1,
            _ => j += 1,
        }
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn comments_are_not_tokens() {
        let l = lex("let x = 1; // Ordering::Relaxed\n/* store( */ let y = 2;");
        assert!(idents("let x = 1; // Ordering::Relaxed").contains(&"x".to_string()));
        assert!(!l.toks.iter().any(|t| t.is_ident("Ordering")));
        assert!(!l.toks.iter().any(|t| t.is_ident("store")));
        assert_eq!(l.comments.len(), 2);
    }

    #[test]
    fn strings_hide_their_contents() {
        let l = lex(r#"let s = "x.store(1, Ordering::Relaxed)"; s.load(o);"#);
        assert!(!l.toks.iter().any(|t| t.is_ident("store")));
        assert!(l.toks.iter().any(|t| t.is_ident("load")));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let l = lex(r##"let s = r#"unsafe { "quoted" }"#; unsafe {}"##);
        let n = l.toks.iter().filter(|t| t.is_ident("unsafe")).count();
        assert_eq!(n, 1, "only the real unsafe survives");
    }

    #[test]
    fn lifetimes_vs_chars() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        let chars = l.toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
    }

    #[test]
    fn lines_are_tracked_through_multiline_constructs() {
        let src = "/* a\nb\nc */\nfn f() {}\n\"s\ntr\"\nunsafe {}";
        let l = lex(src);
        let f = l.toks.iter().find(|t| t.is_ident("fn")).unwrap();
        assert_eq!(f.line, 4);
        let u = l.toks.iter().find(|t| t.is_ident("unsafe")).unwrap();
        assert_eq!(u.line, 7);
        assert_eq!(l.comments[0].start_line, 1);
        assert_eq!(l.comments[0].end_line, 3);
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still comment */ fn f() {}");
        assert!(l.toks.iter().any(|t| t.is_ident("fn")));
        assert!(!l.toks.iter().any(|t| t.is_ident("outer")));
    }

    #[test]
    fn byte_strings() {
        let l = lex(r#"let b = b"store("; let r = br"load(";"#);
        assert!(!l.toks.iter().any(|t| t.is_ident("store")));
        assert!(!l.toks.iter().any(|t| t.is_ident("load")));
    }
}
