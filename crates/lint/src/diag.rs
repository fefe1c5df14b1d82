//! Diagnostics: the engine's output unit, with stable fingerprints for
//! baselining and text/JSON renderings.

use mtmpi_obs::json::Writer;

/// One finding of one rule at one site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (`L001` … `L006`).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line of the offending site.
    pub line: u32,
    /// What is wrong (one sentence, no trailing period).
    pub msg: String,
    /// The trimmed source line, for humans and for the fingerprint.
    pub snippet: String,
}

impl Diagnostic {
    /// Stable identity for baseline matching: rule + path + the
    /// whitespace-normalised snippet, FNV-1a hashed. Deliberately
    /// line-number-free so unrelated edits moving a baselined site up
    /// or down the file do not churn the baseline.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.rule.as_bytes());
        eat(b"|");
        eat(self.path.as_bytes());
        eat(b"|");
        // Collapse runs of whitespace so rustfmt churn doesn't move
        // fingerprints.
        let mut prev_space = false;
        for ch in self.snippet.trim().chars() {
            if ch.is_whitespace() {
                if !prev_space {
                    eat(b" ");
                }
                prev_space = true;
            } else {
                let mut buf = [0u8; 4];
                eat(ch.encode_utf8(&mut buf).as_bytes());
                prev_space = false;
            }
        }
        h
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}: {}",
            self.path, self.line, self.rule, self.msg, self.snippet
        )
    }
}

impl Diagnostic {
    /// One JSON object (no trailing newline).
    pub fn to_json(&self, baselined: bool) -> String {
        let mut w = Writer::default();
        w.label("{\"rule\":", self.rule)
            .string(",\"path\":", &self.path)
            .uint(",\"line\":", self.line)
            .string(",\"msg\":", &self.msg)
            .string(",\"snippet\":", &self.snippet)
            .hex(",\"fingerprint\":\"", self.fingerprint(), 16)
            .raw(if baselined {
                "\",\"baselined\":true}"
            } else {
                "\",\"baselined\":false}"
            });
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(rule: &'static str, path: &str, line: u32, snippet: &str) -> Diagnostic {
        Diagnostic {
            rule,
            path: path.to_string(),
            line,
            msg: "m".to_string(),
            snippet: snippet.to_string(),
        }
    }

    #[test]
    fn fingerprint_ignores_line_and_whitespace() {
        let a = d("L001", "a.rs", 10, "x.store(1,  Relaxed)");
        let b = d("L001", "a.rs", 99, "x.store(1, Relaxed)");
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_rule_path_snippet() {
        let base = d("L001", "a.rs", 1, "x.store(1, Relaxed)");
        assert_ne!(
            base.fingerprint(),
            d("L002", "a.rs", 1, "x.store(1, Relaxed)").fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            d("L001", "b.rs", 1, "x.store(1, Relaxed)").fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            d("L001", "a.rs", 1, "y.store(1, Relaxed)").fingerprint()
        );
    }

    #[test]
    fn json_escaping() {
        let x = d("L006", "a.rs", 1, "let s = \"q\";");
        let j = x.to_json(false);
        assert!(j.contains("\\\""));
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn json_bytes_are_pinned_for_every_escape_class() {
        let x = d("L004", "a \"b\".rs", 7, "s = \"q\\\tx\u{1}\u{e9}\";");
        assert_eq!(
            x.to_json(true),
            "{\"rule\":\"L004\",\"path\":\"a \\\"b\\\".rs\",\"line\":7,\"msg\":\"m\",\
             \"snippet\":\"s = \\\"q\\\\\\tx\\u0001\u{e9}\\\";\",\
             \"fingerprint\":\"07a0a59988bc45b0\",\"baselined\":true}"
        );
    }
}
