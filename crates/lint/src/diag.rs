//! Diagnostics: the engine's output unit and its text rendering.

/// One finding of one rule at one site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (`L001`, `L002`, …).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line of the offending site.
    pub line: u32,
    /// What is wrong (one sentence, no trailing period).
    pub msg: String,
    /// The trimmed source line.
    pub snippet: String,
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
