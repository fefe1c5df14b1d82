//! Minimal deterministic JSON string building.
//!
//! No serializer crate exists offline, so every JSON artifact is built
//! by hand. These
//! helpers keep that deterministic: fixed-decimal timestamps and plain
//! `Display` floats, so identical inputs yield byte-identical output.

/// Escape a string for inclusion inside JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Nanoseconds as a fixed-3-decimal microsecond literal (`"1.234"`), the
/// unit Chrome's trace viewer expects for `ts`/`dur`.
pub fn fmt_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// A float as a JSON number (`0` for non-finite values, which JSON cannot
/// represent).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn microsecond_formatting_is_fixed_width_fractional() {
        assert_eq!(fmt_us(0), "0.000");
        assert_eq!(fmt_us(999), "0.999");
        assert_eq!(fmt_us(1_000), "1.000");
        assert_eq!(fmt_us(1_234_567), "1234.567");
    }

    #[test]
    fn floats_are_plain_and_finite() {
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(f64::NAN), "0");
        assert_eq!(fmt_f64(f64::INFINITY), "0");
    }
}
