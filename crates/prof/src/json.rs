//! A minimal JSON *value* parser.
//!
//! The workspace writes all its artifacts (`BENCH_*.json`, traces) with
//! hand-rolled emitters (no serializer crate exists offline).
//! `bench-diff`, `top` and `xtask trace` must *read* those
//! artifacts back, so this module supplies the missing half: a small
//! recursive-descent parser producing an owned [`Json`] tree. It is also
//! the workspace's only JSON validator — validation = parse. Objects keep insertion order (a `Vec` of
//! pairs, not a map) so that re-rendering or iterating is deterministic
//! and duplicate keys — illegal in our emitters — surface as-is instead
//! of being silently collapsed.
//!
//! Scope: RFC 8259 values, `f64` numbers, standard escapes including
//! `\uXXXX` with surrogate pairs. Not a streaming parser — the artifacts
//! are megabytes at most.

/// An owned JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`; the artifacts stay well inside the
    /// 2^53 integer-exact range).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (surrounding whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    /// Object member lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact-ish u64 (rounded; `None` on negatives and
    /// non-numbers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 => Some(n.round() as u64),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if matches!(c, b' ' | b'\t' | b'\n' | b'\r') {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.i))
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", c as char))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            self.err(&format!("expected '{word}'"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.b.get(self.i) {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if *c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a value"),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        self.ws();
        let mut out = Vec::new();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => {
                    self.i += 1;
                    self.ws();
                }
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        self.ws();
        let mut out = Vec::new();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            let k = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            let v = self.value()?;
            out.push((k, v));
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => {
                    self.i += 1;
                    self.ws();
                }
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = *self.b.get(self.i).ok_or("truncated escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.b[self.i..].starts_with(b"\\u") {
                                    self.i += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return self.err("unpaired high surrogate");
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return self.err("unpaired high surrogate");
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return self.err("unpaired low surrogate");
                            } else {
                                hi
                            };
                            out.push(char::from_u32(cp).ok_or("bad codepoint")?);
                        }
                        _ => return self.err("bad escape"),
                    }
                }
                Some(&c) if c < 0x20 => return self.err("raw control character"),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is &str, so always valid).
                    let start = self.i;
                    self.i += 1;
                    while self.i < self.b.len() && self.b[self.i] & 0xC0 == 0x80 {
                        self.i += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.b[start..self.i]).expect("valid utf8"));
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.i + 4 > self.b.len() {
            return self.err("truncated \\u escape");
        }
        let s = std::str::from_utf8(&self.b[self.i..self.i + 4]).map_err(|_| "bad \\u escape")?;
        let v =
            u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape at byte {}", self.i))?;
        self.i += 4;
        Ok(v)
    }

    /// RFC 8259 `number`: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    /// `str::parse::<f64>` alone is laxer (`1.`, `-.5`, `1.e3`, `01`), so
    /// the lexeme is checked here and only then converted.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        let int = self.i;
        self.digits("expected digits")?;
        if self.b[int] == b'0' && self.i > int + 1 {
            self.i = int + 1;
            return self.err("leading zero");
        }
        if self.b.get(self.i) == Some(&b'.') {
            self.i += 1;
            self.digits("expected digits after '.'")?;
        }
        if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.b.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            self.digits("expected exponent digits")?;
        }
        let s = std::str::from_utf8(&self.b[start..self.i]).expect("ascii");
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{s}' at byte {start}"))
    }

    /// One or more ASCII digits.
    fn digits(&mut self, what: &str) -> Result<(), String> {
        let start = self.i;
        while self.b.get(self.i).is_some_and(u8::is_ascii_digit) {
            self.i += 1;
        }
        if self.i == start {
            return self.err(what);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(
            Json::parse(r#""a\nbAé""#).unwrap(),
            Json::Str("a\nbA\u{e9}".into())
        );
    }

    #[test]
    fn parses_nested_structures_in_order() {
        let v = Json::parse(r#"{"b": [1, {"x": null}], "a": "s"}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj[0].0, "b");
        assert_eq!(obj[1].0, "a");
        assert_eq!(v.get("a").unwrap().as_str(), Some("s"));
        let arr = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("x"), Some(&Json::Null));
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("\u{1F600}".into()),
            "escaped surrogate pairs combine"
        );
        assert_eq!(
            Json::parse(r#""😀""#).unwrap(),
            Json::Str("\u{1F600}".into()),
            "raw multibyte scalars copy through"
        );
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\ude00""#).is_err());
    }

    #[test]
    fn accepts_valid_documents() {
        for s in [
            "{}",
            "[]",
            "null",
            "0",
            "-0",
            "10",
            "0.5",
            "1e3",
            "-1.5e-3",
            "2E+2",
            "\"a\\u00e9\\n\"",
            "{\"a\":[1,2,{\"b\":null}],\"c\":true}",
            " { \"traceEvents\" : [ { \"ph\" : \"X\" , \"ts\" : \"1.003\" } ] } ",
        ] {
            assert!(Json::parse(s).is_ok(), "should accept: {s}");
        }
    }

    /// Malformed documents, each with the byte offset its error must
    /// name. The number rows are the RFC 8259 cases `str::parse::<f64>`
    /// would have let through.
    #[test]
    fn rejects_malformed_documents_at_the_right_offset() {
        for (s, at) in [
            ("", 0),
            ("{", 1),
            ("[1,]", 3),
            ("{\"a\":}", 5),
            ("{\"a\":!}", 5),
            ("{\"a\" 1}", 5),
            ("{\"a\":1,}", 7),
            ("tru", 0),
            ("nul", 0),
            ("1 2", 2),
            ("{} extra", 3),
            ("\"unterminated", 13),
            ("\"bad\\q\"", 6),
            ("\"\u{1}\"", 1),
            ("1.2.3", 3),
            ("[01]x", 2),
            ("01", 1),
            ("-", 1),
            ("-x", 1),
            ("1.", 2),
            ("-.5", 1),
            ("1.e3", 2),
            ("1e", 2),
            ("1e+", 3),
        ] {
            let err = Json::parse(s).expect_err(s);
            assert!(err.ends_with(&format!("at byte {at}")), "{s:?}: {err}");
        }
    }

    #[test]
    fn roundtrips_a_bench_like_doc() {
        let doc = r#"{
          "id": "fig2a",
          "runs": [
            {"label": "mutex", "threads": 4, "msg_latency": {"p50_ns": 1200, "p99_ns": 9000, "count": 10000}}
          ]
        }"#;
        let v = Json::parse(doc).unwrap();
        let run = &v.get("runs").unwrap().as_array().unwrap()[0];
        assert_eq!(
            run.get("msg_latency")
                .unwrap()
                .get("p50_ns")
                .unwrap()
                .as_u64(),
            Some(1200)
        );
    }

    proptest::proptest! {
        /// What the workspace's writer emits for a string, this parser
        /// reads back as the same string — whatever the text holds.
        #[test]
        fn writer_strings_round_trip(
            picks in proptest::collection::vec((0u32..6, proptest::any::<u32>()), 0..48),
            n in proptest::any::<u64>(),
        ) {
            let text: String = picks
                .into_iter()
                .map(|(class, x)| match class {
                    0 => char::from(x as u8 % 0x20),
                    1 => ['"', '\\', '\n', '\r', '\t', '/'][x as usize % 6],
                    2 => char::from_u32(x % 0x11_0000).unwrap_or('\u{fffd}'),
                    _ => char::from(b' ' + x as u8 % 95),
                })
                .collect();
            let mut w = mtmpi_obs::json::Writer::default();
            w.string("{\"s\":", &text).us(",\"us\":", n >> 12);
            w.float(",\"f\":", f64::from_bits(n)).raw("}");
            let doc = Json::parse(&w.finish());
            proptest::prop_assert!(doc.is_ok(), "{:?}", doc);
            let doc = doc.unwrap();
            proptest::prop_assert_eq!(doc.get("s").and_then(Json::as_str), Some(text.as_str()));
            let us = (n >> 12) as f64 / 1000.0;
            proptest::prop_assert_eq!(doc.get("us").and_then(Json::as_f64), Some(us));
        }
    }
}
