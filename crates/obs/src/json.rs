//! The workspace's JSON writer: one append-only buffer.
//!
//! No serializer crate exists offline, so every JSON artefact is written
//! by hand — through [`Writer`]. It appends literal text, integers,
//! fixed-3-decimal microseconds, hex, floats and escaped strings to one
//! byte buffer and hands the buffer over as the finished `String`; no
//! value is rendered into a temporary first. An integer's digits are
//! counted, then written into the buffer's spare capacity two at a time;
//! a string that needs no escaping is copied through in one piece; and the
//! finished buffer becomes the `String` without a UTF-8 re-scan — each
//! byte is written once, which is what lets the trace exporters run at
//! memory speed. Every rendering is a pure function of its input (plain
//! `Display` floats, fixed-width fractions), so identical inputs yield
//! byte-identical output.
//!
//! [`fmt_us`] and [`fmt_f64`] are the same routines returning a fresh
//! `String`, for table cells and other one-off values.

use std::io::Write as _;

/// `"00" "01" … "99"`: the two ASCII digits of every value below 100.
const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
      2021222324252627282930313233343536373839\
      4041424344454647484950515253545556575859\
      6061626364656667686970717273747576777879\
      8081828384858687888990919293949596979899";

/// An append-only JSON text buffer. Every value method takes the literal
/// text that precedes the value (`,"tid":`, usually) and returns
/// `&mut Self`, so one object reads as one chain of key-value appends.
#[derive(Debug, Default)]
pub struct Writer {
    /// Only ever extended with whole `&str`s and ASCII, so it is UTF-8 at
    /// every step; [`Writer::finish`] relies on that without re-checking.
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer with room for `bytes`. The 2 MiB-aligned interior
    /// of a buffer this large (the trace exporters' hold tens of MB) is
    /// hinted to transparent huge pages: written front to back once, it
    /// would otherwise take a minor fault per 4 KiB page, which was about
    /// half of a Chrome export's time.
    pub fn with_capacity(bytes: usize) -> Self {
        let buf = Vec::with_capacity(bytes);
        #[cfg(all(target_os = "linux", not(miri)))]
        advise_huge_pages(&buf);
        Self { buf }
    }

    /// Append `s` verbatim (structure, keys, pre-rendered values).
    #[inline]
    pub fn raw(&mut self, s: &str) -> &mut Self {
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Append the separator ahead of element `i` of an array or object:
    /// a comma, except before the first.
    #[inline]
    pub fn comma(&mut self, i: usize) -> &mut Self {
        self.raw(if i > 0 { "," } else { "" })
    }

    /// Append `pre`, then `v` in decimal (what `to_string` prints).
    #[inline]
    pub fn uint(&mut self, pre: &str, v: impl Into<u64>) -> &mut Self {
        self.raw(pre).digits(v.into())
    }

    /// Append `pre`, then nanoseconds as a fixed-3-decimal microsecond
    /// literal (`1234567` → `1234.567`), the unit Chrome's trace viewer
    /// expects for `ts`/`dur`. The point and the three fraction digits
    /// are one 4-byte append.
    #[inline]
    pub fn us(&mut self, pre: &str, ns: u64) -> &mut Self {
        let frac = (ns % 1000) as usize;
        let pair = frac % 100 * 2;
        self.raw(pre).digits(ns / 1000).buf.extend_from_slice(&[
            b'.',
            b'0' + (frac / 100) as u8,
            PAIRS[pair],
            PAIRS[pair + 1],
        ]);
        self
    }

    /// Append `pre`, then `v` in lower-case hex, zero-padded to `width`
    /// digits (`{:x}` at width 1, `{:016x}` at 16).
    pub fn hex(&mut self, pre: &str, mut v: u64, width: usize) -> &mut Self {
        let mut tmp = [b'0'; 16];
        let mut i = tmp.len();
        while v > 0 {
            i -= 1;
            tmp[i] = b"0123456789abcdef"[(v & 15) as usize];
            v >>= 4;
        }
        let start = i.min(tmp.len() - width.clamp(1, tmp.len()));
        self.raw(pre).buf.extend_from_slice(&tmp[start..]);
        self
    }

    /// Append `pre`, then a float as a JSON number: shortest round-trip
    /// `Display`, `0` for NaN and ±inf (which JSON cannot represent).
    pub fn float(&mut self, pre: &str, v: f64) -> &mut Self {
        if v.is_finite() {
            write!(self.raw(pre).buf, "{v}").expect("writing to a Vec cannot fail");
            self
        } else {
            self.raw(pre).raw("0")
        }
    }

    /// Append `pre`, then `s` in quotes as it is — for the exporters'
    /// static labels (`"mutex"`, `"isend"`), which hold nothing to escape.
    #[inline]
    pub fn label(&mut self, pre: &str, s: &str) -> &mut Self {
        self.raw(pre).raw("\"").raw(s).raw("\"")
    }

    /// Append `pre`, then `s` as a JSON string: quotes around
    /// [`Writer::escaped`].
    pub fn string(&mut self, pre: &str, s: &str) -> &mut Self {
        self.raw(pre).raw("\"").escaped(s).raw("\"")
    }

    /// Append `s` escaped for the inside of JSON double quotes. Runs of
    /// bytes that need no escaping (all of `s`, usually) are copied in
    /// one piece.
    pub fn escaped(&mut self, s: &str) -> &mut Self {
        let mut rest = s;
        // The bytes that stop a run are ASCII, so every cut below falls
        // on a character boundary.
        while let Some(i) = rest
            .bytes()
            .position(|b| b < 0x20 || b == b'"' || b == b'\\')
        {
            self.raw(&rest[..i]);
            match rest.as_bytes()[i] {
                b'"' => self.raw("\\\""),
                b'\\' => self.raw("\\\\"),
                b'\n' => self.raw("\\n"),
                b'\r' => self.raw("\\r"),
                b'\t' => self.raw("\\t"),
                b => self.hex("\\u", u64::from(b), 4),
            };
            rest = &rest[i + 1..];
        }
        self.raw(rest)
    }

    /// The finished text, handed over without a second pass over it.
    pub fn finish(self) -> String {
        debug_assert!(std::str::from_utf8(&self.buf).is_ok());
        // SAFETY: every append is a whole `&str` (`raw`, `escaped`'s
        // runs), ASCII (`digits`, `hex`, `float`'s `Display`) or a copy of
        // whole earlier appends (`repeat`), so `buf` is UTF-8 at every
        // step — `tests::any_append_sequence_is_the_reference_text`
        // checks it over arbitrary call sequences.
        unsafe { String::from_utf8_unchecked(self.buf) }
    }

    /// Bytes written so far: where the next append starts.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Append a copy of bytes `range` already written (whole appends, so
    /// the copy is UTF-8 too).
    pub(crate) fn repeat(&mut self, range: std::ops::Range<usize>) -> &mut Self {
        self.buf.extend_from_within(range);
        self
    }

    /// `v` in decimal: the length is counted first, then the digits are
    /// written straight into the spare capacity, two per division, from
    /// the back — each byte once.
    #[inline]
    fn digits(&mut self, mut v: u64) -> &mut Self {
        let n = v.checked_ilog10().map_or(1, |d| d as usize + 1);
        self.buf.reserve(n);
        let out = self.buf.spare_capacity_mut().as_mut_ptr().cast::<u8>();
        let pairs = PAIRS.as_ptr();
        let mut i = n;
        // SAFETY: `reserve` made room for `n` bytes at `out`, and `n` is
        // the digit count of `v`: each pair taken off the back moves `i`
        // down by 2 while `v` keeps at least one more digit, so the loop
        // leaves `i` at 2 or 1 for the last one or two digits, written at
        // `out`. Every write lands in `..n` and together they cover it, so
        // `set_len` exposes only initialised bytes. A pair index is below
        // 200, inside `PAIRS`.
        unsafe {
            while v >= 100 {
                let pair = (v % 100) as usize * 2;
                v /= 100;
                i -= 2;
                out.add(i).copy_from_nonoverlapping(pairs.add(pair), 2);
            }
            if v >= 10 {
                out.copy_from_nonoverlapping(pairs.add(v as usize * 2), 2);
            } else {
                out.write(b'0' + v as u8);
            }
            self.buf.set_len(self.buf.len() + n);
        }
        self
    }
}

/// `madvise(MADV_HUGEPAGE)` over the 2 MiB-aligned interior of `buf`'s
/// allocation; nothing when the interior is empty. The result is ignored:
/// it is a hint, and with transparent huge pages off nothing changes.
#[cfg(all(target_os = "linux", not(miri)))]
fn advise_huge_pages(buf: &Vec<u8>) {
    use std::ffi::{c_int, c_void};
    // A libc symbol std already links; declared here because the
    // workspace builds offline without the `libc` crate.
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    const MADV_HUGEPAGE: c_int = 14;
    const HUGE_PAGE: usize = 2 << 20;
    let start = buf.as_ptr() as usize;
    let lo = start.next_multiple_of(HUGE_PAGE);
    let hi = (start + buf.capacity()) / HUGE_PAGE * HUGE_PAGE;
    if lo < hi {
        // SAFETY: `lo..hi` lies inside the allocation `buf` owns, and
        // `MADV_HUGEPAGE` changes only how its pages are backed, never
        // their contents, so no byte the `Vec` holds or will hold moves.
        unsafe { madvise(lo as *mut c_void, hi - lo, MADV_HUGEPAGE) };
    }
}

/// One value rendered on its own.
fn rendered(f: impl FnOnce(&mut Writer) -> &mut Writer) -> String {
    let mut w = Writer::default();
    f(&mut w);
    w.finish()
}

/// Nanoseconds as a fixed-3-decimal microsecond literal (`"1.234"`).
pub fn fmt_us(ns: u64) -> String {
    rendered(|w| w.us("", ns))
}

/// A float as a JSON number (`0` for non-finite values).
pub fn fmt_f64(v: f64) -> String {
    rendered(|w| w.float("", v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `format!`-per-value routines the writer replaced, kept as the
    /// reference the tests compare against.
    mod old {
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

        pub fn fmt_us(ns: u64) -> String {
            format!("{}.{:03}", ns / 1000, ns % 1000)
        }

        pub fn fmt_f64(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "0".to_owned()
            }
        }
    }

    fn uint(v: u64) -> String {
        rendered(|w| w.uint("", v))
    }

    fn escape(s: &str) -> String {
        rendered(|w| w.escaped(s))
    }

    /// Arbitrary text with the escape classes over-represented: control
    /// characters, quotes, backslashes, and multi-byte UTF-8.
    fn text() -> impl Strategy<Value = String> {
        proptest::collection::vec((0u32..8, any::<u32>()), 0..48).prop_map(|picks| {
            picks
                .into_iter()
                .map(|(class, x)| match class {
                    0 => char::from(x as u8 % 0x20),
                    1 => ['"', '\\', '\n', '\r', '\t', '/', '\u{7f}'][x as usize % 7],
                    2 => char::from_u32(x % 0x11_0000).unwrap_or('\u{fffd}'),
                    3 => ['\u{e9}', '\u{2014}', '\u{1f980}'][x as usize % 3],
                    _ => char::from(b' ' + x as u8 % 95),
                })
                .collect()
        })
    }

    /// Printable ASCII, what `raw` and `label` are given.
    fn ascii() -> impl Strategy<Value = String> {
        proptest::collection::vec(b' '..0x7f, 0..12)
            .prop_map(|b| b.into_iter().map(char::from).collect())
    }

    /// One append: `(kind, value, shift, text, ascii)`.
    type Append = (u8, u64, u32, String, String);

    /// One append of every kind the writer has, on the writer and on the
    /// reference text.
    fn append(w: &mut Writer, want: &mut String, marks: &[usize], (kind, v, shift, s, a): Append) {
        let (pre, rest) = a.split_at(a.len() / 2);
        let x = v >> shift;
        match kind {
            0 => {
                w.raw(&a);
                want.push_str(&a);
            }
            1 => {
                w.label(pre, rest);
                *want += &format!("{pre}\"{rest}\"");
            }
            2 => {
                w.string(pre, &s);
                *want += &format!("{pre}\"{}\"", old::escape(&s));
            }
            3 => {
                w.uint(pre, x);
                *want += &format!("{pre}{x}");
            }
            4 => {
                w.us(pre, x);
                *want += &format!("{pre}{}", old::fmt_us(x));
            }
            5 => {
                w.hex(pre, x, 1);
                *want += &format!("{pre}{x:x}");
            }
            6 => {
                w.hex(pre, x, 16);
                *want += &format!("{pre}{x:016x}");
            }
            7 => {
                w.float(pre, f64::from_bits(x));
                *want += &format!("{pre}{}", old::fmt_f64(f64::from_bits(x)));
            }
            _ => {
                let (i, j) = (v as usize % marks.len(), (v >> 32) as usize % marks.len());
                let range = marks[i.min(j)]..marks[i.max(j)];
                w.repeat(range.clone());
                want.extend_from_within(range);
            }
        }
    }

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
        assert_eq!(rendered(|w| w.string("k:", "a\tb")), "k:\"a\\tb\"");
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
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(fmt_f64(v), "0");
        }
    }

    #[test]
    fn integers_match_to_string_at_every_digit_boundary() {
        let mut edges = vec![0, 9, 10, 99, 100, u64::MAX];
        let mut p = 10u64;
        loop {
            edges.extend([p - 1, p, p + 1]);
            match p.checked_mul(10) {
                Some(next) => p = next,
                None => break,
            }
        }
        for v in edges {
            assert_eq!(uint(v), v.to_string());
            assert_eq!(fmt_us(v), old::fmt_us(v));
            assert_eq!(rendered(|w| w.hex("", v, 1)), format!("{v:x}"));
            assert_eq!(rendered(|w| w.hex("", v, 16)), format!("{v:016x}"));
        }
    }

    #[test]
    fn calls_append_in_order() {
        let mut w = Writer::with_capacity(64);
        w.uint("{\"k\":", 7u32).string(",\"s\":", "x\"y");
        w.us(",\"t\":", 1_500).float(",\"f\":", 0.25).raw("}");
        assert_eq!(
            w.finish(),
            "{\"k\":7,\"s\":\"x\\\"y\",\"t\":1.500,\"f\":0.25}"
        );
    }

    proptest! {
        #[test]
        fn numbers_match_the_format_machinery(v in any::<u64>(), shift in 0u32..64) {
            let v = v >> shift;
            prop_assert_eq!(uint(v), v.to_string());
            prop_assert_eq!(fmt_us(v), old::fmt_us(v));
            prop_assert_eq!(rendered(|w| w.hex("", v, 1)), format!("{v:x}"));
            prop_assert_eq!(rendered(|w| w.hex("", v, 16)), format!("{v:016x}"));
            let f = f64::from_bits(v);
            prop_assert_eq!(fmt_f64(f), old::fmt_f64(f));
        }

        #[test]
        fn escaping_matches_the_per_char_routine(s in text()) {
            prop_assert_eq!(escape(&s), old::escape(&s));
            prop_assert_eq!(rendered(|w| w.string("", &s)), format!("\"{}\"", old::escape(&s)));
        }

        /// The invariant `finish` relies on instead of checking: whatever
        /// the appends, the buffer is UTF-8 and is the reference text.
        #[test]
        fn any_append_sequence_is_the_reference_text(ops in appends()) {
            appends_are_the_reference_text(Writer::default(), String::new(), ops)?;
        }

        /// The same on a buffer large enough to be hinted to huge pages,
        /// with the appends straddling a 2 MiB boundary inside the hinted
        /// range. (Miri runs no `madvise`.)
        #[test]
        #[cfg_attr(miri, ignore)]
        fn any_append_sequence_on_a_hinted_buffer_is_the_reference_text(ops in appends()) {
            let mut w = Writer::with_capacity(4 << 20);
            let start = w.buf.as_ptr() as usize;
            let filler = " ".repeat((start + 64).next_multiple_of(2 << 20) - start - 64);
            w.raw(&filler);
            appends_are_the_reference_text(w, filler, ops)?;
        }
    }

    /// Up to 24 appends of any kind.
    fn appends() -> impl Strategy<Value = Vec<Append>> {
        proptest::collection::vec((0u8..9, any::<u64>(), 0u32..64, text(), ascii()), 0..24)
    }

    /// Apply `ops` to `w` and to `want`, which holds what `w` holds.
    fn appends_are_the_reference_text(
        mut w: Writer,
        mut want: String,
        ops: Vec<Append>,
    ) -> Result<(), TestCaseError> {
        // Where each append ended: `repeat` copies whole appends.
        let mut marks = vec![w.len()];
        for op in ops {
            append(&mut w, &mut want, &marks, op);
            prop_assert_eq!(w.len(), want.len());
            marks.push(w.len());
        }
        prop_assert!(std::str::from_utf8(&w.buf).is_ok());
        prop_assert_eq!(w.finish(), want);
        Ok(())
    }
}
