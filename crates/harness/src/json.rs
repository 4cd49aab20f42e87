//! A tiny JSON serializer.
//!
//! The workspace needs exactly one serialization direction — Rust report
//! structs out to JSON artifacts (run and fleet reports, trace exports) —
//! and nothing else a full serde stack provides. This module is that one
//! direction: an explicit [`Json`] tree, deterministic rendering (object
//! keys keep insertion order, numbers render via Rust's shortest
//! round-trip formatting), and a [`ToJson`] trait report types implement
//! by hand. No derive machinery, no external crates.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (rendered exactly; never goes through `f64`).
    U64(u64),
    /// A signed integer (rendered exactly).
    I64(i64),
    /// A floating-point number. Non-finite values render as `null` since
    /// JSON has no representation for them.
    F64(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved so output is deterministic.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input where the failure was detected.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl Json {
    /// Build an object from `(key, value)` pairs, preserving order.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Build an array by converting each element with [`ToJson`].
    pub fn arr<T: ToJson>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(|x| x.to_json()).collect())
    }

    /// Render to a compact JSON string (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Parse a JSON document (the inverse of [`Json::render`]).
    ///
    /// Accepts any standard JSON text. Integers without a fraction,
    /// exponent, or overflow parse to [`Json::U64`] / [`Json::I64`];
    /// everything else numeric becomes [`Json::F64`]. Object key order is
    /// kept as written, so `parse(render(x)) == x` for trees the
    /// serializer can emit (non-finite floats excluded — they render as
    /// `null`).
    ///
    /// Arrays and objects nest at most [`MAX_DEPTH`] levels deep; a
    /// deeper document is a [`ParseError`] naming the limit, never a stack
    /// overflow.
    pub fn parse(input: &str) -> Result<Json, ParseError> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Append the compact rendering to `out` ([`Json::render`] without
    /// the fresh `String`).
    pub fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => write_u64(*n, out),
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => write_f64(*x, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Append `n` exactly as [`Json::U64`] renders it. The `write_*`
/// functions are the renderer's own leaf routines, public so that a
/// writer streaming many small objects straight into one `String` (the
/// trace exporters) cannot drift from the tree rendering by a byte.
pub fn write_u64(n: u64, out: &mut String) {
    let _ = write!(out, "{n}");
}

/// Append `x` exactly as [`Json::F64`] renders it (`null` when not
/// finite).
pub fn write_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Append `s` as a quoted, escaped JSON string — exactly as
/// [`Json::Str`] and object keys render.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts: far
/// past anything the serializers emit, far short of the stack the
/// recursive descent would need to overflow.
pub const MAX_DEPTH: u32 = 128;

/// Recursive-descent parser over the raw input bytes. JSON's grammar is
/// LL(1), so one byte of lookahead (`peek`) is all the machinery needed.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: u32,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, ParseError>) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code =
                                        0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(code)
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    if b < 0x20 {
                        return Err(self.err("unescaped control character in string"));
                    }
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(b) => {
                    // Consume one multi-byte UTF-8 scalar. The input is a
                    // &str and `pos` only ever advances by whole scalars, so
                    // the leading byte gives the sequence length directly.
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return Err(self.err("bad utf-8")),
                    };
                    let end = self.pos + len;
                    let s = std::str::from_utf8(&self.bytes[self.pos..end])
                        .map_err(|_| self.err("bad utf-8"))?;
                    out.push(s.chars().next().unwrap());
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("expected digit"));
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // The scan above is permissive; `str::parse` below enforces the
        // exact numeric grammar and rejects shapes like `1.2.3`.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !fractional {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::I64(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) => Ok(Json::F64(x)),
            Err(_) => {
                self.pos = start;
                Err(self.err("invalid number"))
            }
        }
    }
}

/// Conversion into a [`Json`] tree — the hand-written replacement for
/// `#[derive(Serialize)]`.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::U64(*self)
    }
}

impl ToJson for u32 {
    fn to_json(&self) -> Json {
        Json::U64(u64::from(*self))
    }
}

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        Json::I64(*self)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::U64(*self as u64)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render_exactly() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::U64(u64::MAX).render(), "18446744073709551615");
        assert_eq!(Json::I64(-42).render(), "-42");
        assert_eq!(Json::F64(0.134).render(), "0.134");
        assert_eq!(Json::F64(1.0).render(), "1");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::Str("plain".into()).render(), "\"plain\"");
        assert_eq!(
            Json::Str("a\"b\\c\nd\te\u{1}".into()).render(),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\""
        );
        assert_eq!(Json::Str("µs → done".into()).render(), "\"µs → done\"");
    }

    #[test]
    fn containers_render_in_order() {
        let j = Json::obj([
            ("name", Json::Str("fig9".into())),
            ("erases", Json::U64(13400)),
            ("series", Json::Arr(vec![Json::U64(1), Json::U64(2), Json::U64(3)])),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(
            j.render(),
            r#"{"name":"fig9","erases":13400,"series":[1,2,3],"empty":[]}"#
        );
    }

    #[test]
    fn to_json_blanket_impls_compose() {
        let v: Vec<u64> = vec![7, 8];
        assert_eq!(v.to_json().render(), "[7,8]");
        assert_eq!(Some("x").to_json().render(), "\"x\"");
        assert_eq!(Option::<u64>::None.to_json().render(), "null");
        assert_eq!(Json::arr(["a", "b"]).render(), r#"["a","b"]"#);
    }

    #[test]
    fn parse_round_trips_serializer_output() {
        let j = Json::obj([
            ("name", Json::Str("fig9 µs\n\"quoted\"".into())),
            ("erases", Json::U64(u64::MAX)),
            ("delta", Json::I64(-17)),
            ("ratio", Json::F64(0.134)),
            ("flag", Json::Bool(false)),
            ("none", Json::Null),
            (
                "series",
                Json::Arr(vec![Json::U64(1), Json::F64(2.5), Json::Str("x".into())]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let text = j.render();
        let back = Json::parse(&text).expect("round-trip parse");
        assert_eq!(back, j);
        assert_eq!(back.render(), text);
    }

    #[test]
    fn parse_accepts_whitespace_and_escapes() {
        let j = Json::parse(" { \"a\" : [ 1 ,\t-2, 3.5e2 ] ,\n \"b\" : \"\\u0041\\ud83d\\ude00\" } ")
            .unwrap();
        assert_eq!(
            j,
            Json::Obj(vec![
                (
                    "a".into(),
                    Json::Arr(vec![Json::U64(1), Json::I64(-2), Json::F64(350.0)])
                ),
                ("b".into(), Json::Str("A😀".into())),
            ])
        );
    }

    #[test]
    fn parse_number_variants() {
        assert_eq!(Json::parse("0").unwrap(), Json::U64(0));
        assert_eq!(Json::parse("18446744073709551615").unwrap(), Json::U64(u64::MAX));
        assert_eq!(Json::parse("-9223372036854775808").unwrap(), Json::I64(i64::MIN));
        assert_eq!(Json::parse("1.0").unwrap(), Json::F64(1.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::F64(1000.0));
        // Magnitudes past the integer types degrade to f64 rather than fail.
        assert!(matches!(Json::parse("18446744073709551616").unwrap(), Json::F64(_)));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "", "tru", "[1,", "{\"a\":}", "{\"a\" 1}", "\"open", "01x", "1.2.3",
            "[1] trailing", "{\"a\":1,}",
        ] {
            assert!(Json::parse(bad).is_err(), "expected parse failure for {bad:?}");
        }
        let err = Json::parse("[1, @]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    /// `depth` nested arrays, or objects, around a leaf.
    fn nested(depth: usize, objects: bool) -> String {
        if objects {
            format!("{}0{}", "{\"a\":".repeat(depth), "}".repeat(depth))
        } else {
            format!("{}{}", "[".repeat(depth), "]".repeat(depth))
        }
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let limit = MAX_DEPTH as usize;
        for objects in [false, true] {
            assert!(Json::parse(&nested(limit, objects)).is_ok());
            for depth in [limit + 1, 100_000] {
                let err = Json::parse(&nested(depth, objects)).unwrap_err();
                assert!(err.message.contains("deeper than 128 levels"), "{err}");
                assert_eq!(err.offset, limit * if objects { 5 } else { 1 });
            }
        }
        // Unclosed, as a truncated or hostile document would be.
        let err = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.message.contains("128 levels"), "{err}");
    }

    /// Fragments a hostile document is made of: structure, lone and
    /// mismatched surrogates, numbers past every integer type and past
    /// `f64`, broken literals and escapes.
    const HOSTILE: [&str; 30] = [
        "[", "]", "{", "}", ":", ",", " ", "\"", "\"a\"", "\\", "\"\\ud800\"", "\"\\udc00\"",
        "\"\\ud800\\u0041\"", "\"\\ud800x\"", "\"\\u12\"", "\"\\uzzzz\"", "\"\\q\"", "\"é\"",
        "18446744073709551616", "-9223372036854775809", "1e999", "-1e-999", "-", "1.", ".5",
        "01", "true", "nul", "null", "\u{1}",
    ];

    crate::harness_proptest! {
        #![config(cases = 512)]
        /// Token soup, truncated documents and nesting at the limit ± 1:
        /// `Json::parse` answers `Ok` or `Err`, never a panic.
        #[test]
        fn parse_answers_hostile_input_with_ok_or_err(
            soup in crate::prop::vec(0..HOSTILE.len(), 0..40),
            cut in 0usize..64,
            depth in (MAX_DEPTH as usize - 1)..(MAX_DEPTH as usize + 2),
            objects in crate::prop::any::<bool>(),
        ) {
            let text: String = soup.iter().map(|&t| HOSTILE[t]).collect();
            let _ = Json::parse(&text);

            // Every proper prefix of an object is incomplete.
            let doc = Json::obj([
                ("s", Json::Str("µ\"\n".into())),
                ("n", Json::Arr(vec![Json::U64(u64::MAX), Json::I64(-1), Json::F64(0.5)])),
            ])
            .render();
            let cut = (0..=cut.min(doc.len())).rev().find(|&i| doc.is_char_boundary(i)).unwrap_or(0);
            crate::prop_assert_eq!(Json::parse(&doc[..cut]).is_ok(), cut == doc.len());

            crate::prop_assert_eq!(Json::parse(&nested(depth, objects)).is_ok(), depth <= MAX_DEPTH as usize);
        }
    }

    #[test]
    fn large_u64_survives_exactly() {
        // The reason Json has integer variants: 2^63 + 3 is not
        // representable in f64.
        let n = (1u64 << 63) + 3;
        assert_eq!(Json::U64(n).render(), format!("{n}"));
    }
}
