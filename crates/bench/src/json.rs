//! Minimal JSON tree, emitter and parser (no external dependencies).
//!
//! The perf harness writes `BENCH.json` and the CI gate reads the
//! checked-in baseline back; the build container has no crates.io
//! access, so this module implements the small JSON subset both need:
//! objects, arrays, strings, finite numbers, booleans and null.
//!
//! Emission always goes through [`Json::render`], so an artifact built
//! as a [`Json`] tree is valid JSON by construction (the tests parse
//! rendered output back and require a fixpoint).

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order so rendered
/// artifacts are deterministic and diff-friendly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (JSON has no NaN/infinity).
    Num(f64),
    /// An unsigned integer that is *not* exactly representable as an
    /// `f64` (above 2^53 and off the even grid). Kept as a separate
    /// variant so device/state totals at 10⁶-campaign scale round-trip
    /// exactly instead of being rounded at an `as f64` cast. Construct
    /// via [`Json::num_u64`], which picks `Num` whenever the value is
    /// exactly representable — so existing artifacts never change.
    Int(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// Error with byte offset returned by [`Json::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem in the input.
    pub offset: usize,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid json at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Convenience constructor: a number.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not finite (JSON cannot represent it).
    #[must_use]
    pub fn num(n: f64) -> Json {
        assert!(n.is_finite(), "JSON numbers must be finite, got {n}");
        Json::Num(n)
    }

    /// Convenience constructor: a string.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor: an unsigned integer count.
    ///
    /// Values that survive an `f64` round-trip exactly become
    /// [`Json::Num`] (identical bytes to every pre-existing artifact);
    /// only values that `f64` would round — above 2^53 and between the
    /// representable even multiples — get the lossless [`Json::Int`]
    /// variant.
    #[must_use]
    pub fn num_u64(v: u64) -> Json {
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        {
            let f = v as f64;
            // `u64::MAX as f64` rounds up to 2^64; the float→int cast
            // back would *saturate* to u64::MAX and fake a match, so
            // values that round to 2^64 are excluded before the cast.
            if f < u64::MAX as f64 && f as u64 == v {
                Json::Num(f)
            } else {
                Json::Int(v)
            }
        }
    }

    /// Member of an object by key (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one. [`Json::Int`]
    /// values above 2^53 are rounded to the nearest `f64`; use
    /// [`Json::as_u64`] when exactness matters.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer, if it is one: either an
    /// [`Json::Int`], or a [`Json::Num`] holding a non-negative value
    /// with no fractional part.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        #[allow(clippy::cast_precision_loss)]
        match self {
            Json::Int(v) => Some(*v),
            // `u64::MAX as f64` rounds up to 2^64, which does not fit;
            // the strict `<` keeps the cast in range.
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders compact JSON (no insignificant whitespace).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                debug_assert!(n.is_finite());
                // Integral values print without a fraction; everything
                // else uses shortest-roundtrip f64 formatting.
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{n:.0}");
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => render_string(s, out),
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
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (one value plus trailing whitespace).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input, including arrays and
    /// objects nested deeper than [`MAX_DEPTH`] (the parser recurses
    /// once per level, so the limit is what keeps hostile input from
    /// exhausting the stack).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                offset: pos,
                reason: "trailing data".to_owned(),
            });
        }
        Ok(value)
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. Every artifact
/// this crate writes nests a handful of levels.
pub const MAX_DEPTH: usize = 128;

fn render_string(s: &str, out: &mut String) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn err(pos: usize, reason: &str) -> JsonError {
    JsonError {
        offset: pos,
        reason: reason.to_owned(),
    }
}

fn expect(bytes: &[u8], pos: &mut usize, what: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == what {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected '{}'", what as char)))
    }
}

/// Parses one value; `depth` counts the arrays and objects enclosing it.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    if depth >= MAX_DEPTH && matches!(bytes.get(*pos), Some(b'{' | b'[')) {
        return Err(err(
            *pos,
            &format!("nesting deeper than {MAX_DEPTH} levels"),
        ));
    }
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, &format!("expected '{lit}'")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut pure_digits = *pos < bytes.len() && bytes[start] != b'-';
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        if !bytes[*pos].is_ascii_digit() {
            pure_digits = false;
        }
        *pos += 1;
    }
    // qlint::allow(PN01, reason = "the loop above admits only ASCII number bytes into this span")
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ascii");
    // An unsigned integer literal that f64 would round keeps its exact
    // value via the Int variant (mirrors Json::num_u64, so
    // render∘parse stays a fixpoint). Everything else — fractions,
    // exponents, negatives, and integers f64 represents exactly —
    // parses as before.
    if pure_digits {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::num_u64(v));
        }
    }
    let n: f64 = text.parse().map_err(|_| err(start, "bad number"))?;
    if !n.is_finite() {
        return Err(err(start, "non-finite number"));
    }
    Ok(Json::Num(n))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        // Surrogates are not paired up; reject them
                        // rather than emit garbage.
                        let c = char::from_u32(code)
                            .ok_or_else(|| err(*pos, "surrogate \\u escape"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(&lead) => {
                // Consume one UTF-8 scalar, sized by its lead byte (the
                // input is a &str, so the scalar is well formed).
                let width = match lead {
                    0..=0x7f => 1,
                    0xf0.. => 4,
                    0xe0.. => 3,
                    _ => 2,
                };
                let c = bytes
                    .get(*pos..*pos + width)
                    .and_then(|b| std::str::from_utf8(b).ok())
                    .and_then(|s| s.chars().next())
                    .ok_or_else(|| err(*pos, "invalid UTF-8"))?;
                if (c as u32) < 0x20 {
                    return Err(err(*pos, "raw control character in string"));
                }
                out.push(c);
                *pos += width;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_fixpoint() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::num(1.0)),
            ("name".into(), Json::str("perf \"smoke\"\nline2")),
            ("ok".into(), Json::Bool(true)),
            ("nothing".into(), Json::Null),
            (
                "cells".into(),
                Json::Arr(vec![
                    Json::num(1200.0),
                    Json::num(0.025),
                    Json::num(-3.5e-7),
                ]),
            ),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).expect("own rendering parses");
        assert_eq!(back, doc);
        assert_eq!(back.render(), text, "render∘parse must be a fixpoint");
    }

    #[test]
    fn parses_pretty_printed_input() {
        let text = r#"
        {
            "min_ticks_per_sec": 50000.5,
            "note": "baseline",
            "tags": [ "ci", "perf" ]
        }
        "#;
        let doc = Json::parse(text).expect("whitespace tolerated");
        assert_eq!(
            doc.get("min_ticks_per_sec").and_then(Json::as_f64),
            Some(50_000.5)
        );
        assert_eq!(
            doc.get("tags").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn integral_numbers_render_without_fraction() {
        assert_eq!(Json::num(1200.0).render(), "1200");
        assert_eq!(Json::num(0.5).render(), "0.5");
        assert_eq!(Json::num(-7.0).render(), "-7");
    }

    #[test]
    fn large_integer_counts_roundtrip_exactly() {
        // 2^53 is the last contiguous f64 integer; 2^53 + 1 is the
        // first count an `as f64` cast silently rounds. Campaign
        // totals (visits across 10⁶ device-days) live beyond it.
        const EXACT: u64 = 1 << 53;
        for v in [EXACT + 1, EXACT + 123_457, u64::MAX - 1, u64::MAX] {
            let json = Json::num_u64(v);
            assert_eq!(json, Json::Int(v), "{v} is not f64-exact");
            let text = json.render();
            assert_eq!(text, v.to_string(), "raw digits, no rounding");
            let back = Json::parse(&text).expect("own rendering parses");
            assert_eq!(back.as_u64(), Some(v), "{v} must survive the trip");
            assert_eq!(back.render(), text, "fixpoint at {v}");
        }
        // Exactly representable values keep the historical Num form —
        // byte-for-byte identical artifacts.
        for v in [0u64, 1, 1_000_000, EXACT, EXACT + 2] {
            #[allow(clippy::cast_precision_loss)]
            let expected = Json::Num(v as f64);
            assert_eq!(Json::num_u64(v), expected);
            assert_eq!(Json::num_u64(v).as_u64(), Some(v));
        }
        // Parser side: a literal beyond 2^53 comes back exact too.
        let doc = Json::parse("{\"total_visits\":9007199254740993}").unwrap();
        assert_eq!(
            doc.get("total_visits").and_then(Json::as_u64),
            Some(9_007_199_254_740_993)
        );
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "tab\there \\ \"quoted\" ctrl:\u{1} nl\n";
        let rendered = Json::str(s).render();
        assert_eq!(Json::parse(&rendered).unwrap(), Json::str(s));
    }

    #[test]
    fn unicode_escape_parses() {
        assert_eq!(Json::parse("\"A\\u00e9\"").unwrap(), Json::str("A\u{e9}"));
        assert_eq!(
            Json::parse("\"caf\u{e9}\"").unwrap(),
            Json::str("caf\u{e9}")
        );
        assert!(
            Json::parse("\"\\ud800\"").is_err(),
            "lone surrogate rejected"
        );
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "\"open",
            "{} extra",
            "[1]]",
        ] {
            assert!(Json::parse(bad).is_err(), "'{bad}' should not parse");
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_numbers_rejected_at_construction() {
        let _ = Json::num(f64::NAN);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"k\":"] {
            let hostile = open.repeat(100_000);
            let e = Json::parse(&hostile).expect_err("100 000 levels must not parse");
            assert!(e.reason.contains("nesting"), "{e}");
        }
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 1)).is_err());
    }

    /// A document with every value kind, escapes and multi-byte text.
    fn sample_document() -> String {
        Json::Obj(vec![
            ("schema".to_owned(), Json::num(3.0)),
            ("note".to_owned(), Json::str("tab\t \"q\" é 日 🦀 \u{1}")),
            (
                "cells".to_owned(),
                Json::Arr(vec![
                    Json::Obj(vec![
                        ("ticks".to_owned(), Json::num_u64(u64::MAX)),
                        ("rate".to_owned(), Json::num(-1.5e-7)),
                        ("ok".to_owned(), Json::Bool(true)),
                    ]),
                    Json::Null,
                    Json::Arr(vec![Json::Arr(vec![]), Json::Obj(vec![])]),
                ]),
            ),
        ])
        .render()
    }

    proptest::proptest! {
        /// Bit flips, truncations, splices and deep-nesting prefixes of
        /// a valid document: `parse` returns, `Ok` or `Err`, and never
        /// panics. Each case applies 50 mutations.
        #[test]
        fn mutated_documents_never_panic(
            op in 0usize..4,
            a in 0usize..1_000_000,
            b in 0usize..1_000_000,
            c in 0usize..1_000_000,
        ) {
            let doc = sample_document().into_bytes();
            let n = doc.len();
            for k in 0..50 {
                let (a, b, c) = (a + 7_919 * k, b + 104_729 * k, c + 1_299_709 * k);
                // One nesting per case deep enough to overflow any stack
                // without the depth limit, the rest around it.
                let depth = if k == 0 { 100_000 + a % 100_000 } else { a % 5_000 };
                let mutated: Vec<u8> = match op {
                    0 => {
                        let mut m = doc.clone();
                        m[a % n] ^= 1 << (b % 8);
                        m
                    }
                    1 => doc[..a % (n + 1)].to_vec(),
                    2 => {
                        let (from, len, to) = (a % n, b % 64, c % (n + 1));
                        let chunk = &doc[from..(from + len).min(n)];
                        let mut m = doc[..to].to_vec();
                        m.extend_from_slice(chunk);
                        m.extend_from_slice(&doc[to..]);
                        m
                    }
                    _ => {
                        let open: &[u8] = if b % 2 == 0 { b"[" } else { b"{\"k\":" };
                        let mut m = open.repeat(depth);
                        m.extend_from_slice(&doc[..c % (n + 1)]);
                        m
                    }
                };
                let text = String::from_utf8_lossy(&mutated);
                let parsed = Json::parse(&text);
                if op == 3 && depth > MAX_DEPTH {
                    proptest::prop_assert!(parsed.is_err());
                }
            }
        }
    }
}
