//! A dependency-free JSON tree: builder, renderer, and parser.
//!
//! The build environment is fully offline (no serde), so the
//! observability layer — metrics reports, trace sinks, and the bench
//! harness's `BENCH_*.json` emitters — shares this minimal implementation.
//! It covers exactly the JSON subset those producers and their validators
//! need: objects with ordered keys, arrays, strings, finite numbers,
//! booleans, and null.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (integers render without a fractional part).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved on render.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object (builder entry point).
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds (or appends — keys are not deduplicated) a field to an
    /// object; panics on non-objects, which is always a programmer error.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The keys of an object, in order.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Two-space-indented rendering (for files meant to be diffed).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        let pad = |out: &mut String, n: usize| out.push_str(&"  ".repeat(n));
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    pad(out, indent + 1);
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    pad(out, indent + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
            other => other.write(out),
        }
    }

    /// Parses a JSON document (must consume the whole input). Arrays and
    /// objects nested deeper than [`MAX_DEPTH`] are refused.
    pub fn parse(src: &str) -> Result<Json, String> {
        let bytes = src.as_bytes();
        let mut pos = 0;
        let v = parse_value(src, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(if x.is_finite() { x } else { 0.0 })
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}
impl From<u32> for Json {
    fn from(x: u32) -> Json {
        Json::Num(x.into())
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<i64> for Json {
    fn from(x: i64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

fn write_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push('0'); // JSON has no NaN/Inf; producers never emit them
    } else if x == x.trunc() && x.abs() < 9.0e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

/// The deepest array/object nesting [`Json::parse`] accepts. Protocol
/// frames and reports nest a handful of levels; the cap keeps one hostile
/// line from overflowing the parsing thread's stack.
pub const MAX_DEPTH: usize = 128;

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected '{lit}' at offset {pos}"))
    }
}

fn parse_value(src: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let b = src.as_bytes();
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at offset {pos}"));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(b, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(src, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(src, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(src, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let value = parse_value(src, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(_) => parse_number(b, pos).map(Json::Num),
    }
}

fn parse_string(src: &str, pos: &mut usize) -> Result<String, String> {
    let b = src.as_bytes();
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash in one
                // step; both are ASCII, so the run ends on a char boundary.
                let run = b[*pos..].iter().position(|&c| c == b'"' || c == b'\\');
                let end = run.map_or(b.len(), |n| *pos + n);
                out.push_str(src.get(*pos..end).ok_or("invalid UTF-8")?);
                *pos = end;
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < b.len()
        && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|x| x.is_finite())
        .ok_or_else(|| format!("bad number at offset {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_render_roundtrip() {
        let doc = Json::obj()
            .set("schema", "x/v1")
            .set("n", 42u64)
            .set("pi", 3.5)
            .set("ok", true)
            .set("none", Json::Null)
            .set("tags", vec![Json::from("a"), Json::from("b\n\"c\"")]);
        let compact = doc.render();
        assert!(compact.contains("\"n\":42"), "{compact}");
        assert!(compact.contains("\\n\\\"c\\\""), "{compact}");
        let back = Json::parse(&compact).unwrap();
        assert_eq!(back, doc);
        let back = Json::parse(&doc.pretty()).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn accessors() {
        let doc = Json::parse(r#"{"a": [1, 2.5], "s": "hi", "b": false}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(doc.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(doc.get("b"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(doc.keys(), vec!["a", "s", "b"]);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::from(7u64).render(), "7");
        assert_eq!(Json::from(-3i64).render(), "-3");
        assert_eq!(Json::from(0.25).render(), "0.25");
    }

    #[test]
    fn unicode_and_escapes_survive() {
        let s = "héllo \u{1}\t∆";
        let rendered = Json::Str(s.into()).render();
        assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some(s));
        assert_eq!(
            Json::parse(r#""Aé""#).unwrap().as_str(),
            Some("Aé")
        );
    }

    #[test]
    fn nesting_past_the_cap_is_refused_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let nest = |n: usize, open: &str, close: &str| open.repeat(n) + "0" + &close.repeat(n);
        assert!(Json::parse(&nest(MAX_DEPTH, "[", "]")).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 1, "[", "]")).is_err());
        assert!(Json::parse(&nest(MAX_DEPTH, r#"{"a":"#, "}")).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 1, r#"{"a":"#, "}")).is_err());
    }

    #[test]
    fn a_mebibyte_string_of_mixed_widths_round_trips() {
        // 1-, 2-, 3- and 4-byte chars plus both escaped ASCII characters.
        let unit = "ab\"c\\dé€😀\n";
        let s = unit.repeat((1 << 20) / unit.len() + 1);
        assert!(s.len() >= 1 << 20);
        let rendered = Json::Str(s.clone()).render();
        assert_eq!(Json::parse(&rendered), Ok(Json::Str(s)));
    }

    #[test]
    fn hostile_text_never_panics_the_parser() {
        let mut fragments: Vec<&str> = concat!(
            r#"{ } [ ] : , " \ \u \u12 \ud800 \u00e9 \uzzzz \q "k": "a" "\u00" "#,
            r#"true fals null 0 - -0 1e999 -1e999 1.5e-300 9007199254740993 .5 1. +1 1e "#,
            r#"é € 😀 [1,2] {"a":[true,null]}"#,
        )
        .split(' ')
        .collect();
        fragments.extend([" ", "\n", "\u{1}"]);
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        let mut accepted = 0;
        for case in 0..20_000 {
            let mut text: String = (0..next() % 12)
                .map(|_| fragments[next() % fragments.len()])
                .collect();
            if case % 100 == 0 {
                // Past the nesting cap, around an otherwise valid value.
                let depth = MAX_DEPTH - 1 + next() % 3;
                text = "[".repeat(depth) + "0" + &"]".repeat(depth);
            }
            if let Ok(doc) = Json::parse(&text) {
                accepted += 1;
                assert_eq!(Json::parse(&doc.render()).as_ref(), Ok(&doc), "{text:?}");
                assert_eq!(Json::parse(&doc.pretty()).as_ref(), Ok(&doc), "{text:?}");
            }
        }
        assert!(accepted > 500, "only {accepted} documents accepted");
    }
}
