//! A minimal JSON reader/writer for the serving protocol.
//!
//! The workspace is offline (no serde); the protocol needs exactly one
//! value per line, so this is a small recursive-descent parser over the
//! full JSON grammar (objects, arrays, strings with escapes, numbers,
//! booleans, null) plus an escaping helper for output. Depth is bounded
//! so hostile input cannot blow the stack.

use std::collections::BTreeMap;

/// Maximum nesting depth accepted by the parser.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Numbers are `f64` (the protocol never needs
/// integers beyond 2⁵³).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps output deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse one complete JSON value; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Look up a key, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected {lit:?} at byte {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos, depth + 1)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
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
                        let mut code = hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        // A high surrogate escape followed by a low one is
                        // one scalar (RFC 8259 §7).
                        if (0xd800..0xdc00).contains(&code)
                            && bytes.get(*pos + 1..*pos + 3) == Some(b"\\u")
                        {
                            if let Ok(low @ 0xdc00..=0xdfff) = hex4(bytes, *pos + 3) {
                                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                *pos += 6;
                            }
                        }
                        // Lone or reversed surrogates fall back to the
                        // replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => {
                return Err(format!("raw control byte in string at {pos}", pos = *pos))
            }
            Some(&lead) => {
                // Copy one full UTF-8 scalar, decoding only its own bytes
                // (the lead byte gives the width).
                let width = match lead {
                    0x00..=0x7f => 1,
                    0xf0.. => 4,
                    0xe0.. => 3,
                    _ => 2,
                };
                let ch = bytes
                    .get(*pos..*pos + width)
                    .and_then(|scalar| std::str::from_utf8(scalar).ok())
                    .and_then(|scalar| scalar.chars().next())
                    .ok_or("invalid UTF-8 in string")?;
                out.push(ch);
                *pos += width;
            }
        }
    }
}

/// The four hex digits of a `\u` escape starting at `at`.
fn hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
    u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".into())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid number")?;
    text.parse::<f64>()
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

/// Escape a string for embedding in JSON output (adds the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format an `f32` for JSON output (`null` for non-finite values, which
/// JSON cannot represent).
pub fn num_f32(v: f32) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
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
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(
            Json::parse(r#""a\nbA""#).unwrap(),
            Json::Str("a\nbA".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"op":"score","rows":[[[0,1.5],[3,-2]]],"n":2}"#).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("score"));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(2.0));
        let rows = v.get("rows").and_then(Json::as_arr).unwrap();
        let pairs = rows[0].as_arr().unwrap();
        assert_eq!(pairs[1].as_arr().unwrap()[0].as_f64(), Some(3.0));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "tru", "{\"a\" 1}", "\"unterminated", "1 2",
            "{\"a\":}", "[1 2]", "nul", "\"bad\\q\"", "--5",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        for s in ["plain", "quote\"back\\slash", "tab\tnew\nline", "ünïcödé", "\u{1}"] {
            let escaped = escape(s);
            assert_eq!(Json::parse(&escaped).unwrap(), Json::Str(s.into()));
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 4 MB of one- to four-byte scalars (10 bytes per repeat).
        // Decoding each scalar from the whole remaining input made this
        // quadratic: hours, not milliseconds.
        let text = "aé€😀".repeat((4 << 20) / 10 + 1);
        let doc = escape(&text);
        assert!(doc.len() >= 4 << 20);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(Json::parse(&doc)).unwrap());
        let parsed = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("a 4 MB string did not parse within 20 s");
        assert_eq!(parsed.unwrap(), Json::Str(text));
    }

    #[test]
    fn escaped_surrogate_pairs_combine_into_one_scalar() {
        let parse = |doc: &str| Json::parse(doc).unwrap();
        assert_eq!(parse(r#""\ud83d\ude00""#), Json::Str("😀".into()));
        assert_eq!(parse(r#""a\uD83D\uDE00b""#), Json::Str("a😀b".into()));
        assert_eq!(parse(r#""\ud83d""#), Json::Str("\u{fffd}".into()));
        assert_eq!(parse(r#""\ude00\ud83d""#), Json::Str("\u{fffd}\u{fffd}".into()));
        assert_eq!(parse(r#""\ud83d\u0041""#), Json::Str("\u{fffd}A".into()));
        assert_eq!(parse(r#""\ud83d\ud83d\ude00""#), Json::Str("\u{fffd}😀".into()));
        assert!(Json::parse(r#""\ud83d\u12""#).is_err());
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(num_f32(f32::NAN), "null");
        assert_eq!(num_f32(f32::INFINITY), "null");
        assert_eq!(num_f32(1.25), "1.25");
    }
}
