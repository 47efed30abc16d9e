//! A minimal JSON parser for validating the tool's own reports.
//!
//! The lint renderers emit JSON and SARIF by hand (no external
//! crates, per the workspace's zero-dependency rule); this module is the
//! matching reader so tests can structurally validate what was emitted —
//! round-tripping through a real parser catches escaping and nesting bugs
//! that string assertions cannot.
//!
//! Supports exactly the JSON the renderers produce: objects, arrays,
//! strings with `\"` `\\` `\/` `\b` `\f` `\n` `\r` `\t` `\uXXXX` escapes,
//! numbers (integer, fraction, exponent), booleans and null. Parsing is
//! total — any malformed input yields `Err`, never a panic.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always parsed as `f64`).
    Num(f64),
    /// A string, escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// Object keys are sorted (BTreeMap) — key order is not significant
    /// in JSON and a stable order simplifies assertions.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(src: &str) -> Result<Json, String> {
        let bytes = src.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(src, bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Array view.
    pub fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// String view.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Number view.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Nested lookup: `j.path(&["runs", "0", "tool"])` — numeric segments
    /// index arrays.
    pub fn path(&self, segments: &[&str]) -> Option<&Json> {
        let mut cur = self;
        for seg in segments {
            cur = match cur {
                Json::Obj(m) => m.get(*seg)?,
                Json::Arr(v) => v.get(seg.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(cur)
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while bytes
        .get(*pos)
        .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
    {
        *pos += 1;
    }
}

fn parse_value(src: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
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
                let key = match parse_value(src, bytes, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let val = parse_value(src, bytes, pos)?;
                map.insert(key, val);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(arr));
            }
            loop {
                arr.push(parse_value(src, bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(arr));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(src, bytes, pos).map(Json::Str),
        Some(b't') => expect_lit(src, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect_lit(src, pos, "false").map(|()| Json::Bool(false)),
        Some(b'n') => expect_lit(src, pos, "null").map(|()| Json::Null),
        Some(_) => parse_number(src, bytes, pos),
    }
}

fn expect_lit(src: &str, pos: &mut usize, lit: &str) -> Result<(), String> {
    if src.get(*pos..*pos + lit.len()) == Some(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}"))
    }
}

fn parse_string(src: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = src
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        // Surrogates are not emitted by the renderers;
                        // map them to the replacement char rather than
                        // failing (totality over fidelity here).
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x80 => {
                out.push(b as char);
                *pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8: copy the whole char.
                let ch = src[*pos..]
                    .chars()
                    .next()
                    .ok_or_else(|| "invalid UTF-8 boundary".to_string())?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_number(src: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while bytes
        .get(*pos)
        .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    src[start..*pos]
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_structures() {
        let j = Json::parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}}"#).unwrap();
        assert_eq!(j.path(&["a", "1"]).and_then(Json::num), Some(2.5));
        assert_eq!(j.path(&["a", "2"]).and_then(Json::num), Some(-300.0));
        assert_eq!(j.path(&["b", "c"]), Some(&Json::Bool(true)));
        assert_eq!(j.path(&["b", "d"]), Some(&Json::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        let j = Json::parse(r#""quote \" slash \\ nl \n tab \t uni A""#).unwrap();
        assert_eq!(j.str(), Some("quote \" slash \\ nl \n tab \t uni A"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"open", "{\"a\" 1}", "tru", "1 2", "{'a': 1}"] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn utf8_passthrough() {
        let j = Json::parse("\"héllo → wörld\"").unwrap();
        assert_eq!(j.str(), Some("héllo → wörld"));
    }
}
