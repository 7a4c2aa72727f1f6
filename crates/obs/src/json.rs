//! A minimal JSON value, writer and parser for event payloads.
//!
//! `piccolo-obs` sits *below* `piccolo` in the crate graph (core depends on obs
//! so the campaign scheduler can emit spans), so it cannot use `piccolo::json`.
//! This is a deliberately small re-statement of the same conventions for the
//! flat records the event stream carries:
//!
//! * numbers follow `piccolo::json::write_number` semantics — integral values
//!   below 2^53 print without a fractional part, everything else uses Rust's
//!   shortest round-trip `{}` formatting, non-finite values become `null`;
//! * `u64` quantities that may exceed 2^53 (timestamps, durations, counters)
//!   are carried as decimal *strings*, the workspace's lossless number codec
//!   convention (see `docs/results-schema.md`).

use std::fmt::Write as _;

/// A parsed or to-be-written JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Val>),
    /// An object, in insertion order (duplicate keys keep the first value on
    /// lookup but are preserved in order when written back).
    Obj(Vec<(String, Val)>),
}

impl Val {
    /// Object field lookup (first occurrence wins, mirroring `piccolo::json`).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Val> {
        match self {
            Val::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Val::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Val::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Reads a `u64` in either carrier: a decimal string (the lossless codec
    /// for values that may exceed 2^53) or a plain non-negative integral number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Val::Str(s) => s.parse().ok(),
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Val::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 9.0e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace), appending to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Val::Null => out.push_str("null"),
            Val::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Val::Num(n) => write_number(out, *n),
            Val::Str(s) => write_string(out, s),
            Val::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Val::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Serializes compactly into a fresh string.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Parses one JSON document (rejecting trailing garbage).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Val, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }
}

/// Writes `n` following the workspace number convention: non-finite → `null`,
/// integral below 2^53 → no fractional part, otherwise shortest round-trip.
pub fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Writes `s` as a JSON string with the escapes the grammar requires.
pub fn write_string(out: &mut String, s: &str) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Val) -> Result<Val, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Val, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Val::Null),
            Some(b't') => self.literal("true", Val::Bool(true)),
            Some(b'f') => self.literal("false", Val::Bool(false)),
            Some(b'"') => self.string().map(Val::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Val, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Val::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Val::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Val, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Val::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Val::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The scanned run is valid UTF-8: the input is a &str and the run
            // boundary bytes above are all ASCII.
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 in string at offset {start}"))?,
            );
            match self.peek() {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| {
                                    format!("truncated \\u escape at offset {}", self.pos)
                                })?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at offset {}", self.pos))?;
                            // Surrogates never appear in this writer's output;
                            // map them to the replacement character on read.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Val, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii run");
        text.parse::<f64>()
            .map(Val::Num)
            .map_err(|_| format!("bad number at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_compact_documents() {
        let doc = r#"{"a":1,"b":"x\ny","c":[true,null,-2.5],"d":{"k":"18446744073709551615"}}"#;
        let v = Val::parse(doc).unwrap();
        assert_eq!(v.to_json(), doc);
        assert_eq!(v.get("a").and_then(Val::as_num), Some(1.0));
        assert_eq!(v.get("b").and_then(Val::as_str), Some("x\ny"));
        assert_eq!(
            v.get("d").and_then(|d| d.get("k")).and_then(Val::as_u64),
            Some(u64::MAX)
        );
    }

    #[test]
    fn numbers_follow_the_workspace_convention() {
        let mut s = String::new();
        write_number(&mut s, 3.0);
        write_number(&mut s, f64::NAN);
        assert_eq!(s, "3null");
        let mut s = String::new();
        write_number(&mut s, 0.15);
        assert_eq!(s, "0.15");
        assert_eq!(Val::parse("0.15").unwrap(), Val::Num(0.15));
    }

    #[test]
    fn control_characters_escape_and_parse_back() {
        let v = Val::Str("a\u{1}b\"c\\d".to_string());
        let text = v.to_json();
        assert_eq!(text, "\"a\\u0001b\\\"c\\\\d\"");
        assert_eq!(Val::parse(&text).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Val::parse("{").is_err());
        assert!(Val::parse(r#"{"a":}"#).is_err());
        assert!(Val::parse("[1,2,]x").is_err());
        assert!(Val::parse("01a").is_err());
        assert!(Val::parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn duplicate_keys_resolve_to_the_first_occurrence() {
        let v = Val::parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get("k").and_then(Val::as_num), Some(1.0));
        assert_eq!(
            v.to_json(),
            r#"{"k":1,"k":2}"#,
            "both pairs are written back"
        );
    }

    #[test]
    fn u64_reads_both_carriers() {
        assert_eq!(Val::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Val::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Val::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Val::parse(r#""12""#).unwrap().as_u64(), Some(12));
    }
}
