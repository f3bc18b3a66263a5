//! Minimal JSON emit/parse used by the JSONL trace sink, the run
//! manifest and [`bench`](crate::bench) files.
//!
//! The workspace's vendored `serde` is a marker-trait stub (see
//! `vendor/README.md`), so the telemetry layer carries its own writer and
//! a small recursive-descent parser. The parser exists for *consumers* of
//! traces — the golden tests and the CI schema-sanity check re-read every
//! emitted line through it — not for configuration.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
///
/// Numbers are kept as `f64`; every number the telemetry layer emits
/// (span ids, microsecond timestamps, counter values) stays well inside
/// the 2^53 exact-integer range.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; insertion order is preserved by the `BTreeMap` key
    /// order, which is fine for look-ups.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member access for objects (`None` otherwise).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }
}

/// Escapes `s` into `out` as a JSON string literal (with quotes).
pub fn write_escaped(out: &mut String, s: &str) {
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

/// Writes a JSON number: finite values verbatim, non-finite as `null`
/// (JSON has no NaN/Inf; a damaged metric must not damage the trace).
pub fn write_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Incremental `{...}` writer for one JSONL line or manifest fragment.
///
/// Keys are written in call order; the caller is responsible for key
/// uniqueness.
#[derive(Debug)]
pub struct ObjWriter {
    buf: String,
    first: bool,
}

impl ObjWriter {
    /// Starts an object.
    pub fn new() -> Self {
        ObjWriter {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        write_escaped(&mut self.buf, k);
        self.buf.push(':');
    }

    /// Writes a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        write_escaped(&mut self.buf, v);
        self
    }

    /// Writes a numeric field.
    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        write_num(&mut self.buf, v);
        self
    }

    /// Writes an unsigned-integer field.
    pub fn uint(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Writes a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Writes a field whose value is already rendered JSON.
    pub fn raw(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(json);
        self
    }

    /// Closes the object and returns the rendered string.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for ObjWriter {
    fn default() -> Self {
        ObjWriter::new()
    }
}

/// Parses one complete JSON document (with nothing but whitespace around
/// it).
///
/// # Errors
///
/// Returns a position-annotated message for the first syntax error or
/// for nesting deeper than `MAX_DEPTH` (128) levels.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a bound a body of `[` characters would
/// overflow the stack instead of returning an error.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
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

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    /// Parses one container level, refusing to nest past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                            let start = self.pos + 1;
                            let hex = self
                                .bytes
                                .get(start..start + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-utf8 \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            // Surrogates never appear in our own output;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one full UTF-8 scalar.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| "non-utf8 string content".to_string())?;
                    let c = s.chars().next().ok_or("empty string tail")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_and_orders_fields() {
        let mut o = ObjWriter::new();
        o.str("msg", "a \"b\"\nc\\")
            .num("x", 1.5)
            .uint("id", 42)
            .bool("ok", true)
            .raw("arr", "[1,2]");
        let line = o.finish();
        assert_eq!(
            line,
            r#"{"msg":"a \"b\"\nc\\","x":1.5,"id":42,"ok":true,"arr":[1,2]}"#
        );
        // Round trip.
        let v = parse(&line).unwrap();
        assert_eq!(v.get("msg").unwrap().as_str().unwrap(), "a \"b\"\nc\\");
        assert_eq!(v.get("id").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("x").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let mut o = ObjWriter::new();
        o.num("bad", f64::NAN).num("inf", f64::INFINITY);
        let line = o.finish();
        assert_eq!(line, r#"{"bad":null,"inf":null}"#);
        assert!(parse(&line).is_ok());
    }

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#" {"a":[1,-2.5e1,null],"b":{"c":false},"d":"A"} "#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Num(1.0),
                JsonValue::Num(-25.0),
                JsonValue::Null
            ]))
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Bool(false)));
        assert_eq!(v.get("d").unwrap().as_str(), Some("A"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} garbage").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
        // Nesting is bounded: the limit parses, one more level errors
        // (and a 10 KB run of brackets errors instead of overflowing).
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
        assert!(parse(&"[".repeat(10_000)).is_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), JsonValue::Obj(BTreeMap::new()));
        assert_eq!(parse("[]").unwrap(), JsonValue::Arr(Vec::new()));
    }
}
