//! Minimal JSON tree, writer, and parser.
//!
//! The workspace is dependency-free (the registry is unreachable), so
//! the JSON needed by metric snapshots and the bench baseline files is
//! hand-rolled: a small value enum that prints syntactically valid
//! JSON and a recursive-descent parser for reading it back. Objects
//! keep insertion order (lookup is linear — fine at the dozens-of-keys
//! scale of bench reports). Numbers are `f64`, which holds every
//! counter this system produces exactly (they stay far below 2⁵³).

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Object field lookup (None for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Parse a complete JSON document. Trailing garbage is an error;
    /// so is array/object nesting deeper than 128 levels.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

fn escape_into(out: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(out, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(out, "\\\"")?,
            '\\' => write!(out, "\\\\")?,
            '\n' => write!(out, "\\n")?,
            '\r' => write!(out, "\\r")?,
            '\t' => write!(out, "\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => write!(out, "{c}")?,
        }
    }
    write!(out, "\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.is_finite() {
                    // Rust's shortest round-trip float formatting is
                    // valid JSON as long as the value is finite.
                    write!(f, "{n}")
                } else {
                    // JSON has no Inf/NaN; degrade to null.
                    write!(f, "null")
                }
            }
            Json::Str(s) => escape_into(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Json::Obj(pairs) => {
                write!(f, "{{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    escape_into(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts (its docs
/// quote the number). The parser,
/// the printer and `Drop` all recurse once per level, and `otterd`
/// parses request lines from the socket on 2 MiB threads, so depth is
/// bounded rather than left to overflow the stack and abort the
/// process. Measured: an unoptimised build on a 2 MiB thread survives
/// 1 500 levels; nothing this system writes nests deeper than ten.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("json: {msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("bad number `{text}`")))
    }

    fn string(&mut self) -> Result<String, String> {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are out of scope for the
                            // metric names this parser reads.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in
                    // one go: ASCII delimiters are char boundaries.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..end]);
                    self.pos = end;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
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
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-1.5", "1e-7", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            let back = Json::parse(&v.to_string()).unwrap();
            assert_eq!(v, back, "{text}");
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::Num(1.0), Json::Null])),
            (
                "b \"quoted\"\n".into(),
                Json::Obj(vec![("x".into(), Json::Bool(true))]),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn lookup_helpers() {
        let v = Json::parse(r#"{"app":"cg","stats":{"median":0.5},"xs":[1,2]}"#).unwrap();
        assert_eq!(v.get("app").and_then(Json::as_str), Some("cg"));
        assert_eq!(
            v.get("stats")
                .and_then(|s| s.get("median"))
                .and_then(Json::as_num),
            Some(0.5)
        );
        assert_eq!(v.get("xs").and_then(Json::as_arr).map(|a| a.len()), Some(2));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_arr).map(|a| a.len()), Some(2));
    }

    #[test]
    fn unicode_and_escapes() {
        let v = Json::parse(r#""café — ünïcode\t""#).unwrap();
        assert_eq!(v.as_str(), Some("café — ünïcode\t"));
    }

    #[test]
    fn a_mebibyte_string_round_trips() {
        // Multi-byte UTF-8, every escape the printer writes and the
        // parser reads, and `\u` sequences, repeated past 1 MiB.
        let piece = "café — ünïcode 🦦 \" \\ / \n \r \t \u{8} \u{c} \u{1} \u{1f} plain ascii ";
        let text: String = piece.repeat((1 << 20) / piece.len() + 1);
        assert!(text.len() > 1 << 20);
        let v = Json::Arr(vec![Json::Str(text.clone()), Json::Num(1.0)]);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        let escapes = r#"\"\\\/\b\f\n\r\t\u00e9\u0041\u2014"#;
        let want = "\"\\/\u{8}\u{c}\n\r\té\u{41}—".repeat(40_000);
        let long = format!("\"{}\"", escapes.repeat(40_000));
        assert!(long.len() > 1 << 20);
        assert_eq!(Json::parse(&long).unwrap().as_str(), Some(want.as_str()));
    }

    /// Parse on the 2 MiB stack an `otterd` connection thread has.
    fn parse_on_small_stack(text: String) -> Result<Json, String> {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || Json::parse(&text))
            .unwrap()
            .join()
            .expect("parser must not overflow its stack")
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        for text in ["[".repeat(10_000), "{\"a\":".repeat(10_000)] {
            let err = parse_on_small_stack(text).unwrap_err();
            assert!(
                err.contains(&format!("nesting deeper than {MAX_DEPTH}")),
                "{err}"
            );
        }
    }

    #[test]
    fn nesting_at_the_cap_round_trips() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}1{}", "{\"a\":".repeat(n), "}".repeat(n));
        for text in [arrays(MAX_DEPTH), objects(MAX_DEPTH)] {
            let v = parse_on_small_stack(text.clone()).expect("at the cap");
            assert_eq!(v.to_string(), text);
        }
        assert!(parse_on_small_stack(arrays(MAX_DEPTH + 1)).is_err());
        assert!(parse_on_small_stack(objects(MAX_DEPTH + 1)).is_err());
    }
}
