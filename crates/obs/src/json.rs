//! JSON: the workspace's one document type, string escaper and parser.
//!
//! The offline build has no registry access, so instead of `serde_json`
//! every machine-readable artifact (`summary.json`, every serve-endpoint
//! response body, the Chrome trace, the metrics and flight-recorder
//! dumps) is written through this module, and every JSON document the
//! workspace reads (a trace handed to `tracetool validate-trace`, a
//! peer's `/v1/cluster/*` reply) is read by [`Json::parse`].
//!
//! Writing is deterministic: fields render in insertion order, floats
//! through `format!("{}")` (shortest roundtrip representation), making
//! artifacts byte-comparable across runs — the property the serve
//! cache's warm-equals-cold guarantee rests on. The hand-laid dumps in
//! [`crate::trace`], [`mod@crate::metrics`] and [`mod@crate::flight`]
//! keep their own line layouts but escape strings through
//! [`escape_into`].
//!
//! Reading is recursive descent, bounded at [`MAX_DEPTH`] levels of
//! nesting so that outside input cannot overflow the stack. Integers
//! read back as [`Json::U64`] (or [`Json::I64`] when negative), anything
//! with a fraction or exponent as [`Json::F64`]; so `parse(pretty(v))
//! == v` for every value whose floats have a fractional part (an
//! integral float prints as an integer and reads back as one).

use std::fmt;

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. No
/// document the workspace writes nests past about six.
pub const MAX_DEPTH: usize = 128;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a field (object values only; panics otherwise).
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("field() on non-object"),
        }
        self
    }

    /// Render with 2-space indentation, the layout `serde_json::to_string_pretty`
    /// used for the seed's artifacts.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => {
                if v.is_finite() {
                    out.push_str(&v.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, depth, "[]", items, |out, item| {
                item.write(out, depth + 1)
            }),
            Json::Obj(fields) => write_seq(out, depth, "{}", fields, |out, (k, v)| {
                write_str(out, k);
                out.push_str(": ");
                v.write(out, depth + 1);
            }),
        }
    }
}

/// `items` one per line at `depth + 1` between `brackets`, or the bare
/// brackets when there are none.
fn write_seq<T>(
    out: &mut String,
    depth: usize,
    brackets: &str,
    items: &[T],
    item: impl Fn(&mut String, &T),
) {
    let (open, close) = brackets.split_at(1);
    out.push_str(open);
    for (i, x) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        indent(out, depth + 1);
        item(out, x);
    }
    if !items.is_empty() {
        out.push('\n');
        indent(out, depth);
    }
    out.push_str(close);
}

/// A quoted, escaped string literal.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    // Writing to a `String` cannot fail.
    let _ = escape_into(out, s);
    out.push('"');
}

/// Write `s` escaped for the inside of a JSON string literal (no quotes):
/// a backslash before `"` and `\`, the short escapes for newline,
/// carriage return and tab, `\u00XX` for every other control character,
/// and everything else as is. The workspace's one string escaper.
pub fn escape_into<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    Ok(())
}

/// Displays a string through [`escape_into`], for the dumps that lay out
/// their lines with `format!`.
pub struct Escaped<'a>(pub &'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        escape_into(f, self.0)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(v as u64)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::I64(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

impl Json {
    /// Parse one JSON document (surrounding whitespace allowed). Errors
    /// name what was expected and the byte offset; nesting deeper than
    /// [`MAX_DEPTH`] is an error, not a stack overflow.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing content"));
        }
        Ok(v)
    }

    /// The value of field `key` (the first, if repeated) of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Recursive descent over the bytes of one document.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!(
                        "JSON nested too deeply (more than {MAX_DEPTH} levels)"
                    )));
                }
                self.pos += 1;
                self.depth += 1;
                let v = if open == b'[' {
                    self.seq(b']', Parser::value).map(Json::Arr)
                } else {
                    self.seq(b'}', Parser::field).map(Json::Obj)
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// The comma-separated `item`s of an array or object up to and
    /// including `close`; `pos` just past the opening bracket.
    fn seq<T>(
        &mut self,
        close: u8,
        item: fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return Err(self.err(&format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    /// One `"key": value` member of an object.
    fn field(&mut self) -> Result<(String, Json), String> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.eat(b':')?;
        Ok((key, self.value()?))
    }

    fn lit(&mut self, word: &str, val: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(val)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.pos += 1;
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.pos += 1;
        }
        let s = &self.text[start..self.pos];
        if !s.contains(['.', 'e', 'E']) {
            if let Ok(v) = s.parse() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = s.parse() {
                return Ok(Json::I64(v));
            }
        }
        s.parse().map(Json::F64).map_err(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash. Both are
            // ASCII, so the run starts and ends on character boundaries.
            let start = self.pos;
            while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => self.escape(&mut out)?,
            }
        }
    }

    /// One backslash escape, `pos` at the backslash.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
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
                let code = self
                    .text
                    .get(self.pos + 1..self.pos + 5)
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| self.err("bad \\u escape"))?;
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                self.pos += 4;
            }
            _ => return Err(self.err("bad escape")),
        }
        self.pos += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_pretty() {
        let doc = Json::obj()
            .field("name", "x\"y")
            .field("n", 3u64)
            .field("ok", true)
            .field("items", vec![Json::U64(1), Json::U64(2)]);
        let s = doc.pretty();
        assert!(s.contains("\"name\": \"x\\\"y\""));
        assert!(s.contains("\"items\": [\n    1,\n    2\n  ]"));
        assert!(s.starts_with("{\n") && s.ends_with("}"));
    }

    #[test]
    fn empty_containers_inline() {
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        assert_eq!(Json::obj().pretty(), "{}");
    }

    /// xorshift64*: a seeded stream for the property below (`obs` has no
    /// dependencies, so no `simrng`).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Every escape, every control character, DEL, the replacement
    /// character, two- three- and four-byte scalars, and plain text.
    fn string(rng: &mut Rng) -> String {
        const SPECIAL: &[char] = &[
            '"', '\\', '/', '\n', '\r', '\t', '\u{7f}', 'é', '€', '😀', '\u{fffd}', 'a', 'Z', ' ',
        ];
        (0..rng.below(12))
            .map(|_| match rng.below(3) {
                0 => char::from_u32(rng.below(0x20) as u32).unwrap(),
                _ => SPECIAL[rng.below(SPECIAL.len() as u64) as usize],
            })
            .collect()
    }

    /// A finite float with a fractional part: big, small and ordinary
    /// magnitudes, both signs.
    fn float(rng: &mut Rng) -> f64 {
        loop {
            let v = match rng.below(3) {
                0 => f64::from_bits(rng.next()),
                1 => (rng.next() as i64) as f64 / 1024.0,
                _ => rng.below(1_000_000) as f64 / 1000.0 - 500.0,
            };
            if v.is_finite() && v.fract() != 0.0 {
                return v;
            }
        }
    }

    fn value(rng: &mut Rng, depth: u32) -> Json {
        let kinds = if depth == 0 { 6 } else { 8 };
        match rng.below(kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 1),
            2 => Json::U64(match rng.below(3) {
                0 => u64::MAX,
                1 => rng.below(1000),
                _ => rng.next(),
            }),
            3 => Json::I64(match rng.below(3) {
                0 => i64::MIN,
                1 => -1 - rng.below(1000) as i64,
                _ => (rng.next() | 1 << 63) as i64,
            }),
            4 => Json::F64(float(rng)),
            5 => Json::Str(string(rng)),
            6 => Json::Arr((0..rng.below(4)).map(|_| value(rng, depth - 1)).collect()),
            _ => Json::Obj(
                (0..rng.below(4))
                    .map(|_| (string(rng), value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn parse_inverts_pretty() {
        for seed in 1..=500u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let v = value(&mut rng, 6);
            let text = v.pretty();
            assert_eq!(Json::parse(&text).as_ref(), Ok(&v), "seed {seed}: {text}");
        }
    }

    #[test]
    fn integral_floats_read_back_as_integers() {
        assert_eq!(Json::parse(&Json::F64(12.0).pretty()), Ok(Json::U64(12)));
        assert_eq!(Json::parse(&Json::F64(-3.0).pretty()), Ok(Json::I64(-3)));
        assert_eq!(
            Json::parse(&Json::F64(1e300).pretty()),
            Ok(Json::F64(1e300))
        );
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nested too deeply"), "{err}");
        let err = Json::parse(&"{\"a\":".repeat(200_000)).unwrap_err();
        assert!(err.contains("nested too deeply"), "{err}");
        let err = Json::parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nested too deeply"), "{err}");
    }

    #[test]
    fn malformed_documents_are_errors() {
        for bad in [
            "",
            "nul",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "\"open",
            "\"\\x\"",
            "\"\\u12\"",
            "1 2",
            "-",
            "1e",
            "[1] x",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn reads_fields_numbers_and_escapes() {
        let doc = Json::parse(
            " {\"n\": 7, \"neg\": -2, \"f\": 0.5, \"s\": \"a\\u0041\\/\", \"l\": [1, 2]} ",
        )
        .unwrap();
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("neg").and_then(Json::as_u64), None);
        assert_eq!(doc.get("neg").and_then(Json::as_f64), Some(-2.0));
        assert_eq!(doc.get("f").and_then(Json::as_f64), Some(0.5));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("aA/"));
        assert_eq!(
            doc.get("l").and_then(Json::as_array),
            Some(&[Json::U64(1), Json::U64(2)][..])
        );
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::U64(1).get("n"), None);
    }

    #[test]
    fn escaped_displays_like_the_writer() {
        let s = "q\"b\\n\n\u{1}é";
        assert_eq!(format!("\"{}\"", Escaped(s)), Json::from(s).pretty());
    }

    #[test]
    fn float_rendering_is_deterministic() {
        assert_eq!(Json::F64(0.5).pretty(), "0.5");
        assert_eq!(Json::F64(f64::NAN).pretty(), "null");
        assert_eq!(Json::F64(12.0).pretty(), "12");
    }
}
