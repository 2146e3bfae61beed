//! A minimal JSON value, writer, and parser.
//!
//! The offline vendor set has no serde, so campaign reports are
//! serialized by hand. Two properties matter more than generality:
//!
//! * **Deterministic bytes** — objects keep insertion order and numbers
//!   format via Rust's shortest-roundtrip `Display`, so the same report
//!   always renders the same bytes regardless of worker count.
//! * **Round-trip** — the parser accepts everything the writer emits
//!   (plus ordinary JSON), which is what the schema validator runs on.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON document node. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, emitted without a decimal point.
    Int(i64),
    /// A float, emitted via shortest-roundtrip `Display`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key→value list.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object node from ordered pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// `Some(x)` → serialized `x`; `None` → `null`.
    pub fn opt_num(v: Option<f64>) -> Json {
        v.map(Json::Num).unwrap_or(Json::Null)
    }

    /// Looks a key up in an object node.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The node as an i64 (integers only).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The node as a float (accepts integer nodes too).
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The node as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The node as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The node as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(n) => {
                if n.is_finite() {
                    // Guarantee a float token: Display drops ".0", and
                    // spells huge whole floats as long digit runs that
                    // would parse back as integers (or overflow them).
                    if n.fract() != 0.0 {
                        let _ = write!(out, "{n}");
                    } else if n.abs() < 1e15 {
                        let _ = write!(out, "{n:.1}");
                    } else {
                        let _ = write!(out, "{n:e}");
                    }
                } else {
                    out.push_str("null"); // NaN/inf are not JSON
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// The deepest array/object nesting [`parse`] accepts. Report artifacts
/// nest at most six levels; the cap keeps hostile input from exhausting
/// the stack of the recursive parser (and of every recursive walk over
/// its result).
const MAX_DEPTH: usize = 128;

/// Parses a JSON document. Errors carry a byte offset and a short reason.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'{' | b'[')) {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            let mut keys_seen: BTreeMap<String, ()> = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                if keys_seen.insert(key.clone(), ()).is_some() {
                    return Err(format!("duplicate key {key:?}"));
                }
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
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
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
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
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
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
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash. Both are
                // ASCII, so the run ends on a char boundary of the (valid
                // UTF-8) input, and decoding it costs only its own length.
                let start = *pos;
                while bytes.get(*pos).is_some_and(|&b| b != b'"' && b != b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
                out.push_str(run);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let token = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if token.is_empty() || token == "-" {
        return Err(format!("expected a value at byte {start}"));
    }
    if is_float {
        token
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {token:?}"))
    } else {
        token
            .parse::<i64>()
            .map(Json::Int)
            .map_err(|_| format!("bad integer {token:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_and_parser_round_trip() {
        let doc = Json::obj(vec![
            ("schema_version", Json::Int(1)),
            ("name", Json::Str("fig2 α=0.9 \"sweep\"".to_string())),
            ("mean_cost", Json::Num(7548.5)),
            ("whole", Json::Num(42.0)),
            ("missing", Json::Null),
            ("ok", Json::Bool(true)),
            (
                "rows",
                Json::Arr(vec![Json::Int(-3), Json::Num(0.25), Json::Arr(vec![])]),
            ),
            ("empty", Json::Obj(vec![])),
        ]);
        let text = doc.render();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn whole_floats_keep_a_decimal_point() {
        assert_eq!(Json::Num(42.0).render(), "42.0\n");
        assert_eq!(Json::Int(42).render(), "42\n");
        // Huge whole floats stay floats (and parseable) in exponent form.
        for n in [1e15, -2.5e18, 1e300, f64::MAX] {
            assert_eq!(parse(&Json::Num(n).render()), Ok(Json::Num(n)));
        }
    }

    #[test]
    fn rendering_is_deterministic() {
        let doc = Json::obj(vec![
            ("b", Json::Int(2)),
            ("a", Json::Num(1.5)),
            ("c", Json::Arr(vec![Json::Str("x".into())])),
        ]);
        assert_eq!(doc.render(), doc.render());
        // Insertion order survives, not alphabetical order.
        let text = doc.render();
        assert!(text.find("\"b\"").unwrap() < text.find("\"a\"").unwrap());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\": 1} trailing").is_err());
        assert!(parse("{\"a\": 1, \"a\": 2}").is_err(), "duplicate keys");
        assert!(parse("nul").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let parsed = parse(r#"{"s": "a\"b\néé"}"#).unwrap();
        assert_eq!(parsed.get("s").unwrap().as_str().unwrap(), "a\"b\néé");
    }

    #[test]
    fn multi_megabyte_string_documents_parse_in_linear_time() {
        // Quadratic string decoding took minutes on documents this size.
        let event = Json::obj(vec![
            ("event", Json::Str("admit".to_string())),
            (
                "detail",
                Json::Str("tenant=42 new=1 reuse=0 — ok".to_string()),
            ),
        ]);
        let doc = Json::Arr(vec![event; 40_000]);
        let text = doc.render();
        assert!(text.len() > 3_000_000, "{} bytes", text.len());
        let started = std::time::Instant::now();
        assert_eq!(parse(&text).unwrap(), doc);
        let secs = started.elapsed().as_secs_f64();
        assert!(secs < 20.0, "parsing {} bytes took {secs:.1}s", text.len());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let err = parse(&"{\"a\": ".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // The cap itself still parses.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!("[{ok}]");
        assert!(parse(&over).is_err());
    }

    #[test]
    fn accessors_work() {
        let doc = parse(r#"{"i": 3, "f": 2.5, "s": "x", "b": false, "a": [1]}"#).unwrap();
        assert_eq!(doc.get("i").unwrap().as_int(), Some(3));
        assert_eq!(doc.get("i").unwrap().as_num(), Some(3.0));
        assert_eq!(doc.get("f").unwrap().as_num(), Some(2.5));
        assert_eq!(doc.get("f").unwrap().as_int(), None);
        assert_eq!(doc.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(doc.get("nope").is_none());
    }
}
