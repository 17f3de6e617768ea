//! Minimal JSON reader and writer for checkpoint envelopes, artifact
//! payloads and `BENCH_sweep.json`.
//!
//! The workspace has no serde in the offline build, so this module is
//! the whole JSON layer: a small recursive-descent parser producing a
//! [`Value`] tree, the accessors and constructors artifacts use, and one
//! writer, [`render`]. Two deliberate deviations from strict JSON match
//! what Rust's float formatting emits: the bare tokens `NaN`, `inf` and
//! `-inf` parse as their f64 counterparts, so a non-finite metric
//! round-trips instead of poisoning the whole document.

use std::fmt::Write;

/// A parsed JSON value. Object keys keep insertion order; numbers are
/// all `f64`, which round-trips every integer the artifacts store
/// (counts far below 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, including the non-finite `NaN` / `inf` / `-inf` tokens.
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, keys in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks a key up in an object; `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a whole non-negative number.
    /// Integers past 2^53 come back as the nearest f64 they parsed to.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < (1u64 << 53) as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a 64-bit integer written by [`hex`].
    pub fn as_hex(&self) -> Option<u64> {
        u64::from_str_radix(self.as_str()?, 16).ok()
    }

    /// An object from `(key, value)` pairs, keys in the given order.
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Num(n as f64)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Num(n as f64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

/// A 64-bit integer as a 16-digit hex string: digests and fingerprints
/// use every bit, and JSON numbers (f64) are exact only below 2^53.
pub fn hex(n: u64) -> Value {
    Value::Str(format!("{n:016x}"))
}

/// Renders a value as JSON text in the workspace's one layout.
///
/// `decimals` gives the fixed number of decimals a number renders with
/// under its object key (array elements inherit the array's key). A
/// number it maps to `None` renders in shortest round-trip form, whole
/// numbers without a fraction, so `parse(&render(v, &|_| None)) == v`
/// bit for bit — the form checkpoints use.
///
/// Layout: an object whose values are all scalars or arrays of scalars,
/// and an array of scalars, render on one line. Any other array puts
/// one element per line; any other object puts each container member on
/// its own line and runs of consecutive scalar members on a shared line.
/// Nesting indents by two spaces.
pub fn render(value: &Value, decimals: &dyn Fn(&str) -> Option<usize>) -> String {
    let mut out = String::new();
    write_value(&mut out, value, "", 0, decimals).expect("writing to a String cannot fail");
    out
}

fn is_scalar(value: &Value) -> bool {
    !matches!(value, Value::Arr(_) | Value::Obj(_))
}

/// One-line material: scalars, arrays of scalars, and objects holding
/// only those.
fn is_flat(value: &Value) -> bool {
    match value {
        Value::Arr(items) => items.iter().all(is_scalar),
        Value::Obj(pairs) => pairs
            .iter()
            .all(|(_, v)| !matches!(v, Value::Obj(_)) && is_flat(v)),
        _ => true,
    }
}

fn write_value(
    out: &mut String,
    value: &Value,
    key: &str,
    indent: usize,
    decimals: &dyn Fn(&str) -> Option<usize>,
) -> std::fmt::Result {
    let inner = " ".repeat(indent + 2);
    match value {
        Value::Null => out.write_str("null"),
        Value::Bool(b) => write!(out, "{b}"),
        Value::Num(n) => match decimals(key) {
            Some(places) => write!(out, "{n:.places$}"),
            None if n.fract() == 0.0 => write!(out, "{n}"),
            None => write!(out, "{n:?}"),
        },
        Value::Str(s) => write!(out, "\"{}\"", escape(s)),
        Value::Arr(items) if is_flat(value) => {
            out.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                out.write_str(if i == 0 { "" } else { ", " })?;
                write_value(out, item, key, indent, decimals)?;
            }
            out.write_char(']')
        }
        Value::Arr(items) => {
            out.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                write!(out, "{}\n{inner}", if i == 0 { "" } else { "," })?;
                write_value(out, item, key, indent + 2, decimals)?;
            }
            write!(out, "\n{}]", " ".repeat(indent))
        }
        Value::Obj(pairs) if pairs.is_empty() => out.write_str("{}"),
        Value::Obj(pairs) if is_flat(value) => {
            out.write_str("{ ")?;
            for (i, (k, v)) in pairs.iter().enumerate() {
                write!(out, "{}\"{}\": ", if i == 0 { "" } else { ", " }, escape(k))?;
                write_value(out, v, k, indent, decimals)?;
            }
            out.write_str(" }")
        }
        Value::Obj(pairs) => {
            out.write_char('{')?;
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 && is_scalar(v) && is_scalar(&pairs[i - 1].1) {
                    out.write_str(", ")?;
                } else {
                    write!(out, "{}\n{inner}", if i == 0 { "" } else { "," })?;
                }
                write!(out, "\"{}\": ", escape(k))?;
                write_value(out, v, k, indent + 2, decimals)?;
            }
            write!(out, "\n{}}}", " ".repeat(indent))
        }
    }
}

/// Parses one JSON document. Returns `None` on any syntax error or on
/// trailing non-whitespace — a truncated or bit-flipped checkpoint must
/// fail loudly here, not half-parse.
pub fn parse(text: &str) -> Option<Value> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos == bytes.len() {
        Some(value)
    } else {
        None
    }
}

/// Escapes a string for embedding in JSON output.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn eat(bytes: &[u8], pos: &mut usize, token: &str) -> Option<()> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Some(())
    } else {
        None
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Option<Value> {
    skip_ws(bytes, pos);
    match bytes.get(*pos)? {
        b'n' => eat(bytes, pos, "null").map(|_| Value::Null),
        b't' => eat(bytes, pos, "true").map(|_| Value::Bool(true)),
        b'f' => eat(bytes, pos, "false").map(|_| Value::Bool(false)),
        b'N' => eat(bytes, pos, "NaN").map(|_| Value::Num(f64::NAN)),
        b'i' => eat(bytes, pos, "inf").map(|_| Value::Num(f64::INFINITY)),
        b'"' => parse_string(bytes, pos).map(Value::Str),
        b'[' => parse_array(bytes, pos),
        b'{' => parse_object(bytes, pos),
        b'-' if bytes[*pos..].starts_with(b"-inf") => {
            *pos += 4;
            Some(Value::Num(f64::NEG_INFINITY))
        }
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        _ => None,
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Option<Value> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()?
        .parse::<f64>()
        .ok()
        .map(Value::Num)
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
    if bytes.get(*pos) != Some(&b'"') {
        return None;
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Consume one UTF-8 character (the input is a &str, so
                // boundaries are valid by construction).
                let rest = std::str::from_utf8(&bytes[*pos..]).ok()?;
                let c = rest.chars().next()?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Option<Value> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Value::Arr(items));
            }
            _ => return None,
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Option<Value> {
    *pos += 1; // consume '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(Value::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return None;
        }
        *pos += 1;
        pairs.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Value::Obj(pairs));
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let doc = r#"{"a": 1.5, "b": [true, null, "x\"y"], "c": {"d": -3}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(1.5));
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[1], Value::Null);
        assert_eq!(arr[2].as_str(), Some("x\"y"));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_f64(), Some(-3.0));
    }

    #[test]
    fn non_finite_tokens_round_trip() {
        let doc = format!(
            "[{:?}, {:?}, {:?}]",
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY
        );
        let v = parse(&doc).unwrap();
        let arr = v.as_arr().unwrap();
        assert!(arr[0].as_f64().unwrap().is_nan());
        assert_eq!(arr[1].as_f64(), Some(f64::INFINITY));
        assert_eq!(arr[2].as_f64(), Some(f64::NEG_INFINITY));
    }

    #[test]
    fn shortest_float_repr_round_trips_exactly() {
        for &x in &[0.1, 1.0 / 3.0, 8377.8, 5.38, f64::MIN_POSITIVE, 1e300] {
            let doc = format!("{x:?}");
            let v = parse(&doc).unwrap();
            assert_eq!(v.as_f64().unwrap().to_bits(), x.to_bits(), "{doc}");
        }
    }

    #[test]
    fn rejects_truncated_and_trailing_garbage() {
        assert!(parse(r#"{"a": 1"#).is_none());
        assert!(parse(r#"{"a": 1} extra"#).is_none());
        assert!(parse(r#"[1, 2,"#).is_none());
        assert!(parse("").is_none());
    }

    #[test]
    fn as_usize_guards_fractions_and_negatives() {
        assert_eq!(parse("42").unwrap().as_usize(), Some(42));
        assert_eq!(parse("4.2").unwrap().as_usize(), None);
        assert_eq!(parse("-1").unwrap().as_usize(), None);
    }

    #[test]
    fn canonical_render_round_trips_bit_exactly() {
        for x in [
            0.0,
            -0.0,
            120.0,
            1.0 / 3.0,
            0.1 + 0.2,
            8377.8,
            f64::MIN_POSITIVE,
            1e300,
            -1e-300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let text = render(&Value::Arr(vec![x.into()]), &|_| None);
            let back = parse(&text).unwrap().as_arr().unwrap()[0].as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
        // Whole numbers render without a fraction, as counts read.
        assert_eq!(render(&120usize.into(), &|_| None), "120");
        assert_eq!(render(&hex(0xbeef), &|_| None), "\"000000000000beef\"");
        assert_eq!(
            parse("\"000000000000beef\"").unwrap().as_hex(),
            Some(0xbeef)
        );
    }

    #[test]
    fn render_fixes_decimals_by_key_and_lays_out_by_shape() {
        let row = Value::obj([
            ("releases", 1usize.into()),
            ("gain", 8377.8123.into()),
            ("buckets", Value::Arr(vec![2usize.into(), 0usize.into()])),
        ]);
        let doc = Value::obj([
            (
                "config",
                Value::obj([("size", 120usize.into()), ("seed", 2015usize.into())]),
            ),
            ("k", 5usize.into()),
            ("overlap", 0.5.into()),
            ("rows", Value::Arr(vec![row])),
            ("empty", Value::Arr(Vec::new())),
        ]);
        let decimals = |key: &str| match key {
            "overlap" => Some(2),
            "gain" => Some(1),
            _ => None,
        };
        let text = render(&doc, &decimals);
        assert_eq!(
            text,
            "{\n  \"config\": { \"size\": 120, \"seed\": 2015 },\n  \"k\": 5, \"overlap\": 0.50,\n  \
             \"rows\": [\n    { \"releases\": 1, \"gain\": 8377.8, \"buckets\": [2, 0] }\n  ],\n  \
             \"empty\": []\n}"
        );
        assert!(parse(&text).is_some());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "quote\" slash\\ newline\n tab\t unicode é";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(nasty));
    }
}
