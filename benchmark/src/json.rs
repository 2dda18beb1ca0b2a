//! Hand-rolled JSON: a value tree, a serializer and a small parser.
//!
//! The benchmark adds no dependency, so it writes its reports (and reads
//! them back in `compare` and between parent and child processes) with
//! this module. Floats are written with Rust's shortest round-trip
//! formatting, so a value read back is bit-identical to the one written.

use std::fmt::Write as _;

/// One JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// A whole number (counts, digests' halves, pass numbers).
    Int(u64),
    /// Any other number. Non-finite values serialize as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

/// Build an object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A string value.
pub fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}

impl Value {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The members of an object, in order.
    pub fn members(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(members) => members,
            _ => &[],
        }
    }

    /// The elements of an array.
    pub fn elements(&self) -> &[Value] {
        match self {
            Value::Arr(items) => items,
            _ => &[],
        }
    }

    /// Numeric value of an `Int` or `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(text) => Some(text),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serialize on one line.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Serialize with two-space indentation; arrays and objects that hold
    /// only scalars stay on one line, so a metric reads as one row.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Value::Arr(_) | Value::Obj(_))
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Num(x) if x.is_finite() => {
                // `{:?}` keeps a fraction or exponent on whole floats
                // ("2.0"), so the parser reads a `Num` back, not an `Int`.
                let _ = write!(out, "{x:?}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(text) => write_string(out, text),
            Value::Arr(items) => {
                let inner = indent.filter(|_| !items.iter().all(Value::is_scalar));
                write_seq(out, '[', ']', items.len(), inner, |out, i, ind| {
                    items[i].write(out, ind);
                });
            }
            Value::Obj(members) => {
                let inner = indent.filter(|_| !members.iter().all(|(_, v)| v.is_scalar()));
                write_seq(out, '{', '}', members.len(), inner, |out, i, ind| {
                    write_string(out, &members[i].0);
                    out.push_str(": ");
                    members[i].1.write(out, ind);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    open: char,
    close: char,
    len: usize,
    indent: Option<usize>,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        match indent {
            Some(depth) => {
                out.push('\n');
                out.push_str(&"  ".repeat(depth + 1));
            }
            None if i > 0 => out.push(' '),
            None => {}
        }
        item(out, i, indent.map(|d| d + 1));
    }
    if let (Some(depth), true) = (indent, len > 0) {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

fn write_string(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
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

/// Parse one JSON document. Errors name the byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(literal.as_bytes());
        if hit {
            self.pos += literal.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end")),
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.sequence(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(":") {
                        return Err(p.error("expected ':'"));
                    }
                    members.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Value::Obj(members))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.sequence(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) => self.number(),
        }
    }

    /// Comma-separated items up to `close` (the opener is consumed).
    fn sequence(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(c) if *c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected ',' or a closing bracket")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.error("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.bytes.get(self.pos) else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                c => out.push(c),
            }
        }
        String::from_utf8(out).map_err(|_| self.error("string is not UTF-8"))
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::Int(n));
        }
        match text.parse::<f64>() {
            Ok(x) if !text.is_empty() => Ok(Value::Num(x)),
            _ => Err(self.error("expected a value")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        obj([
            ("correct", Value::Bool(true)),
            ("attempted", Value::Int(1000)),
            ("pi", Value::Num(std::f64::consts::PI)),
            ("whole_float", Value::Num(2.0)),
            ("tiny", Value::Num(1.25e-9)),
            ("nan", Value::Num(f64::NAN)),
            ("text", s("a \"quoted\" \\ line\nwith\ttab and \u{1} and é")),
            (
                "passes",
                Value::Arr(vec![Value::Num(0.5), Value::Num(0.25)]),
            ),
            ("empty", Value::Arr(vec![])),
            (
                "nested",
                Value::Arr(vec![obj([("k", Value::Null)]), obj::<String>([])]),
            ),
        ])
    }

    #[test]
    fn writer_round_trips_through_the_parser() {
        let v = sample();
        for text in [v.to_line(), v.to_pretty()] {
            let back = parse(&text).expect("own output parses");
            // NaN is written as null; everything else is bit-identical.
            assert_eq!(back.get("nan"), Some(&Value::Null));
            assert_eq!(back.get("pi"), v.get("pi"));
            assert_eq!(back.get("whole_float"), Some(&Value::Num(2.0)));
            assert_eq!(back.get("tiny"), v.get("tiny"));
            assert_eq!(back.get("attempted").and_then(Value::as_u64), Some(1000));
            assert_eq!(back.get("text"), v.get("text"));
            assert_eq!(back.get("passes"), v.get("passes"));
            assert_eq!(back.get("nested"), v.get("nested"));
            assert_eq!(back.members().len(), v.members().len());
        }
        assert!(!v.to_line().contains('\n'), "one line stays one line");
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "\"open", "{} x", "nul", "-"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert_eq!(
            parse(" [1, -2.5e3, \"\\u0041\"] ")
                .unwrap()
                .elements()
                .len(),
            3
        );
    }
}
