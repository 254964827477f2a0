//! A tiny flat-JSON parser for `/run` request bodies.
//!
//! The cell spec grammar is deliberately small: one object whose values are
//! strings, non-negative integers or booleans — no nesting, no arrays, no
//! floats — or, for the batch form, exactly
//! `{"cells":[<flat object>, …]}` (one level of array, each element a flat
//! object). Anything else is a parse error (and therefore an HTTP 400),
//! never a panic. Response bodies are built by hand (integer-only), so this
//! is the only JSON *reading* the daemon does.

/// One parsed value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// A JSON string.
    Str(String),
    /// A non-negative integer.
    Int(u64),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer value, if this is an integer.
    #[must_use]
    pub fn as_int(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses a flat JSON object into `(key, value)` pairs in document order.
///
/// # Errors
///
/// Returns a human-readable message on any deviation from the flat-object
/// grammar (which the server surfaces as a 400).
pub fn parse_object(text: &str) -> Result<Vec<(String, Value)>, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let pairs = p.flat_object()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing bytes after object".into());
    }
    Ok(pairs)
}

/// A parsed `/run` body: one flat cell spec, or the batch form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunBody {
    /// `{<cell spec>}` — a single flat object.
    Single(Vec<(String, Value)>),
    /// `{"cells":[{<cell spec>}, …]}` — the batch form.
    Batch(Vec<Vec<(String, Value)>>),
}

/// Parses a `/run` body: a flat cell-spec object, or the batch form
/// `{"cells":[<flat object>, …]}` (detected by its single `cells` key).
///
/// # Errors
///
/// Returns a human-readable message on any deviation from either grammar.
pub fn parse_run_body(text: &str) -> Result<RunBody, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    p.expect(b'{')?;
    p.skip_ws();
    // Peek the first key: only `"cells":[` selects the batch form; any
    // other shape re-parses from the top as a flat object.
    if p.peek() == Some(b'"') {
        if let Ok(key) = p.string() {
            p.skip_ws();
            if key == "cells" && p.peek() == Some(b':') {
                p.pos += 1;
                p.skip_ws();
                if p.peek() == Some(b'[') {
                    return parse_batch_tail(&mut p);
                }
            }
        }
    }
    parse_object(text).map(RunBody::Single)
}

/// Parses `[{…}, …]}` after `{"cells":` and checks nothing trails.
fn parse_batch_tail(p: &mut Parser<'_>) -> Result<RunBody, String> {
    p.expect(b'[')?;
    let mut cells = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b']') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            cells.push(p.flat_object()?);
            p.skip_ws();
            match p.next() {
                Some(b',') => {}
                Some(b']') => break,
                _ => return Err("expected `,` or `]` in cells array".into()),
            }
        }
    }
    p.skip_ws();
    p.expect(b'}')?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing bytes after object".into());
    }
    Ok(RunBody::Batch(cells))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            _ => Err(format!("expected `{}`", want as char)),
        }
    }

    /// One flat `{...}` object starting at the current position.
    fn flat_object(&mut self) -> Result<Vec<(String, Value)>, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(pairs);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.next() {
                Some(b',') => {}
                Some(b'}') => return Ok(pairs),
                _ => return Err("expected `,` or `}` in object".into()),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    _ => return Err("unsupported string escape".into()),
                },
                Some(b) if b < 0x20 => return Err("control byte in string".into()),
                Some(b) => {
                    // Re-assemble UTF-8 sequences byte by byte.
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or("invalid UTF-8 in string")?;
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err("truncated UTF-8 in string".into());
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    out.push_str(s);
                    self.pos = end;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'0'..=b'9') => {
                let start = self.pos;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
                    return Err("floats are not accepted".into());
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Value::Int)
                    .ok_or_else(|| "integer out of range".into())
            }
            Some(b't') if self.bytes[self.pos..].starts_with(b"true") => {
                self.pos += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if self.bytes[self.pos..].starts_with(b"false") => {
                self.pos += 5;
                Ok(Value::Bool(false))
            }
            _ => Err("expected a string, integer or boolean value".into()),
        }
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7f => Some(1),
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_cell_spec() {
        let pairs = parse_object(
            r#"{ "workload": "mcf", "arm": "sr", "scale": "full", "insts": 5000, "store": true }"#,
        )
        .unwrap();
        assert_eq!(pairs.len(), 5);
        assert_eq!(pairs[0], ("workload".into(), Value::Str("mcf".into())));
        assert_eq!(pairs[3], ("insts".into(), Value::Int(5000)));
        assert_eq!(pairs[4], ("store".into(), Value::Bool(true)));
    }

    #[test]
    fn empty_object_and_escapes() {
        assert!(parse_object("{}").unwrap().is_empty());
        let pairs = parse_object(r#"{"a":"x\"y\\z\n"}"#).unwrap();
        assert_eq!(pairs[0].1, Value::Str("x\"y\\z\n".into()));
    }

    #[test]
    fn rejects_what_the_grammar_excludes() {
        for bad in [
            "",
            "[]",
            "{",
            r#"{"a"}"#,
            r#"{"a":1.5}"#,
            r#"{"a":-1}"#,
            r#"{"a":{}}"#,
            r#"{"a":[1]}"#,
            r#"{"a":null}"#,
            r#"{"a":1}x"#,
            r#"{"a":"\q"}"#,
            r#"{"a":99999999999999999999999}"#,
        ] {
            assert!(parse_object(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn utf8_survives() {
        let pairs = parse_object(r#"{"a":"héllo ⚙"}"#).unwrap();
        assert_eq!(pairs[0].1, Value::Str("héllo ⚙".into()));
    }

    #[test]
    fn run_body_single_falls_through_to_flat_object() {
        let body = parse_run_body(r#"{"workload":"mcf","insts":5000}"#).unwrap();
        let RunBody::Single(pairs) = body else { panic!("expected single") };
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0], ("workload".into(), Value::Str("mcf".into())));
    }

    #[test]
    fn run_body_batch_parses_cells_array() {
        let body = parse_run_body(
            r#"{ "cells": [ {"workload":"mcf"}, {"workload":"art","arm":"sr","insts":9} ] }"#,
        )
        .unwrap();
        let RunBody::Batch(cells) = body else { panic!("expected batch") };
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0], vec![("workload".into(), Value::Str("mcf".into()))]);
        assert_eq!(cells[1][2], ("insts".into(), Value::Int(9)));
        let RunBody::Batch(empty) = parse_run_body(r#"{"cells":[]}"#).unwrap() else {
            panic!("expected batch")
        };
        assert!(empty.is_empty());
    }

    #[test]
    fn run_body_rejects_malformed_batches() {
        for bad in [
            r#"{"cells":[}"#,
            r#"{"cells":[{"a":1},]}"#,
            r#"{"cells":[{"a":1}]"#,
            r#"{"cells":[{"a":1}],"extra":1}"#,
            r#"{"cells":[[]]}"#,
            r#"{"cells":[{"a":{}}]}"#,
            r#"{"cells":[{"a":1}]}x"#,
        ] {
            assert!(parse_run_body(bad).is_err(), "should reject: {bad}");
        }
        // A non-array `cells` value is an ordinary flat object.
        let RunBody::Single(pairs) = parse_run_body(r#"{"cells":3}"#).unwrap() else {
            panic!("expected single")
        };
        assert_eq!(pairs[0], ("cells".into(), Value::Int(3)));
    }
}
