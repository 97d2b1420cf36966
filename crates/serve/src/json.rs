//! A minimal JSON reader/writer for the serve protocol.
//!
//! The workspace is offline-vendored — no `serde` — and the protocol
//! needs exact `u64` round-trips (campaign seeds use all 64 bits, which
//! an `f64`-based parser would silently round). So numbers are kept as
//! their raw source text and converted on access, and the writer side
//! is a pair of small escape helpers plus hand-formatted objects in
//! [`crate::proto`].

use std::fmt::Write as _;

/// One parsed JSON value. Object member order is preserved (the
/// protocol's golden tests compare serialised frames byte-for-byte).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as raw source text so 64-bit integers survive.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document; trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// Returns a message with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Looks up a key in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `i64`, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The member list, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Serialises the value back to compact JSON (objects keep their
    /// member order, numbers their source text).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":", escape(k));
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escapes a string for embedding between JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    if *pos == digits_start {
        return Err(format!("expected a value at byte {start}"));
    }
    let raw = std::str::from_utf8(&bytes[start..*pos]).expect("ascii span");
    // Validate by parsing: every protocol number fits f64 or u64.
    if raw.parse::<f64>().is_err() && raw.parse::<u64>().is_err() {
        return Err(format!("malformed number `{raw}` at byte {start}"));
    }
    Ok(Json::Num(raw.to_string()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| "invalid utf-8 in string".into());
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0C),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        *pos += 4;
                        // Surrogate pairs are outside the protocol's
                        // needs; reject rather than mis-decode.
                        let c = char::from_u32(code)
                            .ok_or_else(|| format!("\\u{hex} is not a scalar value"))?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                    other => return Err(format!("unknown escape `\\{}`", *other as char)),
                }
            }
            Some(&b) => {
                out.push(b);
                *pos += 1;
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected a key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;
    use rand::Rng;

    #[test]
    fn u64_seeds_round_trip_exactly() {
        let v = Json::parse(r#"{"seed":18446744073709551615}"#).unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.render(), r#"{"seed":18446744073709551615}"#);
    }

    #[test]
    fn values_parse_and_render() {
        let text = r#"{"a":[1,2.5,-3],"b":"x\"y","c":true,"d":null,"e":{}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.render(), text);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_i64(), Some(-3));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\"y"));
        assert_eq!(v.get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("e").unwrap().as_obj().unwrap().len(), 0);
    }

    #[test]
    fn escapes_round_trip() {
        let original = "line\nbreak\ttab \"quote\" back\\slash \u{1}ctl";
        let framed = format!("\"{}\"", escape(original));
        let v = Json::parse(&framed).unwrap();
        assert_eq!(v.as_str(), Some(original));
    }

    #[test]
    fn whitespace_tolerant() {
        let v = Json::parse(" { \"k\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in
            ["", "{", "{\"a\":}", "[1,]", "truth", "\"open", "{\"a\":1}x", "nan", "{\"a\" 1}"]
        {
            assert!(Json::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    /// Characters that stress the escaper and the parser: quotes,
    /// backslashes, JSON punctuation, control characters and
    /// multi-byte UTF-8 (2, 3 and 4 bytes).
    const TRICKY: &[char] = &[
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{8}',
        '\u{c}',
        '\u{1f}',
        '\u{7f}',
        'é',
        '€',
        '\u{2028}',
        '\u{10FFFF}',
        '𝄞',
        'a',
        'u',
        '0',
        ' ',
        '{',
        '}',
        '[',
        ']',
        ',',
        ':',
    ];

    fn any_char(rng: &mut TestRng) -> char {
        loop {
            if let Some(c) = char::from_u32(rng.gen_range(0..0x11_0000u32)) {
                return c;
            }
        }
    }

    fn arb_string(rng: &mut TestRng) -> String {
        let len = rng.gen_range(0..12usize);
        (0..len)
            .map(|_| match rng.gen_range(0..3) {
                0 => TRICKY[rng.gen_range(0..TRICKY.len())],
                1 => char::from(rng.gen_range(0u8..0x20)),
                _ => any_char(rng),
            })
            .collect()
    }

    fn arb_json(rng: &mut TestRng, depth: u32) -> Json {
        match rng.gen_range(0..if depth == 0 { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen()),
            2 => Json::Num(rng.gen::<u64>().to_string()),
            3 => Json::Num(rng.gen::<i64>().to_string()),
            4 => Json::Str(arb_string(rng)),
            5 => {
                Json::Arr((0..rng.gen_range(0..4usize)).map(|_| arb_json(rng, depth - 1)).collect())
            }
            _ => Json::Obj(
                (0..rng.gen_range(0..4usize))
                    .map(|_| (arb_string(rng), arb_json(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Values of every variant, nested up to four levels.
    struct ArbJson;

    impl Strategy for ArbJson {
        type Value = Json;
        fn sample(&self, rng: &mut TestRng) -> Json {
            arb_json(rng, 4)
        }
    }

    /// Arbitrary text of at most 256 bytes, biased toward JSON so the
    /// parser gets past its first byte: half the cases are a rendered
    /// value with random characters spliced in and the tail cut at a
    /// random point (unterminated strings, escapes and containers),
    /// the rest a soup of JSON syntax, tricky and arbitrary characters.
    struct ArbText;

    impl Strategy for ArbText {
        type Value = String;
        fn sample(&self, rng: &mut TestRng) -> String {
            const SYNTAX: &[u8] = b"{}[]\",:\\-+.eE0123456789truefalsn \t\n";
            let mut chars: Vec<char> =
                if rng.gen() { arb_json(rng, 3).render().chars().collect() } else { Vec::new() };
            for _ in 0..rng.gen_range(0..8usize) {
                let c = match rng.gen_range(0..4) {
                    0 => any_char(rng),
                    1 => TRICKY[rng.gen_range(0..TRICKY.len())],
                    _ => char::from(SYNTAX[rng.gen_range(0..SYNTAX.len())]),
                };
                chars.insert(rng.gen_range(0..=chars.len()), c);
            }
            chars.truncate(rng.gen_range(0..=chars.len()));
            let mut text = String::new();
            for c in chars {
                if text.len() + c.len_utf8() > 256 {
                    break;
                }
                text.push(c);
            }
            text
        }
    }

    proptest! {
        #[test]
        fn render_then_parse_round_trips(v in ArbJson) {
            prop_assert_eq!(Json::parse(&v.render()), Ok(v));
        }

        #[test]
        fn parse_never_panics_on_arbitrary_text(text in ArbText) {
            let _ = Json::parse(&text);
        }
    }
}
