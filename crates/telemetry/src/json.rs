//! The workspace's one JSON module: a parser into [`Json`] values and
//! the [`Writer`] every artifact is rendered through.
//!
//! The writer alone decides string escaping, the number rule (a
//! non-finite float is written as `0`: NaN and infinities are not
//! JSON), indentation and where commas and separators go. A document
//! states only its field order and the [`Layout`] of each container.
//! Output is appended straight into one `String`; no value allocates
//! its own. Both halves are hand-rolled: the workspace builds offline,
//! without serde.

use std::fmt::{self, Write as _};

// ---------------------------------------------------------------- writer

/// How a container lays out its members; each artifact picks one per
/// container, so its bytes stay fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One member per line, indented two spaces per nesting level; an
    /// empty container still closes on its own line.
    Block,
    /// One member per line without indentation (the Perfetto event list).
    Rows,
    /// `{"k": v, "k": v}` and `[a, b]` on one line.
    Line,
    /// [`Layout::Line`] with a space inside non-empty braces: `{ "k": v }`.
    Spaced,
    /// No spaces at all: `{"k":v}` and `[a,b]`.
    Tight,
}

/// Appends one JSON document to a `String`. Containers are written by
/// closures ([`Writer::object`], [`Writer::array`]), so they balance.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// Layout of the innermost open container (`None` at the top level).
    layout: Option<Layout>,
    /// The innermost container has a member already.
    started: bool,
    /// How many containers are open.
    depth: usize,
    /// A key was just written, so the next value needs no separator.
    after_key: bool,
}

/// A value the [`Writer`] can emit.
pub trait WriteJson {
    /// Write `self` as the next value.
    fn write_json(&self, w: &mut Writer);
}

/// Render one top-level [`Layout::Block`] object — the shape of every
/// report artifact — followed by the closing newline.
pub fn document(body: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::default();
    w.object(Layout::Block, body);
    w.finish()
}

impl Writer {
    /// End the document with a newline and return it.
    pub fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }

    /// Separator and line break before the next member.
    fn member(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let Some(layout) = self.layout else {
            return;
        };
        let first = !std::mem::replace(&mut self.started, true);
        if !first {
            self.out.push(',');
            if matches!(layout, Layout::Line | Layout::Spaced) {
                self.out.push(' ');
            }
        }
        self.line_break(layout, first);
    }

    /// What follows an opening bracket or a comma (`pad`: the container
    /// is non-empty), or precedes a closing bracket.
    fn line_break(&mut self, layout: Layout, pad: bool) {
        match layout {
            Layout::Block => {
                self.out.push('\n');
                self.out.extend(std::iter::repeat_n(' ', 2 * self.depth));
            }
            Layout::Rows => self.out.push('\n'),
            Layout::Spaced if pad => self.out.push(' '),
            _ => {}
        }
    }

    fn container(&mut self, layout: Layout, brackets: [char; 2], body: impl FnOnce(&mut Self)) {
        self.member();
        self.out.push(brackets[0]);
        let parent = self.layout.replace(layout);
        let parent_started = std::mem::replace(&mut self.started, false);
        self.depth += 1;
        body(self);
        self.depth -= 1;
        let started = std::mem::replace(&mut self.started, parent_started);
        self.layout = parent;
        self.line_break(layout, started);
        self.out.push(brackets[1]);
    }

    /// An object whose members `body` writes.
    pub fn object(&mut self, layout: Layout, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(layout, ['{', '}'], body);
        self
    }

    /// An array whose elements `body` writes.
    pub fn array(&mut self, layout: Layout, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(layout, ['[', ']'], body);
        self
    }

    /// An array of `items`.
    pub fn list<T: WriteJson>(
        &mut self,
        layout: Layout,
        items: impl IntoIterator<Item = T>,
    ) -> &mut Self {
        self.array(layout, |w| items.into_iter().for_each(|v| v.write_json(w)))
    }

    /// The next object member's key; its value follows.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.key_parts(&[key])
    }

    /// A key written as the concatenation of `parts` (`["queue_wait",
    /// "_ps"]`), without building it first.
    pub fn key_parts(&mut self, parts: &[&str]) -> &mut Self {
        self.member();
        self.out.push('"');
        parts.iter().for_each(|p| escape_into(&mut self.out, p));
        self.out.push('"');
        self.out.push(':');
        if self.layout != Some(Layout::Tight) {
            self.out.push(' ');
        }
        self.after_key = true;
        self
    }

    /// One value.
    pub fn value(&mut self, v: impl WriteJson) -> &mut Self {
        v.write_json(self);
        self
    }

    /// A key and its value.
    pub fn field(&mut self, key: &str, v: impl WriteJson) -> &mut Self {
        self.key(key).value(v)
    }

    /// A key and its value, written only when `v` is `Some`.
    pub fn field_some(&mut self, key: &str, v: Option<impl WriteJson>) -> &mut Self {
        match v {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    /// A bare token: a number, `true`/`false` or `null`.
    fn token(&mut self, v: impl fmt::Display) {
        self.member();
        let _ = write!(self.out, "{v}");
    }
}

/// Write fields of `$src` (or, without `$src`, local variables) as
/// members keyed by their own names, in the order listed, and yield the
/// writer: `json_fields!(w, self; delta_r, delta_p)` is
/// `w.field("delta_r", &self.delta_r).field("delta_p", &self.delta_p)`.
#[macro_export]
macro_rules! json_fields {
    ($w:expr; $($f:ident),+ $(,)?) => {{
        let w: &mut $crate::json::Writer = $w;
        $(w.field(stringify!($f), &$f);)+
        w
    }};
    ($w:expr, $src:expr; $($f:ident),+ $(,)?) => {{
        let (w, src): (&mut $crate::json::Writer, _) = ($w, $src);
        $(w.field(stringify!($f), &src.$f);)+
        w
    }};
}

/// Implement [`WriteJson`] for a struct written as a [`Layout::Block`]
/// object of the listed fields: `json_object!(Cell; seed, scale)`.
#[macro_export]
macro_rules! json_object {
    ($t:ty; $($f:ident),+ $(,)?) => {
        impl $crate::json::WriteJson for $t {
            fn write_json(&self, w: &mut $crate::json::Writer) {
                w.object($crate::json::Layout::Block, |w| {
                    $crate::json_fields!(w, self; $($f),+);
                });
            }
        }
    };
}

/// Append `s` with JSON string escaping: quote, backslash, `\n`, `\t`,
/// `\r`, other control characters as `\u00XX`; everything else verbatim.
fn escape_into(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(i) = rest
        .bytes()
        .position(|b| b < 0x20 || b == b'"' || b == b'\\')
    {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

impl WriteJson for str {
    fn write_json(&self, w: &mut Writer) {
        w.member();
        w.out.push('"');
        escape_into(&mut w.out, self);
        w.out.push('"');
    }
}

impl WriteJson for String {
    fn write_json(&self, w: &mut Writer) {
        self.as_str().write_json(w);
    }
}

/// The one number rule: finite floats in Rust's shortest round-trip
/// form, anything else as `0`.
impl WriteJson for f64 {
    fn write_json(&self, w: &mut Writer) {
        w.token(if self.is_finite() { *self } else { 0.0 });
    }
}

macro_rules! tokens {
    ($($t:ty),*) => {$(
        impl WriteJson for $t {
            fn write_json(&self, w: &mut Writer) {
                w.token(self);
            }
        }
    )*};
}
tokens!(bool, u32, u64, i64, usize);

/// `None` is `null`.
impl<T: WriteJson> WriteJson for Option<T> {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Some(v) => v.write_json(w),
            None => w.token("null"),
        }
    }
}

impl<T: WriteJson + ?Sized> WriteJson for &T {
    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w);
    }
}

// ---------------------------------------------------------------- parser

/// Deepest `[`/`{` nesting [`Json::parse`] accepts. The workspace's own
/// documents nest at most seven levels; the bound keeps hostile input
/// from exhausting the stack.
pub const MAX_DEPTH: usize = 256;

/// A parsed JSON value (minimal recursive-descent parser; enough for
/// report files — no serde offline).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (f64; report integers stay exact below 2^53).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse `text`; `Err` carries a byte offset and message.
    pub fn parse(text: &str) -> Result<Json, String> {
        let b = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(b, &mut pos, 0)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    /// Object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Walk a dotted path of object keys (`"model.sched_overhead_ps"`).
    pub fn path(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        for key in path.split('.') {
            cur = cur.get(key)?;
        }
        Some(cur)
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array, if this is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'{' | b'[')) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            let mut members = Vec::new();
            items(b, pos, b'}', |b, pos| {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                members.push((key, parse_value(b, pos, depth + 1)?));
                Ok(())
            })?;
            Ok(Json::Obj(members))
        }
        Some(b'[') => {
            let mut elems = Vec::new();
            items(b, pos, b']', |b, pos| {
                elems.push(parse_value(b, pos, depth + 1)?);
                Ok(())
            })?;
            Ok(Json::Arr(elems))
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(_) => {
            for (word, v) in [
                ("true", Json::Bool(true)),
                ("false", Json::Bool(false)),
                ("null", Json::Null),
            ] {
                if b[*pos..].starts_with(word.as_bytes()) {
                    *pos += word.len();
                    return Ok(v);
                }
            }
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            s.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number '{s}' at byte {start}"))
        }
    }
}

/// The comma-separated items of the array or object whose opening
/// bracket is at `pos`, up to its `close` bracket; `item` parses one.
fn items(
    b: &[u8],
    pos: &mut usize,
    close: u8,
    mut item: impl FnMut(&[u8], &mut usize) -> Result<(), String>,
) -> Result<(), String> {
    *pos += 1;
    skip_ws(b, pos);
    if b.get(*pos) == Some(&close) {
        *pos += 1;
        return Ok(());
    }
    loop {
        item(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(&c) if c == close => {
                *pos += 1;
                return Ok(());
            }
            _ => {
                return Err(format!(
                    "expected ',' or '{}' at byte {}",
                    close as char, *pos
                ))
            }
        }
    }
}

/// The four hex digits of a `\u` escape starting at `at`.
fn hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let hex = b
        .get(at..at + 4)
        .ok_or_else(|| "truncated \\u escape".to_string())?;
    u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
        .map_err(|e| e.to_string())
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = hex4(b, *pos + 1)?;
                        *pos += 4;
                        // A high surrogate followed by a low one is one
                        // astral character (how JSON encoders write
                        // e.g. emoji); a lone surrogate stays U+FFFD.
                        if (0xd800..0xdc00).contains(&code) && b[*pos + 1..].starts_with(b"\\u") {
                            if let Ok(low @ 0xdc00..=0xdfff) = hex4(b, *pos + 3) {
                                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                *pos += 6;
                            }
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            _ => {
                // A run of plain characters, up to the next quote or escape.
                let run = b[*pos..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .unwrap_or(b.len() - *pos);
                let chunk = &b[*pos..*pos + run];
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *pos += run;
            }
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_nulls_and_rejects_garbage() {
        let v = Json::parse(r#"{"a": "x\n\"y\"", "b": null, "c": [1, -2.5e1]}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_str), Some("x\n\"y\""));
        assert_eq!(v.get("b"), Some(&Json::Null));
        assert_eq!(
            v.path("c").and_then(Json::as_arr).unwrap()[1].as_f64(),
            Some(-25.0)
        );
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    #[test]
    fn parser_bounds_the_nesting_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        // Far past the bound: an error, not a stack overflow.
        assert!(Json::parse(&nested(100_000)).is_err());
        let objects = format!(
            "{}1{}",
            r#"{"k":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects)
            .unwrap_err()
            .contains("nesting deeper"));
    }

    #[test]
    fn parser_joins_surrogate_pairs() {
        let v = Json::parse(r#"["😀", "a\ud83d", "\ude00b", "\ud83dA"]"#).unwrap();
        let s: Vec<_> = v
            .as_arr()
            .unwrap()
            .iter()
            .map(|j| j.as_str().unwrap())
            .collect();
        assert_eq!(s, ["\u{1f600}", "a\u{fffd}", "\u{fffd}b", "\u{fffd}A"]);
        assert!(Json::parse(r#""\ud83d\uZZZZ""#).is_err());
    }

    #[test]
    fn writer_layouts_escaping_and_number_rule() {
        let mut w = Writer::default();
        w.array(Layout::Rows, |w| {
            w.object(Layout::Tight, |w| {
                w.field("a", 1u64)
                    .key_parts(&["q\"", "_x"])
                    .list(Layout::Tight, [0.5, f64::NAN]);
            })
            .object(Layout::Line, |w| {
                w.field("s", "t\u{1}\n").field("n", None::<u64>);
            })
            .object(Layout::Spaced, |w| {
                w.field("b", true);
            })
            .object(Layout::Spaced, |_| {})
            .object(Layout::Block, |w| {
                w.key("e").object(Layout::Block, |_| {});
            });
        });
        assert_eq!(
            w.finish(),
            "[\n{\"a\":1,\"q\\\"_x\":[0.5,0]},\n{\"s\": \"t\\u0001\\n\", \"n\": null},\n\
             { \"b\": true },\n{},\n{\n    \"e\": {\n    }\n  }\n]\n"
        );
    }
}
