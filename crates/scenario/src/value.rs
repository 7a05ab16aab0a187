//! The self-contained configuration value model behind scenario specs.
//!
//! The workspace builds offline without a serialisation crate, so
//! declarative specs cannot lean on `toml`/`serde_json`. This module
//! supplies the missing substrate: a small
//! [`ConfigValue`] tree, a parser for the TOML subset scenario specs use
//! (tables, arrays of tables, inline tables, arrays, strings, numbers,
//! booleans, comments), a standard JSON parser, and deterministic
//! renderers for both syntaxes. Every renderer/parser pair round-trips
//! exactly (floats print in shortest-roundtrip form), which the spec
//! proptests assert.

use std::fmt;

/// A parsed configuration value.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigValue {
    /// A string.
    Str(String),
    /// An integer (TOML integer / JSON number without fraction or exponent).
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An ordered list.
    Array(Vec<ConfigValue>),
    /// A key-ordered table.
    Table(Table),
}

impl ConfigValue {
    /// This value's type name, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            ConfigValue::Str(_) => "string",
            ConfigValue::Int(_) => "integer",
            ConfigValue::Float(_) => "float",
            ConfigValue::Bool(_) => "boolean",
            ConfigValue::Array(_) => "array",
            ConfigValue::Table(_) => "table",
        }
    }
}

/// An insertion-ordered table with unique keys.
///
/// Rendering preserves insertion order, but equality is *key-based*
/// (order-insensitive) — the TOML renderer hoists scalar keys above
/// sections, and two tables that map the same keys to the same values are
/// the same configuration.
#[derive(Debug, Clone, Default)]
pub struct Table {
    entries: Vec<(String, ConfigValue)>,
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.entries.len() == other.entries.len()
            && self.entries.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl Table {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a key, replacing any previous value under it.
    pub fn insert(&mut self, key: impl Into<String>, value: ConfigValue) {
        let key = key.into();
        match self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => self.entries.push((key, value)),
        }
    }

    /// Looks a key up.
    pub fn get(&self, key: &str) -> Option<&ConfigValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut ConfigValue> {
        self.entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The entries in insertion order.
    pub fn entries(&self) -> &[(String, ConfigValue)] {
        &self.entries
    }

    /// All keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A syntax error with its 1-based line.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntaxError {
    /// 1-based line of the offending input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SyntaxError {}

// ---------------------------------------------------------------------------
// Shared cursor
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Self { src: src.as_bytes(), pos: 0 }
    }

    fn line(&self) -> usize {
        1 + self.src[..self.pos].iter().filter(|b| **b == b'\n').count()
    }

    fn err(&self, message: impl Into<String>) -> SyntaxError {
        SyntaxError { line: self.line(), message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Skips spaces/tabs (not newlines).
    fn skip_inline_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace including newlines, plus `#` comments when asked.
    fn skip_ws(&mut self, comments: bool) {
        loop {
            match self.peek() {
                Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r') => {
                    self.pos += 1;
                }
                Some(b'#') if comments => {
                    while !matches!(self.peek(), None | Some(b'\n')) {
                        self.pos += 1;
                    }
                }
                _ => return,
            }
        }
    }

    fn parse_quoted_string(&mut self) -> Result<String, SyntaxError> {
        if !self.eat(b'"') {
            return Err(self.err("expected '\"'"));
        }
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'/') => out.push('/'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump().ok_or_else(|| self.err("truncated \\u escape"))?;
                            let d = (d as char)
                                .to_digit(16)
                                .ok_or_else(|| self.err("bad hex digit in \\u escape"))?;
                            code = code * 16 + d;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?,
                        );
                    }
                    other => {
                        return Err(
                            self.err(format!("unsupported escape {:?}", other.map(char::from)))
                        )
                    }
                },
                Some(b'\n') => return Err(self.err("newline inside string")),
                Some(b) => {
                    // Re-decode UTF-8 continuation bytes verbatim.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    self.pos = start + width;
                    let chunk = std::str::from_utf8(&self.src[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<ConfigValue, SyntaxError> {
        let start = self.pos;
        if matches!(self.peek(), Some(b'+') | Some(b'-')) {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'_' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                    if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
        let text: String = std::str::from_utf8(&self.src[start..self.pos])
            .expect("ascii digits")
            .chars()
            .filter(|c| *c != '_')
            .collect();
        if text.is_empty() || text == "+" || text == "-" {
            return Err(self.err("expected a number"));
        }
        if is_float {
            let v: f64 = text.parse().map_err(|e| self.err(format!("bad float '{text}': {e}")))?;
            if !v.is_finite() {
                return Err(self.err(format!("non-finite float '{text}'")));
            }
            Ok(ConfigValue::Float(v))
        } else {
            let v: i64 =
                text.parse().map_err(|e| self.err(format!("bad integer '{text}': {e}")))?;
            Ok(ConfigValue::Int(v))
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

// ---------------------------------------------------------------------------
// TOML (subset)
// ---------------------------------------------------------------------------

/// Parses the TOML subset scenario specs use.
///
/// Supported: `key = value` pairs, `[table.path]` headers, `[[array of
/// tables]]` headers, bare and quoted keys, strings with escapes, integers,
/// floats, booleans, (multiline) arrays, inline tables, and `#` comments.
/// Not supported (rejected with an error): dotted keys, dates, multiline
/// strings.
pub fn parse_toml(src: &str) -> Result<Table, SyntaxError> {
    let mut cur = Cursor::new(src);
    let mut root = Table::new();
    // Path of the table currently receiving keys; empty = root.
    let mut current: Vec<String> = Vec::new();
    loop {
        cur.skip_ws(true);
        let Some(b) = cur.peek() else { break };
        if b == b'[' {
            cur.bump();
            let array_of_tables = cur.eat(b'[');
            let path = parse_key_path(&mut cur)?;
            if !cur.eat(b']') || (array_of_tables && !cur.eat(b']')) {
                return Err(cur.err("unterminated table header"));
            }
            if array_of_tables {
                push_array_table(&mut root, &path, &cur)?;
            } else {
                ensure_table(&mut root, &path, &cur)?;
            }
            current = path;
        } else {
            let key = parse_key(&mut cur)?;
            cur.skip_inline_ws();
            if !cur.eat(b'=') {
                return Err(cur.err(format!("expected '=' after key '{key}'")));
            }
            cur.skip_ws(true);
            let value = parse_toml_value(&mut cur)?;
            let table = navigate(&mut root, &current, &cur)?;
            if table.get(&key).is_some() {
                return Err(cur.err(format!("duplicate key '{key}'")));
            }
            table.insert(key, value);
        }
    }
    Ok(root)
}

fn parse_key(cur: &mut Cursor<'_>) -> Result<String, SyntaxError> {
    cur.skip_inline_ws();
    if cur.peek() == Some(b'"') {
        return cur.parse_quoted_string();
    }
    let start = cur.pos;
    while matches!(cur.peek(), Some(b) if b.is_ascii_alphanumeric() || b == b'_' || b == b'-') {
        cur.pos += 1;
    }
    if cur.pos == start {
        return Err(cur.err("expected a key"));
    }
    Ok(std::str::from_utf8(&cur.src[start..cur.pos]).expect("ascii key").to_string())
}

fn parse_key_path(cur: &mut Cursor<'_>) -> Result<Vec<String>, SyntaxError> {
    let mut path = vec![parse_key(cur)?];
    cur.skip_inline_ws();
    while cur.eat(b'.') {
        path.push(parse_key(cur)?);
        cur.skip_inline_ws();
    }
    Ok(path)
}

fn navigate<'t>(
    root: &'t mut Table,
    path: &[String],
    cur: &Cursor<'_>,
) -> Result<&'t mut Table, SyntaxError> {
    let mut t = root;
    for part in path {
        let next = t.get_mut(part).ok_or_else(|| cur.err(format!("missing table '{part}'")))?;
        t = match next {
            ConfigValue::Table(t) => t,
            // `[[x]]` keys: new pairs land in the latest element.
            ConfigValue::Array(items) => match items.last_mut() {
                Some(ConfigValue::Table(t)) => t,
                _ => return Err(cur.err(format!("'{part}' is not a table array"))),
            },
            other => {
                return Err(cur.err(format!("'{part}' is a {}, not a table", other.type_name())))
            }
        };
    }
    Ok(t)
}

fn ensure_table(root: &mut Table, path: &[String], cur: &Cursor<'_>) -> Result<(), SyntaxError> {
    let (last, parents) = path.split_last().expect("non-empty header path");
    let mut t = root;
    for part in parents {
        if t.get(part).is_none() {
            t.insert(part.clone(), ConfigValue::Table(Table::new()));
        }
        t = match t.get_mut(part).expect("just ensured") {
            ConfigValue::Table(t) => t,
            ConfigValue::Array(items) => match items.last_mut() {
                Some(ConfigValue::Table(t)) => t,
                _ => return Err(cur.err(format!("'{part}' is not a table array"))),
            },
            other => {
                return Err(cur.err(format!("'{part}' is a {}, not a table", other.type_name())))
            }
        };
    }
    match t.get(last) {
        None => {
            t.insert(last.clone(), ConfigValue::Table(Table::new()));
            Ok(())
        }
        Some(ConfigValue::Table(_)) => Ok(()),
        Some(other) => {
            Err(cur.err(format!("'{last}' redefined as table (was {})", other.type_name())))
        }
    }
}

fn push_array_table(
    root: &mut Table,
    path: &[String],
    cur: &Cursor<'_>,
) -> Result<(), SyntaxError> {
    let (last, parents) = path.split_last().expect("non-empty header path");
    let t = if parents.is_empty() { root } else { navigate(root, parents, cur)? };
    match t.get_mut(last) {
        None => {
            t.insert(last.clone(), ConfigValue::Array(vec![ConfigValue::Table(Table::new())]));
            Ok(())
        }
        Some(ConfigValue::Array(items)) => {
            items.push(ConfigValue::Table(Table::new()));
            Ok(())
        }
        Some(other) => {
            Err(cur.err(format!("'{last}' redefined as table array (was {})", other.type_name())))
        }
    }
}

fn parse_toml_value(cur: &mut Cursor<'_>) -> Result<ConfigValue, SyntaxError> {
    match cur.peek() {
        Some(b'"') => Ok(ConfigValue::Str(cur.parse_quoted_string()?)),
        Some(b'[') => {
            cur.bump();
            let mut items = Vec::new();
            loop {
                cur.skip_ws(true);
                if cur.eat(b']') {
                    break;
                }
                items.push(parse_toml_value(cur)?);
                cur.skip_ws(true);
                if !cur.eat(b',') && cur.peek() != Some(b']') {
                    return Err(cur.err("expected ',' or ']' in array"));
                }
            }
            Ok(ConfigValue::Array(items))
        }
        Some(b'{') => {
            cur.bump();
            let mut table = Table::new();
            cur.skip_inline_ws();
            if cur.eat(b'}') {
                return Ok(ConfigValue::Table(table));
            }
            loop {
                let key = parse_key(cur)?;
                cur.skip_inline_ws();
                if !cur.eat(b'=') {
                    return Err(cur.err(format!("expected '=' after inline key '{key}'")));
                }
                cur.skip_inline_ws();
                let value = parse_toml_value(cur)?;
                if table.get(&key).is_some() {
                    return Err(cur.err(format!("duplicate inline key '{key}'")));
                }
                table.insert(key, value);
                cur.skip_inline_ws();
                if cur.eat(b'}') {
                    return Ok(ConfigValue::Table(table));
                }
                if !cur.eat(b',') {
                    return Err(cur.err("expected ',' or '}' in inline table"));
                }
                cur.skip_inline_ws();
            }
        }
        Some(b't') | Some(b'f') => {
            for (word, v) in [("true", true), ("false", false)] {
                if cur.src[cur.pos..].starts_with(word.as_bytes()) {
                    cur.pos += word.len();
                    return Ok(ConfigValue::Bool(v));
                }
            }
            Err(cur.err("expected a boolean"))
        }
        _ => cur.parse_number(),
    }
}

/// Renders a table as TOML: scalars and scalar arrays first, then nested
/// tables as `[path]` sections and table arrays as `[[path]]` sections.
/// Tables nested *inside* values render inline. The output re-parses to an
/// identical [`Table`].
pub fn render_toml(table: &Table) -> String {
    let mut out = String::new();
    render_toml_section(table, "", &mut out);
    out
}

fn is_table_array(v: &ConfigValue) -> bool {
    matches!(v, ConfigValue::Array(items)
        if !items.is_empty() && items.iter().all(|i| matches!(i, ConfigValue::Table(_))))
}

fn render_toml_section(table: &Table, path: &str, out: &mut String) {
    use fmt::Write;
    for (k, v) in table.entries() {
        match v {
            ConfigValue::Table(_) => {}
            _ if is_table_array(v) => {}
            _ => {
                let _ = writeln!(out, "{} = {}", toml_key(k), render_inline(v));
            }
        }
    }
    for (k, v) in table.entries() {
        let sub_path =
            if path.is_empty() { toml_key(k) } else { format!("{path}.{}", toml_key(k)) };
        match v {
            ConfigValue::Table(t) => {
                let _ = writeln!(out, "\n[{sub_path}]");
                render_toml_section(t, &sub_path, out);
            }
            ConfigValue::Array(items) if is_table_array(v) => {
                for item in items {
                    let ConfigValue::Table(t) = item else { unreachable!() };
                    let _ = writeln!(out, "\n[[{sub_path}]]");
                    render_toml_section(t, &sub_path, out);
                }
            }
            _ => {}
        }
    }
}

fn toml_key(k: &str) -> String {
    if !k.is_empty() && k.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-') {
        k.to_string()
    } else {
        quote(k)
    }
}

fn render_inline(v: &ConfigValue) -> String {
    match v {
        ConfigValue::Str(s) => quote(s),
        ConfigValue::Int(i) => i.to_string(),
        ConfigValue::Float(f) => format_float(*f),
        ConfigValue::Bool(b) => b.to_string(),
        ConfigValue::Array(items) => {
            let body: Vec<String> = items.iter().map(render_inline).collect();
            format!("[{}]", body.join(", "))
        }
        ConfigValue::Table(t) => {
            let body: Vec<String> = t
                .entries()
                .iter()
                .map(|(k, v)| format!("{} = {}", toml_key(k), render_inline(v)))
                .collect();
            format!("{{ {} }}", body.join(", "))
        }
    }
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/// Parses a JSON document whose top level is an object.
pub fn parse_json(src: &str) -> Result<Table, SyntaxError> {
    let mut cur = Cursor::new(src);
    cur.skip_ws(false);
    let value = parse_json_value(&mut cur)?;
    cur.skip_ws(false);
    if cur.peek().is_some() {
        return Err(cur.err("trailing characters after JSON document"));
    }
    match value {
        ConfigValue::Table(t) => Ok(t),
        other => Err(SyntaxError {
            line: 1,
            message: format!("top level must be an object, found {}", other.type_name()),
        }),
    }
}

fn parse_json_value(cur: &mut Cursor<'_>) -> Result<ConfigValue, SyntaxError> {
    cur.skip_ws(false);
    match cur.peek() {
        Some(b'"') => Ok(ConfigValue::Str(cur.parse_quoted_string()?)),
        Some(b'{') => {
            cur.bump();
            let mut table = Table::new();
            cur.skip_ws(false);
            if cur.eat(b'}') {
                return Ok(ConfigValue::Table(table));
            }
            loop {
                cur.skip_ws(false);
                let key = cur.parse_quoted_string()?;
                cur.skip_ws(false);
                if !cur.eat(b':') {
                    return Err(cur.err(format!("expected ':' after key {}", quote(&key))));
                }
                let value = parse_json_value(cur)?;
                if table.get(&key).is_some() {
                    return Err(cur.err(format!("duplicate key {}", quote(&key))));
                }
                table.insert(key, value);
                cur.skip_ws(false);
                if cur.eat(b'}') {
                    return Ok(ConfigValue::Table(table));
                }
                if !cur.eat(b',') {
                    return Err(cur.err("expected ',' or '}' in object"));
                }
            }
        }
        Some(b'[') => {
            cur.bump();
            let mut items = Vec::new();
            cur.skip_ws(false);
            if cur.eat(b']') {
                return Ok(ConfigValue::Array(items));
            }
            loop {
                items.push(parse_json_value(cur)?);
                cur.skip_ws(false);
                if cur.eat(b']') {
                    return Ok(ConfigValue::Array(items));
                }
                if !cur.eat(b',') {
                    return Err(cur.err("expected ',' or ']' in array"));
                }
            }
        }
        Some(b't') | Some(b'f') => {
            for (word, v) in [("true", true), ("false", false)] {
                if cur.src[cur.pos..].starts_with(word.as_bytes()) {
                    cur.pos += word.len();
                    return Ok(ConfigValue::Bool(v));
                }
            }
            Err(cur.err("expected a boolean"))
        }
        Some(b'n') => {
            if cur.src[cur.pos..].starts_with(b"null") {
                Err(cur.err("null is not a scenario value (omit the key instead)"))
            } else {
                Err(cur.err("expected a value"))
            }
        }
        _ => cur.parse_number(),
    }
}

/// Renders a table as pretty-printed JSON (2-space indent, key order
/// preserved). The output re-parses to an identical [`Table`].
pub fn render_json(table: &Table) -> String {
    let mut out = String::new();
    render_json_value(&ConfigValue::Table(table.clone()), 0, &mut out);
    out.push('\n');
    out
}

fn render_json_value(v: &ConfigValue, indent: usize, out: &mut String) {
    use fmt::Write;
    let pad = "  ".repeat(indent);
    match v {
        ConfigValue::Str(s) => out.push_str(&quote(s)),
        ConfigValue::Int(i) => {
            let _ = write!(out, "{i}");
        }
        ConfigValue::Float(f) => out.push_str(&format_float(*f)),
        ConfigValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        ConfigValue::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                let _ = write!(out, "{pad}  ");
                render_json_value(item, indent + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            let _ = write!(out, "{pad}]");
        }
        ConfigValue::Table(t) => {
            if t.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, v)) in t.entries().iter().enumerate() {
                let _ = write!(out, "{pad}  {}: ", quote(k));
                render_json_value(v, indent + 1, out);
                out.push_str(if i + 1 < t.len() { ",\n" } else { "\n" });
            }
            let _ = write!(out, "{pad}}}");
        }
    }
}

// ---------------------------------------------------------------------------
// Shared formatting
// ---------------------------------------------------------------------------

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float so it parses back bit-identically *and* still reads as
/// a float (`1` becomes `1.0`) — the workspace-shared helper, re-exported
/// here because it is part of this codec's public contract (the run-log
/// codec uses the same one, so the two can never drift).
pub use craqr_stats::format_float;

#[cfg(test)]
mod tests {
    use super::*;

    fn int(i: i64) -> ConfigValue {
        ConfigValue::Int(i)
    }

    #[test]
    fn toml_tables_arrays_and_scalars_parse() {
        let src = r#"
# top comment
name = "demo"
seed = 42
rate = 0.5
flag = true

[grid]
side = 4          # trailing comment
size_km = 4.0

[[attributes]]
name = "temp"
spots = [[1.0, 2.0], [3.0, 4.0]]

[[attributes]]
name = "rain"
field = { kind = "rain", width = 1.5 }
"#;
        let t = parse_toml(src).unwrap();
        assert_eq!(t.get("name"), Some(&ConfigValue::Str("demo".into())));
        assert_eq!(t.get("seed"), Some(&int(42)));
        assert_eq!(t.get("rate"), Some(&ConfigValue::Float(0.5)));
        assert_eq!(t.get("flag"), Some(&ConfigValue::Bool(true)));
        let ConfigValue::Table(grid) = t.get("grid").unwrap() else { panic!("grid") };
        assert_eq!(grid.get("side"), Some(&int(4)));
        let ConfigValue::Array(attrs) = t.get("attributes").unwrap() else { panic!("attrs") };
        assert_eq!(attrs.len(), 2);
        let ConfigValue::Table(rain) = &attrs[1] else { panic!("rain table") };
        let ConfigValue::Table(field) = rain.get("field").unwrap() else { panic!("field") };
        assert_eq!(field.get("width"), Some(&ConfigValue::Float(1.5)));
    }

    #[test]
    fn toml_rejects_duplicates_and_garbage() {
        assert!(parse_toml("a = 1\na = 2").unwrap_err().message.contains("duplicate"));
        assert!(parse_toml("a == 1").is_err());
        assert!(parse_toml("[t\na = 1").is_err());
        assert!(parse_toml("a = [1, 2").is_err());
        assert!(parse_toml("a = \"unterminated").is_err());
        let err = parse_toml("ok = 1\nbad = @").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn json_parses_and_rejects() {
        let t = parse_json(r#"{"a": 1, "b": [1.5, true, "x"], "c": {"d": -2}}"#).unwrap();
        assert_eq!(t.get("a"), Some(&int(1)));
        let ConfigValue::Array(b) = t.get("b").unwrap() else { panic!() };
        assert_eq!(b[0], ConfigValue::Float(1.5));
        assert!(parse_json("[1]").unwrap_err().message.contains("top level"));
        assert!(parse_json(r#"{"a": null}"#).unwrap_err().message.contains("null"));
        assert!(parse_json(r#"{"a": 1,}"#).is_err());
        assert!(parse_json(r#"{"a": 1} trailing"#).is_err());
    }

    #[test]
    fn renderers_round_trip() {
        let mut inner = Table::new();
        inner.insert("kind", ConfigValue::Str("hotspots".into()));
        inner.insert("floor", ConfigValue::Float(1.0));
        let mut row = Table::new();
        row.insert("name", ConfigValue::Str("q\"uoted\\".into()));
        row.insert("rate", ConfigValue::Float(0.25));
        let mut t = Table::new();
        t.insert("name", ConfigValue::Str("round trip".into()));
        t.insert("seed", int(7));
        t.insert("huge", int(i64::MAX));
        t.insert("tiny", ConfigValue::Float(1e-9));
        t.insert("flag", ConfigValue::Bool(false));
        t.insert("placement", ConfigValue::Table(inner));
        t.insert(
            "spots",
            ConfigValue::Array(vec![ConfigValue::Float(1.5), ConfigValue::Float(-2.0)]),
        );
        t.insert("queries", ConfigValue::Array(vec![ConfigValue::Table(row)]));

        let toml = render_toml(&t);
        assert_eq!(parse_toml(&toml).unwrap(), t, "TOML round trip\n{toml}");
        let json = render_json(&t);
        assert_eq!(parse_json(&json).unwrap(), t, "JSON round trip\n{json}");
    }

    #[test]
    fn float_formatting_keeps_floats_floats() {
        assert_eq!(format_float(1.0), "1.0");
        assert_eq!(format_float(0.5), "0.5");
        // Rust's shortest-roundtrip Display never uses exponent notation;
        // the long decimal still parses back to the same bits.
        assert_eq!(format_float(1e-9).parse::<f64>().unwrap(), 1e-9);
        assert_eq!(parse_toml("x = 1.0").unwrap().get("x"), Some(&ConfigValue::Float(1.0)));
    }
}
