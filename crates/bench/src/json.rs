//! The one JSON writer and reader of the bench binaries (the build is
//! offline, so there is no serde in the tree).
//!
//! [`Obj`] builds an object with its keys in insertion order and renders
//! it the way every `BENCH_*.json` file is laid out: one key per line, an
//! array of objects one object per line, everything else inline.
//! [`Obj::parse`] reads back the flat objects the binaries keep as
//! baselines.

use std::fmt::Display;

/// A JSON object: keys in order, each with its value as JSON text.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Obj::default()
    }

    /// Adds a value whose `Display` is already JSON: integers, `true`,
    /// `false`, `null`.
    pub fn num(mut self, key: &str, v: impl Display) -> Self {
        self.0.push((key.to_string(), v.to_string()));
        self
    }

    /// Adds `v` with `decimals` fixed decimals; `null` when `v` is not
    /// finite (JSON has no NaN or infinity).
    pub fn fixed(self, key: &str, v: f64, decimals: usize) -> Self {
        self.num(key, fixed(v, decimals))
    }

    /// Adds a string.
    pub fn str(self, key: &str, v: &str) -> Self {
        self.num(key, quote(v))
    }

    /// Adds an inline array of JSON texts.
    pub fn list(self, key: &str, items: impl IntoIterator<Item = String>) -> Self {
        let items: Vec<String> = items.into_iter().collect();
        self.num(key, format!("[{}]", items.join(", ")))
    }

    /// Adds an array of objects, one per line.
    pub fn rows(self, key: &str, rows: impl IntoIterator<Item = Obj>) -> Self {
        let rows: Vec<String> = rows.into_iter().map(|r| r.inline()).collect();
        if rows.is_empty() {
            return self.num(key, "[]");
        }
        self.num(key, format!("[\n    {}\n  ]", rows.join(",\n    ")))
    }

    /// The object on one line.
    pub fn inline(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The document: one key per line, newline-terminated.
    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("  {}: {v}", quote(k)))
            .collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }

    /// The JSON text of `key`'s value.
    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The numeric value of `key`.
    pub fn number(&self, key: &str) -> Option<f64> {
        self.get(key)?.parse().ok()
    }

    /// Parses a flat object — scalar values only, the shape of every file
    /// the bench binaries read back.
    ///
    /// # Errors
    ///
    /// Quotes the text where parsing stopped.
    pub fn parse(text: &str) -> Result<Obj, String> {
        let err = |at: &str| {
            format!(
                "unsupported JSON at `{}`",
                at.trim().chars().take(16).collect::<String>()
            )
        };
        let body = text
            .trim()
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'));
        let mut rest = body.ok_or_else(|| err(text))?.trim();
        let mut obj = Obj::new();
        while !rest.is_empty() {
            let (key, after) = string_token(rest).ok_or_else(|| err(rest))?;
            let after = after
                .trim_start()
                .strip_prefix(':')
                .ok_or_else(|| err(after))?
                .trim_start();
            let (value, after) = match string_token(after) {
                Some((s, after)) => (quote(&s), after),
                None => {
                    let end = after.find(',').unwrap_or(after.len());
                    let v = after[..end].trim();
                    let scalar = v.parse::<f64>().is_ok() || ["true", "false", "null"].contains(&v);
                    (
                        scalar.then(|| v.to_string()).ok_or_else(|| err(after))?,
                        &after[end..],
                    )
                }
            };
            obj.0.push((key, value));
            rest = after.trim_start();
            if let Some(next) = rest.strip_prefix(',') {
                rest = next.trim_start();
                if rest.is_empty() {
                    return Err(err(after));
                }
            } else if !rest.is_empty() {
                return Err(err(rest));
            }
        }
        Ok(obj)
    }
}

/// `v` with `decimals` decimals, or `null` when not finite.
pub fn fixed(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        "null".to_string()
    }
}

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::from('"');
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
    out + "\""
}

/// A leading string literal of `s`, unescaped, and the text after it.
fn string_token(s: &str) -> Option<(String, &str)> {
    let mut chars = s.strip_prefix('"')?.char_indices();
    let mut out = String::new();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &s[i + 2..])),
            '\\' => out.push(match chars.next()?.1 {
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'u' => {
                    let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                    char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?
                }
                e => e,
            }),
            c => out.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_bench_layout_and_reads_it_back() {
        let doc = Obj::new()
            .str("scale", "Test \"q\"\t\u{1}")
            .num("jobs", 1)
            .fixed("rate", 2.0 / 3.0, 3)
            .fixed("nan", f64::NAN, 3)
            .list("names", ["\"a\"".to_string()])
            .rows("none", [])
            .rows("rows", [Obj::new().num("k", 1), Obj::new().num("k", 2)]);
        assert_eq!(
            doc.render(),
            "{\n  \"scale\": \"Test \\\"q\\\"\\t\\u0001\",\n  \"jobs\": 1,\n  \
             \"rate\": 0.667,\n  \"nan\": null,\n  \"names\": [\"a\"],\n  \"none\": [],\n  \
             \"rows\": [\n    {\"k\": 1},\n    {\"k\": 2}\n  ]\n}\n"
        );
        let flat = Obj::new()
            .str("s", "é \"x\"")
            .num("n", "-1.5e3")
            .num("b", false);
        assert_eq!(Obj::parse(&flat.render()), Ok(flat.clone()));
        assert_eq!(flat.number("n"), Some(-1500.0));
        assert_eq!(flat.number("s"), None);
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "{\"a\": 1 2}",
            "{\"a\": [1]}",
            "{\"a\": 1,}",
        ] {
            assert!(Obj::parse(bad).is_err(), "accepted `{bad}`");
        }
    }
}
