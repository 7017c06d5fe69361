//! A minimal, deterministic JSON document builder.
//!
//! The campaign reports must be **byte-identical** across runs with the
//! same seed (the replay contract), so this module avoids everything that
//! could introduce nondeterminism: object members keep insertion order,
//! floats are rendered with a fixed number of decimals, and there is no
//! map type anywhere. It is a writer, not a parser — the reproduction
//! consumes its own reports only through external tooling.

use sdmmon_obs::write_json_string;
use std::fmt::Write as _;

/// One JSON value. Build with the `From` impls and [`Json::obj`] /
/// [`Json::array`], render with [`Json::render`].
///
/// # Examples
///
/// ```
/// use sdmmon_testkit::json::Json;
///
/// let doc = Json::obj([
///     ("name", Json::from("campaign")),
///     ("trials", Json::from(128u64)),
///     ("rate", Json::fixed(0.0625, 6)),
/// ]);
/// assert_eq!(
///     doc.render(0),
///     "{\n  \"name\": \"campaign\",\n  \"trials\": 128,\n  \"rate\": 0.062500\n}"
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A float pre-rendered to a fixed-decimal string (see [`Json::fixed`]).
    Fixed(String),
    /// A string.
    Str(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object whose members keep insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn array(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// A float rendered with exactly `decimals` decimal places — the only
    /// float form allowed in reports, so rendering is reproducible.
    ///
    /// # Panics
    ///
    /// Panics on non-finite values (they have no JSON representation).
    pub fn fixed(value: f64, decimals: usize) -> Json {
        assert!(value.is_finite(), "non-finite value in report: {value}");
        Json::Fixed(format!("{value:.decimals$}"))
    }

    /// Renders the document with two-space indentation starting at
    /// `indent` levels.
    pub fn render(&self, indent: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, indent);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Fixed(s) => out.push_str(s),
            Json::Str(s) => write_json_string(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Json::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    write_json_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::UInt(n)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::UInt(n as u64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::UInt(n as u64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structures() {
        let doc = Json::obj([
            ("a", Json::array([Json::from(1u64), Json::Null])),
            ("b", Json::obj([("c", Json::from(true))])),
            ("empty_a", Json::array([])),
            ("empty_o", Json::obj(Vec::<(&str, Json)>::new())),
        ]);
        let text = doc.render(0);
        assert!(text.contains("\"a\": [\n    1,\n    null\n  ]"), "{text}");
        assert!(text.contains("\"empty_a\": []"), "{text}");
        assert!(text.contains("\"empty_o\": {}"), "{text}");
    }

    #[test]
    fn escapes_strings() {
        let doc = Json::from("a\"b\\c\nd\u{1}");
        assert_eq!(doc.render(0), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn fixed_floats_are_stable() {
        assert_eq!(Json::fixed(1.0 / 16.0, 8).render(0), "0.06250000");
        assert_eq!(Json::fixed(0.0, 2).render(0), "0.00");
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_rejected() {
        Json::fixed(f64::NAN, 2);
    }
}
