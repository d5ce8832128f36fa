//! Minimal JSON serialization for the machine-readable benchmark
//! artifacts (`BENCH_serve.json`, `BENCH_kernels.json`).
//!
//! The workspace is deliberately dependency-free, so instead of serde
//! this is a tiny value tree with a `Display` that emits valid JSON
//! (string escaping included). Non-finite floats serialize as `null`.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Unsigned integer (kept separate from floats for exact output).
    Int(u64),
    /// Float; non-finite values serialize as `null`.
    Num(f64),
    /// String (escaped on output).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, order-preserving.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

fn escape(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => escape(s, f),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape(k, f)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structures() {
        let j = Json::obj(vec![
            ("method", Json::str("irHINT(perf)")),
            ("qps", Json::Num(12345.5)),
            ("requests", Json::Int(5000)),
            ("ok", Json::Bool(true)),
            ("tags", Json::Arr(vec![Json::str("a"), Json::Int(2)])),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"method":"irHINT(perf)","qps":12345.5,"requests":5000,"ok":true,"tags":["a",2]}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let j = Json::str("a\"b\\c\nd\u{1}");
        assert_eq!(j.to_string(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }
}
