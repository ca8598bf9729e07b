//! The one JSON writer: every `BENCH_*.json` artifact and every report a
//! binary prints is a [`Json`] value rendered here (the vendored `serde`
//! is a marker-only stub, and a report is small enough to build whole).
//!
//! Objects keep insertion order, so an artifact's key order is the order
//! its emitter declared. Layout is fixed so artifacts stay diffable: a
//! container whose members are all scalars renders on one line, anything
//! else one member per line at two spaces per level.

use std::fmt::{self, Write as _};

/// An ordered JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, rendered bare.
    Int(i128),
    /// A float rendered with exactly this many decimals (`null` when not
    /// finite) — rates and means, whose digits should not follow the
    /// platform's shortest-round-trip choice.
    Fixed(f64, usize),
    /// A float in its shortest round-trip form (`null` when not finite).
    Float(f64),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; members render in this order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::field`].
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// This object with `key: value` appended; panics on a non-object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        let Json::Object(members) = &mut self else {
            panic!("Json::field on a non-object");
        };
        members.push((key.to_string(), value.into()));
        self
    }

    /// An array of the items.
    pub fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }

    /// Writes a container's members: on one line when all are scalars,
    /// otherwise one per line, indented one level below `indent`.
    fn members<'a>(
        f: &mut fmt::Formatter<'_>,
        indent: usize,
        (open, close): (char, char),
        members: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)> + Clone,
    ) -> fmt::Result {
        let inline = (members.clone()).all(|(_, v)| !matches!(v, Json::Array(_) | Json::Object(_)));
        let last = members.len().saturating_sub(1);
        f.write_char(open)?;
        for (i, (key, value)) in members.enumerate() {
            if !inline {
                write!(f, "\n{:1$}", "", indent + 2)?;
            }
            if let Some(key) = key {
                escape(f, key)?;
                f.write_str(": ")?;
            }
            value.write(f, indent + 2)?;
            if i < last {
                f.write_str(if inline { ", " } else { "," })?;
            } else if !inline {
                write!(f, "\n{:1$}", "", indent)?;
            }
        }
        f.write_char(close)
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Fixed(v, decimals) if v.is_finite() => write!(f, "{v:.decimals$}"),
            Json::Float(v) if v.is_finite() => write!(f, "{v}"),
            Json::Fixed(..) | Json::Float(_) => f.write_str("null"),
            Json::Str(s) => escape(f, s),
            Json::Array(items) => {
                Json::members(f, indent, ('[', ']'), items.iter().map(|v| (None, v)))
            }
            Json::Object(members) => Json::members(
                f,
                indent,
                ('{', '}'),
                members.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// Writes `s` as a JSON string literal.
fn escape(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Renders the value as a document, without a trailing newline.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

/// The scalar conversions [`Json::field`] and [`Json::array`] accept.
macro_rules! json_from {
    ($($t:ty => |$v:ident| $json:expr;)*) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $json
            }
        }
    )*};
}
json_from! {
    bool => |b| Json::Bool(b);
    u16 => |n| Json::Int(n.into());
    u32 => |n| Json::Int(n.into());
    u64 => |n| Json::Int(n.into());
    usize => |n| Json::Int(n as i128);
    f64 => |v| Json::Float(v);
    &str => |s| Json::Str(s.to_string());
    String => |s| Json::Str(s);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recursive-descent reader for what [`Json`] writes, keeping each
    /// number's spelling (`Int`, or `Fixed` at the decimals it shows) so a
    /// parsed document renders back to the bytes it came from.
    struct Reader<'a>(std::iter::Peekable<std::str::Chars<'a>>);

    impl Reader<'_> {
        fn parse(text: &str) -> Json {
            let mut r = Reader(text.chars().peekable());
            let v = r.value();
            r.ws();
            assert_eq!(r.0.next(), None, "trailing input");
            v
        }
        fn ws(&mut self) {
            while self.0.next_if(|c| c.is_ascii_whitespace()).is_some() {}
        }
        fn eat(&mut self, want: char) {
            self.ws();
            assert_eq!(self.0.next(), Some(want));
        }
        /// The opening bracket was consumed: items up to `close`.
        fn seq<T>(&mut self, close: char, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
            let mut out = Vec::new();
            self.ws();
            while self.0.next_if_eq(&close).is_none() {
                if !out.is_empty() {
                    self.eat(',');
                }
                out.push(item(self));
                self.ws();
            }
            out
        }
        fn string(&mut self) -> String {
            self.eat('"');
            let mut s = String::new();
            loop {
                match self.0.next().expect("unterminated string") {
                    '"' => return s,
                    '\\' => match self.0.next().expect("dangling escape") {
                        'n' => s.push('\n'),
                        'u' => {
                            let hex: String = (0..4).map(|_| self.0.next().unwrap()).collect();
                            s.push(char::from_u32(u32::from_str_radix(&hex, 16).unwrap()).unwrap());
                        }
                        c @ ('"' | '\\') => s.push(c),
                        c => panic!("escape \\{c} is never written"),
                    },
                    c => {
                        assert!(c as u32 >= 0x20, "raw control character in a string");
                        s.push(c);
                    }
                }
            }
        }
        fn value(&mut self) -> Json {
            self.ws();
            match *self.0.peek().expect("a value") {
                '{' => {
                    self.0.next();
                    Json::Object(self.seq('}', |r| {
                        let key = r.string();
                        r.eat(':');
                        (key, r.value())
                    }))
                }
                '[' => {
                    self.0.next();
                    Json::Array(self.seq(']', Self::value))
                }
                '"' => Json::Str(self.string()),
                _ => {
                    let mut word = String::new();
                    while let Some(c) = self.0.next_if(|c| !",]} \n".contains(*c)) {
                        word.push(c);
                    }
                    match (word.as_str(), word.split_once('.')) {
                        ("null", _) => Json::Null,
                        ("true", _) => Json::Bool(true),
                        ("false", _) => Json::Bool(false),
                        (_, None) => Json::Int(word.parse().expect("an integer")),
                        (_, Some((_, frac))) => {
                            Json::Fixed(word.parse().expect("a decimal"), frac.len())
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn strings_are_always_escaped() {
        let s = Json::from("q\"b\\n\nt\tu\u{1}é");
        assert_eq!(s.to_string(), "\"q\\\"b\\\\n\\nt\\u0009u\\u0001é\"");
        assert_eq!(Reader::parse(&s.to_string()), s);
        // Keys too, and what emitters used to interpolate raw: a mode
        // name, a chaos plan encoding, a fault profile.
        let doc = Json::object()
            .field("k\"", "seed=1;net=\"x\"")
            .field("profile", "lossy:7");
        assert_eq!(
            doc.to_string(),
            r#"{"k\"": "seed=1;net=\"x\"", "profile": "lossy:7"}"#
        );
        assert_eq!(Reader::parse(&doc.to_string()), doc);
    }

    #[test]
    fn numbers_round_and_non_finite_is_null() {
        assert_eq!(Json::Fixed(2.0 / 3.0, 4).to_string(), "0.6667");
        assert_eq!(Json::Fixed(12.75, 3).to_string(), "12.750");
        assert_eq!(Json::Fixed(0.0, 4).to_string(), "0.0000");
        assert_eq!(Json::Fixed(2.5, 0).to_string(), "2");
        assert_eq!(Json::Float(19.0).to_string(), "19");
        assert_eq!(Json::Float(0.1 + 0.2).to_string(), "0.30000000000000004");
        assert_eq!(Json::from(u64::MAX).to_string(), "18446744073709551615");
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Float(v).to_string(), "null");
            assert_eq!(Json::Fixed(v, 3).to_string(), "null");
        }
        assert_eq!(Json::array([true, false]).to_string(), "[true, false]");
    }

    #[test]
    fn scalar_containers_share_a_line_and_the_rest_nest_at_two_spaces() {
        assert_eq!(Json::object().to_string(), "{}");
        assert_eq!(Json::Array(Vec::new()).to_string(), "[]");
        let row = |n: u64| {
            Json::object()
                .field("batch", n)
                .field("rate", Json::Fixed(0.5, 2))
        };
        let doc = Json::object()
            .field("id", "exp")
            .field("batches", Json::array([1u64, 2]))
            .field("empty", Json::object())
            .field(
                "shapes",
                Json::object().field("small", Json::array([row(1), row(2)])),
            )
            .field("last", Json::Null);
        let want = r#"{
  "id": "exp",
  "batches": [1, 2],
  "empty": {},
  "shapes": {
    "small": [
      {"batch": 1, "rate": 0.50},
      {"batch": 2, "rate": 0.50}
    ]
  },
  "last": null
}"#;
        assert_eq!(doc.to_string(), want);
        assert_eq!(Reader::parse(want), doc);
    }

    /// Every committed `BENCH_*.json` is a document this writer rendered:
    /// it parses, and what it parses to renders back to the same bytes.
    #[test]
    fn every_committed_artifact_round_trips() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut seen = 0;
        for entry in std::fs::read_dir(root).expect("the repository root") {
            let path = entry.expect("a directory entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let text = std::fs::read_to_string(&path).unwrap();
                assert_eq!(format!("{}\n", Reader::parse(&text)), text, "{name}");
                seen += 1;
            }
        }
        assert!(seen >= 16, "only {seen} artifacts at the repository root");
    }
}
