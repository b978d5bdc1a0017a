//! A minimal JSON reader for the documents this workspace itself
//! writes: the telemetry snapshot and the serving plane's
//! `/timeseries` and `/anomalies` endpoints, which `dhnsw_cli top`
//! parses back (hand-rolled: the workspace is dependency-free).

use std::collections::BTreeMap;

/// A parsed JSON value, covering the subset the telemetry endpoints
/// emit.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A number (all JSON numbers are parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An object, keyed by member name.
    Obj(BTreeMap<String, Json>),
    /// An array.
    Arr(Vec<Json>),
    /// A boolean.
    Bool(bool),
    /// The `null` literal.
    Null,
}

impl Json {
    /// Looks up a member of an object; `None` for non-objects or
    /// missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }
}

/// A minimal recursive-descent parser covering the subset of JSON the
/// telemetry snapshot and endpoints use: objects, arrays, strings,
/// numbers, booleans, and `null`.
pub struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    /// Wraps `text` for parsing.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    /// Parses the wrapped text as a single JSON document.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message on malformed input or trailing
    /// bytes.
    pub fn parse_document(&mut self) -> Result<Json, String> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing bytes at offset {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek()? == c {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", c as char, self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.parse_object(),
            b'[' => self.parse_array(),
            b'"' => Ok(Json::Str(self.parse_string()?)),
            b'-' | b'0'..=b'9' => self.parse_number(),
            b't' => self.parse_literal("true", Json::Bool(true)),
            b'f' => self.parse_literal("false", Json::Bool(false)),
            b'n' => self.parse_literal("null", Json::Null),
            c => Err(format!(
                "unsupported JSON value starting with '{}' at offset {}",
                c as char, self.pos
            )),
        }
    }

    fn parse_literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected '{word}' at offset {}", self.pos))
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => {
                    self.pos += 1;
                }
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                c => {
                    return Err(format!(
                        "expected ',' or ']', got '{}' at offset {}",
                        c as char, self.pos
                    ))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            match self.peek()? {
                b',' => {
                    self.pos += 1;
                }
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                c => {
                    return Err(format!(
                        "expected ',' or '}}', got '{}' at offset {}",
                        c as char, self.pos
                    ))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let esc = self.bytes.get(self.pos + 1).ok_or("unterminated escape")?;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        c => return Err(format!("unsupported escape '\\{}'", *c as char)),
                    }
                    self.pos += 2;
                }
                Some(&c) => {
                    out.push(c as char);
                    self.pos += 1;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
            )
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use dhnsw::telemetry::Telemetry;
    use dhnsw::{DHnswConfig, SearchMode, VectorStore};
    use vecsim::gen;

    use super::*;

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "{",
            "[1, 2",
            "{\"a\": }",
            "{\"a\": 1} x",
            "\"open",
            "nul",
            "@",
        ] {
            assert!(JsonParser::new(bad).parse_document().is_err(), "{bad}");
        }
        let doc = JsonParser::new(r#"{"a": [1, -2.5e0, "x\"y", true, null]}"#)
            .parse_document()
            .unwrap();
        let items = doc.get("a").unwrap().items();
        assert_eq!(items[1].as_f64(), Some(-2.5));
        assert_eq!(items[2].as_str(), Some("x\"y"));
        assert_eq!(items[3..], [Json::Bool(true), Json::Null]);
    }

    #[test]
    fn telemetry_snapshot_json_parses_back() {
        // The registry's JSON snapshot — counters, gauges, and the
        // histogram objects with their bucket arrays — must be real
        // JSON: every registered series parses back, including the
        // per-cause byte counters the provenance ledger feeds.
        let data = gen::sift_like(600, 3).unwrap();
        let config = DHnswConfig::small().with_representatives(8);
        let store = VectorStore::build(data.clone(), &config).unwrap();
        let telemetry = Arc::new(Telemetry::new());
        let node = store
            .connect_with_telemetry(SearchMode::Full, Arc::clone(&telemetry))
            .unwrap();
        let queries = gen::perturbed_queries(&data, 8, 0.03, 9).unwrap();
        node.query_batch(&queries, 5, 16).unwrap();
        node.health_report().unwrap();

        let json = telemetry.snapshot_json();
        let parsed = JsonParser::new(&json).parse_document().unwrap();
        let Json::Obj(top) = parsed else {
            panic!("snapshot is not a JSON object")
        };
        let section = |name: &str| match top.get(name) {
            Some(Json::Obj(map)) => map.clone(),
            other => panic!("\"{name}\" is not an object: {other:?}"),
        };
        let counters = section("counters");
        let gauges = section("gauges");
        let histograms = section("histograms");
        assert!(!counters.is_empty() && !gauges.is_empty() && !histograms.is_empty());
        for map in [&counters, &gauges] {
            for (k, v) in map {
                assert!(matches!(v, Json::Num(_)), "{k} is not a number");
            }
        }
        for (k, v) in &histograms {
            let Json::Obj(h) = v else {
                panic!("histogram {k} is not an object")
            };
            assert!(matches!(h.get("buckets"), Some(Json::Arr(_))), "{k}");
            assert!(
                matches!(h.get("p99"), Some(Json::Num(_) | Json::Str(_))),
                "{k}"
            );
        }
        for cause in dhnsw::ReadCause::ALL {
            let key = format!(
                "dhnsw_rdma_read_bytes_by_cause_total{{cause=\"{}\"}}",
                cause.as_str()
            );
            assert!(
                matches!(counters.get(&key), Some(Json::Num(_))),
                "missing per-cause series {key}"
            );
        }
    }
}
