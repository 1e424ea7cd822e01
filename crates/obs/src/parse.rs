//! A minimal JSONL parser for recorded event logs — the inverse of
//! [`crate::export::events_to_jsonl`] / [`crate::export::bus_events_to_jsonl`].
//!
//! The workspace is hermetic (no serde), and the JSON subset the exporters
//! emit is deliberately tiny: flat objects of string / integer / float /
//! bool / null values, plus one nested string-to-string object
//! (`"fields"`). This module parses exactly that subset — enough for
//! `repro watch` to replay a recorded session offline — and nothing more.
//! Round-tripping is pinned by a property test: parse → re-serialize is
//! byte-identical on seeded event streams.

use crate::bus::BusEvent;
use crate::tracer::{QueryKind, TraceEvent};
use std::time::Duration;

/// A parse failure, locating the offending JSONL line (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number within the input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a whole JSONL event log (one bus event per non-empty line).
pub fn parse_bus_events(input: &str) -> Result<Vec<BusEvent>, ParseError> {
    let mut events = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_bus_event(line) {
            Ok(event) => events.push(event),
            Err(message) => {
                return Err(ParseError {
                    line: i + 1,
                    message,
                })
            }
        }
    }
    Ok(events)
}

/// Parses one JSONL line into a bus event (trace events included).
pub fn parse_bus_event(line: &str) -> Result<BusEvent, String> {
    let obj = parse_object(line)?;
    let kind = get_str(&obj, "type")?;
    match kind.as_str() {
        "enter" | "exit" | "query" | "cache" => trace_from(&obj, &kind).map(BusEvent::Trace),
        "counter" => Ok(BusEvent::Counter {
            name: get_string(&obj, "name")?,
            delta: get_u64(&obj, "delta")?,
            at: micros(&obj, "at_us")?,
        }),
        "gauge" => Ok(BusEvent::Gauge {
            name: get_string(&obj, "name")?,
            value: get_f64(&obj, "value")?,
            at: micros(&obj, "at_us")?,
        }),
        "observe" => Ok(BusEvent::Observe {
            name: get_string(&obj, "name")?,
            latency: micros(&obj, "latency_us")?,
            at: micros(&obj, "at_us")?,
        }),
        other => Err(format!("unknown event type {other:?}")),
    }
}

/// Parses one JSONL line into a trace event; metric deltas are an error.
pub fn parse_trace_event(line: &str) -> Result<TraceEvent, String> {
    match parse_bus_event(line)? {
        BusEvent::Trace(event) => Ok(event),
        other => Err(format!("expected a trace event, got {other:?}")),
    }
}

/// Parses a whole JSONL trace log ([`crate::export::events_to_jsonl`]).
pub fn parse_trace_events(input: &str) -> Result<Vec<TraceEvent>, ParseError> {
    let mut events = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_trace_event(line) {
            Ok(event) => events.push(event),
            Err(message) => {
                return Err(ParseError {
                    line: i + 1,
                    message,
                })
            }
        }
    }
    Ok(events)
}

fn trace_from(obj: &[(String, Json)], kind: &str) -> Result<TraceEvent, String> {
    match kind {
        "enter" => Ok(TraceEvent::Enter {
            span: get_u64(obj, "span")?,
            parent: match get(obj, "parent")? {
                Json::Null => None,
                Json::Num(raw) => Some(parse_u64(raw)?),
                other => {
                    return Err(format!(
                        "\"parent\": expected integer or null, got {other:?}"
                    ))
                }
            },
            path: get_string(obj, "path")?,
            name: get_string(obj, "name")?,
            thread: get_u64(obj, "thread")?,
            at: micros(obj, "at_us")?,
            fields: fields_from(get(obj, "fields")?)?,
        }),
        "exit" => Ok(TraceEvent::Exit {
            span: get_u64(obj, "span")?,
            path: get_string(obj, "path")?,
            thread: get_u64(obj, "thread")?,
            at: micros(obj, "at_us")?,
            wall: micros(obj, "wall_us")?,
            self_time: micros(obj, "self_us")?,
            // exits carry "fields" only when the span recorded an outcome
            fields: match obj.iter().find(|(k, _)| k == "fields") {
                Some((_, fields)) => fields_from(fields)?,
                None => Vec::new(),
            },
        }),
        "query" => Ok(TraceEvent::Query {
            path: get_string(obj, "path")?,
            kind: match get_str(obj, "kind")?.as_str() {
                "select" => QueryKind::Select,
                "ask" => QueryKind::Ask,
                "keyword" => QueryKind::Keyword,
                other => return Err(format!("unknown query kind {other:?}")),
            },
            thread: get_u64(obj, "thread")?,
            at: micros(obj, "at_us")?,
            latency: micros(obj, "latency_us")?,
        }),
        "cache" => Ok(TraceEvent::Cache {
            path: get_string(obj, "path")?,
            hit: get_bool(obj, "hit")?,
            thread: get_u64(obj, "thread")?,
            at: micros(obj, "at_us")?,
        }),
        other => Err(format!("unknown trace event type {other:?}")),
    }
}

/// The string-valued annotations of a `"fields"` object.
fn fields_from(json: &Json) -> Result<Vec<(String, String)>, String> {
    let Json::Obj(pairs) = json else {
        return Err(format!("\"fields\": expected object, got {json:?}"));
    };
    pairs
        .iter()
        .map(|(k, v)| match v {
            Json::Str(s) => Ok((k.clone(), s.clone())),
            other => Err(format!("field {k:?}: expected string, got {other:?}")),
        })
        .collect()
}

// ---------------------------------------------------------------------
// The JSON subset: flat objects, one level of nesting for "fields".

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Str(String),
    /// Numbers are kept raw so integers and floats parse on demand.
    Num(String),
    Bool(bool),
    Null,
    Obj(Vec<(String, Json)>),
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key {key:?}"))
}

fn get_str(obj: &[(String, Json)], key: &str) -> Result<String, String> {
    match get(obj, key)? {
        Json::Str(s) => Ok(s.clone()),
        other => Err(format!("{key:?}: expected string, got {other:?}")),
    }
}

fn get_string(obj: &[(String, Json)], key: &str) -> Result<String, String> {
    get_str(obj, key)
}

fn get_bool(obj: &[(String, Json)], key: &str) -> Result<bool, String> {
    match get(obj, key)? {
        Json::Bool(b) => Ok(*b),
        other => Err(format!("{key:?}: expected bool, got {other:?}")),
    }
}

fn parse_u64(raw: &str) -> Result<u64, String> {
    raw.parse::<u64>()
        .map_err(|e| format!("bad integer {raw:?}: {e}"))
}

fn get_u64(obj: &[(String, Json)], key: &str) -> Result<u64, String> {
    match get(obj, key)? {
        Json::Num(raw) => parse_u64(raw),
        other => Err(format!("{key:?}: expected integer, got {other:?}")),
    }
}

fn get_f64(obj: &[(String, Json)], key: &str) -> Result<f64, String> {
    match get(obj, key)? {
        Json::Num(raw) => {
            let v = raw
                .parse::<f64>()
                .map_err(|e| format!("bad number {raw:?}: {e}"))?;
            if v.is_finite() {
                Ok(v)
            } else {
                Err(format!("non-finite number {raw:?}"))
            }
        }
        other => Err(format!("{key:?}: expected number, got {other:?}")),
    }
}

fn micros(obj: &[(String, Json)], key: &str) -> Result<Duration, String> {
    Ok(Duration::from_micros(get_u64(obj, key)?))
}

struct Cursor<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str) -> Cursor<'a> {
        Cursor {
            chars: s.chars().peekable(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.chars.next();
        }
    }

    fn eat(&mut self, want: char) -> Result<(), String> {
        self.skip_ws();
        match self.chars.next() {
            Some(c) if c == want => Ok(()),
            Some(c) => Err(format!("expected {want:?}, found {c:?}")),
            None => Err(format!("expected {want:?}, found end of input")),
        }
    }

    fn peek_is(&mut self, want: char) -> bool {
        self.skip_ws();
        self.chars.peek() == Some(&want)
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                Some('"') => return Ok(out),
                Some('\\') => match self.chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .chars
                                .next()
                                .and_then(|c| c.to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        // the exporters only emit \u for control chars, so
                        // surrogate pairs never occur in well-formed logs
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            None => return Err(format!("invalid \\u{code:04x} escape")),
                        }
                    }
                    Some(c) => return Err(format!("unknown escape \\{c}")),
                    None => return Err("unterminated escape".to_owned()),
                },
                Some(c) => out.push(c),
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn number(&mut self) -> Result<String, String> {
        let mut raw = String::new();
        while let Some(&c) = self.chars.peek() {
            if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                raw.push(c);
                self.chars.next();
            } else {
                break;
            }
        }
        if raw.is_empty() {
            Err("expected a number".to_owned())
        } else {
            Ok(raw)
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        for want in word.chars() {
            match self.chars.next() {
                Some(c) if c == want => {}
                other => return Err(format!("expected {word:?}, found {other:?}")),
            }
        }
        Ok(())
    }

    fn value(&mut self, depth: u32) -> Result<Json, String> {
        self.skip_ws();
        match self.chars.peek() {
            Some('"') => Ok(Json::Str(self.string()?)),
            Some('{') => {
                if depth == 0 {
                    return Err("objects nest at most one level".to_owned());
                }
                Ok(Json::Obj(self.object(depth - 1)?))
            }
            Some('t') => {
                self.literal("true")?;
                Ok(Json::Bool(true))
            }
            Some('f') => {
                self.literal("false")?;
                Ok(Json::Bool(false))
            }
            Some('n') => {
                self.literal("null")?;
                Ok(Json::Null)
            }
            Some(_) => Ok(Json::Num(self.number()?)),
            None => Err("expected a value, found end of input".to_owned()),
        }
    }

    fn object(&mut self, depth: u32) -> Result<Vec<(String, Json)>, String> {
        self.eat('{')?;
        let mut pairs = Vec::new();
        if self.peek_is('}') {
            self.chars.next();
            return Ok(pairs);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(':')?;
            let value = self.value(depth)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.chars.next() {
                Some(',') => {}
                Some('}') => return Ok(pairs),
                Some(c) => return Err(format!("expected ',' or '}}', found {c:?}")),
                None => return Err("unterminated object".to_owned()),
            }
        }
    }
}

fn parse_object(line: &str) -> Result<Vec<(String, Json)>, String> {
    let mut cursor = Cursor::new(line);
    let obj = cursor.object(1)?;
    cursor.skip_ws();
    if let Some(c) = cursor.chars.next() {
        return Err(format!("trailing input starting at {c:?}"));
    }
    Ok(obj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{bus_events_to_jsonl, events_to_jsonl};
    use crate::tracer::Tracer;

    #[test]
    fn parses_a_recorded_trace_log() {
        let tracer = Tracer::enabled();
        {
            let _a = tracer.span_with("phase", &[("dim", "birth\"Place")]);
            tracer.record_query(QueryKind::Select, Duration::from_micros(7));
            tracer.record_cache(false);
        }
        let events = tracer.events();
        let jsonl = events_to_jsonl(&events);
        let parsed = parse_trace_events(&jsonl).expect("round-trip");
        // durations serialize at microsecond granularity, so the invariant
        // is byte-identity of the serialized form, not struct equality
        assert_eq!(events_to_jsonl(&parsed), jsonl);
        assert_eq!(parsed.len(), events.len());
        assert!(matches!(&parsed[0], TraceEvent::Enter { fields, .. }
            if fields == &[("dim".to_owned(), "birth\"Place".to_owned())]));
    }

    #[test]
    fn parses_metric_deltas() {
        let jsonl = "{\"type\":\"counter\",\"name\":\"c\",\"delta\":2,\"at_us\":10}\n\
                     {\"type\":\"gauge\",\"name\":\"g\",\"value\":1.5,\"at_us\":11}\n\
                     {\"type\":\"observe\",\"name\":\"h\",\"latency_us\":7,\"at_us\":12}\n";
        let events = parse_bus_events(jsonl).expect("parses");
        assert_eq!(events.len(), 3);
        assert_eq!(bus_events_to_jsonl(&events), jsonl, "byte-identical");
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        let err = parse_bus_events(
            "{\"type\":\"counter\",\"name\":\"c\",\"delta\":1,\"at_us\":0}\nnot json\n",
        )
        .expect_err("second line is garbage");
        assert_eq!(err.line, 2);

        assert!(parse_bus_event("{\"type\":\"warp\"}").is_err());
        assert!(
            parse_bus_event("{\"type\":\"counter\"}").is_err(),
            "missing keys"
        );
        assert!(
            parse_bus_event("{\"type\":\"counter\",\"name\":\"c\",\"delta\":-1,\"at_us\":0}")
                .is_err()
        );
        assert!(parse_bus_event("{}").is_err());
        assert!(parse_bus_event("").is_err());
        assert!(
            parse_bus_event("{\"a\":{\"b\":{\"c\":1}}}").is_err(),
            "depth is bounded"
        );
    }

    #[test]
    fn unescapes_strings() {
        let line = "{\"type\":\"cache\",\"path\":\"a\\\"b\\\\c\\n\\t\\u0001\",\"hit\":false,\"thread\":3,\"at_us\":9}";
        match parse_trace_event(line).expect("parses") {
            TraceEvent::Cache {
                path,
                hit,
                thread,
                at,
            } => {
                assert_eq!(path, "a\"b\\c\n\t\u{1}");
                assert!(!hit);
                assert_eq!(thread, 3);
                assert_eq!(at, Duration::from_micros(9));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
