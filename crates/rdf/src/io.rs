//! Serialization: N-Triples (full) and a pragmatic Turtle subset.
//!
//! The Turtle subset covers the constructs produced by common statistical-KG
//! exports and our own serializer: `@prefix`/`PREFIX` declarations, prefixed
//! names, `a`, predicate lists (`;`), object lists (`,`), blank-node labels,
//! and numeric / boolean literal shorthand. Collections and anonymous
//! blank-node property lists are rejected with a clear error.

use crate::error::RdfError;
use crate::graph::{Graph, Triple};
use crate::hash::FxHashMap;
use crate::term::{Literal, Term};
use crate::vocab;

/// Parses N-Triples input into `graph`, returning the number of (distinct)
/// triples inserted. All or nothing: on a syntax error `graph` is left
/// unchanged.
pub fn parse_ntriples(input: &str, graph: &mut Graph) -> Result<usize, RdfError> {
    // N-Triples is a syntactic subset of Turtle without prefixes.
    let mut parser = TurtleParser::new(input, false);
    parser.parse_into(graph)
}

/// Parses Turtle input into `graph`, returning the number of (distinct)
/// triples inserted. All or nothing: on a syntax error `graph` is left
/// unchanged.
pub fn parse_turtle(input: &str, graph: &mut Graph) -> Result<usize, RdfError> {
    let mut parser = TurtleParser::new(input, true);
    parser.parse_into(graph)
}

/// Serializes the whole graph as N-Triples (one triple per line, sorted for
/// deterministic output).
pub fn to_ntriples(graph: &Graph) -> String {
    let mut lines: Vec<String> = graph
        .iter()
        .into_iter()
        .map(|t| {
            format!(
                "{} {} {} .",
                graph.term(t.s),
                graph.term(t.p),
                graph.term(t.o)
            )
        })
        .collect();
    lines.sort_unstable();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

struct TurtleParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    allow_turtle: bool,
    prefixes: FxHashMap<String, String>,
}

impl<'a> TurtleParser<'a> {
    fn new(input: &'a str, allow_turtle: bool) -> Self {
        TurtleParser {
            bytes: input.as_bytes(),
            pos: 0,
            line: 1,
            allow_turtle,
            prefixes: FxHashMap::default(),
        }
    }

    fn err(&self, message: impl Into<String>) -> RdfError {
        RdfError::syntax(self.line, message)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn skip_ws_and_comments(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'#' => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn eat(&mut self, expected: u8) -> Result<(), RdfError> {
        match self.peek() {
            Some(b) if b == expected => {
                self.bump();
                Ok(())
            }
            other => Err(self.err(format!(
                "expected '{}', found {:?}",
                expected as char,
                other.map(|b| b as char)
            ))),
        }
    }

    /// Parses the whole input, interning into a clone of `graph` and
    /// collecting id triples, and bulk-inserts them with
    /// [`Graph::extend_ids`] only once every statement parsed — so an
    /// error leaves `graph` exactly as it was, term table included.
    fn parse_into(&mut self, graph: &mut Graph) -> Result<usize, RdfError> {
        let mut parsed = graph.clone();
        let mut triples = Vec::new();
        loop {
            self.skip_ws_and_comments();
            if self.peek().is_none() {
                break;
            }
            if self.allow_turtle && self.try_parse_directive()? {
                continue;
            }
            self.parse_statement(&mut parsed, &mut triples)?;
        }
        let inserted = parsed.extend_ids(triples);
        *graph = parsed;
        Ok(inserted)
    }

    /// Parses `@prefix p: <iri> .` / `PREFIX p: <iri>` / `@base`. Returns
    /// `true` if a directive was consumed.
    fn try_parse_directive(&mut self) -> Result<bool, RdfError> {
        let start = self.pos;
        let at_form = self.peek() == Some(b'@');
        let keyword = if at_form {
            self.bump();
            self.read_word()
        } else {
            let w = self.read_word();
            w.to_ascii_lowercase()
        };
        match keyword.as_str() {
            "prefix" => {
                self.skip_ws_and_comments();
                let label = self.read_prefix_label()?;
                self.eat(b':')?;
                self.skip_ws_and_comments();
                let iri = self.parse_iri_ref()?;
                self.prefixes.insert(label, iri);
                self.skip_ws_and_comments();
                if at_form {
                    self.eat(b'.')?;
                } else if self.peek() == Some(b'.') {
                    self.bump();
                }
                Ok(true)
            }
            "base" => {
                self.skip_ws_and_comments();
                let _ = self.parse_iri_ref()?;
                self.skip_ws_and_comments();
                if at_form {
                    self.eat(b'.')?;
                } else if self.peek() == Some(b'.') {
                    self.bump();
                }
                Ok(true)
            }
            _ => {
                self.pos = start;
                Ok(false)
            }
        }
    }

    fn read_word(&mut self) -> String {
        let mut word = String::new();
        while let Some(b) = self.peek() {
            if b.is_ascii_alphabetic() {
                word.push(b as char);
                self.bump();
            } else {
                break;
            }
        }
        word
    }

    fn read_prefix_label(&mut self) -> Result<String, RdfError> {
        let mut label = String::new();
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' {
                label.push(b as char);
                self.bump();
            } else {
                break;
            }
        }
        Ok(label)
    }

    /// One `subject predicateObjectList .` statement: interns its terms
    /// and appends its triples to `triples`.
    fn parse_statement(
        &mut self,
        graph: &mut Graph,
        triples: &mut Vec<Triple>,
    ) -> Result<(), RdfError> {
        let subject = self.parse_term(TermPosition::Subject)?;
        let s = graph.intern(subject);
        loop {
            self.skip_ws_and_comments();
            let predicate = self.parse_predicate()?;
            let p = graph.intern(predicate);
            loop {
                self.skip_ws_and_comments();
                let object = self.parse_term(TermPosition::Object)?;
                let o = graph.intern(object);
                triples.push(Triple { s, p, o });
                self.skip_ws_and_comments();
                match self.peek() {
                    Some(b',') if self.allow_turtle => {
                        self.bump();
                    }
                    _ => break,
                }
            }
            match self.peek() {
                Some(b';') if self.allow_turtle => {
                    self.bump();
                    self.skip_ws_and_comments();
                    // A trailing ';' before '.' is legal Turtle.
                    if self.peek() == Some(b'.') {
                        break;
                    }
                }
                _ => break,
            }
        }
        self.skip_ws_and_comments();
        self.eat(b'.')
    }

    fn parse_predicate(&mut self) -> Result<Term, RdfError> {
        if self.allow_turtle && self.peek() == Some(b'a') {
            // `a` only counts as rdf:type when followed by a delimiter.
            let next = self.bytes.get(self.pos + 1).copied();
            if next.is_none_or(|b| b.is_ascii_whitespace() || b == b'<') {
                self.bump();
                return Ok(Term::iri(vocab::rdf::TYPE));
            }
        }
        match self.parse_term(TermPosition::Predicate)? {
            t @ Term::Iri(_) => Ok(t),
            other => Err(self.err(format!("predicate must be an IRI, found {other}"))),
        }
    }

    fn parse_term(&mut self, position: TermPosition) -> Result<Term, RdfError> {
        self.skip_ws_and_comments();
        match self.peek() {
            Some(b'<') => Ok(Term::iri(self.parse_iri_ref()?)),
            Some(b'_') => {
                if position == TermPosition::Predicate {
                    return Err(self.err("predicate must be an IRI, found blank node"));
                }
                self.bump();
                self.eat(b':')?;
                let mut label = String::new();
                while let Some(b) = self.peek() {
                    if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' {
                        label.push(b as char);
                        self.bump();
                    } else {
                        break;
                    }
                }
                if label.is_empty() {
                    return Err(self.err("empty blank node label"));
                }
                Ok(Term::blank(label))
            }
            Some(b'"') => {
                if position != TermPosition::Object {
                    return Err(self.err("literal allowed only in object position"));
                }
                self.parse_literal().map(Term::Literal)
            }
            Some(b'[') => Err(self.err("anonymous blank nodes '[]' are not supported")),
            Some(b'(') => Err(self.err("collections '( .. )' are not supported")),
            Some(b) if self.allow_turtle && (b.is_ascii_digit() || b == b'+' || b == b'-') => {
                if position != TermPosition::Object {
                    return Err(self.err("numeric literal allowed only in object position"));
                }
                self.parse_numeric_shorthand().map(Term::Literal)
            }
            Some(_) if self.allow_turtle => {
                // prefixed name, or `true` / `false`
                let start = self.pos;
                let pname = self.parse_pname();
                match pname {
                    Ok(term) => Ok(term),
                    Err(e) => {
                        self.pos = start;
                        Err(e)
                    }
                }
            }
            other => Err(self.err(format!(
                "unexpected {:?} while reading a term",
                other.map(|b| b as char)
            ))),
        }
    }

    fn parse_iri_ref(&mut self) -> Result<String, RdfError> {
        self.eat(b'<')?;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'>' {
                let iri = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8 in IRI"))?
                    .to_owned();
                self.bump();
                if iri.chars().any(|c| c.is_whitespace()) {
                    return Err(self.err("whitespace inside IRI"));
                }
                return Ok(iri);
            }
            if b == b'\n' {
                return Err(self.err("unterminated IRI"));
            }
            self.bump();
        }
        Err(self.err("unterminated IRI"))
    }

    fn parse_literal(&mut self) -> Result<Literal, RdfError> {
        self.eat(b'"')?;
        let mut lexical = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string literal")),
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'n') => lexical.push('\n'),
                    Some(b'r') => lexical.push('\r'),
                    Some(b't') => lexical.push('\t'),
                    Some(b'"') => lexical.push('"'),
                    Some(b'\\') => lexical.push('\\'),
                    Some(b'u') => lexical.push(self.parse_unicode_escape(4)?),
                    Some(b'U') => lexical.push(self.parse_unicode_escape(8)?),
                    other => {
                        return Err(
                            self.err(format!("invalid escape \\{:?}", other.map(|b| b as char)))
                        )
                    }
                },
                Some(b) if b < 0x80 => lexical.push(b as char),
                Some(b) => {
                    // Re-assemble a multi-byte UTF-8 sequence.
                    let extra = match b {
                        0xC0..=0xDF => 1,
                        0xE0..=0xEF => 2,
                        _ => 3,
                    };
                    let mut buf = vec![b];
                    for _ in 0..extra {
                        buf.push(self.bump().ok_or_else(|| self.err("truncated utf-8"))?);
                    }
                    let s = String::from_utf8(buf).map_err(|_| self.err("invalid utf-8"))?;
                    lexical.push_str(&s);
                }
            }
        }
        match self.peek() {
            Some(b'^') => {
                self.bump();
                self.eat(b'^')?;
                self.skip_ws_and_comments();
                let datatype = if self.peek() == Some(b'<') {
                    self.parse_iri_ref()?
                } else if self.allow_turtle {
                    match self.parse_pname()? {
                        Term::Iri(iri) => iri.into_string(),
                        _ => return Err(self.err("datatype must be an IRI")),
                    }
                } else {
                    return Err(self.err("expected datatype IRI after '^^'"));
                };
                Ok(Literal::typed(lexical, datatype))
            }
            Some(b'@') => {
                self.bump();
                let mut tag = String::new();
                while let Some(b) = self.peek() {
                    if b.is_ascii_alphanumeric() || b == b'-' {
                        tag.push(b as char);
                        self.bump();
                    } else {
                        break;
                    }
                }
                if tag.is_empty() {
                    return Err(self.err("empty language tag"));
                }
                Ok(Literal::tagged(lexical, tag))
            }
            _ => Ok(Literal::simple(lexical)),
        }
    }

    fn parse_unicode_escape(&mut self, digits: usize) -> Result<char, RdfError> {
        let mut value = 0u32;
        for _ in 0..digits {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            value = value * 16 + d;
        }
        char::from_u32(value).ok_or_else(|| self.err("invalid unicode code point"))
    }

    fn parse_numeric_shorthand(&mut self) -> Result<Literal, RdfError> {
        let mut text = String::new();
        if let Some(sign @ (b'+' | b'-')) = self.peek() {
            self.bump();
            text.push(sign as char);
        }
        let mut has_dot = false;
        let mut has_exp = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    self.bump();
                    text.push(b as char);
                }
                b'.' if !has_dot && !has_exp => {
                    // a '.' followed by a non-digit terminates the statement
                    if !self
                        .bytes
                        .get(self.pos + 1)
                        .copied()
                        .is_some_and(|c| c.is_ascii_digit())
                    {
                        break;
                    }
                    has_dot = true;
                    self.bump();
                    text.push(b as char);
                }
                b'e' | b'E' if !has_exp => {
                    has_exp = true;
                    self.bump();
                    text.push(b as char);
                    if let Some(sign @ (b'+' | b'-')) = self.peek() {
                        self.bump();
                        text.push(sign as char);
                    }
                }
                _ => break,
            }
        }
        if text.is_empty() || text == "+" || text == "-" {
            return Err(self.err("malformed numeric literal"));
        }
        let datatype = if has_exp {
            vocab::xsd::DOUBLE
        } else if has_dot {
            vocab::xsd::DECIMAL
        } else {
            vocab::xsd::INTEGER
        };
        Ok(Literal::typed(text, datatype))
    }

    fn parse_pname(&mut self) -> Result<Term, RdfError> {
        let label = self.read_prefix_label()?;
        if self.peek() != Some(b':') {
            return match label.as_str() {
                "true" | "false" => Ok(Term::Literal(Literal::typed(label, vocab::xsd::BOOLEAN))),
                _ => Err(self.err(format!("expected ':' after prefix label '{label}'"))),
            };
        }
        self.bump();
        let Some(base) = self.prefixes.get(&label).cloned() else {
            return Err(RdfError::UnknownPrefix {
                line: self.line,
                prefix: label,
            });
        };
        let mut local = String::new();
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' {
                local.push(b as char);
                self.bump();
            } else if b == b'.'
                && self
                    .bytes
                    .get(self.pos + 1)
                    .copied()
                    .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
            {
                // internal dots are legal in local names; a trailing dot
                // terminates the statement instead.
                local.push('.');
                self.bump();
            } else {
                break;
            }
        }
        Ok(Term::iri(format!("{base}{local}")))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TermPosition {
    Subject,
    Predicate,
    Object,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ntriples_round_trip() {
        let input = "\
<http://ex/obs1> <http://ex/origin> <http://ex/Syria> .
<http://ex/Syria> <http://ex/label> \"Syria\" .
<http://ex/obs1> <http://ex/applicants> \"403\"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/Syria> <http://ex/label> \"Syrie\"@fr .
_:b0 <http://ex/p> \"line\\nbreak\" .
";
        let mut g = Graph::new();
        let n = parse_ntriples(input, &mut g).expect("parse");
        assert_eq!(n, 5);
        let serialized = to_ntriples(&g);
        let mut g2 = Graph::new();
        parse_ntriples(&serialized, &mut g2).expect("reparse");
        assert_eq!(g2.len(), 5);
        assert_eq!(to_ntriples(&g2), serialized);
    }

    #[test]
    fn ntriples_rejects_prefixed_names() {
        let mut g = Graph::new();
        assert!(parse_ntriples("ex:a ex:b ex:c .", &mut g).is_err());
    }

    #[test]
    fn turtle_prefixes_and_sugar() {
        let input = "\
@prefix ex: <http://ex/> .
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
ex:obs1 a ex:Observation ;
    ex:origin ex:Syria , ex:Iraq ;
    ex:applicants 403 ;
    ex:rate 4.5 ;
    ex:scale 1.0e3 ;
    ex:valid true .
";
        let mut g = Graph::new();
        let n = parse_turtle(input, &mut g).expect("parse");
        assert_eq!(n, 7);
        let obs = g.iri_id("http://ex/obs1").expect("obs interned");
        let a = g.iri_id(vocab::rdf::TYPE).expect("rdf:type interned");
        assert_eq!(g.objects(obs, a).len(), 1);
        let applicants = g.iri_id("http://ex/applicants").expect("pred");
        let v = g.objects(obs, applicants)[0];
        assert_eq!(g.numeric_value(v), Some(403.0));
        let rate = g.iri_id("http://ex/rate").expect("pred");
        assert_eq!(g.numeric_value(g.objects(obs, rate)[0]), Some(4.5));
        let scale = g.iri_id("http://ex/scale").expect("pred");
        assert_eq!(g.numeric_value(g.objects(obs, scale)[0]), Some(1000.0));
    }

    #[test]
    fn turtle_unknown_prefix_is_reported() {
        let mut g = Graph::new();
        let err = parse_turtle("nope:a nope:b nope:c .", &mut g).unwrap_err();
        assert!(matches!(err, RdfError::UnknownPrefix { .. }), "{err}");
    }

    #[test]
    fn turtle_local_names_with_dots() {
        let input = "@prefix ex: <http://ex/> .\nex:a.b ex:p ex:c .";
        let mut g = Graph::new();
        parse_turtle(input, &mut g).expect("parse");
        assert!(g.iri_id("http://ex/a.b").is_some());
    }

    #[test]
    fn literal_escapes_and_unicode() {
        let input = r#"<http://ex/s> <http://ex/p> "tab\there é" ."#;
        let mut g = Graph::new();
        parse_ntriples(input, &mut g).expect("parse");
        let t = g.iter()[0];
        let lit = g.term(t.o).as_literal().expect("literal");
        assert_eq!(lit.lexical(), "tab\there é");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let input = "# header\n\n<http://ex/s> <http://ex/p> <http://ex/o> . # trailing\n";
        let mut g = Graph::new();
        assert_eq!(parse_ntriples(input, &mut g).expect("parse"), 1);
    }

    #[test]
    fn duplicate_triples_counted_once() {
        let input = "<http://ex/s> <http://ex/p> <http://ex/o> .\n<http://ex/s> <http://ex/p> <http://ex/o> .";
        let mut g = Graph::new();
        assert_eq!(parse_ntriples(input, &mut g).expect("parse"), 1);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn unsupported_constructs_error_clearly() {
        let mut g = Graph::new();
        let e = parse_turtle(
            "@prefix ex: <http://ex/> .\nex:s ex:p [ ex:q ex:r ] .",
            &mut g,
        )
        .unwrap_err();
        assert!(e.to_string().contains("not supported"));
        let e = parse_turtle("@prefix ex: <http://ex/> .\nex:s ex:p (1 2) .", &mut g).unwrap_err();
        assert!(e.to_string().contains("not supported"));
    }

    #[test]
    fn error_line_numbers_are_accurate() {
        let input = "<http://ex/s> <http://ex/p> <http://ex/o> .\n<http://ex/s> <http://ex/p> .";
        let mut g = Graph::new();
        let err = parse_ntriples(input, &mut g).unwrap_err();
        match err {
            RdfError::Syntax { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    /// A document whose third statement is malformed leaves the graph it
    /// was parsed into exactly as it was — empty or not — in both syntaxes.
    #[test]
    fn a_syntax_error_inserts_nothing() {
        let ntriples = "\
<http://ex/a> <http://ex/p> \"Alpha\" .
<http://ex/b> <http://ex/p> <http://ex/a> .
<http://ex/c> <http://ex/p> .
<http://ex/d> <http://ex/p> <http://ex/a> .
";
        let turtle = "\
@prefix ex: <http://ex/> .
ex:a ex:p \"Alpha\" .
ex:b ex:p ex:a ; ex:q ex:c .
ex:c ex:p [ ex:q ex:d ] .
ex:d ex:p ex:a .
";
        let mut loaded = Graph::new();
        parse_ntriples(
            "<http://ex/x> <http://ex/p> \"Xi\" .\n<http://ex/y> <http://ex/p> <http://ex/x> .",
            &mut loaded,
        )
        .expect("parse");
        let mut written = loaded.clone();
        let z = written.intern_iri("http://ex/z");
        assert!(written.insert_ids(z, z, z));
        for before in [Graph::new(), loaded, written] {
            for (parse, input) in [
                (parse_ntriples as fn(&str, &mut Graph) -> _, ntriples),
                (parse_turtle, turtle),
            ] {
                let mut g = before.clone();
                let err = parse(input, &mut g).unwrap_err();
                assert!(matches!(err, RdfError::Syntax { line: 3 | 4, .. }), "{err}");
                assert_eq!(g.len(), before.len());
                assert_eq!(g.iter_sorted(), before.iter_sorted());
                assert_eq!(g.predicates(), before.predicates());
                for p in before.predicates() {
                    assert_eq!(g.predicate_stats(p), before.predicate_stats(p));
                }
                assert_eq!(g.interner().len(), before.interner().len());
                assert!(g.iri_id("http://ex/a").is_none());
                assert!(g.literals_matching_exact("alpha").is_empty());
                assert!(g.shares_base_with(&before) && g.shares_terms_with(&before));
                // the same document without its bad statement goes in whole
                let fixed: String = input
                    .lines()
                    .filter(|l| !l.starts_with("<http://ex/c>") && !l.starts_with("ex:c"))
                    .map(|l| format!("{l}\n"))
                    .collect();
                let added = parse(&fixed, &mut g).expect("parse");
                assert_eq!(added, if input == turtle { 4 } else { 3 });
                assert_eq!(g.len(), before.len() + added);
            }
        }
    }

    #[test]
    fn language_tagged_round_trip() {
        let input = "<http://ex/s> <http://ex/p> \"Wien\"@de-AT .";
        let mut g = Graph::new();
        parse_ntriples(input, &mut g).expect("parse");
        let t = g.iter()[0];
        assert_eq!(
            g.term(t.o).as_literal().and_then(|l| l.language()),
            Some("de-at")
        );
    }
}
