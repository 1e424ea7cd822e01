//! The RDF term model: IRIs, blank nodes, and literals.

use std::fmt;

/// An RDF literal: a lexical form with an optional datatype IRI or language
/// tag (mutually exclusive per the RDF 1.1 specification; a language-tagged
/// literal implicitly has datatype `rdf:langString`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    lexical: Box<str>,
    /// Datatype IRI, if any. `None` together with `language: None` means a
    /// plain `xsd:string` literal.
    datatype: Option<Box<str>>,
    /// BCP-47 language tag, lowercased.
    language: Option<Box<str>>,
}

impl Literal {
    /// A plain (untyped, untagged) string literal.
    pub fn simple(lexical: impl Into<String>) -> Self {
        Literal {
            lexical: lexical.into().into_boxed_str(),
            datatype: None,
            language: None,
        }
    }

    /// A literal with an explicit datatype IRI.
    pub fn typed(lexical: impl Into<String>, datatype: impl Into<String>) -> Self {
        Literal {
            lexical: lexical.into().into_boxed_str(),
            datatype: Some(datatype.into().into_boxed_str()),
            language: None,
        }
    }

    /// A language-tagged literal. The tag is normalized to lowercase.
    pub fn tagged(lexical: impl Into<String>, language: impl Into<String>) -> Self {
        Literal {
            lexical: lexical.into().into_boxed_str(),
            datatype: None,
            language: Some(language.into().to_ascii_lowercase().into_boxed_str()),
        }
    }

    /// An `xsd:integer` literal.
    pub fn integer(value: i64) -> Self {
        Literal::typed(value.to_string(), crate::vocab::xsd::INTEGER)
    }

    /// An `xsd:double` literal.
    pub fn double(value: f64) -> Self {
        Literal::typed(format_double(value), crate::vocab::xsd::DOUBLE)
    }

    /// An `xsd:decimal` literal.
    pub fn decimal(value: f64) -> Self {
        Literal::typed(format_double(value), crate::vocab::xsd::DECIMAL)
    }

    /// The lexical form.
    pub fn lexical(&self) -> &str {
        &self.lexical
    }

    /// The datatype IRI, if explicitly typed.
    pub fn datatype(&self) -> Option<&str> {
        self.datatype.as_deref()
    }

    /// The language tag, if language-tagged.
    pub fn language(&self) -> Option<&str> {
        self.language.as_deref()
    }

    /// Attempts to interpret the literal as a number.
    ///
    /// Untyped literals are *not* treated as numeric — statistical KGs type
    /// their measure values — but any literal whose datatype is one of the
    /// XSD numeric types is parsed.
    pub fn as_f64(&self) -> Option<f64> {
        let dt = self.datatype.as_deref()?;
        if crate::vocab::xsd::is_numeric(dt) {
            self.lexical.trim().parse::<f64>().ok()
        } else {
            None
        }
    }

    /// `true` if the literal carries one of the XSD numeric datatypes and
    /// parses as a finite number.
    pub fn is_numeric(&self) -> bool {
        self.as_f64().is_some_and(f64::is_finite)
    }
}

/// Formats a double so that round-trips through the lexical form are exact
/// while whole numbers stay readable (`3` rather than `3.0` is avoided —
/// XSD doubles want a decimal point or exponent, so we keep `3.0`).
fn format_double(value: f64) -> String {
    if value.fract() == 0.0 && value.is_finite() && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

/// An RDF term: the subject/predicate/object vocabulary of a graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI (stored without the surrounding angle brackets).
    Iri(Box<str>),
    /// A blank node with its local label (without the `_:` prefix).
    BlankNode(Box<str>),
    /// A literal value.
    Literal(Literal),
}

impl Term {
    /// Constructs an IRI term.
    pub fn iri(value: impl Into<String>) -> Self {
        Term::Iri(value.into().into_boxed_str())
    }

    /// Constructs a blank-node term.
    pub fn blank(label: impl Into<String>) -> Self {
        Term::BlankNode(label.into().into_boxed_str())
    }

    /// `true` for [`Term::Iri`].
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// `true` for [`Term::Literal`].
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// `true` for [`Term::BlankNode`].
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::BlankNode(_))
    }

    /// The IRI string if this term is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(iri) => Some(iri),
            _ => None,
        }
    }

    /// The literal if this term is a literal.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(lit) => Some(lit),
            _ => None,
        }
    }
}

impl From<Literal> for Term {
    fn from(value: Literal) -> Self {
        Term::Literal(value)
    }
}

/// Writes `text` as a quoted N-Triples string (`"`, `\`, LF, CR and TAB
/// escaped; no language tag or datatype). Each run of bytes that needs no
/// escape is one `write_str`.
pub fn write_quoted(text: &str, out: &mut impl fmt::Write) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, byte) in text.bytes().enumerate() {
        let escaped = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            _ => continue,
        };
        // the escaped bytes are ASCII, so `i` is a char boundary
        out.write_str(&text[run..i])?;
        out.write_str(escaped)?;
        run = i + 1;
    }
    out.write_str(&text[run..])?;
    out.write_char('"')
}

impl Literal {
    /// Writes the N-Triples-compatible rendering into any sink — what
    /// `Display` writes, without a `Formatter` in between.
    pub(crate) fn write_nt(&self, out: &mut impl fmt::Write) -> fmt::Result {
        write_quoted(&self.lexical, out)?;
        if let Some(lang) = &self.language {
            out.write_char('@')?;
            out.write_str(lang)
        } else if let Some(dt) = &self.datatype {
            out.write_str("^^<")?;
            out.write_str(dt)?;
            out.write_char('>')
        } else {
            Ok(())
        }
    }
}

impl fmt::Display for Literal {
    /// N-Triples-compatible rendering (`write_nt`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_nt(f)
    }
}

impl Term {
    /// Writes the N-Triples-compatible rendering into any sink — what
    /// `Display` writes, without a `Formatter` in between: `<iri>`,
    /// `_:label` or the quoted literal.
    pub fn write_nt(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Term::Iri(iri) => {
                out.write_char('<')?;
                out.write_str(iri)?;
                out.write_char('>')
            }
            Term::BlankNode(label) => {
                out.write_str("_:")?;
                out.write_str(label)
            }
            Term::Literal(lit) => lit.write_nt(out),
        }
    }
}

impl fmt::Display for Term {
    /// N-Triples-compatible rendering ([`Term::write_nt`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_nt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::xsd;

    #[test]
    fn literal_constructors() {
        let l = Literal::simple("Germany");
        assert_eq!(l.lexical(), "Germany");
        assert_eq!(l.datatype(), None);
        assert_eq!(l.language(), None);

        let l = Literal::typed("42", xsd::INTEGER);
        assert_eq!(l.datatype(), Some(xsd::INTEGER));

        let l = Literal::tagged("Allemagne", "FR");
        assert_eq!(l.language(), Some("fr"));
    }

    #[test]
    fn numeric_parsing_requires_numeric_datatype() {
        assert_eq!(Literal::simple("42").as_f64(), None);
        assert_eq!(Literal::integer(42).as_f64(), Some(42.0));
        assert_eq!(Literal::double(1.5).as_f64(), Some(1.5));
        assert_eq!(Literal::typed("x", xsd::INTEGER).as_f64(), None);
        assert!(!Literal::typed("NaN", xsd::DOUBLE).is_numeric());
    }

    #[test]
    fn double_formatting_round_trips() {
        assert_eq!(Literal::double(3.0).lexical(), "3.0");
        assert_eq!(Literal::double(3.25).lexical(), "3.25");
        assert_eq!(Literal::double(3.25).as_f64(), Some(3.25));
    }

    #[test]
    fn display_is_ntriples_compatible() {
        assert_eq!(Term::iri("http://ex/a").to_string(), "<http://ex/a>");
        assert_eq!(Term::blank("b0").to_string(), "_:b0");
        assert_eq!(
            Term::from(Literal::simple("say \"hi\"\n")).to_string(),
            "\"say \\\"hi\\\"\\n\""
        );
        assert_eq!(
            Term::from(Literal::tagged("Berlin", "de")).to_string(),
            "\"Berlin\"@de"
        );
        assert_eq!(
            Term::from(Literal::integer(7)).to_string(),
            format!("\"7\"^^<{}>", xsd::INTEGER)
        );
    }

    /// The per-`char` rendering `Display` used before it wrote unescaped
    /// runs whole: the byte-identity oracle.
    fn per_char_display(lit: &Literal) -> String {
        let mut out = String::from("\"");
        for c in lit.lexical().chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                other => out.push(other),
            }
        }
        out.push('"');
        if let Some(lang) = lit.language() {
            out.push_str(&format!("@{lang}"));
        } else if let Some(dt) = lit.datatype() {
            out.push_str(&format!("^^<{dt}>"));
        }
        out
    }

    #[test]
    fn display_escapes_runs_byte_identically() {
        let texts = [
            "",
            "plain",
            "\"",
            "\\",
            "a\"b\\c\nd\re\tf",
            "\"\"\\\\\n\n",
            "ends with tab\t",
            "Zürich — 北京 \"quoted\" 😀",
            "\u{7f}\u{0}\u{1b}",
        ];
        for text in texts {
            let literals = [
                Literal::simple(text),
                Literal::tagged(text, "de-CH"),
                Literal::typed(text, xsd::STRING),
            ];
            for lit in literals {
                assert_eq!(lit.to_string(), per_char_display(&lit), "{text:?}");
                assert_eq!(Term::from(lit.clone()).to_string(), lit.to_string());
            }
            let mut quoted = String::new();
            write_quoted(text, &mut quoted).expect("writing into a String");
            assert_eq!(quoted, per_char_display(&Literal::simple(text)));
        }
        assert_eq!(
            Literal::tagged("a\tb", "EN").to_string(),
            "\"a\\tb\"@en",
            "tag lowercased after the escaped lexical form"
        );
    }

    #[test]
    fn term_predicates() {
        assert!(Term::iri("http://ex/a").is_iri());
        assert!(Term::blank("x").is_blank());
        assert!(Term::from(Literal::simple("v")).is_literal());
        assert_eq!(Term::iri("http://ex/a").as_iri(), Some("http://ex/a"));
        assert!(Term::blank("x").as_iri().is_none());
    }
}
