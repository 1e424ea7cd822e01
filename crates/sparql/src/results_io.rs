//! Serialization of solution sequences in the W3C "SPARQL 1.1 Query
//! Results CSV and TSV Formats" — the interchange formats analysts feed
//! into spreadsheets and notebooks, and the natural export for RE²xOLAP's
//! aggregate tables. One writer per format streams into any [`fmt::Write`]
//! sink, no `String` per cell or row: a round digest hashes the TSV stream.

use crate::number::NumberText;
use crate::value::{Solutions, Value};
use re2x_rdf::{write_quoted, Graph};
use std::fmt::{self, Write};

/// Serializes solutions as SPARQL-results CSV ([`write_csv`] into a `String`).
pub fn to_csv(solutions: &Solutions, graph: &Graph) -> String {
    let mut out = String::new();
    let _ = write_csv(solutions, graph, &mut out); // lint:allow(discarded-result, a String sink cannot fail)
    out
}

/// Serializes solutions as SPARQL-results TSV ([`write_tsv`] into a `String`).
pub fn to_tsv(solutions: &Solutions, graph: &Graph) -> String {
    let mut out = String::new();
    let _ = write_tsv(solutions, graph, &mut out); // lint:allow(discarded-result, a String sink cannot fail)
    out
}

/// Writes SPARQL-results CSV: RFC 4180 quoting, IRIs bare, literals lexical.
pub fn write_csv(solutions: &Solutions, graph: &Graph, out: &mut impl Write) -> fmt::Result {
    write_table(solutions, graph, out, false)
}

/// Writes SPARQL-results TSV: IRIs in angle brackets, literals quoted.
pub fn write_tsv(solutions: &Solutions, graph: &Graph, out: &mut impl Write) -> fmt::Result {
    write_table(solutions, graph, out, true)
}

/// A header line, then one line per row (unbound cells empty; numbers bare).
///
/// A number cell bit-identical to the number cell before it (a group's
/// MIN, MAX, AVG and SUM over one observation are one value) is written
/// again from the previous rendering instead of being rendered again.
fn write_table(results: &Solutions, graph: &Graph, out: &mut impl Write, tsv: bool) -> fmt::Result {
    let (sep, line_end) = if tsv { ('\t', "\n") } else { (',', "\r\n") };
    let mut number = NumberText::new();
    let mut rendered: Option<u64> = None;
    for (i, var) in results.vars.iter().enumerate() {
        if i > 0 {
            out.write_char(sep)?;
        }
        match tsv {
            true => write!(out, "?{var}")?,
            false => csv_field(var, out)?,
        }
    }
    out.write_str(line_end)?;
    for row in &results.rows {
        for (i, value) in row.iter().enumerate() {
            if i > 0 {
                out.write_char(sep)?;
            }
            match value {
                None => {}
                Some(Value::Number(n)) => match rendered == Some(n.to_bits()) {
                    true => out.write_str(number.as_str())?,
                    false => {
                        rendered = Some(n.to_bits());
                        out.write_str(number.render(*n))?;
                    }
                },
                Some(Value::Bool(b)) => out.write_str(if *b { "true" } else { "false" })?,
                Some(value) if !tsv => csv_field(&value.string_form(graph), out)?,
                Some(Value::Term(id)) => graph.term(*id).write_nt(out)?,
                Some(Value::Str(s)) => write_quoted(s, out)?,
            }
        }
        out.write_str(line_end)?;
    }
    Ok(())
}

/// RFC 4180: quote a field holding comma, quote, CR or LF; double inner quotes.
fn csv_field(field: &str, out: &mut impl Write) -> fmt::Result {
    if !field.contains([',', '"', '\r', '\n']) {
        return out.write_str(field);
    }
    write!(out, "\"{}\"", field.replace('"', "\"\""))
}

#[cfg(test)]
mod tests {
    use super::*;
    use re2x_rdf::Literal;

    fn sample() -> (Graph, Solutions) {
        let mut g = Graph::new();
        let iri = g.intern_iri("http://ex/Germany");
        let tricky = g.intern_literal(Literal::simple("a,b \"c\""));
        let solutions = Solutions {
            vars: vec!["dest".into(), "note".into(), "total".into()],
            rows: vec![
                vec![
                    Some(Value::Term(iri)),
                    Some(Value::Term(tricky)),
                    Some(Value::Number(8030.0)),
                ],
                vec![None, None, Some(Value::Number(2.5))],
            ],
        };
        (g, solutions)
    }

    #[test]
    fn csv_quotes_per_rfc4180() {
        let (g, s) = sample();
        let csv = to_csv(&s, &g);
        let lines: Vec<&str> = csv.split("\r\n").collect();
        assert_eq!(lines[0], "dest,note,total");
        assert_eq!(lines[1], "http://ex/Germany,\"a,b \"\"c\"\"\",8030");
        assert_eq!(lines[2], ",,2.5");
    }

    #[test]
    fn tsv_uses_term_syntax() {
        let (g, s) = sample();
        let tsv = to_tsv(&s, &g);
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines[0], "?dest\t?note\t?total");
        assert!(lines[1].starts_with("<http://ex/Germany>\t\"a,b \\\"c\\\"\"\t8030"));
        assert_eq!(lines[2], "\t\t2.5");
    }

    #[test]
    fn empty_solutions_serialize_to_header_only() {
        let g = Graph::new();
        let s = Solutions {
            vars: vec!["x".into()],
            rows: vec![],
        };
        assert_eq!(to_csv(&s, &g), "x\r\n");
        assert_eq!(to_tsv(&s, &g), "?x\n");
    }
}
