//! Serialization of solution sequences in the W3C "SPARQL 1.1 Query
//! Results CSV and TSV Formats" — the interchange formats analysts feed
//! into spreadsheets and notebooks, and the natural export for RE²xOLAP's
//! aggregate tables.

use crate::value::{format_number, Solutions, Value};
use re2x_rdf::{Graph, Term};

/// Serializes solutions as SPARQL-results CSV (RFC 4180 quoting; IRIs
/// bare, literals by lexical form, unbound as empty fields).
pub fn to_csv(solutions: &Solutions, graph: &Graph) -> String {
    let mut out = String::new();
    out.push_str(&join(solutions.vars.iter().map(|v| csv_escape(v)), ","));
    out.push_str("\r\n");
    for row in &solutions.rows {
        let cells = row.iter().map(|cell| match cell {
            None => String::new(),
            Some(v) => csv_escape(&csv_form(v, graph)),
        });
        out.push_str(&join(cells, ","));
        out.push_str("\r\n");
    }
    out
}

/// Serializes solutions as SPARQL-results TSV (terms in N-Triples-ish
/// syntax: IRIs in angle brackets, literals quoted, numbers bare).
pub fn to_tsv(solutions: &Solutions, graph: &Graph) -> String {
    let mut out = String::new();
    out.push_str(&join(solutions.vars.iter().map(|v| format!("?{v}")), "\t"));
    out.push('\n');
    for row in &solutions.rows {
        let cells = row.iter().map(|cell| match cell {
            None => String::new(),
            Some(v) => tsv_form(v, graph),
        });
        out.push_str(&join(cells, "\t"));
        out.push('\n');
    }
    out
}

fn join(items: impl Iterator<Item = String>, sep: &str) -> String {
    items.collect::<Vec<_>>().join(sep)
}

/// CSV value form: bare IRI / lexical form / formatted number.
fn csv_form(value: &Value, graph: &Graph) -> String {
    value.string_form(graph).into_owned()
}

/// RFC 4180: quote when the field contains comma, quote, CR or LF; double
/// inner quotes.
fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\r', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// TSV term form per the W3C format: full term syntax.
fn tsv_form(value: &Value, graph: &Graph) -> String {
    match value {
        Value::Term(id) => match graph.term(*id) {
            Term::Iri(iri) => format!("<{iri}>"),
            t => t.to_string(),
        },
        Value::Number(n) => format_number(*n),
        Value::Bool(b) => b.to_string(),
        Value::Str(s) => Term::from(re2x_rdf::Literal::simple(s.clone())).to_string(),
    }
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
