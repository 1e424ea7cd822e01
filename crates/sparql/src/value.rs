//! Runtime values and the solution-sequence representation.

use crate::number::NumberText;
use re2x_rdf::{Graph, Term, TermId};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt::Write as _;

/// A runtime value: either a graph term or a value computed by an
/// expression/aggregate.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An interned graph term.
    Term(TermId),
    /// A computed number (aggregates, arithmetic).
    Number(f64),
    /// A computed boolean.
    Bool(bool),
    /// A computed string (`STR`, `LCASE`, …).
    Str(String),
}

impl Value {
    /// Numeric interpretation, using the graph's cached literal parses.
    pub fn as_number(&self, graph: &Graph) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::Term(id) => graph.numeric_value(*id),
            Value::Bool(_) | Value::Str(_) => None,
        }
    }

    /// Boolean interpretation (SPARQL effective boolean value, restricted).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String form: lexical form for literals, the IRI for IRIs. Borrowed
    /// from the value or the graph wherever the text already exists there
    /// (only computed numbers and blank-node labels are rendered), so
    /// comparisons through it do not allocate.
    pub fn string_form<'a>(&'a self, graph: &'a Graph) -> Cow<'a, str> {
        match self {
            Value::Str(s) => Cow::Borrowed(s),
            Value::Number(n) => Cow::Owned(format_number(*n)),
            Value::Bool(b) => Cow::Borrowed(if *b { "true" } else { "false" }),
            Value::Term(id) => match graph.term(*id) {
                Term::Iri(iri) => Cow::Borrowed(iri),
                Term::BlankNode(b) => Cow::Owned(format!("_:{b}")),
                Term::Literal(l) => Cow::Borrowed(l.lexical()),
            },
        }
    }

    /// SPARQL `=` semantics (restricted): term identity when both sides are
    /// the *same* term; numeric equality when both sides are numeric;
    /// otherwise string comparison of the string forms.
    ///
    /// Distinct terms fall through to numeric coercion rather than
    /// returning `false`: `"5"^^xsd:integer` and `"5.0"^^xsd:decimal` are
    /// different terms but the same number, and `equals` must agree with
    /// [`Value::compare`] (which returns `Equal` for them) so `DISTINCT` /
    /// `GROUP BY` and `ORDER BY` see the same equivalence classes.
    ///
    /// Two *distinct IRI* terms are unequal on their ids alone: neither is
    /// numeric, and the interner gives one id per IRI text, so their string
    /// forms cannot coincide.
    pub fn equals(&self, other: &Value, graph: &Graph) -> bool {
        if let (Value::Term(a), Value::Term(b)) = (self, other) {
            if a == b {
                return true;
            }
            if graph.term(*a).is_iri() && graph.term(*b).is_iri() {
                return false;
            }
        }
        if let (Some(a), Some(b)) = (self.as_number(graph), other.as_number(graph)) {
            return a == b;
        }
        self.string_form(graph) == other.string_form(graph)
    }

    /// Ordering used by comparisons and `ORDER BY`: numeric when both sides
    /// are numeric, otherwise lexicographic on the string forms.
    ///
    /// The numeric branch is a *total* order: NaN (which projected
    /// arithmetic such as `0/0` or a `"NaN"^^xsd:double` literal can
    /// produce) is pinned **after** every other number and equal to itself,
    /// regardless of its sign bit, and `-0.0 == 0.0` (matching
    /// [`Value::equals`]). A non-total comparator here would make
    /// `sort_by`'s output — and thus `ORDER BY` and every Top-k
    /// refinement — implementation-defined.
    pub fn compare(&self, other: &Value, graph: &Graph) -> Ordering {
        if let (Some(a), Some(b)) = (self.as_number(graph), other.as_number(graph)) {
            return total_compare_numeric(a, b);
        }
        self.string_form(graph).cmp(&other.string_form(graph))
    }
}

/// Total order over `f64` for `ORDER BY`: NaN sorts after all numbers and
/// compares equal to itself (sign bit ignored); otherwise IEEE order, with
/// `-0.0 == 0.0`. Unlike [`f64::total_cmp`] this keeps the two zeros (and
/// the two NaN sign bits) in one equivalence class, so the order agrees
/// with numeric `=` everywhere it is defined.
pub fn total_compare_numeric(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        // partial_cmp is Some for any two non-NaN floats; Equal is the
        // harmless answer if that invariant ever moved under us.
        (false, false) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
    }
}

/// Renders a computed number the way SPARQL result serializations do —
/// the one number rule of TSV / CSV, string forms, pretty printing and
/// round digests: integral values below 1e15 without a fractional part,
/// every other value as `{}` renders an `f64` (shortest round-trip digits,
/// no exponent). The output never contains a comma, quote, tab or newline.
pub fn format_number(n: f64) -> String {
    NumberText::new().render(n).to_owned()
}

/// A solution sequence: named columns plus rows of optional values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Solutions {
    /// Output column names (without `?`).
    pub vars: Vec<String>,
    /// Rows; `None` marks an unbound column.
    pub rows: Vec<Vec<Option<Value>>>,
}

impl Solutions {
    /// Index of a column by name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == name)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The value at `(row, column-name)`.
    pub fn value(&self, row: usize, column: &str) -> Option<&Value> {
        let col = self.column(column)?;
        self.rows.get(row)?.get(col)?.as_ref()
    }

    /// Renders the solutions as an aligned text table with IRI terms
    /// replaced by their `rdfs:label` where one exists — the presentation
    /// the interactive examples use.
    pub fn to_labeled_table(&self, graph: &Graph) -> String {
        let label_pred = graph.iri_id(re2x_rdf::vocab::rdfs::LABEL);
        self.render_table(graph, |graph, value| match (value, label_pred) {
            (Value::Term(id), Some(p)) if graph.term(*id).is_iri() => graph
                .objects(*id, p)
                .first()
                .and_then(|&l| graph.term(l).as_literal())
                .map(|l| l.lexical().to_owned()),
            _ => None,
        })
    }

    /// Renders the solutions as an aligned text table (for examples and the
    /// `repro` binary).
    pub fn to_table(&self, graph: &Graph) -> String {
        self.render_table(graph, |_, _| None)
    }

    fn render_table(
        &self,
        graph: &Graph,
        prettify: impl Fn(&Graph, &Value) -> Option<String>,
    ) -> String {
        let mut widths: Vec<usize> = self.vars.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(i, cell)| {
                        let s = cell.as_ref().map_or_else(
                            || "—".to_owned(),
                            |v| {
                                prettify(graph, v)
                                    .unwrap_or_else(|| v.string_form(graph).into_owned())
                            },
                        );
                        widths[i] = widths[i].max(s.chars().count());
                        s
                    })
                    .collect()
            })
            .collect();
        let mut out = String::new();
        for (i, var) in self.vars.iter().enumerate() {
            let _ = write!(out, "| {:w$} ", var, w = widths[i]);
        }
        out.push_str("|\n");
        for &w in &widths {
            let _ = write!(out, "|{:-<w$}", "", w = w + 2);
        }
        out.push_str("|\n");
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(out, "| {:w$} ", cell, w = widths[i]);
            }
            out.push_str("|\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re2x_rdf::Literal;

    fn graph_with_terms() -> (Graph, TermId, TermId, TermId) {
        let mut g = Graph::new();
        let iri = g.intern_iri("http://ex/Germany");
        let num = g.intern_literal(Literal::integer(42));
        let txt = g.intern_literal(Literal::simple("Germany"));
        (g, iri, num, txt)
    }

    #[test]
    fn numeric_interpretation() {
        let (g, iri, num, txt) = graph_with_terms();
        assert_eq!(Value::Term(num).as_number(&g), Some(42.0));
        assert_eq!(Value::Term(iri).as_number(&g), None);
        assert_eq!(Value::Term(txt).as_number(&g), None);
        assert_eq!(Value::Number(1.5).as_number(&g), Some(1.5));
    }

    #[test]
    fn equality_semantics() {
        let (g, iri, num, txt) = graph_with_terms();
        assert!(Value::Term(iri).equals(&Value::Term(iri), &g));
        assert!(!Value::Term(iri).equals(&Value::Term(txt), &g));
        // numeric literal equals computed number
        assert!(Value::Term(num).equals(&Value::Number(42.0), &g));
        // plain literal compares by string form
        assert!(Value::Term(txt).equals(&Value::Str("Germany".into()), &g));
    }

    #[test]
    fn ordering_numeric_before_lexicographic() {
        let (g, ..) = graph_with_terms();
        assert_eq!(
            Value::Number(2.0).compare(&Value::Number(10.0), &g),
            Ordering::Less
        );
        // strings: "10" < "2" lexicographically
        assert_eq!(
            Value::Str("10".into()).compare(&Value::Str("2".into()), &g),
            Ordering::Less
        );
    }

    #[test]
    fn compare_is_total_under_nan() {
        // Regression: `partial_cmp(..).unwrap_or(Equal)` made NaN compare
        // Equal to everything, which is not transitive (1 ≠ 2 but both
        // "equal" NaN) — `sort_by` output became implementation-defined.
        let (g, ..) = graph_with_terms();
        let nan = Value::Number(f64::NAN);
        let one = Value::Number(1.0);
        let two = Value::Number(2.0);
        // NaN is pinned after every number and equal to itself…
        assert_eq!(nan.compare(&one, &g), Ordering::Greater);
        assert_eq!(one.compare(&nan, &g), Ordering::Less);
        assert_eq!(nan.compare(&nan, &g), Ordering::Equal);
        assert_eq!(
            Value::Number(-f64::NAN).compare(&nan, &g),
            Ordering::Equal,
            "NaN sign bit must not split the equivalence class"
        );
        assert_eq!(
            nan.compare(&Value::Number(f64::INFINITY), &g),
            Ordering::Greater
        );
        // …so the comparator is antisymmetric and transitive over a
        // NaN-containing set: 1 < 2 < NaN with no Equal shortcuts.
        assert_eq!(one.compare(&two, &g), Ordering::Less);
        assert_eq!(two.compare(&nan, &g), Ordering::Less);
        assert_eq!(one.compare(&nan, &g), Ordering::Less);
    }

    #[test]
    fn compare_keeps_zeros_equal() {
        let (g, ..) = graph_with_terms();
        let pos = Value::Number(0.0);
        let neg = Value::Number(-0.0);
        assert_eq!(pos.compare(&neg, &g), Ordering::Equal);
        assert!(pos.equals(&neg, &g), "compare and equals must agree on ±0");
    }

    #[test]
    fn equals_falls_through_to_numeric_coercion() {
        // Regression: the TermId fast path returned `false` for distinct
        // terms before trying numeric coercion, so `equals` and `compare`
        // disagreed on numerically-equal literals and DISTINCT/GROUP BY
        // split classes that ORDER BY merged.
        let mut g = Graph::new();
        let int5 = g.intern_literal(Literal::typed("5", re2x_rdf::vocab::xsd::INTEGER));
        let dec5 = g.intern_literal(Literal::typed("5.0", re2x_rdf::vocab::xsd::DECIMAL));
        let padded5 = g.intern_literal(Literal::typed("05", re2x_rdf::vocab::xsd::INTEGER));
        assert_ne!(int5, dec5, "distinct terms by construction");
        for (a, b) in [(int5, dec5), (dec5, int5), (int5, padded5), (padded5, int5)] {
            let (va, vb) = (Value::Term(a), Value::Term(b));
            assert!(va.equals(&vb, &g), "{a:?} = {b:?} numerically");
            assert_eq!(
                va.compare(&vb, &g),
                Ordering::Equal,
                "equals and compare agree in both directions"
            );
        }
        // genuinely different numbers still differ
        let int6 = g.intern_literal(Literal::integer(6));
        assert!(!Value::Term(int5).equals(&Value::Term(int6), &g));
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(8030.0), "8030");
        assert_eq!(format_number(2.5), "2.5");
        assert_eq!(format_number(-3.0), "-3");
        assert_eq!(format_number(-0.0), "0");
        assert_eq!(format_number(1e15 - 1.0), "999999999999999");
        assert_eq!(format_number(1e15), "1000000000000000");
        assert_eq!(format_number(f64::NAN), "NaN");
        assert_eq!(format_number(f64::NEG_INFINITY), "-inf");
        assert_eq!(format_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(format_number(1e21), "1000000000000000000000");
        assert_eq!(format_number(-1.5e-7), "-0.00000015");
    }

    #[test]
    fn labeled_table_resolves_labels() {
        let mut g = Graph::new();
        let iri = g.intern_iri("http://ex/Germany");
        let label_p = g.intern_iri(re2x_rdf::vocab::rdfs::LABEL);
        let lit = g.intern_literal(Literal::simple("Germany"));
        g.insert_ids(iri, label_p, lit);
        let unlabeled = g.intern_iri("http://ex/NoLabel");
        let sols = Solutions {
            vars: vec!["a".into(), "b".into()],
            rows: vec![vec![Some(Value::Term(iri)), Some(Value::Term(unlabeled))]],
        };
        let table = sols.to_labeled_table(&g);
        assert!(table.contains("Germany"));
        assert!(!table.contains("http://ex/Germany"), "{table}");
        assert!(table.contains("http://ex/NoLabel"), "fallback to IRI");
    }

    #[test]
    fn solutions_accessors_and_table() {
        let (g, iri, num, _) = graph_with_terms();
        let sols = Solutions {
            vars: vec!["dest".into(), "total".into()],
            rows: vec![vec![Some(Value::Term(iri)), Some(Value::Term(num))]],
        };
        assert_eq!(sols.column("total"), Some(1));
        assert_eq!(sols.column("nope"), None);
        assert_eq!(sols.len(), 1);
        let v = sols.value(0, "total").expect("bound");
        assert_eq!(v.as_number(&g), Some(42.0));
        let table = sols.to_table(&g);
        assert!(table.contains("http://ex/Germany"));
        assert!(table.contains("42"));
    }
}
