//! Term interning: maps [`Term`]s to dense [`TermId`]s and back.
//!
//! All indexes and query-evaluation data structures operate on `u32` ids,
//! which keeps joins and hash lookups cheap (see the hashing notes in
//! [`crate::hash`]) and makes solution rows `Copy`.

use crate::error::RdfError;
use crate::hash::{FxBuildHasher, IdTable};
use crate::term::Term;
use std::hash::BuildHasher;

/// The maximum number of distinct terms an interner can hold: every id up
/// to `u32::MAX - 1` is addressable, and `u32::MAX` itself is reserved for
/// [`TermId::OVERFLOW`].
pub const TERM_CAPACITY: usize = u32::MAX as usize;

/// A dense identifier for an interned [`Term`].
///
/// Ids are only meaningful relative to the [`Interner`] (and hence the
/// [`crate::Graph`]) that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// Sentinel id returned by the infallible [`Interner::intern`] when the
    /// table is full. It never resolves to a term ([`Interner::resolve`]
    /// panics on it like any foreign id) and never matches a real triple.
    pub const OVERFLOW: TermId = TermId(u32::MAX);

    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only term table with O(1) lookup in both directions.
///
/// The reverse direction is an id-only hash table over `terms`
/// ([`IdTable`]): each term is stored once, and a lookup compares the
/// query only with the terms whose hash tag it meets.
///
/// Numeric values of literals are parsed once at interning time and cached,
/// so aggregation never re-parses lexical forms (a hot path in the paper's
/// refinement experiments).
#[derive(Debug, Default, Clone)]
pub struct Interner {
    terms: Vec<Term>,
    ids: IdTable,
    /// Cached numeric interpretation, parallel to `terms`.
    numeric: Vec<Option<f64>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a term, returning its id (existing or fresh). If the table
    /// is already at [`TERM_CAPACITY`], the term is dropped and the
    /// [`TermId::OVERFLOW`] sentinel comes back — callers that must
    /// distinguish the case use [`Interner::try_intern`].
    pub fn intern(&mut self, term: Term) -> TermId {
        self.try_intern(term).unwrap_or(TermId::OVERFLOW)
    }

    /// Interns a term, returning a typed error instead of a sentinel when
    /// the table is full.
    pub fn try_intern(&mut self, term: Term) -> Result<TermId, RdfError> {
        let hash = hash_term(&term);
        let slot = match self.probe(hash, &term) {
            Ok(id) => return Ok(id),
            Err(slot) => slot,
        };
        if self.terms.len() >= TERM_CAPACITY {
            return Err(RdfError::TermCapacity);
        }
        let id = TermId(self.terms.len() as u32);
        let numeric = term.as_literal().and_then(|l| l.as_f64());
        self.numeric.push(numeric);
        self.terms.push(term);
        if self.ids.is_full_at(self.terms.len()) {
            let terms = &self.terms;
            self.ids = IdTable::rebuilt(terms.len(), |i| hash_term(&terms[i as usize]));
        } else {
            self.ids.fill(slot, hash, id.0);
        }
        Ok(id)
    }

    /// Rebuilds an interner from a term table in interning order — the
    /// snapshot loader's bulk constructor. Ids are assigned positionally
    /// (`terms[i]` ⇒ `TermId(i)`), the numeric cache is recomputed, and
    /// each term is hashed once into the id table; no term is copied.
    /// Returns `None` if the table contains a duplicate term or more than
    /// `u32::MAX` entries (both impossible for a table produced by a real
    /// interner, so they signal a corrupt snapshot).
    pub fn from_terms(terms: Vec<Term>) -> Option<Interner> {
        if terms.len() > TERM_CAPACITY {
            return None;
        }
        let hashes: Vec<u64> = terms.iter().map(hash_term).collect();
        let mut ids = IdTable::with_capacity(terms.len());
        for (i, (term, &hash)) in terms.iter().zip(&hashes).enumerate() {
            let slot = ids.probe(hash, |id| terms[id as usize] == *term).err()?;
            ids.fill(slot, hash, i as u32);
        }
        let numeric = terms
            .iter()
            .map(|t| t.as_literal().and_then(|l| l.as_f64()))
            .collect();
        Some(Interner {
            terms,
            ids,
            numeric,
        })
    }

    /// The id of `term` (hashed as `hash`), or the empty slot it would
    /// take.
    #[inline]
    fn probe(&self, hash: u64, term: &Term) -> Result<TermId, usize> {
        self.ids
            .probe(hash, |id| self.terms[id as usize] == *term)
            .map(TermId)
    }

    /// Looks up the id of a term without interning it.
    pub fn get(&self, term: &Term) -> Option<TermId> {
        self.probe(hash_term(term), term).ok()
    }

    /// Resolves an id back to its term. Panics on a foreign id.
    #[inline]
    pub fn resolve(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    /// Cached numeric value of the literal behind `id`, if any.
    #[inline]
    pub fn numeric_value(&self, id: TermId) -> Option<f64> {
        self.numeric.get(id.index()).copied().flatten()
    }

    /// `true` if `id` resolves to a literal.
    #[inline]
    pub fn is_literal(&self, id: TermId) -> bool {
        self.resolve(id).is_literal()
    }

    /// `true` if `id` resolves to an IRI.
    #[inline]
    pub fn is_iri(&self, id: TermId) -> bool {
        self.resolve(id).is_iri()
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over `(id, term)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId(i as u32), t))
    }

    /// Approximate heap footprint in bytes (used to report Virtual Schema
    /// Graph / store sizes in the Table 3 reproduction).
    pub fn heap_bytes(&self) -> usize {
        let term_bytes: usize = self
            .terms
            .iter()
            .map(|t| match t {
                Term::Iri(s) | Term::BlankNode(s) => s.len(),
                Term::Literal(l) => {
                    l.lexical().len()
                        + l.datatype().map_or(0, str::len)
                        + l.language().map_or(0, str::len)
                }
            })
            .sum();
        term_bytes
            + self.terms.len() * std::mem::size_of::<Term>()
            + self.numeric.len() * std::mem::size_of::<Option<f64>>()
            + self.ids.heap_bytes()
    }
}

/// The hash the id table places a term by.
#[inline]
fn hash_term(term: &Term) -> u64 {
    FxBuildHasher::default().hash_one(term)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Literal;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern(Term::iri("http://ex/a"));
        let b = i.intern(Term::iri("http://ex/b"));
        let a2 = i.intern(Term::iri("http://ex/a"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let t = Term::from(Literal::tagged("Berlin", "de"));
        let id = i.intern(t.clone());
        assert_eq!(i.resolve(id), &t);
        assert_eq!(i.get(&t), Some(id));
        assert_eq!(i.get(&Term::iri("http://nope")), None);
    }

    #[test]
    fn numeric_cache_populated_at_intern_time() {
        let mut i = Interner::new();
        let n = i.intern(Term::from(Literal::integer(403)));
        let s = i.intern(Term::from(Literal::simple("403")));
        assert_eq!(i.numeric_value(n), Some(403.0));
        assert_eq!(i.numeric_value(s), None, "untyped literals are not numeric");
    }

    #[test]
    fn kind_predicates() {
        let mut i = Interner::new();
        let iri = i.intern(Term::iri("http://ex/a"));
        let lit = i.intern(Term::from(Literal::simple("x")));
        let blank = i.intern(Term::blank("b"));
        assert!(i.is_iri(iri) && !i.is_literal(iri));
        assert!(i.is_literal(lit) && !i.is_iri(lit));
        assert!(!i.is_iri(blank) && !i.is_literal(blank));
    }

    #[test]
    fn iter_in_interning_order() {
        let mut i = Interner::new();
        i.intern(Term::iri("http://ex/1"));
        i.intern(Term::iri("http://ex/2"));
        let ids: Vec<u32> = i.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn try_intern_matches_intern_and_overflow_is_reserved() {
        let mut i = Interner::new();
        let a = i.intern(Term::iri("http://ex/a"));
        assert_eq!(i.try_intern(Term::iri("http://ex/a")), Ok(a));
        let b = i.try_intern(Term::iri("http://ex/b")).expect("capacity");
        assert_ne!(a, b);
        // the sentinel can never be handed out: it sits at the reserved
        // index one past TERM_CAPACITY - 1
        assert_eq!(TermId::OVERFLOW.index(), TERM_CAPACITY);
        assert!(i.get(&Term::iri("http://ex/a")) != Some(TermId::OVERFLOW));
    }

    #[test]
    fn heap_bytes_grows_with_content() {
        let mut i = Interner::new();
        let before = i.heap_bytes();
        i.intern(Term::iri("http://example.org/some/rather/long/iri"));
        assert!(i.heap_bytes() > before);
    }
}
