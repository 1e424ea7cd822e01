//! Full-text index over literal values.
//!
//! The paper resolves user-provided example keywords ("Germany", "2014") to
//! dimension-member IRIs through the triplestore's full-text index
//! (Algorithm 1, line 3). This module provides the equivalent facility:
//! an inverted token index plus an exact normalized-string index over every
//! literal interned in a [`crate::Graph`].
//!
//! The index has the shape of the graph's triple indexes
//! (`crate::graph::Index`): an immutable, `Arc`-shared **base** of two
//! string-keyed CSR tables ([`FrozenTable`]: tokens → ids, normalized form
//! → ids) plus an **overlay** holding the whole current posting list of
//! every key written since the base was built. A lookup returns the
//! overlay's list if there is one (an empty list is a tombstone) and the
//! base's otherwise. Bulk-built indexes are bases; only live writes create
//! an overlay: interning a literal writes to the overlay, and a snapshot
//! load, [`crate::Graph::extend_ids`] (behind every generated, parsed or
//! partitioned graph) and [`crate::Graph::compact`] leave a base under an
//! empty overlay. A write copies the posting lists it touches, never the
//! index.

use crate::hash::{FxHasher, IdTable};
use crate::interner::TermId;
use std::cmp::Ordering;
use std::hash::Hasher;
use std::sync::Arc;

/// Splits a string into lowercase alphanumeric tokens.
///
/// `"Country of Destination"` → `["country", "of", "destination"]`.
pub fn tokenize(text: &str) -> Vec<String> {
    // split at an ASCII byte, so every word is whole UTF-8
    words(normalize(text).as_bytes())
        .map(|w| String::from_utf8_lossy(w).into_owned())
        .collect()
}

/// Normalizes a string for exact matching: lowercased tokens joined by a
/// single space, so `"  North   America "` and `"north america"` compare
/// equal.
pub fn normalize(text: &str) -> String {
    normalized(text).collect()
}

/// The words of a normalized form (its tokens; none for `""`) — the one
/// word-splitting rule, shared by the index and the snapshot loader.
pub(crate) fn words(key: &[u8]) -> impl Iterator<Item = &[u8]> {
    key.split(|&b| b == b' ').filter(|w| !w.is_empty())
}

/// [`normalize`] as a stream of chars, allocation-free: alphanumeric runs
/// lowercased (one char may lowercase to several, `İ` → `i̇`), separated
/// by one space.
fn normalized(text: &str) -> Normalized<'_> {
    Normalized {
        chars: text.chars(),
        lower: None,
        gap: false,
        started: false,
    }
}

/// The iterator behind [`normalized`].
#[derive(Debug, Clone)]
struct Normalized<'a> {
    chars: std::str::Chars<'a>,
    /// The rest of the current char's lowercase expansion.
    lower: Option<std::char::ToLowercase>,
    /// A separator followed the last token char.
    gap: bool,
    /// A token char has been emitted.
    started: bool,
}

impl Iterator for Normalized<'_> {
    type Item = char;

    fn next(&mut self) -> Option<char> {
        if let Some(c) = self.lower.as_mut().and_then(Iterator::next) {
            return Some(c);
        }
        loop {
            let c = self.chars.next()?;
            if !c.is_alphanumeric() {
                self.gap = self.started;
                continue;
            }
            self.started = true;
            if std::mem::take(&mut self.gap) {
                self.lower = Some(c.to_lowercase());
                return Some(' ');
            }
            if c.is_ascii() {
                return Some(c.to_ascii_lowercase());
            }
            let mut lower = c.to_lowercase();
            let first = lower.next();
            self.lower = Some(lower);
            return first;
        }
    }
}

/// The UTF-8 bytes of a char stream. Keys are compared and hashed as
/// byte streams, so a [`normalized`] stream finds exactly what the string
/// it spells finds.
fn utf8(chars: impl Iterator<Item = char> + Clone) -> impl Iterator<Item = u8> + Clone {
    chars.flat_map(|c| {
        let mut buf = [0u8; 4];
        let len = c.encode_utf8(&mut buf).len();
        buf.into_iter().take(len)
    })
}

/// `true` if `key` is the normalized form of `text` — the snapshot
/// loader's agreement check, run on every indexed literal. Pure ASCII
/// text, nearly every literal, is compared byte by byte, where
/// [`normalized`] lowercases each alphanumeric byte and turns each run of
/// other bytes between two of them into one space; that is 3–4× faster
/// than the char stream, which the rest goes through.
pub(crate) fn normalizes_to(key: &[u8], text: &str) -> bool {
    if !text.is_ascii() {
        return key.iter().copied().eq(utf8(normalized(text)));
    }
    let mut key = key.iter();
    let (mut gap, mut started) = (false, false);
    for b in text.bytes() {
        if !b.is_ascii_alphanumeric() {
            gap = started;
            continue;
        }
        started = true;
        if std::mem::take(&mut gap) && key.next() != Some(&b' ') {
            return false;
        }
        if key.next() != Some(&b.to_ascii_lowercase()) {
            return false;
        }
    }
    key.next().is_none()
}

/// The overlay's hash of a key, fed byte by byte so a stream hashes like
/// the string it spells.
fn key_hash(key: impl Iterator<Item = u8>) -> u64 {
    let mut hasher = FxHasher::default();
    for b in key {
        hasher.write_u8(b);
    }
    hasher.finish()
}

/// Adds `id` to a sorted posting list; `false` if it was there.
fn insert_id(list: &mut Vec<TermId>, id: TermId) -> bool {
    let Err(at) = list.binary_search(&id) else {
        return false;
    };
    list.insert(at, id);
    true
}

/// Removes `id` from a sorted posting list, if there.
fn remove_id(list: &mut Vec<TermId>, id: TermId) {
    if let Ok(at) = list.binary_search(&id) {
        list.remove(at);
    }
}

/// A string-keyed posting table in its bulk-built form: keys strictly
/// ascending (byte order) in one arena, each owning a strictly ascending,
/// non-empty run of the concatenated id array. Looked up by binary search.
///
/// Deliberately not `Clone`: a base is shared through its `Arc`.
#[derive(Debug, Default)]
pub(crate) struct FrozenTable {
    /// All keys, concatenated in ascending order.
    pub(crate) key_bytes: Vec<u8>,
    /// End offset (exclusive) of each key in `key_bytes`.
    pub(crate) key_ends: Vec<u32>,
    /// End offset (exclusive) of each key's run in `ids`.
    pub(crate) id_ends: Vec<u32>,
    /// All posting runs, concatenated in key order.
    pub(crate) ids: Vec<TermId>,
}

impl FrozenTable {
    /// Number of keys.
    pub(crate) fn len(&self) -> usize {
        self.key_ends.len()
    }

    /// The bytes of key `k`.
    pub(crate) fn key(&self, k: usize) -> &[u8] {
        let start = if k == 0 { 0 } else { self.key_ends[k - 1] };
        &self.key_bytes[start as usize..self.key_ends[k] as usize]
    }

    /// The posting run of key `k`.
    pub(crate) fn ids_at(&self, k: usize) -> &[TermId] {
        let start = if k == 0 { 0 } else { self.id_ends[k - 1] };
        &self.ids[start as usize..self.id_ends[k] as usize]
    }

    /// The posting run of `key`, or the empty slice.
    fn get(&self, key: &[u8]) -> &[TermId] {
        self.find(|stored| stored.cmp(key))
    }

    /// The posting run of the key `order` finds — it orders a stored key
    /// against the sought one — or the empty slice.
    fn find(&self, order: impl Fn(&[u8]) -> Ordering) -> &[TermId] {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match order(self.key(mid)) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return self.ids_at(mid),
            }
        }
        &[]
    }

    /// Appends one key; callers push in strictly ascending key order.
    /// An empty run (a tombstone being folded) is skipped.
    pub(crate) fn push(&mut self, key: &[u8], ids: &[TermId]) {
        if ids.is_empty() {
            return;
        }
        self.key_bytes.extend_from_slice(key);
        self.key_ends.push(self.key_bytes.len() as u32);
        self.ids.extend_from_slice(ids);
        self.id_ends.push(self.ids.len() as u32);
    }

    fn heap_bytes(&self) -> usize {
        self.key_bytes.capacity()
            + (self.key_ends.capacity() + self.id_ends.capacity()) * std::mem::size_of::<u32>()
            + self.ids.capacity() * std::mem::size_of::<TermId>()
    }
}

/// The two tables of a text-index base.
#[derive(Debug, Default)]
pub(crate) struct FrozenText {
    /// token → literals containing it.
    pub(crate) tokens: FrozenTable,
    /// normalized form → literals spelling it.
    pub(crate) exact: FrozenTable,
}

/// The write side of one table: the whole current posting list of every
/// key written since the base was built, keys in write order, found
/// through an id-only hash table. Entries are never dropped; an emptied
/// list simply reads as empty until the next fold.
#[derive(Debug, Default, Clone)]
struct Overlay {
    keys: Vec<Box<[u8]>>,
    lists: Vec<Vec<TermId>>,
    table: IdTable,
}

impl Overlay {
    fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Position of `key` (hashed as `hash`), or the empty slot it would
    /// take.
    fn find(&self, hash: u64, key: impl Iterator<Item = u8> + Clone) -> Result<usize, usize> {
        self.table
            .probe(hash, |i| {
                self.keys[i as usize].iter().copied().eq(key.clone())
            })
            .map(|i| i as usize)
    }

    /// The overlaid list of `key`, if the key was written.
    fn get(&self, key: impl Iterator<Item = u8> + Clone) -> Option<&[TermId]> {
        if self.is_empty() {
            return None;
        }
        let at = self.find(key_hash(key.clone()), key).ok()?;
        Some(&self.lists[at])
    }

    /// The overlaid list of `key`, created from `base()` on first touch.
    fn list_mut(&mut self, key: &[u8], base: impl FnOnce() -> Vec<TermId>) -> &mut Vec<TermId> {
        let hash = key_hash(key.iter().copied());
        let at = match self.find(hash, key.iter().copied()) {
            Ok(at) => at,
            Err(slot) => {
                let at = self.keys.len();
                self.keys.push(key.into());
                self.lists.push(base());
                if self.table.is_full_at(self.keys.len()) {
                    let keys = &self.keys;
                    self.table = IdTable::rebuilt(keys.len(), |i| {
                        key_hash(keys[i as usize].iter().copied())
                    });
                } else {
                    self.table.fill(slot, hash, at as u32);
                }
                at
            }
        };
        &mut self.lists[at]
    }

    /// `base` with this overlay folded in: one merge of the base's keys
    /// with the sorted overlaid keys, the overlay winning.
    fn fold_into(&self, base: &FrozenTable) -> FrozenTable {
        let mut order: Vec<usize> = (0..self.keys.len()).collect();
        order.sort_unstable_by(|&a, &b| self.keys[a].cmp(&self.keys[b]));
        let overlaid = |i: usize| (&*self.keys[i], self.lists[i].as_slice());
        let mut order = order.into_iter().map(overlaid).peekable();
        let mut out = FrozenTable {
            key_bytes: Vec::with_capacity(
                base.key_bytes.len() + self.keys.iter().map(|k| k.len()).sum::<usize>(),
            ),
            key_ends: Vec::with_capacity(base.len() + self.keys.len()),
            id_ends: Vec::with_capacity(base.len() + self.keys.len()),
            ids: Vec::with_capacity(
                base.ids.len() + self.lists.iter().map(Vec::len).sum::<usize>(),
            ),
        };
        for k in 0..base.len() {
            let key = base.key(k);
            while let Some((x, list)) = order.next_if(|&(x, _)| x < key) {
                out.push(x, list);
            }
            match order.next_if(|&(x, _)| x == key) {
                Some((_, list)) => out.push(key, list),
                None => out.push(key, base.ids_at(k)),
            }
        }
        for (x, list) in order {
            out.push(x, list);
        }
        out.key_bytes.shrink_to_fit();
        out.key_ends.shrink_to_fit();
        out.id_ends.shrink_to_fit();
        out.ids.shrink_to_fit();
        out
    }

    fn heap_bytes(&self) -> usize {
        self.keys.iter().map(|k| k.len() + 16).sum::<usize>()
            + self
                .lists
                .iter()
                .map(|l| l.capacity() * std::mem::size_of::<TermId>() + 24)
                .sum::<usize>()
            + self.table.heap_bytes()
    }
}

/// Inverted index from tokens (and whole normalized strings) to the literal
/// terms containing them: a shared base plus an overlay of the posting
/// lists written since (module docs).
#[derive(Debug, Default, Clone)]
pub struct TextIndex {
    base: Arc<FrozenText>,
    tokens: Overlay,
    exact: Overlay,
    indexed: usize,
}

impl TextIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a bulk-built base — the snapshot loader's constructor, and
    /// what [`crate::Graph::compact`] installs.
    pub(crate) fn from_base(base: Arc<FrozenText>) -> TextIndex {
        TextIndex {
            indexed: base.exact.ids.len(),
            base,
            tokens: Overlay::default(),
            exact: Overlay::default(),
        }
    }

    /// `true` if some key was written since the base was built.
    pub(crate) fn has_overlay(&self) -> bool {
        !self.tokens.is_empty() || !self.exact.is_empty()
    }

    /// The whole index as one base — shared as-is while the overlay is
    /// empty, built by one merge per table otherwise. The snapshot
    /// writer's view.
    pub(crate) fn freeze_view(&self) -> Arc<FrozenText> {
        if !self.has_overlay() {
            return Arc::clone(&self.base);
        }
        Arc::new(FrozenText {
            tokens: self.tokens.fold_into(&self.base.tokens),
            exact: self.exact.fold_into(&self.base.exact),
        })
    }

    /// Literals whose normalized form is `key`.
    fn exact_ids(&self, key: &[u8]) -> &[TermId] {
        match self.exact.get(key.iter().copied()) {
            Some(list) => list,
            None => self.base.exact.get(key),
        }
    }

    /// Literals containing `token`.
    fn token_ids(&self, token: &[u8]) -> &[TermId] {
        match self.tokens.get(token.iter().copied()) {
            Some(list) => list,
            None => self.base.tokens.get(token),
        }
    }

    /// Indexes a literal's lexical form under its term id.
    ///
    /// Idempotent: re-indexing an already-indexed id is a no-op, and ids may
    /// be indexed in any order (postings stay sorted, which
    /// [`TextIndex::search_all_tokens`] relies on for its binary searches).
    pub fn index_literal(&mut self, id: TermId, lexical: &str) {
        if self.is_indexed(id, lexical) {
            return;
        }
        let key = normalize(lexical);
        let key = key.as_bytes();
        let base = &self.base;
        insert_id(
            self.exact.list_mut(key, || base.exact.get(key).to_vec()),
            id,
        );
        for token in words(key) {
            insert_id(
                self.tokens
                    .list_mut(token, || base.tokens.get(token).to_vec()),
                id,
            );
        }
        self.indexed += 1;
    }

    /// Removes a literal id from the index. The caller passes the same
    /// lexical form the id was indexed under; unknown ids are a no-op.
    pub fn unindex_literal(&mut self, id: TermId, lexical: &str) {
        if !self.is_indexed(id, lexical) {
            return;
        }
        let key = normalize(lexical);
        let key = key.as_bytes();
        let base = &self.base;
        remove_id(
            self.exact.list_mut(key, || base.exact.get(key).to_vec()),
            id,
        );
        for token in words(key) {
            remove_id(
                self.tokens
                    .list_mut(token, || base.tokens.get(token).to_vec()),
                id,
            );
        }
        self.indexed -= 1;
    }

    /// `true` if `id` is currently indexed under this lexical form — an
    /// exact lookup of its normalized form, streamed allocation-free (the
    /// write path asks this of every fresh object).
    pub fn is_indexed(&self, id: TermId, lexical: &str) -> bool {
        let key = utf8(normalized(lexical));
        let ids = match self.exact.get(key.clone()) {
            Some(list) => list,
            None => self
                .base
                .exact
                .find(|stored| stored.iter().copied().cmp(key.clone())),
        };
        ids.binary_search(&id).is_ok()
    }

    /// Literals whose normalized lexical form equals the normalized query.
    /// The query is normalized once: a binary search compares the key
    /// about log₂(keys) times.
    pub fn search_exact(&self, query: &str) -> &[TermId] {
        self.exact_ids(normalize(query).as_bytes())
    }

    /// Literals containing *all* tokens of the query (conjunctive keyword
    /// search, the classic full-text contract).
    pub fn search_all_tokens(&self, query: &str) -> Vec<TermId> {
        let key = normalize(query);
        // Intersect postings, starting from the rarest token.
        let mut lists: Vec<&[TermId]> = Vec::new();
        for token in words(key.as_bytes()) {
            match self.token_ids(token) {
                [] => return Vec::new(),
                list => lists.push(list),
            }
        }
        lists.sort_by_key(|l| l.len());
        let Some((first, rest)) = lists.split_first() else {
            return Vec::new();
        };
        let mut result: Vec<TermId> = first.to_vec();
        for list in rest {
            result.retain(|id| list.binary_search(id).is_ok());
            if result.is_empty() {
                break;
            }
        }
        result
    }

    /// Number of literals indexed.
    pub fn len(&self) -> usize {
        self.indexed
    }

    /// `true` if nothing has been indexed.
    pub fn is_empty(&self) -> bool {
        self.indexed == 0
    }

    /// Approximate heap footprint in bytes (the shared base counted in
    /// full).
    pub fn heap_bytes(&self) -> usize {
        self.base.tokens.heap_bytes()
            + self.base.exact.heap_bytes()
            + self.tokens.heap_bytes()
            + self.exact.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_splits_on_non_alphanumerics() {
        assert_eq!(
            tokenize("Country of Destination"),
            ["country", "of", "destination"]
        );
        assert_eq!(tokenize("October-2014"), ["october", "2014"]);
        assert_eq!(tokenize("  "), Vec::<String>::new());
        assert_eq!(tokenize("a_b"), ["a", "b"]);
    }

    #[test]
    fn normalize_collapses_whitespace_and_case() {
        assert_eq!(normalize("  North   AMERICA "), "north america");
        assert_eq!(normalize("north america"), "north america");
        assert_eq!(normalize("—"), "");
    }

    /// The streaming form spells exactly what lowercasing each alphanumeric
    /// run and joining the runs with one space spells — including chars
    /// whose lowercase is longer than they are.
    #[test]
    fn normalized_stream_matches_token_join() {
        for text in [
            "İstanbul – Ankara",
            "ÀÉÎ õü, straße",
            "  ΣΊΣΥΦΟΣ!",
            "a\u{0307}b İİ",
            "",
            "—",
            "x-",
            "-x",
        ] {
            let mut tokens: Vec<String> = Vec::new();
            let mut current = String::new();
            for c in text.chars() {
                if c.is_alphanumeric() {
                    current.extend(c.to_lowercase());
                } else if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
            }
            if !current.is_empty() {
                tokens.push(current);
            }
            assert_eq!(normalize(text), tokens.join(" "), "{text:?}");
            assert_eq!(tokenize(text), tokens, "{text:?}");
            assert!(tokens.join(" ").bytes().eq(utf8(normalized(text))));
        }
        assert_eq!(normalize("İ"), "i\u{0307}");
        assert!(!b"i".iter().copied().eq(utf8(normalized("İ"))));
    }

    /// The loader's check accepts a text's normalized form and nothing
    /// else, on the ASCII fast path and off it.
    #[test]
    fn normalizes_to_accepts_exactly_the_normalized_form() {
        let texts = [
            "Country of Destination",
            "  North   AMERICA ",
            "October-2014",
            "a_b--C",
            "",
            " – ",
            "x-",
            "İstanbul – Ankara",
            "ÀÉÎ õü, straße",
        ];
        for text in texts {
            let key = normalize(text);
            assert!(normalizes_to(key.as_bytes(), text), "{text:?}");
            for other in texts.map(normalize) {
                assert_eq!(normalizes_to(other.as_bytes(), text), other == key);
            }
            for wrong in [
                format!("{key} "),
                format!(" {key}"),
                key.replace(' ', "  "),
                key.to_uppercase(),
                format!("{key}x"),
            ] {
                assert_eq!(normalizes_to(wrong.as_bytes(), text), wrong == key);
            }
        }
        assert!(!normalizes_to(b"i", "İ"));
    }

    /// Every index shape — overlay only (as built), base only (folded),
    /// and a base under an overlay holding new keys, replaced lists and
    /// tombstones — built from the same writes.
    fn shapes(writes: impl Fn(&mut TextIndex)) -> [TextIndex; 3] {
        let mut built = TextIndex::new();
        writes(&mut built);
        let folded = TextIndex::from_base(built.freeze_view());
        let mut mixed = TextIndex::new();
        mixed.index_literal(TermId(90), "ghost 2014");
        mixed.index_literal(TermId(91), "Germany");
        let mut mixed = TextIndex::from_base(mixed.freeze_view());
        mixed.unindex_literal(TermId(90), "ghost 2014");
        mixed.unindex_literal(TermId(91), "Germany");
        writes(&mut mixed);
        [built, folded, mixed]
    }

    fn build(idx: &mut TextIndex) {
        idx.index_literal(TermId(0), "Germany");
        idx.index_literal(TermId(1), "October 2014");
        idx.index_literal(TermId(2), "2014");
        idx.index_literal(TermId(3), "November 2014");
    }

    #[test]
    fn exact_search_matches_whole_normalized_string() {
        for idx in shapes(build) {
            assert_eq!(idx.search_exact("germany"), &[TermId(0)]);
            assert_eq!(idx.search_exact("2014"), &[TermId(2)]);
            assert_eq!(idx.search_exact("OCTOBER 2014"), &[TermId(1)]);
            assert!(idx.search_exact("december 2014").is_empty());
            assert!(idx.search_exact("ghost 2014").is_empty());
            assert!(idx.search_exact("").is_empty());
        }
    }

    #[test]
    fn token_search_is_conjunctive() {
        for idx in shapes(build) {
            let hits = idx.search_all_tokens("2014");
            assert_eq!(hits, vec![TermId(1), TermId(2), TermId(3)]);
            assert_eq!(idx.search_all_tokens("october 2014"), vec![TermId(1)]);
            assert!(idx.search_all_tokens("october 2015").is_empty());
            assert!(idx.search_all_tokens("").is_empty());
            assert!(idx.search_all_tokens("ghost").is_empty());
        }
    }

    #[test]
    fn repeated_token_in_one_literal_indexed_once() {
        for idx in shapes(|idx| idx.index_literal(TermId(5), "year 2014 month 2014")) {
            assert_eq!(idx.search_all_tokens("2014"), vec![TermId(5)]);
        }
    }

    #[test]
    fn zero_token_literal_is_found_under_the_empty_key() {
        for idx in shapes(|idx| idx.index_literal(TermId(7), "—")) {
            assert_eq!(idx.len(), 1);
            assert_eq!(idx.search_exact(" – "), &[TermId(7)]);
            assert!(idx.is_indexed(TermId(7), "—"));
            assert!(idx.search_all_tokens("—").is_empty());
        }
    }

    #[test]
    fn heap_bytes_nonzero_after_indexing() {
        for idx in shapes(build) {
            assert!(idx.heap_bytes() > 0);
            assert_eq!(idx.len(), 4);
        }
    }

    #[test]
    fn index_literal_is_idempotent() {
        for mut idx in shapes(build) {
            idx.index_literal(TermId(2), "2014");
            assert_eq!(idx.len(), 4);
            assert_eq!(
                idx.search_all_tokens("2014"),
                vec![TermId(1), TermId(2), TermId(3)]
            );
            assert_eq!(idx.search_exact("2014"), &[TermId(2)]);
        }
    }

    #[test]
    fn out_of_order_indexing_keeps_postings_sorted() {
        for idx in shapes(|idx| {
            idx.index_literal(TermId(9), "alpha 2014");
            idx.index_literal(TermId(3), "beta 2014");
            idx.index_literal(TermId(6), "2014");
        }) {
            // Conjunctive search binary-searches postings, so an unsorted
            // posting would silently drop hits.
            assert_eq!(
                idx.search_all_tokens("2014"),
                vec![TermId(3), TermId(6), TermId(9)]
            );
            assert_eq!(idx.search_all_tokens("beta 2014"), vec![TermId(3)]);
        }
    }

    #[test]
    fn unindex_removes_tokens_exact_and_count() {
        for mut idx in shapes(build) {
            idx.unindex_literal(TermId(1), "October 2014");
            assert_eq!(idx.len(), 3);
            assert!(idx.search_all_tokens("october").is_empty());
            assert!(idx.search_exact("october 2014").is_empty());
            assert_eq!(idx.search_all_tokens("2014"), vec![TermId(2), TermId(3)]);
            assert!(!idx.is_indexed(TermId(1), "October 2014"));
            assert!(idx.is_indexed(TermId(2), "2014"));
            // Unindexing an id that was never indexed is a no-op.
            idx.unindex_literal(TermId(42), "Germany");
            assert_eq!(idx.len(), 3);
            assert_eq!(idx.search_exact("germany"), &[TermId(0)]);
            // and folding drops the emptied keys
            let folded = idx.freeze_view();
            assert!(folded.exact.len() == 3 && folded.tokens.len() == 3);
        }
    }

    #[test]
    fn unindex_then_reindex_round_trips() {
        for mut idx in shapes(build) {
            idx.unindex_literal(TermId(2), "2014");
            idx.index_literal(TermId(2), "2014");
            assert_eq!(idx.len(), 4);
            assert_eq!(
                idx.search_all_tokens("2014"),
                vec![TermId(1), TermId(2), TermId(3)]
            );
        }
    }

    #[test]
    fn a_write_beside_a_clone_copies_only_its_lists() {
        let [_, folded, _] = shapes(build);
        let mut written = folded.clone();
        written.index_literal(TermId(8), "Germany 2014");
        assert!(Arc::ptr_eq(&written.base, &folded.base));
        assert_eq!(written.exact.keys.len() + written.tokens.keys.len(), 3);
        assert_eq!(written.search_all_tokens("germany"), [TermId(0), TermId(8)]);
        assert_eq!(folded.search_all_tokens("germany"), [TermId(0)]);
    }
}
