//! The indexed in-memory triple store.
//!
//! [`Graph`] maintains three two-level indexes (SPO, POS, OSP) so every
//! triple-pattern access path — any combination of bound/unbound subject,
//! predicate, object — is answered without scanning unrelated triples. This
//! is the standard indexing scheme of native RDF stores and the property the
//! SPARQL evaluator in `re2x-sparql` relies on for its selectivity
//! estimates.
//!
//! Each index has one physical form (see [`Index`]): an immutable,
//! `Arc`-shared **base** in compressed-sparse-row layout ([`FrozenIndex`])
//! plus an **overlay** holding the whole current posting list of every
//! `(outer, inner)` key touched since the base was built. A lookup probes
//! the overlay (skipped while it is empty) and falls back to the base.
//! Bulk-built graphs are bases; only live writes create an overlay. A
//! generated, parsed or partitioned graph is built by
//! [`Graph::extend_ids`] — one sort and one sequential sweep per index,
//! exactly "[`Graph::insert_ids`] on each triple, then [`Graph::compact`]"
//! — and a snapshot-loaded graph is read straight into its bases. A live
//! write ([`Graph::insert_ids`] / [`Graph::remove_ids`]) copies one posting
//! list into the overlay, never the index, so [`Graph::clone`] costs three
//! `Arc` bumps plus the overlay. [`Graph::compact`] folds the overlay into
//! a fresh base. A [`Cursor`] serves a sequence of lookups in one index —
//! the columnar executor's star walk — keeping the last outer key's group
//! and galloping forward over ascending outer keys.
//!
//! Two invariants beyond plain index coverage:
//!
//! * **Posting lists are sorted by [`TermId`].** Every posting list of the
//!   three indexes is kept sorted (binary-search insertion in the overlay,
//!   sorted by construction in the base), so membership tests are
//!   `O(log n)` and the slices returned by
//!   [`Graph::objects`]/[`Graph::subjects`]/[`Graph::predicates_between`]
//!   are sorted adjacency views the vectorized merge-join executor in
//!   `re2x-sparql` intersects directly.
//! * **Per-predicate statistics are incremental.** Triple counts and
//!   distinct-subject counts per predicate are maintained in the
//!   insert/remove paths (counted by [`Graph::extend_ids`]' sweeps and
//!   restored verbatim by the snapshot loader), so
//!   the query planner's cardinality estimates
//!   ([`Graph::predicate_cardinality`], [`Graph::predicate_stats`]) are
//!   `O(1)` lookups instead of index walks.

use crate::hash::FxHashMap;
use crate::interner::{Interner, TermId};
use crate::term::{Literal, Term};
use crate::text::TextIndex;
use std::collections::hash_map::Entry;
use std::ops::Range;
use std::sync::Arc;

/// A triple of interned term ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// Subject.
    pub s: TermId,
    /// Predicate.
    pub p: TermId,
    /// Object.
    pub o: TermId,
}

/// The overlay's inner level: inner key → whole current posting list.
type InnerLists = FxHashMap<TermId, Vec<TermId>>;

/// A two-level index in its bulk-built form: compressed sparse rows,
/// twice. Outer keys are strictly ascending; each owns a contiguous run of
/// strictly ascending inner keys; each of those owns a contiguous, strictly
/// ascending run of the concatenated posting array.
///
/// The whole structure is five flat arrays — the snapshot loader fills
/// them with large sequential writes instead of the one-hash-map-plus-one-
/// `Vec` allocation *per key* the overlay costs, which is what makes
/// loading a snapshot several times faster than re-running generation.
/// Lookups binary-search the sorted key arrays instead of hashing.
///
/// Deliberately not `Clone`: a base is shared through its `Arc`, never
/// copied.
///
/// Offsets are `u32`, capping a snapshot-loadable graph at 2^32 − 1
/// triples — far above the 90M-triple top rung of the scale experiment,
/// and half the footprint of `usize` offsets at that scale.
#[derive(Debug, Default)]
pub(crate) struct FrozenIndex {
    /// Outer keys, strictly ascending.
    pub(crate) outer_ids: Vec<TermId>,
    /// End offset (exclusive) of each outer key's run in `inner_ids`;
    /// a run starts where the previous one ended (the first at 0).
    pub(crate) outer_ends: Vec<u32>,
    /// Inner keys, grouped by outer key, strictly ascending per group.
    pub(crate) inner_ids: Vec<TermId>,
    /// End offset (exclusive) of each inner key's run in `postings`.
    pub(crate) inner_ends: Vec<u32>,
    /// All posting lists, concatenated in (outer, inner) order.
    pub(crate) postings: Vec<TermId>,
}

impl FrozenIndex {
    /// Range of outer group `g` in the inner arrays.
    #[inline]
    fn inner_range(&self, g: usize) -> Range<usize> {
        let start = if g == 0 {
            0
        } else {
            self.outer_ends[g - 1] as usize
        };
        start..self.outer_ends[g] as usize
    }

    /// Range of outer key `a`'s run in the inner arrays; empty if `a` is
    /// not an outer key.
    #[inline]
    fn group(&self, a: TermId) -> Range<usize> {
        match self.outer_ids.binary_search(&a) {
            Ok(g) => self.inner_range(g),
            Err(_) => 0..0,
        }
    }

    /// Start offset of inner entry `k`'s run in the posting array.
    #[inline]
    fn postings_start(&self, k: usize) -> usize {
        if k == 0 {
            0
        } else {
            self.inner_ends[k - 1] as usize
        }
    }

    /// The posting list of inner entry `k`.
    #[inline]
    fn postings_at(&self, k: usize) -> &[TermId] {
        &self.postings[self.postings_start(k)..self.inner_ends[k] as usize]
    }

    /// The posting list under inner key `b` of the group spanning `run`,
    /// or the empty slice.
    #[inline]
    fn get_in(&self, run: Range<usize>, b: TermId) -> &[TermId] {
        match self.inner_ids[run.clone()].binary_search(&b) {
            Ok(i) => self.postings_at(run.start + i),
            Err(_) => &[],
        }
    }

    /// The posting list under `(a, b)`, or the empty slice.
    #[inline]
    fn get(&self, a: TermId, b: TermId) -> &[TermId] {
        self.get_in(self.group(a), b)
    }

    /// Total postings of the group spanning `run` — the posting runs of
    /// one group are contiguous, so the count is one subtraction.
    fn posting_count(&self, run: Range<usize>) -> usize {
        if run.is_empty() {
            return 0;
        }
        self.inner_ends[run.end - 1] as usize - self.postings_start(run.start)
    }

    /// Appends one entry; callers push in strictly ascending `(a, b)`
    /// order with `postings` strictly ascending and non-empty.
    fn push(&mut self, a: TermId, b: TermId, postings: &[TermId]) {
        self.postings.extend_from_slice(postings);
        self.inner_ids.push(b);
        self.inner_ends.push(self.postings.len() as u32);
        if self.outer_ids.last() == Some(&a) {
            self.outer_ends.pop();
        } else {
            self.outer_ids.push(a);
        }
        self.outer_ends.push(self.inner_ids.len() as u32);
    }

    /// Builds a base from `triples` sorted ascending by `key` (outer, inner,
    /// posting) without duplicates — one counting pass sizes the arrays
    /// exactly, one sweep [`FrozenIndex::push`]es each `(outer, inner)` run.
    /// `on_key` sees every such key once, with the triples of its run.
    fn from_sorted(
        triples: &[Triple],
        key: impl Fn(&Triple) -> [TermId; 3],
        mut on_key: impl FnMut(TermId, TermId, &[Triple]),
    ) -> FrozenIndex {
        let same_inner = |x: &Triple, y: &Triple| key(x)[..2] == key(y)[..2];
        let inner = triples.chunk_by(same_inner).count();
        let outer = triples.chunk_by(|x, y| key(x)[0] == key(y)[0]).count();
        let mut base = FrozenIndex {
            outer_ids: Vec::with_capacity(outer),
            outer_ends: Vec::with_capacity(outer),
            inner_ids: Vec::with_capacity(inner),
            inner_ends: Vec::with_capacity(inner),
            postings: Vec::with_capacity(triples.len()),
        };
        let mut run = Vec::new();
        for group in triples.chunk_by(same_inner) {
            let [a, b, _] = key(&group[0]);
            run.clear();
            run.extend(group.iter().map(|t| key(t)[2]));
            base.push(a, b, &run);
            on_key(a, b, group);
        }
        base
    }

    fn heap_bytes(&self) -> usize {
        self.outer_ids.capacity() * std::mem::size_of::<TermId>()
            + self.outer_ends.capacity() * std::mem::size_of::<u32>()
            + self.inner_ids.capacity() * std::mem::size_of::<TermId>()
            + self.inner_ends.capacity() * std::mem::size_of::<u32>()
            + self.postings.capacity() * std::mem::size_of::<TermId>()
    }
}

/// One of the graph's three indexes: an immutable shared base plus an
/// overlay of the posting lists written since the base was built.
///
/// The overlay holds, for every `(outer, inner)` key touched by an insert
/// or remove, that key's *whole* current posting list, so a lookup never
/// merges: it returns the overlay's list if there is one and the base's
/// otherwise. Invariants: an empty overlay list is a tombstone and exists
/// only for keys the base holds (a key emptied without a base entry is
/// dropped), and no inner map is empty — so `overlay.is_empty()` means
/// "reads go straight to the base".
#[derive(Debug, Default, Clone)]
pub(crate) struct Index {
    base: Arc<FrozenIndex>,
    overlay: FxHashMap<TermId, InnerLists>,
}

impl Index {
    /// Wraps a bulk-built base — the snapshot loader's and
    /// [`Graph::extend_ids`]' constructor.
    pub(crate) fn from_base(base: FrozenIndex) -> Index {
        Index {
            base: Arc::new(base),
            overlay: FxHashMap::default(),
        }
    }

    /// The posting list under `(a, b)`, or the empty slice.
    #[inline]
    pub(crate) fn get(&self, a: TermId, b: TermId) -> &[TermId] {
        self.get_in(self.overlaid(a), self.base.group(a), b)
    }

    /// Outer key `a`'s overlay entry, not hashed for while the overlay is
    /// empty.
    #[inline]
    fn overlaid(&self, a: TermId) -> Option<&InnerLists> {
        if self.overlay.is_empty() {
            return None;
        }
        self.overlay.get(&a)
    }

    /// The posting list under inner key `b` of one outer key, given its
    /// overlay entry `over` and its base group `run`: the overlay's list if
    /// it has one (a tombstone included), else the base's.
    #[inline]
    fn get_in<'i>(
        &'i self,
        over: Option<&'i InnerLists>,
        run: Range<usize>,
        b: TermId,
    ) -> &'i [TermId] {
        match over.and_then(|lists| lists.get(&b)) {
            Some(list) => list,
            None => self.base.get_in(run, b),
        }
    }

    /// Adds `v` to the posting list under `(a, b)`, copying the base's
    /// list into the overlay on first touch. `None` if `v` was already
    /// there (nothing is copied then), else whether the list was empty.
    pub(crate) fn insert(&mut self, a: TermId, b: TermId, v: TermId) -> Option<bool> {
        let base = &self.base;
        let lists = self.overlay.entry(a).or_default();
        match lists.entry(b) {
            Entry::Occupied(entry) => {
                let list = entry.into_mut();
                let slot = list.binary_search(&v).err()?;
                list.insert(slot, v);
                Some(list.len() == 1)
            }
            Entry::Vacant(entry) => {
                let old = base.get(a, b);
                let Err(slot) = old.binary_search(&v) else {
                    if lists.is_empty() {
                        self.overlay.remove(&a);
                    }
                    return None;
                };
                let mut list = Vec::with_capacity(old.len() + 1);
                list.extend_from_slice(&old[..slot]);
                list.push(v);
                list.extend_from_slice(&old[slot..]);
                entry.insert(list);
                Some(old.is_empty())
            }
        }
    }

    /// Removes `v` from the posting list under `(a, b)`. `None` if it was
    /// not there (decided on the read path, so a missed remove copies
    /// nothing), else whether the list is now empty.
    pub(crate) fn remove(&mut self, a: TermId, b: TermId, v: TermId) -> Option<bool> {
        let at = self.get(a, b).binary_search(&v).ok()?;
        let old = self.base.get(a, b);
        let lists = self.overlay.entry(a).or_default();
        let list = lists.entry(b).or_insert_with(|| old.to_vec());
        list.remove(at);
        let emptied = list.is_empty();
        // An emptied list stays as a tombstone only where it hides a base
        // entry.
        if emptied && old.is_empty() {
            lists.remove(&b);
            if lists.is_empty() {
                self.overlay.remove(&a);
            }
        }
        Some(emptied)
    }

    /// Invokes `f` on every live `(inner key, postings)` pair of one outer
    /// key until it returns `true`: the key's base run `run` in ascending
    /// order with the lists of its overlay entry `over` substituted, then
    /// the keys only `over` holds (hash order). Returns whether `f` stopped
    /// it.
    fn scan_group(
        &self,
        run: Range<usize>,
        over: Option<&InnerLists>,
        mut f: impl FnMut(TermId, &[TermId]) -> bool,
    ) -> bool {
        let base = &*self.base;
        let Some(over) = over else {
            return run
                .into_iter()
                .any(|k| f(base.inner_ids[k], base.postings_at(k)));
        };
        for k in run.clone() {
            let b = base.inner_ids[k];
            let list = over.get(&b).map_or(base.postings_at(k), Vec::as_slice);
            if !list.is_empty() && f(b, list) {
                return true;
            }
        }
        let in_base = &base.inner_ids[run];
        over.iter()
            .any(|(&b, list)| !list.is_empty() && in_base.binary_search(&b).is_err() && f(b, list))
    }

    /// Invokes `f` on every `(inner key, postings)` pair under `a` until it
    /// returns `true`. Returns whether iteration stopped early.
    pub(crate) fn for_each_inner_until(
        &self,
        a: TermId,
        f: impl FnMut(TermId, &[TermId]) -> bool,
    ) -> bool {
        self.scan_group(self.base.group(a), self.overlay.get(&a), f)
    }

    /// `true` if any posting list exists under outer key `a`.
    pub(crate) fn contains_outer(&self, a: TermId) -> bool {
        self.for_each_inner_until(a, |_, _| true)
    }

    /// The inner keys under outer key `a` (base keys ascending, then the
    /// overlay's own in hash order — callers that need an order sort).
    pub(crate) fn inner_keys(&self, a: TermId) -> Vec<TermId> {
        let mut keys = Vec::new();
        self.for_each_inner_until(a, |b, _| {
            keys.push(b);
            false
        });
        keys
    }

    /// Total postings under outer key `a`: the base group's count, one
    /// subtraction, corrected by each overlaid list under `a`.
    pub(crate) fn outer_posting_count(&self, a: TermId) -> usize {
        let run = self.base.group(a);
        let mut count = self.base.posting_count(run.clone());
        if let Some(over) = self.overlay.get(&a) {
            for (&b, list) in over {
                count += list.len();
                count -= self.base.get_in(run.clone(), b).len();
            }
        }
        count
    }

    /// Invokes `f` on every `(outer, inner, postings)` entry until it
    /// returns `true`. Returns whether iteration stopped early.
    pub(crate) fn for_each_until(
        &self,
        mut f: impl FnMut(TermId, TermId, &[TermId]) -> bool,
    ) -> bool {
        let base = &*self.base;
        for (g, &a) in base.outer_ids.iter().enumerate() {
            let over = self.overlay.get(&a);
            if self.scan_group(base.inner_range(g), over, |b, list| f(a, b, list)) {
                return true;
            }
        }
        self.overlay.iter().any(|(&a, over)| {
            base.outer_ids.binary_search(&a).is_err()
                && self.scan_group(0..0, Some(over), |b, list| f(a, b, list))
        })
    }

    /// Invokes `f` on every `(outer, inner, postings)` entry in ascending
    /// `(outer, inner)` order — the canonical stream the snapshot writer
    /// and content digest consume. Free over the base (it *is* that
    /// order); the overlay's key sets are sorted and merged in.
    pub(crate) fn for_each_sorted(&self, mut f: impl FnMut(TermId, TermId, &[TermId])) {
        let base = &*self.base;
        let mut over: Vec<(TermId, &InnerLists)> =
            self.overlay.iter().map(|(&a, lists)| (a, lists)).collect();
        over.sort_unstable_by_key(|&(a, _)| a);
        let mut over = over.into_iter().peekable();
        for (g, &a) in base.outer_ids.iter().enumerate() {
            while let Some((x, lists)) = over.next_if(|&(x, _)| x < a) {
                self.sorted_group(x, 0..0, Some(lists), &mut f);
            }
            let lists = over.next_if(|&(x, _)| x == a).map(|(_, lists)| lists);
            self.sorted_group(a, base.inner_range(g), lists, &mut f);
        }
        for (x, lists) in over {
            self.sorted_group(x, 0..0, Some(lists), &mut f);
        }
    }

    /// One group of [`Index::for_each_sorted`]: the base run and the
    /// overlay's keys under `a` merged by inner key, the overlay winning.
    fn sorted_group(
        &self,
        a: TermId,
        run: Range<usize>,
        over: Option<&InnerLists>,
        f: &mut impl FnMut(TermId, TermId, &[TermId]),
    ) {
        let base = &*self.base;
        let mut over: Vec<(TermId, &[TermId])> = over
            .into_iter()
            .flatten()
            .map(|(&b, list)| (b, list.as_slice()))
            .collect();
        over.sort_unstable_by_key(|&(b, _)| b);
        let mut over = over.into_iter().peekable();
        let mut emit = |b: TermId, list: &[TermId]| {
            if !list.is_empty() {
                f(a, b, list);
            }
        };
        for k in run {
            let b = base.inner_ids[k];
            while let Some((x, list)) = over.next_if(|&(x, _)| x < b) {
                emit(x, list);
            }
            match over.next_if(|&(x, _)| x == b) {
                Some((_, list)) => emit(b, list),
                None => emit(b, base.postings_at(k)),
            }
        }
        for (x, list) in over {
            emit(x, list);
        }
    }

    /// The whole index as one base — shared as-is while the overlay is
    /// empty, built by one merging sweep otherwise. The snapshot writer's
    /// view, and what [`Index::compact`] installs.
    pub(crate) fn freeze_view(&self) -> Arc<FrozenIndex> {
        if self.overlay.is_empty() {
            return Arc::clone(&self.base);
        }
        // Upper bounds (exact unless the overlay replaces base lists), so
        // the sweep never reallocates; the slack is returned afterwards.
        let lists = || self.overlay.values().flat_map(FxHashMap::values);
        let outer = self.base.outer_ids.len() + self.overlay.len();
        let inner = self.base.inner_ids.len() + lists().count();
        let mut merged = FrozenIndex {
            outer_ids: Vec::with_capacity(outer),
            outer_ends: Vec::with_capacity(outer),
            inner_ids: Vec::with_capacity(inner),
            inner_ends: Vec::with_capacity(inner),
            postings: Vec::with_capacity(
                self.base.postings.len() + lists().map(Vec::len).sum::<usize>(),
            ),
        };
        self.for_each_sorted(|a, b, list| merged.push(a, b, list));
        merged.outer_ids.shrink_to_fit();
        merged.outer_ends.shrink_to_fit();
        merged.inner_ids.shrink_to_fit();
        merged.inner_ends.shrink_to_fit();
        merged.postings.shrink_to_fit();
        Arc::new(merged)
    }

    /// Folds the overlay into a fresh base.
    fn compact(&mut self) {
        self.base = self.freeze_view();
        self.overlay = FxHashMap::default();
    }

    fn heap_bytes(&self) -> usize {
        let overlay: usize = self
            .overlay
            .values()
            .map(|m| {
                m.values()
                    .map(|v| v.capacity() * std::mem::size_of::<TermId>() + 16)
                    .sum::<usize>()
                    + 16
            })
            .sum();
        self.base.heap_bytes() + overlay
    }
}

/// How many leading entries of the ascending `list` are below `id`: probes
/// 1, 2, 4, … entries ahead until one is not, then binary-searches the last
/// stride — O(log distance) instead of a walk over the distance. Walking a
/// sorted sequence of ids through `list` this way, each search starting
/// where the last one ended, is a merge that skips what it does not need.
pub fn gallop(list: &[TermId], id: TermId) -> usize {
    let mut below = 0; // list[..below] < id
    let mut step = 1;
    while step <= list.len() && list[step - 1] < id {
        below = step;
        step *= 2;
    }
    let end = step.min(list.len());
    below + list[below..end].partition_point(|&x| x < id)
}

/// A read cursor over one of the graph's indexes, for a sequence of
/// lookups — [`Graph::objects_cursor`], [`Graph::subjects_cursor`] and
/// [`Graph::predicates_cursor`] name the index and the order of the two
/// keys [`Cursor::get`] takes.
///
/// Every lookup answers what the graph's plain lookup answers (overlay
/// first, then the base), but the cursor keeps the last outer key's group:
/// a lookup under the same outer key searches only that group's inner keys,
/// one under a greater outer key gallops forward from the last group, and
/// one under a smaller outer key binary-searches from the start. A lookup
/// repeating the last `(outer, inner)` key returns the last list again. A
/// walk over ascending outer keys — the subjects of an observation star,
/// say, with several inner keys per subject — thus costs one forward merge
/// over the outer keys, never a search over all of them per lookup.
#[derive(Debug)]
pub struct Cursor<'g> {
    index: &'g Index,
    /// The last outer key looked up.
    outer: Option<TermId>,
    /// Where `outer` is (or would be inserted) among the base's outer keys.
    at: usize,
    /// `outer`'s group in the base's inner arrays (empty if it has none).
    run: Range<usize>,
    /// `outer`'s overlay entry.
    over: Option<&'g InnerLists>,
    /// The last inner key looked up under `outer`, and its list.
    last: Option<(TermId, &'g [TermId])>,
}

impl<'g> Cursor<'g> {
    fn new(index: &'g Index) -> Self {
        Cursor {
            index,
            outer: None,
            at: 0,
            run: 0..0,
            over: None,
            last: None,
        }
    }

    /// The posting list under outer key `a` and inner key `b`, sorted by
    /// id, or the empty slice.
    #[inline]
    pub fn get(&mut self, a: TermId, b: TermId) -> &'g [TermId] {
        if self.outer != Some(a) {
            self.seek(a);
        }
        if let Some((last, list)) = self.last {
            if last == b {
                return list;
            }
        }
        let list = self.index.get_in(self.over, self.run.clone(), b);
        self.last = Some((b, list));
        list
    }

    /// Moves to outer key `a`'s group.
    fn seek(&mut self, a: TermId) {
        let index = self.index;
        let keys = &index.base.outer_ids;
        self.at = match self.outer {
            Some(last) if last < a => self.at + gallop(&keys[self.at..], a),
            _ => keys.partition_point(|&k| k < a),
        };
        self.run = match keys.get(self.at) {
            Some(&k) if k == a => index.base.inner_range(self.at),
            _ => 0..0,
        };
        self.over = index.overlaid(a);
        self.outer = Some(a);
        self.last = None;
    }
}

/// Incrementally maintained statistics for one predicate.
///
/// Updated on every [`Graph::insert_ids`]/[`Graph::remove_ids`], so reads
/// are `O(1)`; the distinct-object count comes for free from the POS
/// index's key set and is reported alongside in
/// [`Graph::predicate_stats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PredicateStats {
    /// Number of triples using the predicate.
    pub triples: usize,
    /// Number of distinct subjects appearing with the predicate.
    pub distinct_subjects: usize,
    /// Number of distinct objects appearing with the predicate.
    pub distinct_objects: usize,
}

/// An in-memory RDF graph with full index coverage and a full-text index
/// over its literals.
///
/// Cloning is cheap. The term table and text index live behind
/// copy-on-write handles: a clone (or a shard built from
/// [`Graph::term_shell`]) shares them until it interns a *new* term or
/// (un)indexes a literal, at which point only that clone pays for a copy
/// — of the whole term table, but of the text index only its overlay. The
/// three indexes and the text index share their immutable base and never
/// un-share it: a write copies the posting lists it changes into the
/// writer's overlay, so a clone costs the overlay (the lists written since
/// the base was built), not the index.
#[derive(Debug, Default, Clone)]
pub struct Graph {
    pub(crate) interner: Arc<Interner>,
    /// subject → predicate → objects.
    pub(crate) spo: Index,
    /// predicate → object → subjects.
    pub(crate) pos: Index,
    /// object → subject → predicates.
    pub(crate) osp: Index,
    pub(crate) len: usize,
    /// predicate → incrementally maintained counts; entries are dropped
    /// when a predicate's last triple is removed, so iteration never sees
    /// fully-deleted predicates.
    pub(crate) pred_stats: FxHashMap<TermId, PredicateStats>,
    pub(crate) text: Arc<TextIndex>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    // ---- term management -------------------------------------------------

    /// Interns an arbitrary term.
    ///
    /// Only a term the table has not seen un-shares the copy-on-write term
    /// table from this graph's clones — and, for a literal, the text
    /// index's overlay, whose shared base stays shared: the literal copies
    /// just the posting lists it joins. A full table yields
    /// [`TermId::OVERFLOW`] and indexes nothing.
    pub fn intern(&mut self, term: Term) -> TermId {
        if let Some(id) = self.interner.get(&term) {
            return id;
        }
        let interner = Arc::make_mut(&mut self.interner);
        let Ok(id) = interner.try_intern(term) else {
            return TermId::OVERFLOW;
        };
        if let Some(literal) = interner.resolve(id).as_literal() {
            Arc::make_mut(&mut self.text).index_literal(id, literal.lexical());
        }
        id
    }

    /// Interns an IRI.
    pub fn intern_iri(&mut self, iri: impl Into<String>) -> TermId {
        self.intern(Term::iri(iri))
    }

    /// Interns a literal.
    pub fn intern_literal(&mut self, literal: Literal) -> TermId {
        self.intern(Term::Literal(literal))
    }

    /// Looks up the id of a term without interning.
    pub fn term_id(&self, term: &Term) -> Option<TermId> {
        self.interner.get(term)
    }

    /// Looks up the id of an IRI without interning.
    pub fn iri_id(&self, iri: &str) -> Option<TermId> {
        self.interner.get(&Term::iri(iri))
    }

    /// Resolves an id to its term.
    #[inline]
    pub fn term(&self, id: TermId) -> &Term {
        self.interner.resolve(id)
    }

    /// Cached numeric value of a literal term.
    #[inline]
    pub fn numeric_value(&self, id: TermId) -> Option<f64> {
        self.interner.numeric_value(id)
    }

    /// Access to the underlying interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Access to the full-text index.
    pub fn text_index(&self) -> &TextIndex {
        &self.text
    }

    /// A graph that shares this graph's term table and text index (zero-copy
    /// `Arc` clones) but holds no triples.
    ///
    /// This is the starting point for building partitions whose `TermId`s
    /// align with the source graph: solutions produced against a shell-built
    /// shard resolve correctly against the original graph's interner. Note
    /// the cloned text index covers *all* of the source's literals, not just
    /// the ones the caller later inserts.
    pub fn term_shell(&self) -> Graph {
        Graph {
            interner: self.interner.clone(),
            spo: Index::default(),
            pos: Index::default(),
            osp: Index::default(),
            len: 0,
            pred_stats: FxHashMap::default(),
            text: self.text.clone(),
        }
    }

    /// Assembles a graph directly from pre-built index bases — the
    /// snapshot loader's constructor, which bypasses per-triple insertion
    /// entirely. Callers are responsible for the index invariants (sorted
    /// runs, mirror agreement, exact `len` and statistics); the snapshot
    /// round-trip property suite is what holds this to account.
    pub(crate) fn from_snapshot_parts(
        interner: Arc<Interner>,
        spo: FrozenIndex,
        pos: FrozenIndex,
        osp: FrozenIndex,
        len: usize,
        pred_stats: FxHashMap<TermId, PredicateStats>,
        text: TextIndex,
    ) -> Graph {
        Graph {
            interner,
            spo: Index::from_base(spo),
            pos: Index::from_base(pos),
            osp: Index::from_base(osp),
            len,
            pred_stats,
            text: Arc::new(text),
        }
    }

    // ---- mutation ---------------------------------------------------------

    /// Inserts a triple of already-interned ids. Returns `false` if it was
    /// already present. Posting lists stay sorted (binary-search
    /// insertion), and the per-predicate statistics are updated in place.
    /// Each index copies at most the one posting list the triple joins
    /// into its overlay; the shared base is never touched.
    pub fn insert_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        let Some(fresh_subject) = self.spo.insert(s, p, o) else {
            return false;
        };
        // SPO lacked the triple, so the mirror indexes lack it too.
        let fresh_pred_object = self.pos.insert(p, o, s).unwrap_or(false);
        let fresh_object = !self.osp.contains_outer(o);
        self.osp.insert(o, s, p);
        self.len += 1;
        let stats = self.pred_stats.entry(p).or_default();
        stats.triples += 1;
        stats.distinct_subjects += usize::from(fresh_subject);
        stats.distinct_objects += usize::from(fresh_pred_object);
        if fresh_object {
            // A literal unindexed by a prior removal becomes searchable again
            // the moment a triple uses it as an object.
            if let Some(literal) = self.interner.resolve(o).as_literal() {
                if !self.text.is_indexed(o, literal.lexical()) {
                    Arc::make_mut(&mut self.text).index_literal(o, literal.lexical());
                }
            }
        }
        true
    }

    /// Interns the three terms and inserts the triple.
    pub fn insert(&mut self, s: Term, p: Term, o: Term) -> bool {
        let s = self.intern(s);
        let p = self.intern(p);
        let o = self.intern(o);
        self.insert_ids(s, p, o)
    }

    /// Inserts a batch of already-interned triples — exactly
    /// [`Graph::insert_ids`] on each triple, then [`Graph::compact`] —
    /// and returns the number that were new. The bulk constructor behind
    /// the generators, the parsers and the partitioner.
    ///
    /// Instead of one posting-list insertion per triple and index, the
    /// batch (merged with the graph's current triples, if any) is sorted
    /// and deduplicated once, and each index base is written by one sweep
    /// over it in that index's order: SPO (which also counts triples and
    /// distinct subjects per predicate), POS (distinct objects) and OSP
    /// (where an object no triple used before gets `insert_ids`' literal
    /// re-index check). The text overlay is folded last, so the result is
    /// all bases — the form a snapshot-loaded graph has.
    pub fn extend_ids(&mut self, mut triples: Vec<Triple>) -> usize {
        if triples.is_empty() {
            self.compact();
            return 0;
        }
        let old_len = self.len;
        triples.reserve(old_len);
        self.spo.for_each_sorted(|s, p, objects| {
            triples.extend(objects.iter().map(|&o| Triple { s, p, o }));
        });
        triples.sort_unstable();
        triples.dedup();

        let mut stats: FxHashMap<TermId, PredicateStats> = FxHashMap::default();
        let spo = FrozenIndex::from_sorted(
            &triples,
            |t| [t.s, t.p, t.o],
            |_, p, run| {
                let st = stats.entry(p).or_default();
                st.triples += run.len();
                st.distinct_subjects += 1;
            },
        );
        triples.sort_unstable_by_key(|t| (t.p, t.o, t.s));
        let pos = FrozenIndex::from_sorted(
            &triples,
            |t| [t.p, t.o, t.s],
            |p, _, _| stats.entry(p).or_default().distinct_objects += 1,
        );
        triples.sort_unstable_by_key(|t| (t.o, t.s, t.p));
        let (mut last_object, mut fresh_literals) = (None, Vec::new());
        let osp = FrozenIndex::from_sorted(
            &triples,
            |t| [t.o, t.s, t.p],
            |o, _, _| {
                let seen = last_object.replace(o) == Some(o);
                if seen || (old_len > 0 && self.osp.contains_outer(o)) {
                    return;
                }
                if let Some(literal) = self.interner.resolve(o).as_literal() {
                    if !self.text.is_indexed(o, literal.lexical()) {
                        fresh_literals.push((o, literal));
                    }
                }
            },
        );
        // A literal unindexed by a prior removal becomes searchable again
        // once a triple uses it as an object (see `insert_ids`).
        for (o, literal) in fresh_literals {
            Arc::make_mut(&mut self.text).index_literal(o, literal.lexical());
        }

        self.len = triples.len();
        self.spo = Index::from_base(spo);
        self.pos = Index::from_base(pos);
        self.osp = Index::from_base(osp);
        self.pred_stats = stats;
        self.compact_text();
        self.len - old_len
    }

    /// Removes a triple. Returns `false` if it was not present (a missed
    /// remove copies nothing into the overlay).
    ///
    /// The per-predicate statistics shrink in lockstep (an add→remove→add
    /// cycle leaves them exact), and index entries emptied by the removal
    /// are hidden so enumerations
    /// (`predicates_from`, `objects_of_predicate`, …) and the planner's
    /// cardinality estimates never see fully-deleted terms, and a literal
    /// object no longer used by any triple is dropped from the full-text
    /// index (it resurfaces if a triple re-adopts it, see
    /// [`Graph::insert_ids`]).
    pub fn remove_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        let Some(emptied_subject) = self.spo.remove(s, p, o) else {
            return false;
        };
        // The SPO index held the triple, so the mirror indexes hold it too
        // and these cannot miss. A (hypothetically) desynced mirror degrades
        // to a stale posting instead of a panic poisoning every lock above
        // us, and the index-agreement property suite would catch the desync.
        let emptied_pred_object = self.pos.remove(p, o, s).unwrap_or(false);
        self.osp.remove(o, s, p);
        self.len -= 1;
        if let Some(stats) = self.pred_stats.get_mut(&p) {
            stats.triples -= 1;
            stats.distinct_subjects -= usize::from(emptied_subject);
            stats.distinct_objects -= usize::from(emptied_pred_object);
            if stats.triples == 0 {
                self.pred_stats.remove(&p);
            }
        }
        if !self.osp.contains_outer(o) {
            if let Some(literal) = self.interner.resolve(o).as_literal() {
                Arc::make_mut(&mut self.text).unindex_literal(o, literal.lexical());
            }
        }
        true
    }

    /// Folds every index's overlay — the text index's too — into a fresh
    /// base of its own, so reads stop probing the overlay and later clones
    /// are `Arc` bumps again. Costs one merging sweep per index —
    /// `O(graph)`, which is why no write triggers it: the caller who knows
    /// a write burst is over (a bulk load, a partitioning pass) decides.
    /// Changes no answer, only enumeration order (a base enumerates in
    /// ascending id order).
    pub fn compact(&mut self) {
        self.spo.compact();
        self.pos.compact();
        self.osp.compact();
        self.compact_text();
    }

    /// Folds the text index's overlay into a fresh base; a text index
    /// without one stays shared.
    fn compact_text(&mut self) {
        if self.text.has_overlay() {
            self.text = Arc::new(TextIndex::from_base(self.text.freeze_view()));
        }
    }

    /// `true` if both graphs read their three indexes from the same shared
    /// base — i.e. one is a clone of the other (or of a common ancestor)
    /// and neither has been [`Graph::compact`]ed since.
    pub fn shares_base_with(&self, other: &Graph) -> bool {
        Arc::ptr_eq(&self.spo.base, &other.spo.base)
            && Arc::ptr_eq(&self.pos.base, &other.pos.base)
            && Arc::ptr_eq(&self.osp.base, &other.osp.base)
    }

    /// `true` if both graphs still share one term table and one text
    /// index — no write since the clone has interned a new term or
    /// (un)indexed a literal.
    pub fn shares_terms_with(&self, other: &Graph) -> bool {
        Arc::ptr_eq(&self.interner, &other.interner) && Arc::ptr_eq(&self.text, &other.text)
    }

    // ---- lookup -----------------------------------------------------------

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the graph has no triples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test (binary search over the sorted posting list).
    pub fn contains_ids(&self, s: TermId, p: TermId, o: TermId) -> bool {
        self.spo.get(s, p).binary_search(&o).is_ok()
    }

    /// Objects of `(s, p, ?)`, sorted by id.
    pub fn objects(&self, s: TermId, p: TermId) -> &[TermId] {
        self.spo.get(s, p)
    }

    /// Subjects of `(?, p, o)`, sorted by id.
    pub fn subjects(&self, p: TermId, o: TermId) -> &[TermId] {
        self.pos.get(p, o)
    }

    /// Predicates of `(s, ?, o)`, sorted by id.
    pub fn predicates_between(&self, s: TermId, o: TermId) -> &[TermId] {
        self.osp.get(o, s)
    }

    /// A [`Cursor`] answering [`Graph::objects`]: `get(s, p)`.
    pub fn objects_cursor(&self) -> Cursor<'_> {
        Cursor::new(&self.spo)
    }

    /// A [`Cursor`] answering [`Graph::subjects`]: `get(p, o)`.
    pub fn subjects_cursor(&self) -> Cursor<'_> {
        Cursor::new(&self.pos)
    }

    /// A [`Cursor`] answering [`Graph::predicates_between`]: `get(o, s)`,
    /// the object first.
    pub fn predicates_cursor(&self) -> Cursor<'_> {
        Cursor::new(&self.osp)
    }

    /// Distinct predicates leaving `s`.
    pub fn predicates_from(&self, s: TermId) -> Vec<TermId> {
        self.spo.inner_keys(s)
    }

    /// Distinct predicates arriving at `o`.
    pub fn predicates_into(&self, o: TermId) -> Vec<TermId> {
        let mut preds: Vec<TermId> = Vec::new();
        self.osp.for_each_inner_until(o, |_, predicates| {
            preds.extend_from_slice(predicates);
            false
        });
        preds.sort_unstable();
        preds.dedup();
        preds
    }

    /// Invokes `f` on every `(object, subjects)` run of predicate `p` — the
    /// POS posting lists under `p`, base and overlay — until it returns
    /// `true`. Runs arrive ascending by object for the base, then the
    /// objects only the overlay holds. Returns whether `f` stopped it.
    pub fn object_runs_until(&self, p: TermId, f: impl FnMut(TermId, &[TermId]) -> bool) -> bool {
        self.pos.for_each_inner_until(p, f)
    }

    /// Invokes `f` on every `(predicate, objects)` run of subject `s` — the
    /// SPO posting lists under `s`, base and overlay — until it returns
    /// `true`, in the order of [`Graph::object_runs_until`]. Returns
    /// whether `f` stopped it.
    pub fn predicate_runs_until(
        &self,
        s: TermId,
        f: impl FnMut(TermId, &[TermId]) -> bool,
    ) -> bool {
        self.spo.for_each_inner_until(s, f)
    }

    /// Every predicate currently used by at least one triple, sorted by id
    /// (the key set of the incremental statistics, so `O(predicates)`).
    pub fn predicates(&self) -> Vec<TermId> {
        let mut preds: Vec<TermId> = self.pred_stats.keys().copied().collect();
        preds.sort_unstable();
        preds
    }

    /// Distinct objects appearing with predicate `p` (POS index keys).
    pub fn objects_of_predicate(&self, p: TermId) -> Vec<TermId> {
        self.pos.inner_keys(p)
    }

    /// Number of triples with predicate `p` — an `O(1)` lookup of the
    /// incrementally maintained count (the planner calls this inside its
    /// greedy ordering loop, so it must not walk the POS index).
    pub fn predicate_cardinality(&self, p: TermId) -> usize {
        self.pred_stats.get(&p).map_or(0, |st| st.triples)
    }

    /// Incrementally maintained statistics for predicate `p`: triple count
    /// and distinct subject/object counts, all `O(1)`.
    pub fn predicate_stats(&self, p: TermId) -> PredicateStats {
        self.pred_stats.get(&p).copied().unwrap_or_default()
    }

    /// Number of triples matching a pattern (`None` = wildcard) without
    /// materializing them.
    pub fn count_matching(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> usize {
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => usize::from(self.contains_ids(s, p, o)),
            (Some(s), Some(p), None) => self.objects(s, p).len(),
            (None, Some(p), Some(o)) => self.subjects(p, o).len(),
            (Some(s), None, Some(o)) => self.predicates_between(s, o).len(),
            (Some(s), None, None) => self.spo.outer_posting_count(s),
            (None, Some(p), None) => self.predicate_cardinality(p),
            (None, None, Some(o)) => self.osp.outer_posting_count(o),
            (None, None, None) => self.len,
        }
    }

    /// Invokes `f` for every triple matching the pattern (`None` =
    /// wildcard). Uses the most selective index for the bound positions.
    pub fn for_each_matching(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
        mut f: impl FnMut(Triple),
    ) {
        self.for_each_matching_until(s, p, o, |t| {
            f(t);
            false
        });
    }

    /// Like [`Graph::for_each_matching`], but stops as soon as `f` returns
    /// `true` (existence probes stay lazy). Returns whether iteration was
    /// stopped early.
    pub fn for_each_matching_until(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
        mut f: impl FnMut(Triple) -> bool,
    ) -> bool {
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                if self.contains_ids(s, p, o) {
                    return f(Triple { s, p, o });
                }
                false
            }
            (Some(s), Some(p), None) => {
                for &o in self.objects(s, p) {
                    if f(Triple { s, p, o }) {
                        return true;
                    }
                }
                false
            }
            (None, Some(p), Some(o)) => {
                for &s in self.subjects(p, o) {
                    if f(Triple { s, p, o }) {
                        return true;
                    }
                }
                false
            }
            (Some(s), None, Some(o)) => {
                for &p in self.predicates_between(s, o) {
                    if f(Triple { s, p, o }) {
                        return true;
                    }
                }
                false
            }
            (Some(s), None, None) => self.spo.for_each_inner_until(s, |p, objects| {
                objects.iter().any(|&o| f(Triple { s, p, o }))
            }),
            (None, Some(p), None) => self.pos.for_each_inner_until(p, |o, subjects| {
                subjects.iter().any(|&s| f(Triple { s, p, o }))
            }),
            (None, None, Some(o)) => self.osp.for_each_inner_until(o, |s, predicates| {
                predicates.iter().any(|&p| f(Triple { s, p, o }))
            }),
            (None, None, None) => self
                .spo
                .for_each_until(|s, p, objects| objects.iter().any(|&o| f(Triple { s, p, o }))),
        }
    }

    /// Collects the triples matching a pattern.
    pub fn matching(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> Vec<Triple> {
        let mut out = Vec::new();
        self.for_each_matching(s, p, o, |t| out.push(t));
        out
    }

    /// Iterates every triple.
    pub fn iter(&self) -> Vec<Triple> {
        self.matching(None, None, None)
    }

    /// Every triple in ascending `(s, p, o)` order — the canonical stream
    /// the snapshot writer serializes and the content digest hashes. Free
    /// over the base; only the overlay's key sets need sorting (posting
    /// lists are sorted by invariant).
    pub fn iter_sorted(&self) -> Vec<Triple> {
        let mut out = Vec::with_capacity(self.len);
        self.spo.for_each_sorted(|s, p, objects| {
            for &o in objects {
                out.push(Triple { s, p, o });
            }
        });
        out
    }

    /// Literal terms whose normalized lexical form equals the query.
    pub fn literals_matching_exact(&self, query: &str) -> Vec<TermId> {
        self.text.search_exact(query).to_vec()
    }

    /// Literal terms containing all tokens of the query.
    pub fn literals_matching_keywords(&self, query: &str) -> Vec<TermId> {
        self.text.search_all_tokens(query)
    }

    /// Approximate heap footprint in bytes (store + interner + text index).
    ///
    /// Everything behind an `Arc` — the index bases, the term table, the
    /// text index — is counted in full by every graph that holds it, so
    /// the figures of a graph and its clones do not add up to the
    /// process's footprint.
    pub fn heap_bytes(&self) -> usize {
        self.spo.heap_bytes()
            + self.pos.heap_bytes()
            + self.osp.heap_bytes()
            + self.interner.heap_bytes()
            + self.text.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re2x_testkit::{check, TestRng};

    fn sample() -> (Graph, TermId, TermId, TermId, TermId, TermId) {
        let mut g = Graph::new();
        let obs = g.intern_iri("http://ex/obs1");
        let origin = g.intern_iri("http://ex/countryOrigin");
        let syria = g.intern_iri("http://ex/Syria");
        let label = g.intern_iri("http://ex/hasLabel");
        let lit = g.intern_literal(Literal::simple("Syria"));
        assert!(g.insert_ids(obs, origin, syria));
        assert!(g.insert_ids(syria, label, lit));
        (g, obs, origin, syria, label, lit)
    }

    /// The three shapes one logical graph can take — overlay only (as
    /// built), base only (compacted), and a base under an overlay holding
    /// new keys, overlaid base lists and a tombstone — so each test body
    /// below exercises all of them.
    fn forms(g: &Graph) -> [Graph; 3] {
        let mut base_only = g.clone();
        base_only.compact();
        let mut mixed = g.clone();
        let late: Vec<Triple> = g.iter_sorted().into_iter().step_by(2).collect();
        for t in &late {
            assert!(mixed.remove_ids(t.s, t.p, t.o));
        }
        let ghost = mixed.intern_iri("http://ex/ghost");
        assert!(mixed.insert_ids(ghost, ghost, ghost));
        mixed.compact();
        assert!(mixed.remove_ids(ghost, ghost, ghost));
        for t in &late {
            assert!(mixed.insert_ids(t.s, t.p, t.o));
        }
        [g.clone(), base_only, mixed]
    }

    /// The membership a one-entry-at-a-time merge computes.
    fn linear_merge(col: &[TermId], list: &[TermId]) -> Vec<bool> {
        let mut j = 0usize;
        col.iter()
            .map(|&id| {
                while j < list.len() && list[j] < id {
                    j += 1;
                }
                j < list.len() && list[j] == id
            })
            .collect()
    }

    fn galloping_merge(col: &[TermId], list: &[TermId]) -> Vec<bool> {
        let mut j = 0usize;
        col.iter()
            .map(|&id| {
                j += gallop(&list[j..], id);
                list.get(j) == Some(&id)
            })
            .collect()
    }

    fn sorted_ids(rng: &mut TestRng, len: usize, lo: u32, hi: u32, distinct: bool) -> Vec<TermId> {
        let mut ids: Vec<TermId> = (0..len).map(|_| TermId(rng.gen_range(lo..hi))).collect();
        ids.sort_unstable();
        if distinct {
            ids.dedup();
        }
        ids
    }

    #[test]
    fn gallop_equals_the_linear_merge() {
        check("gallop_equals_linear_merge", |rng: &mut TestRng| {
            // posting lists are distinct ids; a sorted column may repeat
            let list_len = *rng.pick(&[0usize, 1, 2, 7, 64, 500]);
            let list = sorted_ids(rng, list_len, 100, 1_000, true);
            let col_len = *rng.pick(&[0usize, 1, 3, 20, 130]);
            // the column within the list's range, across it, or wholly
            // below or above it
            let (lo, hi) = *rng.pick(&[(100, 1_000), (0, 1_100), (0, 100), (1_000, 2_000)]);
            let col = sorted_ids(rng, col_len, lo, hi, false);
            assert_eq!(galloping_merge(&col, &list), linear_merge(&col, &list));
        });
    }

    #[test]
    fn gallop_counts_the_entries_below() {
        let list: Vec<TermId> = [2, 4, 6, 8, 10].map(TermId).to_vec();
        for id in 0..12 {
            let below = list.iter().filter(|&&x| x < TermId(id)).count();
            assert_eq!(gallop(&list, TermId(id)), below, "{id}");
        }
        assert_eq!(gallop(&[], TermId(3)), 0);
    }

    #[test]
    fn insert_is_idempotent() {
        let (mut g, obs, origin, syria, ..) = sample();
        assert_eq!(g.len(), 2);
        assert!(!g.insert_ids(obs, origin, syria));
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn all_eight_access_paths_agree() {
        let (built, obs, origin, syria, label, lit) = sample();
        for g in &forms(&built) {
            let all = g.iter();
            assert_eq!(all.len(), 2);
            // fully bound
            assert_eq!(g.matching(Some(obs), Some(origin), Some(syria)).len(), 1);
            assert!(g.matching(Some(obs), Some(origin), Some(lit)).is_empty());
            // two bound
            assert_eq!(g.matching(Some(obs), Some(origin), None).len(), 1);
            assert_eq!(g.matching(None, Some(label), Some(lit)).len(), 1);
            assert_eq!(g.matching(Some(syria), None, Some(lit)).len(), 1);
            // one bound
            assert_eq!(g.matching(Some(syria), None, None).len(), 1);
            assert_eq!(g.matching(None, Some(origin), None).len(), 1);
            assert_eq!(g.matching(None, None, Some(syria)).len(), 1);
            // counts agree with materialization
            for s in [None, Some(obs)] {
                for p in [None, Some(origin)] {
                    for o in [None, Some(syria)] {
                        assert_eq!(g.count_matching(s, p, o), g.matching(s, p, o).len());
                    }
                }
            }
        }
    }

    #[test]
    fn helper_accessors() {
        let (built, obs, origin, syria, label, lit) = sample();
        for g in &forms(&built) {
            assert_eq!(g.objects(obs, origin), &[syria]);
            assert_eq!(g.subjects(label, lit), &[syria]);
            assert_eq!(g.predicates_between(obs, syria), &[origin]);
            assert_eq!(g.predicates_from(syria), vec![label]);
            assert_eq!(g.predicates_into(syria), vec![origin]);
            assert_eq!(g.predicate_cardinality(origin), 1);
            assert_eq!(g.predicate_cardinality(lit), 0);
        }
    }

    #[test]
    fn remove_updates_all_indexes() {
        let (g, obs, origin, syria, ..) = sample();
        for mut g in forms(&g) {
            assert!(g.remove_ids(obs, origin, syria));
            assert!(!g.remove_ids(obs, origin, syria));
            assert_eq!(g.len(), 1);
            assert!(g.matching(None, Some(origin), None).is_empty());
            assert!(g.matching(None, None, Some(syria)).is_empty());
            assert!(g.matching(Some(obs), None, None).is_empty());
        }
    }

    #[test]
    fn insert_overlays_one_list_and_leaves_the_base_shared() {
        let (built, obs, origin, ..) = sample();
        for source in forms(&built) {
            let mut g = source.clone();
            let berlin = g.intern_iri("http://ex/Berlin");
            assert!(g.insert_ids(obs, origin, berlin));
            assert!(g.shares_base_with(&source));
            assert_eq!(g.len(), 3);
            assert_eq!(source.len(), 2);
            assert!(g.objects(obs, origin).contains(&berlin));
            assert!(g.objects(obs, origin).windows(2).all(|w| w[0] < w[1]));
            assert_eq!(g.subjects(origin, berlin), &[obs]);
            assert_eq!(g.predicates_between(obs, berlin), &[origin]);
            // the clone's write is invisible to its source
            assert_eq!(source.objects(obs, origin).len(), 1);
            assert_eq!(source.count_matching(Some(obs), None, None), 1);
        }
    }

    #[test]
    fn writes_over_known_terms_keep_the_term_table_shared() {
        let (built, obs, origin, syria, label, lit) = sample();
        for source in forms(&built) {
            let mut g = source.clone();
            // an existing triple, through the interning entry point
            assert!(!g.insert(
                Term::iri("http://ex/obs1"),
                Term::iri("http://ex/countryOrigin"),
                Term::iri("http://ex/Syria"),
            ));
            // a new triple whose terms (an indexed literal included) are known
            assert!(g.insert(
                Term::iri("http://ex/obs1"),
                Term::iri("http://ex/hasLabel"),
                Term::from(Literal::simple("Syria")),
            ));
            assert_eq!(g.objects(obs, label), &[lit]);
            assert!(g.remove_ids(obs, origin, syria));
            assert!(g.shares_terms_with(&source));
            assert!(g.shares_base_with(&source));
            // a fresh term un-shares the terms, never the base
            g.intern_iri("http://ex/Berlin");
            assert!(!g.shares_terms_with(&source));
            assert!(g.shares_base_with(&source));
            assert!(source.iri_id("http://ex/Berlin").is_none());
        }
    }

    #[test]
    fn text_index_wired_to_interning() {
        let (g, .., lit) = sample();
        assert_eq!(g.literals_matching_exact("syria"), vec![lit]);
        assert_eq!(g.literals_matching_keywords("SYRIA"), vec![lit]);
        assert!(g.literals_matching_exact("germany").is_empty());
    }

    #[test]
    fn reinterning_literal_does_not_duplicate_text_entries() {
        let mut g = Graph::new();
        let a = g.intern_literal(Literal::simple("Asia"));
        let b = g.intern_literal(Literal::simple("Asia"));
        assert_eq!(a, b);
        assert_eq!(g.literals_matching_exact("asia"), vec![a]);
    }

    #[test]
    fn removing_triple_unindexes_orphaned_literal() {
        let (mut g, .., label, lit) = sample();
        let syria = g.iri_id("http://ex/Syria").unwrap();
        assert_eq!(g.literals_matching_exact("syria"), vec![lit]);
        assert!(g.remove_ids(syria, label, lit));
        // The literal is no longer reachable through any triple, so keyword
        // resolution must not surface it.
        assert!(g.literals_matching_exact("syria").is_empty());
        assert!(g.literals_matching_keywords("syria").is_empty());
        // Re-adopting the literal makes it searchable again.
        assert!(g.insert_ids(syria, label, lit));
        assert_eq!(g.literals_matching_exact("syria"), vec![lit]);
    }

    #[test]
    fn shared_literal_stays_indexed_until_last_use_removed() {
        let mut g = Graph::new();
        let a = g.intern_iri("http://ex/a");
        let b = g.intern_iri("http://ex/b");
        let label = g.intern_iri("http://ex/label");
        let lit = g.intern_literal(Literal::simple("Asia"));
        g.insert_ids(a, label, lit);
        g.insert_ids(b, label, lit);
        assert!(g.remove_ids(a, label, lit));
        // Another triple still uses the object: it must stay searchable.
        assert_eq!(g.literals_matching_exact("asia"), vec![lit]);
        assert!(g.remove_ids(b, label, lit));
        assert!(g.literals_matching_exact("asia").is_empty());
    }

    #[test]
    fn removal_prunes_empty_index_entries() {
        let (g, obs, origin, syria, label, lit) = sample();
        for mut g in forms(&g) {
            assert!(g.remove_ids(obs, origin, syria));
            // Enumerations over index keys must not report fully-deleted terms.
            assert!(g.predicates_from(obs).is_empty());
            assert!(g.objects_of_predicate(origin).is_empty());
            assert!(g.predicates_into(syria).is_empty());
            assert_eq!(g.predicate_cardinality(origin), 0);
            for (s, p, o) in [
                (Some(obs), None, None),
                (None, Some(origin), None),
                (None, None, Some(syria)),
            ] {
                assert_eq!(g.count_matching(s, p, o), 0);
            }
            // A partially-deleted term keeps its remaining entries.
            assert_eq!(g.predicates_from(syria), vec![label]);
            assert_eq!(g.objects_of_predicate(label), vec![lit]);
        }
    }

    #[test]
    fn term_shell_shares_terms_but_no_triples() {
        let (g, obs, origin, syria, _, lit) = sample();
        let shell = g.term_shell();
        assert!(shell.is_empty());
        assert_eq!(shell.iri_id("http://ex/obs1"), Some(obs));
        assert_eq!(shell.literals_matching_exact("syria"), vec![lit]);
        let mut shard = shell;
        assert!(shard.insert_ids(obs, origin, syria));
        assert_eq!(shard.len(), 1);
        assert_eq!(g.len(), 2);
    }

    /// Recomputes a predicate's statistics the slow way, for comparison
    /// against the incrementally maintained counts.
    fn recount(g: &Graph, p: TermId) -> PredicateStats {
        let triples = g.matching(None, Some(p), None);
        let mut subjects: Vec<TermId> = triples.iter().map(|t| t.s).collect();
        subjects.sort_unstable();
        subjects.dedup();
        let mut objects: Vec<TermId> = triples.iter().map(|t| t.o).collect();
        objects.sort_unstable();
        objects.dedup();
        PredicateStats {
            triples: triples.len(),
            distinct_subjects: subjects.len(),
            distinct_objects: objects.len(),
        }
    }

    #[test]
    fn add_remove_add_keeps_predicate_counts_exact() {
        let mut g = Graph::new();
        let s1 = g.intern_iri("http://ex/s1");
        let s2 = g.intern_iri("http://ex/s2");
        let p = g.intern_iri("http://ex/p");
        let o1 = g.intern_iri("http://ex/o1");
        let o2 = g.intern_iri("http://ex/o2");
        // add: two subjects, two objects, three triples
        for (s, o) in [(s1, o1), (s1, o2), (s2, o1)] {
            assert!(g.insert_ids(s, p, o));
        }
        assert_eq!(g.predicate_cardinality(p), 3);
        assert_eq!(g.predicate_stats(p), recount(&g, p));
        // remove down to zero, checking the stats track every step
        assert!(g.remove_ids(s1, p, o2));
        assert_eq!(g.predicate_stats(p), recount(&g, p));
        assert_eq!(g.predicate_stats(p).distinct_objects, 1);
        assert!(g.remove_ids(s1, p, o1));
        assert_eq!(g.predicate_stats(p), recount(&g, p));
        assert_eq!(g.predicate_stats(p).distinct_subjects, 1);
        assert!(g.remove_ids(s2, p, o1));
        assert_eq!(g.predicate_cardinality(p), 0);
        assert_eq!(g.predicate_stats(p), PredicateStats::default());
        // re-add: counts must come back exact, not doubled or stale
        assert!(g.insert_ids(s1, p, o1));
        assert!(g.insert_ids(s2, p, o2));
        assert_eq!(g.predicate_cardinality(p), 2);
        assert_eq!(
            g.predicate_stats(p),
            PredicateStats {
                triples: 2,
                distinct_subjects: 2,
                distinct_objects: 2,
            }
        );
        assert_eq!(g.predicate_stats(p), recount(&g, p));
        // duplicate insert must not disturb the counts
        assert!(!g.insert_ids(s1, p, o1));
        assert_eq!(g.predicate_stats(p), recount(&g, p));
    }

    #[test]
    fn posting_lists_are_sorted() {
        let mut g = Graph::new();
        let p = g.intern_iri("http://ex/p");
        let s = g.intern_iri("http://ex/s");
        // intern objects first so ids are allocated, then insert in a
        // deliberately non-ascending order
        let objects: Vec<TermId> = (0..20)
            .map(|i| g.intern_iri(format!("http://ex/o{i}")))
            .collect();
        for &o in objects.iter().rev() {
            g.insert_ids(s, p, o);
        }
        for &o in objects.iter().skip(7) {
            g.insert_ids(o, p, s);
        }
        assert!(g.objects(s, p).windows(2).all(|w| w[0] < w[1]));
        assert!(g.subjects(p, s).windows(2).all(|w| w[0] < w[1]));
        let mid = objects[10];
        assert!(g.predicates_between(s, mid).windows(2).all(|w| w[0] < w[1]));
        assert!(g.contains_ids(s, p, mid));
        assert!(g.remove_ids(s, p, mid));
        assert!(!g.contains_ids(s, p, mid));
        assert!(g.objects(s, p).windows(2).all(|w| w[0] < w[1]));
    }

    /// Every form answers every access path identically, iter_sorted (the
    /// canonical stream) is bit-for-bit the same, and a clone enumerates
    /// each path in its source's order.
    #[test]
    fn every_form_preserves_every_view() {
        let mut g = Graph::new();
        let terms: Vec<TermId> = (0..30)
            .map(|i| g.intern_iri(format!("http://ex/t{i}")))
            .collect();
        // dense little graph with shared subjects/objects across predicates
        for i in 0..30usize {
            for j in 0..5usize {
                g.insert_ids(terms[i], terms[(i + j) % 7], terms[(i * j + 3) % 30]);
            }
        }
        for other in forms(&g) {
            assert_eq!(g.iter_sorted(), other.iter_sorted());
            assert_eq!(other.iter(), other.clone().iter());
            for t in g.iter_sorted() {
                assert_eq!(g.objects(t.s, t.p), other.objects(t.s, t.p));
                assert_eq!(g.subjects(t.p, t.o), other.subjects(t.p, t.o));
                assert_eq!(
                    g.predicates_between(t.s, t.o),
                    other.predicates_between(t.s, t.o)
                );
                for (s, p, o) in [
                    (Some(t.s), None, None),
                    (None, Some(t.p), None),
                    (None, None, Some(t.o)),
                ] {
                    assert_eq!(g.count_matching(s, p, o), other.count_matching(s, p, o));
                    assert_eq!(other.matching(s, p, o), other.clone().matching(s, p, o));
                    let mut a = g.matching(s, p, o);
                    let mut b = other.matching(s, p, o);
                    a.sort_unstable();
                    b.sort_unstable();
                    assert_eq!(a, b);
                }
            }
            // a write and its undo leave the canonical stream as it was
            let mut touched = other.clone();
            let extra = touched.intern_iri("http://ex/extra");
            assert!(touched.insert_ids(extra, terms[0], terms[1]));
            assert!(touched.remove_ids(extra, terms[0], terms[1]));
            assert_eq!(g.iter_sorted(), touched.iter_sorted());
        }
    }

    #[test]
    fn insert_terms_convenience() {
        let mut g = Graph::new();
        assert!(g.insert(
            Term::iri("http://ex/s"),
            Term::iri("http://ex/p"),
            Term::from(Literal::integer(5)),
        ));
        assert_eq!(g.len(), 1);
        let o = g.iter()[0].o;
        assert_eq!(g.numeric_value(o), Some(5.0));
    }
}
