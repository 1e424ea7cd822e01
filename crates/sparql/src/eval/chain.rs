//! Set queries as a chain of semijoin nodes.
//!
//! A set query asks which distinct values one variable takes over a flat
//! block ([`Compiled::set_query`]). [`Compiled::chain`] cuts the block at
//! articulation variables into a chain of nodes, each one arm pattern and
//! the filters over its far end, seeded by the values of the node before;
//! each node reads its values the cheapest way its O(1) statistics allow
//! ([`Access`]), and a part that is no single arm is joined. The answer is
//! the last node's values, ids ascending, whichever way each node ran.

use super::{columnar, Block, Compiled, FlatPattern, SetQuery, Slot, SparqlError, FAR_FEWER};
use crate::expr::Bindings;
use re2x_rdf::hash::FxHashMap;
use re2x_rdf::{gallop, Graph, TermId};
use std::borrow::Cow;

/// One node of a set query's chain ([`Compiled::chain`]): the distinct
/// values of `target` over `part` among the solutions that bind `seed` to
/// one of the previous node's values (every solution, for the first
/// node). `part` is the compiled query restricted to one arm pattern and
/// its filters — or, for a join, to the rest of the block — over the
/// query's variable registry.
struct Node<'q> {
    part: Compiled<'q>,
    seed: Option<usize>,
    target: usize,
    access: Access,
}

/// How a node reads its values.
#[derive(Clone, Copy)]
enum Access {
    /// One pattern, no filter and no seeds: a posting list or a key set of
    /// one index.
    IndexRead(IndexRead),
    /// The seeds' runs walked: the arm joined from the seeds.
    Forward,
    /// The objects of the arm's predicate, each decided by galloping its
    /// subjects through the seeds up to the first witness.
    Backward(TermId),
    /// The predicates of the graph, each decided backward from its own
    /// postings or forward along the seeds' runs, whichever its statistics
    /// favor ([`per_candidate`]); the arm's object is the variable held.
    PerCandidate(usize),
    /// The seeds' SPO runs walked once, a predicate skipped once found and
    /// a run's objects tested only up to the first one kept
    /// ([`seed_walk`]); the arm's object is the variable held.
    SeedWalk(usize),
    /// The part's join, from the seeds if there are any: a part that is no
    /// single arm, or a block with no cut.
    Join,
}

impl Access {
    fn name(self) -> &'static str {
        match self {
            Access::IndexRead(read) => read.name(),
            Access::Forward => "forward",
            Access::Backward(_) => "backward",
            Access::PerCandidate(_) => "per candidate",
            Access::SeedWalk(_) => "seed walk",
            Access::Join => "join",
        }
    }
}

/// The index read answering one pattern of distinct variables for one of
/// them.
#[derive(Clone, Copy)]
enum IndexRead {
    /// A constant absent from the graph: nothing matches.
    Nothing,
    /// `?t <p> <o>`: a POS posting list.
    Subjects(TermId, TermId),
    /// `<s> <p> ?t`: an SPO posting list.
    Objects(TermId, TermId),
    /// `<s> ?t <o>`: an OSP posting list.
    PredicatesBetween(TermId, TermId),
    /// `<s> ?t ?x`: the SPO keys under `s`.
    PredicatesFrom(TermId),
    /// `?x ?t <o>`: the OSP keys under `o`, deduplicated.
    PredicatesInto(TermId),
    /// `?x <p> ?t`: the POS keys under `p`.
    ObjectsOfPredicate(TermId),
}

impl IndexRead {
    /// The read that lists the values of `tv` in `pattern`, if one does.
    fn of(pattern: FlatPattern, tv: usize) -> Option<IndexRead> {
        use Slot::{Absent, Const, Var};
        let slots = [pattern.s, pattern.p, pattern.o];
        if slots.contains(&Absent) {
            return Some(IndexRead::Nothing);
        }
        if pattern.repeats() {
            return None;
        }
        Some(match slots {
            [Var(_), Const(p), Const(o)] => IndexRead::Subjects(p, o),
            [Const(s), Const(p), Var(_)] => IndexRead::Objects(s, p),
            [Const(s), Var(_), Const(o)] => IndexRead::PredicatesBetween(s, o),
            [Const(s), Var(t), Var(_)] if t == tv => IndexRead::PredicatesFrom(s),
            [Var(_), Var(t), Const(o)] if t == tv => IndexRead::PredicatesInto(o),
            [Var(_), Const(p), Var(t)] if t == tv => IndexRead::ObjectsOfPredicate(p),
            _ => return None,
        })
    }

    /// The values, ids ascending: posting lists borrowed, key sets owned
    /// (sorted: overlay keys arrive after the base's).
    fn ids(self, graph: &Graph) -> Cow<'_, [TermId]> {
        let sorted = |mut ids: Vec<TermId>| {
            ids.sort_unstable();
            Cow::Owned(ids)
        };
        match self {
            IndexRead::Nothing => Cow::Borrowed(&[]),
            IndexRead::Subjects(p, o) => Cow::Borrowed(graph.subjects(p, o)),
            IndexRead::Objects(s, p) => Cow::Borrowed(graph.objects(s, p)),
            IndexRead::PredicatesBetween(s, o) => Cow::Borrowed(graph.predicates_between(s, o)),
            IndexRead::PredicatesFrom(s) => sorted(graph.predicates_from(s)),
            IndexRead::PredicatesInto(o) => Cow::Owned(graph.predicates_into(o)),
            IndexRead::ObjectsOfPredicate(p) => sorted(graph.objects_of_predicate(p)),
        }
    }

    fn name(self) -> &'static str {
        match self {
            IndexRead::Nothing => "index read: nothing (absent constant)",
            IndexRead::Subjects(..) => "index read subjects",
            IndexRead::Objects(..) => "index read objects",
            IndexRead::PredicatesBetween(..) => "index read predicates_between",
            IndexRead::PredicatesFrom(_) => "index read predicates_from",
            IndexRead::PredicatesInto(_) => "index read predicates_into",
            IndexRead::ObjectsOfPredicate(_) => "index read objects_of_predicate",
        }
    }
}

impl Node<'_> {
    /// Whether every filter of the node keeps `id` bound to `v`, the one
    /// variable they read.
    fn keeps(&self, graph: &Graph, v: usize, id: TermId) -> bool {
        let filters = &self.part.root.filters;
        filters.iter().all(|f| f.test.keeps(graph, &Only(v, id)))
    }
}

/// A chain being run ([`Compiled::distinct_values`]): the values of each
/// node once read, ids ascending, and for each node decided backward the
/// ids already asked about. A backward node reads the nodes before it
/// only as far back as the first one that is not backward; those in
/// between are asked one id at a time, and each id's answer is kept.
struct ChainRun<'c, 'q, 'g> {
    chain: &'c [Node<'q>],
    graph: &'g Graph,
    values: Vec<Option<Cow<'g, [TermId]>>>,
    decided: Vec<FxHashMap<TermId, bool>>,
}

impl<'g> ChainRun<'_, '_, 'g> {
    /// Reads the values of node `i`, and of the nodes it needs before it.
    fn read(&mut self, i: usize) -> Result<(), SparqlError> {
        if self.values[i].is_some() {
            return Ok(());
        }
        let (chain, graph) = (self.chain, self.graph);
        let node = &chain[i];
        let before = i.saturating_sub(1);
        if node.seed.is_some() {
            // a backward node reads the nodes before it from the nearest
            // one that is not backward, any other the one before it
            let mut base = before;
            while matches!(node.access, Access::Backward(_))
                && matches!(chain[base].access, Access::Backward(_))
            {
                base -= 1;
            }
            self.read(base)?;
            if self.values[base]
                .as_deref()
                .is_some_and(<[TermId]>::is_empty)
            {
                self.values[i] = Some(Cow::Borrowed(&[]));
                return Ok(());
            }
        }
        let ids = match node.access {
            Access::IndexRead(read) => read.ids(graph),
            Access::Backward(p) => {
                let mut found = Vec::new();
                graph.object_runs_until(p, |t, subjects| {
                    if node.keeps(graph, node.target, t) && self.any_held(before, subjects) {
                        found.push(t);
                    }
                    false
                });
                found.sort_unstable(); // overlay objects come after the base's
                Cow::Owned(found)
            }
            Access::PerCandidate(object) => {
                let seeds = self.values[before].as_deref().unwrap_or_default();
                let keeps = |x| node.keeps(graph, object, x);
                Cow::Owned(per_candidate(graph, seeds, keeps))
            }
            Access::SeedWalk(object) => {
                let seeds = self.values[before].as_deref().unwrap_or_default();
                let keeps = |x| node.keeps(graph, object, x);
                Cow::Owned(seed_walk(
                    graph,
                    seeds,
                    keeps,
                    graph.predicates(),
                    Vec::new(),
                ))
            }
            Access::Forward | Access::Join => {
                let nvars = node.part.var_names.len();
                let seed = match node.seed {
                    Some(m) => {
                        let ids = self.values[before].as_deref().unwrap_or_default();
                        columnar::Batch::single_column(nvars, m, ids.to_vec())
                    }
                    None => columnar::Batch::seed(nvars),
                };
                let mut ids = node.part.run_seeded(graph, &seed)?.into_column(node.target);
                ids.sort_unstable();
                ids.dedup();
                Cow::Owned(ids)
            }
        };
        self.values[i] = Some(ids);
        Ok(())
    }

    /// Whether some id of the ascending `ids` is a value of node `j`:
    /// galloped through its values once read, else each id asked in turn.
    fn any_held(&mut self, j: usize, ids: &[TermId]) -> bool {
        if let Some(values) = &self.values[j] {
            return intersects(ids, values);
        }
        ids.iter().any(|&id| self.held(j, id))
    }

    /// Whether `id` is a value of the backward node `j`, not yet read: its
    /// filters keep it and one of its subjects is a value of node `j - 1`.
    fn held(&mut self, j: usize, id: TermId) -> bool {
        if let Some(&known) = self.decided[j].get(&id) {
            return known;
        }
        let (node, graph) = (&self.chain[j], self.graph);
        let held = match node.access {
            Access::Backward(p) => {
                node.keeps(graph, node.target, id) && self.any_held(j - 1, graph.subjects(p, id))
            }
            _ => false, // unreachable: every node before a backward one is read
        };
        self.decided[j].insert(id, held);
        held
    }
}

/// The predicates some seed carries with an object `keeps` accepts, ids
/// ascending. Each predicate of the graph is decided the cheaper way its
/// O(1) statistics allow. One with no more triples than there are seeds
/// is decided from its own POS runs: the filter once per object, then a
/// seed among that object's subjects, up to the first witness — so a
/// predicate the seeds do not carry (labels, hometowns, …) costs its own
/// triples, never a walk of the seeds. The others are looked for along
/// the seeds' SPO runs ([`seed_walk`]); before that, one with no more
/// distinct objects than there are seeds is refuted outright if `keeps`
/// accepts none of them (`rdf:type` under `isNumeric`, which every seed
/// carries and none satisfies).
fn per_candidate(graph: &Graph, seeds: &[TermId], keeps: impl Fn(TermId) -> bool) -> Vec<TermId> {
    let mut found = Vec::new();
    let mut undecided = Vec::new();
    for p in graph.predicates() {
        let stats = graph.predicate_stats(p);
        if stats.triples <= seeds.len() {
            let witness = |o, subjects: &[TermId]| keeps(o) && intersects(subjects, seeds);
            if graph.object_runs_until(p, witness) {
                found.push(p);
            }
        } else if stats.distinct_objects > seeds.len()
            || graph.object_runs_until(p, |o, _| keeps(o))
        {
            undecided.push(p);
        }
    }
    seed_walk(graph, seeds, keeps, undecided, found)
}

/// `found` and the predicates of `open` (ids ascending) that some seed
/// carries with an object `keeps` accepts, ids ascending. The seeds' SPO
/// runs are walked in turn: a run whose predicate is no longer open is
/// skipped, a run's objects are tested only up to the first one kept,
/// and a predicate found leaves `open` — the walk ends once none is left.
fn seed_walk(
    graph: &Graph,
    seeds: &[TermId],
    keeps: impl Fn(TermId) -> bool,
    mut open: Vec<TermId>,
    mut found: Vec<TermId>,
) -> Vec<TermId> {
    for &s in seeds {
        if open.is_empty() {
            break;
        }
        graph.predicate_runs_until(s, |p, objects| {
            if let Ok(at) = open.binary_search(&p) {
                if objects.iter().any(|&o| keeps(o)) {
                    open.remove(at);
                    found.push(p);
                }
            }
            open.is_empty()
        });
    }
    found.sort_unstable();
    found
}

/// One variable's binding — what a filter over that variable alone reads.
struct Only(usize, TermId);

impl Bindings for Only {
    fn binding(&self, slot: usize) -> Option<TermId> {
        (slot == self.0).then_some(self.1)
    }
}

/// Whether two ascending id lists share an id: the shorter one walked,
/// the longer galloped through.
fn intersects(a: &[TermId], b: &[TermId]) -> bool {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut at = 0;
    short.iter().any(|&id| {
        at += gallop(&long[at..], id);
        long.get(at) == Some(&id)
    })
}

impl<'q> Compiled<'q> {
    /// The distinct values `tv` takes over the root block's solutions, ids
    /// ascending: each node of [`Compiled::chain`] read from the values of
    /// the one before.
    pub(super) fn distinct_values(
        &self,
        graph: &Graph,
        tv: usize,
    ) -> Result<Vec<TermId>, SparqlError> {
        if let Some(read) = self.index_read(tv) {
            // a chain of this one node: read it without planning one
            return Ok(read.ids(graph).into_owned());
        }
        let chain = self.chain(graph, tv);
        let mut run = ChainRun {
            chain: &chain,
            graph,
            values: vec![None; chain.len()],
            decided: vec![FxHashMap::default(); chain.len()],
        };
        run.read(chain.len() - 1)?;
        Ok(run.values.pop().flatten().unwrap_or_default().into_owned())
    }

    /// The chain of nodes that answers "the distinct values of `tv`" — the
    /// one plan [`Compiled::distinct_values`] runs and
    /// [`explain`](super::explain) prints. A block cut at its
    /// [`Compiled::articulation`] variable `?m` ends in the suffix, the part
    /// holding `tv`, seeded on the distinct values `?m` takes over the rest
    /// — whose chain comes first. A block with no cut is one node: an index
    /// read if it is one pattern, unfiltered, that an index lists, else its
    /// join. Every choice is made from O(1) index statistics.
    fn chain(&self, graph: &Graph, tv: usize) -> Vec<Node<'q>> {
        let Some((m, in_suffix)) = self.articulation(graph, tv) else {
            return vec![Node {
                part: self.part(|_| true, |_| true),
                seed: None,
                target: tv,
                access: self.index_read(tv).map_or(Access::Join, Access::IndexRead),
            }];
        };
        let (pattern_side, filter_side) = in_suffix.split_at(self.root.patterns.len());
        let part = |suffix: bool| {
            self.part(
                |pi| pattern_side[pi] == suffix,
                |fi| filter_side[fi] == suffix,
            )
        };
        let mut chain = part(false).chain(graph, m);
        let suffix = part(true);
        let seeds = self.key_set(graph, m);
        let access = suffix.seeded_access(graph, m, tv, seeds, chain.len() == 1);
        if let Access::Backward(_) = access {
            // few candidates among many seeds: the arms before decide the
            // seeds the same way, only those a candidate asks about
            for node in chain.iter_mut().rev() {
                let (Some(m), Access::Forward) = (node.seed, node.access) else {
                    break;
                };
                match node.part.arm_predicate(m, node.target) {
                    Some(p) => node.access = Access::Backward(p),
                    None => break,
                }
            }
        }
        chain.push(Node {
            part: suffix,
            seed: Some(m),
            target: tv,
            access,
        });
        chain
    }

    /// How the part `self`, seeded on `m`, reads `tv`, when `seeds` bounds
    /// the number of seeds and `first` says they are the first node's
    /// values. An arm `?m <p> ?t` whose filters read only `?t` decides the
    /// objects of `p` backward when they are far fewer than the seeds. An
    /// arm `?m ?t ?x` whose filters read only `?x` decides each predicate
    /// on its own when its seeds are the first node's: subjects picked by
    /// constants, which share their predicates, so the seeds' runs find
    /// every predicate left to them after a few seeds. Members reached
    /// over an arm do not share theirs, so no predicate is decided on its
    /// own: the seeds' runs are walked once, each predicate skipped once
    /// found. Any other arm is walked forward; a part of several patterns
    /// is joined from the seeds.
    fn seeded_access(
        &self,
        graph: &Graph,
        m: usize,
        tv: usize,
        seeds: Option<u64>,
        first: bool,
    ) -> Access {
        let [arm] = self.root.patterns.as_slice() else {
            return Access::Join;
        };
        if let Some(p) = self.arm_predicate(m, tv) {
            let candidates = graph.predicate_stats(p).distinct_objects as u64;
            if seeds.is_some_and(|seeds| candidates.saturating_mul(FAR_FEWER) < seeds) {
                return Access::Backward(p);
            }
        }
        match (arm.s, arm.p, arm.o) {
            (Slot::Var(s), Slot::Var(p), Slot::Var(o))
                if s == m && p == tv && o != m && o != tv && self.filters_only_on(o) =>
            {
                if first {
                    Access::PerCandidate(o)
                } else {
                    Access::SeedWalk(o)
                }
            }
            _ => Access::Forward,
        }
    }

    /// The index read that answers the root block for `tv`: one pattern,
    /// no filter, listed by an index ([`IndexRead::of`]).
    fn index_read(&self, tv: usize) -> Option<IndexRead> {
        match self.root.patterns.as_slice() {
            [pattern] if self.root.filters.is_empty() => IndexRead::of(*pattern, tv),
            _ => None,
        }
    }

    /// The constant predicate `p` when the root block is the one arm
    /// `?m <p> ?t` and its filters read only `?t`.
    fn arm_predicate(&self, m: usize, tv: usize) -> Option<TermId> {
        match self.root.patterns.as_slice() {
            [FlatPattern {
                s: Slot::Var(s),
                p: Slot::Const(p),
                o: Slot::Var(o),
            }] if (*s, *o) == (m, tv) && m != tv && self.filters_only_on(tv) => Some(*p),
            _ => None,
        }
    }

    /// Whether every root filter reads no variable but `v`.
    fn filters_only_on(&self, v: usize) -> bool {
        let filters = &self.root.filters;
        filters.iter().all(|f| f.vars.iter().all(|&x| x == v))
    }

    /// The query restricted to the root patterns and filters (by index)
    /// the two tests keep, over the same variable registry.
    fn part(
        &self,
        pattern: impl Fn(usize) -> bool,
        filter: impl Fn(usize) -> bool,
    ) -> Compiled<'q> {
        let root = &self.root;
        Compiled {
            var_names: self.var_names.clone(),
            root: Block {
                patterns: (0..root.patterns.len())
                    .filter(|&pi| pattern(pi))
                    .map(|pi| root.patterns[pi])
                    .collect(),
                filters: (0..root.filters.len())
                    .filter(|&fi| filter(fi))
                    .map(|fi| root.filters[fi].clone())
                    .collect(),
                children: Vec::new(),
            },
            ..*self
        }
    }

    /// The size of the smallest posting-key set that lists `v` as the
    /// subject or object of a root pattern with a constant predicate — an
    /// upper bound, from O(1) statistics, on the values `v` can take, and
    /// so on the seeds a node seeded on `v` reads. A predicate variable
    /// has none.
    fn key_set(&self, graph: &Graph, v: usize) -> Option<u64> {
        let sizes = self
            .root
            .patterns
            .iter()
            .filter_map(|p| match (p.s, p.p, p.o) {
                (Slot::Const(s), Slot::Const(p), Slot::Var(o)) if o == v => {
                    Some(graph.objects(s, p).len())
                }
                (Slot::Var(s), Slot::Const(p), Slot::Const(o)) if s == v => {
                    Some(graph.subjects(p, o).len())
                }
                (Slot::Var(s), Slot::Const(p), Slot::Var(o)) if s == v || o == v => {
                    let stats = graph.predicate_stats(p);
                    Some(if o == v {
                        stats.distinct_objects
                    } else {
                        stats.distinct_subjects
                    })
                }
                _ => None,
            });
        sizes.min().map(|size| size as u64)
    }

    /// The articulation variable to cut the root block at when asked for
    /// the distinct values of `tv`, with the side of every pattern and
    /// then every filter (`true`: the suffix, the part holding `tv`).
    ///
    /// `?m ≠ ?t` qualifies when the patterns and filters connected to `?t`
    /// through variables other than `?m` — the suffix `B` — leave a rest
    /// `A` behind, so `A` and `B` share no variable but `?m`, and `?m`
    /// occurs in a pattern on both sides. Then `?t` depends on `A` only
    /// through the *set* of values `?m` takes there:
    /// `answer = ⋃ B(m) for m ∈ DISTINCT ?m { A }`, and the join above
    /// `?m` is never built. The cut must also keep to where it does no
    /// more work than the join it replaces: the planner's join order runs
    /// every pattern of `A` before any of `B`, or `A`'s own chain joins
    /// nothing. In the first case the cut makes the join's own index
    /// lookups up to `?m` and, past it, one per distinct `?m` instead of
    /// one per solution of `A`; in the second every node of `A` is an
    /// index read or an arm, read in time bounded by its own postings.
    /// Where the planner would rather start inside `B` and `A` must be
    /// joined — `A` a dangling `?m ?r ?y` that only says `?m` has some
    /// edge — seeding `B` from `A` would enumerate every subject of the
    /// graph to answer a question about a handful.
    ///
    /// Among qualifying variables the cut nearest `?t` — fewest suffix
    /// patterns — is taken, the lower registry slot on a tie; the prefix
    /// is a set query again and finds the farther cuts itself.
    fn articulation(&self, graph: &Graph, tv: usize) -> Option<(usize, Vec<bool>)> {
        let root = &self.root;
        if root.patterns.len() < 2 {
            return None; // a cut leaves a pattern on either side
        }
        // planned once, and only if some variable gets as far as needing it
        let mut order: Option<Vec<usize>> = None;
        let items: Vec<Vec<usize>> = root
            .patterns
            .iter()
            .map(|p| p.vars().collect())
            .chain(root.filters.iter().map(|f| f.vars.clone()))
            .collect();
        let patterns = root.patterns.len();
        let mut best: Option<(usize, usize, Vec<bool>)> = None;
        for m in (0..self.var_names.len()).filter(|&m| m != tv) {
            // flood the items reachable from ?t without passing through ?m
            let mut reached = vec![false; self.var_names.len()];
            reached[tv] = true;
            let mut in_suffix = vec![false; items.len()];
            let mut grew = true;
            while grew {
                grew = false;
                for (item, vars) in items.iter().enumerate() {
                    if !in_suffix[item] && vars.iter().any(|&v| v != m && reached[v]) {
                        in_suffix[item] = true;
                        vars.iter().for_each(|&v| reached[v] = true);
                        grew = true;
                    }
                }
            }
            // whether the patterns of each side mention ?m
            let (mut size, mut suffix_has_m, mut prefix_has_m) = (0, false, false);
            for (vars, &suffix) in items[..patterns].iter().zip(&in_suffix) {
                if suffix {
                    size += 1;
                    suffix_has_m |= vars.contains(&m);
                } else {
                    prefix_has_m |= vars.contains(&m);
                }
            }
            let nearer = best.as_ref().is_none_or(|(_, least, _)| size < *least);
            if !(suffix_has_m && prefix_has_m && nearer) {
                continue;
            }
            // the join would run every prefix pattern before any suffix one
            let order = order.get_or_insert_with(|| {
                self.plan_block(graph, root, &vec![false; self.var_names.len()])
            });
            let mut rest = order.iter().skip_while(|&&pi| !in_suffix[pi]);
            let (pattern_side, filter_side) = in_suffix.split_at(patterns);
            if rest.all(|&pi| in_suffix[pi])
                || self
                    .part(|pi| !pattern_side[pi], |fi| !filter_side[fi])
                    .chain(graph, m)
                    .iter()
                    .all(|node| !matches!(node.access, Access::Join))
            {
                best = Some((m, size, in_suffix));
            }
        }
        best.map(|(m, _, in_suffix)| (m, in_suffix))
    }

    /// [`explain`](super::explain)'s rendering of the set query `set`: a
    /// header, then each node of [`Compiled::chain`] — the values it
    /// answers, the variable its seeds bind, the access it takes — over its
    /// part's listing.
    pub(super) fn explain_chain(&self, graph: &Graph, set: SetQuery, out: &mut String) {
        use std::fmt::Write as _;
        let SetQuery::Values(tv) = set else {
            let _ = writeln!(
                out,
                "set query: count\n  node 0: count, index read count_matching"
            );
            return self.explain_block(graph, None, false, "    ", out);
        };
        let _ = writeln!(out, "set query: distinct {}", self.display_name(tv));
        for (i, node) in self.chain(graph, tv).iter().enumerate() {
            let seeded = match node.seed {
                Some(m) => format!(" seeded on {}", self.display_name(m)),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "  node {i}: distinct {}{seeded}, {}",
                self.display_name(node.target),
                node.access.name()
            );
            let walks = matches!(node.access, Access::Forward | Access::Join);
            node.part
                .explain_block(graph, node.seed, walks, "    ", out);
        }
    }
}
