//! Shared machinery for the synthetic statistical-KG generators.
//!
//! Each generator produces a [`Dataset`]: an RDF graph whose schema shape
//! (dimension count, hierarchy levels, member counts, measure) reproduces
//! one of the paper's Table 3 datasets exactly, with the observation count
//! as the free scale parameter. Observations cover every base-level member
//! round-robin before sampling randomly, so the member counts discovered
//! by the bootstrap crawler equal the specification whenever
//! `observations ≥ max base-pool size`.

use crate::prng::StdRng;
use re2x_rdf::{vocab, Graph, Literal, TermId, Triple};

/// A generated dataset plus the metadata the experiment workloads need.
#[derive(Debug)]
pub struct Dataset {
    /// Short name ("eurostat", "production", "dbpedia").
    pub name: String,
    /// The generated graph.
    pub graph: Graph,
    /// IRI of the observation class.
    pub observation_class: String,
    /// Number of generated observations.
    pub observations: usize,
    /// Dimension predicates (observation → base member).
    pub dimension_predicates: Vec<String>,
    /// Roll-up predicates (member → coarser member), across all dimensions.
    pub rollup_predicates: Vec<String>,
    /// The member-label predicate.
    pub label_predicate: String,
    /// Expected schema statistics (the Table 3 row this generator mimics).
    pub expected: ExpectedShape,
}

/// The Table 3 columns a generator commits to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpectedShape {
    /// |D| — dimensions.
    pub dimensions: usize,
    /// |M| — measures.
    pub measures: usize,
    /// |L̄| — hierarchy levels.
    pub levels: usize,
    /// |N_D| — total dimension members over all levels.
    pub members: usize,
}

/// A generated graph under construction: terms are interned into the
/// graph as they are met, triples are queued and bulk-inserted once, by
/// [`Builder::finish`] ([`Graph::extend_ids`]: one sorted sweep per index
/// instead of one posting-list insertion per triple and index).
#[derive(Debug, Default)]
pub struct Builder {
    graph: Graph,
    triples: Vec<Triple>,
}

impl Builder {
    /// An empty graph, nothing queued.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an IRI.
    pub fn intern_iri(&mut self, iri: impl Into<String>) -> TermId {
        self.graph.intern_iri(iri)
    }

    /// Interns a literal.
    pub fn intern_literal(&mut self, literal: Literal) -> TermId {
        self.graph.intern_literal(literal)
    }

    /// Queues a triple of interned ids; duplicates are dropped by
    /// [`Builder::finish`].
    pub fn add(&mut self, s: TermId, p: TermId, o: TermId) {
        self.triples.push(Triple { s, p, o });
    }

    /// The graph with every queued triple inserted.
    pub fn finish(self) -> Graph {
        let mut graph = self.graph;
        graph.extend_ids(self.triples);
        graph
    }
}

impl From<Graph> for Builder {
    /// Continues building an existing graph.
    fn from(graph: Graph) -> Self {
        Builder {
            graph,
            triples: Vec::new(),
        }
    }
}

/// A pool of generated members of one hierarchy level.
#[derive(Debug, Clone)]
pub struct MemberPool {
    /// Interned member IRIs.
    pub ids: Vec<TermId>,
    /// Labels, parallel to `ids`.
    pub labels: Vec<String>,
}

impl MemberPool {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Creates `count` members under `namespace` with IRIs
/// `<ns>member/<local>/<i>`, labelled by `labeler(i)`.
pub fn make_members(
    graph: &mut Builder,
    namespace: &str,
    local: &str,
    count: usize,
    labeler: impl Fn(usize) -> String,
) -> MemberPool {
    let label_pred = graph.intern_iri(vocab::rdfs::LABEL);
    let mut ids = Vec::with_capacity(count);
    let mut labels = Vec::with_capacity(count);
    for i in 0..count {
        let id = graph.intern_iri(format!("{namespace}member/{local}/{i}"));
        let label = labeler(i);
        let lit = graph.intern_literal(Literal::simple(label.clone()));
        graph.add(id, label_pred, lit);
        ids.push(id);
        labels.push(label);
    }
    MemberPool { ids, labels }
}

/// Links every member of `fine` to a member of `coarse` with `predicate`,
/// round-robin (`i % coarse.len()` — surjective whenever
/// `fine.len() ≥ coarse.len()`). With `extra_parents`, roughly every third
/// member gets an additional random parent, producing the M-to-N hierarchy
/// steps that characterize the DBpedia dataset.
pub fn link_rollup(
    graph: &mut Builder,
    fine: &MemberPool,
    coarse: &MemberPool,
    predicate: &str,
    extra_parents: Option<&mut StdRng>,
) {
    let pred = graph.intern_iri(predicate);
    let mut rng = extra_parents;
    for (i, &member) in fine.ids.iter().enumerate() {
        graph.add(member, pred, coarse.ids[i % coarse.len()]);
        if let Some(rng) = rng.as_deref_mut() {
            if i % 3 == 0 {
                let other = rng.gen_range(0..coarse.len());
                graph.add(member, pred, coarse.ids[other]);
            }
        }
    }
}

/// Declares a predicate IRI with a human-readable label, returning the IRI
/// string.
pub fn declare_predicate(graph: &mut Builder, namespace: &str, local: &str, label: &str) -> String {
    let iri = format!("{namespace}{local}");
    let s = graph.intern_iri(iri.clone());
    let p = graph.intern_iri(vocab::rdfs::LABEL);
    let o = graph.intern_literal(Literal::simple(label));
    graph.add(s, p, o);
    iri
}

/// Picks the base-member index for observation `j` over a pool of size
/// `pool`: round-robin through the pool first (coverage), then random.
pub fn pick_member(j: usize, pool: usize, rng: &mut StdRng) -> usize {
    if j < pool {
        j
    } else {
        rng.gen_range(0..pool)
    }
}

/// A deterministic RNG for a generator run.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Random example-tuple workload for the synthesis experiments, anchored at
/// actual observations so every generated tuple has at least one valid
/// interpretation (the paper randomly combines dimension members; anchoring
/// keeps the workload satisfiable at any scale).
///
/// Each tuple: pick a random observation, pick `size` distinct dimensions
/// of it, and for each use either the base member's label or — with
/// probability ½ when one exists — the label of a member one roll-up step
/// coarser.
pub fn example_workload(
    dataset: &Dataset,
    size: usize,
    count: usize,
    seed: u64,
) -> Vec<Vec<String>> {
    example_workload_on(&dataset.graph, dataset, size, count, seed)
}

/// [`example_workload`] against an explicit graph — used when the
/// dataset's graph has been moved into an endpoint. Empty if the graph
/// lacks `rdf:type`, the observation class or the label predicate.
pub fn example_workload_on(
    graph: &Graph,
    dataset: &Dataset,
    size: usize,
    count: usize,
    seed: u64,
) -> Vec<Vec<String>> {
    let (Some(type_pred), Some(class), Some(label_pred)) = (
        graph.iri_id(vocab::rdf::TYPE),
        graph.iri_id(&dataset.observation_class),
        graph.iri_id(&dataset.label_predicate),
    ) else {
        return Vec::new();
    };
    let observations = graph.subjects(type_pred, class).to_vec();
    assert!(!observations.is_empty(), "dataset has no observations");
    let dim_preds: Vec<TermId> = dataset
        .dimension_predicates
        .iter()
        .filter_map(|p| graph.iri_id(p))
        .collect();
    let rollup_preds: Vec<TermId> = dataset
        .rollup_predicates
        .iter()
        .filter_map(|p| graph.iri_id(p))
        .collect();
    assert!(
        size <= dim_preds.len(),
        "tuple size {size} exceeds dimension count {}",
        dim_preds.len()
    );

    let mut rng = rng(seed);
    let mut workload = Vec::with_capacity(count);
    while workload.len() < count {
        let obs = observations[rng.gen_range(0..observations.len())];
        // choose `size` distinct dimensions that this observation has
        let mut dims: Vec<TermId> = dim_preds
            .iter()
            .copied()
            .filter(|&p| !graph.objects(obs, p).is_empty())
            .collect();
        if dims.len() < size {
            continue;
        }
        // Fisher–Yates prefix shuffle
        for i in 0..size {
            let j = rng.gen_range(i..dims.len());
            dims.swap(i, j);
        }
        let mut tuple = Vec::with_capacity(size);
        let mut ok = true;
        for &dim in &dims[..size] {
            let members = graph.objects(obs, dim);
            let mut member = members[rng.gen_range(0..members.len())];
            if rng.gen_bool(0.5) {
                // walk one roll-up step if available
                let ups: Vec<TermId> = rollup_preds
                    .iter()
                    .flat_map(|&p| graph.objects(member, p).iter().copied())
                    .collect();
                if !ups.is_empty() {
                    member = ups[rng.gen_range(0..ups.len())];
                }
            }
            let labels = graph.objects(member, label_pred);
            match labels.first() {
                Some(&lit) => match graph.term(lit).as_literal() {
                    Some(l) => tuple.push(l.lexical().to_owned()),
                    None => ok = false,
                },
                None => ok = false,
            }
        }
        // avoid duplicate keywords within a tuple (ambiguous arity-2 tuples
        // like ⟨"Asia", "Asia"⟩ are valid but uninteresting)
        if ok {
            let mut sorted = tuple.clone();
            sorted.sort();
            sorted.dedup();
            if sorted.len() == tuple.len() {
                workload.push(tuple);
            }
        }
    }
    workload
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_are_labelled_and_deduplicated() {
        let mut b = Builder::new();
        let pool = make_members(&mut b, "http://d/", "country", 3, |i| {
            format!("Country {i}")
        });
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.labels[2], "Country 2");
        let g = b.finish();
        assert_eq!(g.len(), 3, "one label triple per member");
        // same call again: members already interned, labels deduplicated —
        // against the built graph and within one queue
        let mut b = Builder::from(g);
        for _ in 0..2 {
            let again = make_members(&mut b, "http://d/", "country", 3, |i| {
                format!("Country {i}")
            });
            assert_eq!(again.ids, pool.ids);
        }
        assert_eq!(b.finish().len(), 3);
    }

    #[test]
    fn rollup_is_surjective_round_robin() {
        let mut b = Builder::new();
        let fine = make_members(&mut b, "http://d/", "c", 10, |i| format!("C{i}"));
        let coarse = make_members(&mut b, "http://d/", "r", 3, |i| format!("R{i}"));
        link_rollup(&mut b, &fine, &coarse, "http://d/inRegion", None);
        let g = b.finish();
        let pred = g.iri_id("http://d/inRegion").expect("pred");
        for &r in &coarse.ids {
            assert!(!g.subjects(pred, r).is_empty(), "every region reached");
        }
        for &c in &fine.ids {
            assert_eq!(g.objects(c, pred).len(), 1, "1-to-N without extras");
        }
    }

    #[test]
    fn extra_parents_create_m_to_n() {
        let mut b = Builder::new();
        let fine = make_members(&mut b, "http://d/", "g", 30, |i| format!("G{i}"));
        let coarse = make_members(&mut b, "http://d/", "s", 5, |i| format!("S{i}"));
        let mut r = rng(7);
        link_rollup(&mut b, &fine, &coarse, "http://d/origin", Some(&mut r));
        let g = b.finish();
        let pred = g.iri_id("http://d/origin").expect("pred");
        let multi = fine
            .ids
            .iter()
            .filter(|&&m| g.objects(m, pred).len() > 1)
            .count();
        assert!(multi > 0, "some members have several parents");
    }

    #[test]
    fn pick_member_covers_pool_then_randomizes() {
        let mut r = rng(1);
        let firsts: Vec<usize> = (0..5).map(|j| pick_member(j, 5, &mut r)).collect();
        assert_eq!(firsts, vec![0, 1, 2, 3, 4]);
        let later = pick_member(100, 5, &mut r);
        assert!(later < 5);
    }
}
