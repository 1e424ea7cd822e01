//! endpoint-seam FIRE fixture (linted as crate `core`): direct graph
//! evaluation instead of going through the `SparqlEndpoint` trait.

pub fn sidesteps_the_seam(graph: &Graph, query: &Query) -> usize {
    let mut hits = 0;
    graph.for_each_matching(None, None, None, |_s, _p, _o| hits += 1);
    let _ = evaluate(graph, query);
    let _ = evaluate_reference(graph, query);
    let local = LocalEndpoint::new(Graph::new());
    let _ = local;
    hits
}
