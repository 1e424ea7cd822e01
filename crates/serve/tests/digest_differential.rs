//! Differential proof that streaming a round's TSV into the digest leaves
//! every transcript byte-identical.
//!
//! `run_script` hashes each result set as `write_tsv` emits it. The oracle
//! is the session loop as it ran before — render the whole TSV document
//! with `to_tsv` (a preview round: every preview's document followed by
//! `'\n'`, concatenated), then FNV-1a the text — driven through the same
//! session calls on the same scripts. Synthesize, refine (all four ExRef
//! operations) and preview rounds are compared one by one on all four
//! datasets.

use re2x_cube::{bootstrap, BootstrapConfig, VirtualSchemaGraph};
use re2x_datagen::common::{example_workload, Dataset};
use re2x_datagen::{dbpedia, eurostat, production, running};
use re2x_serve::{run_script, RoundOp, RoundRecord, SessionScript};
use re2x_sparql::{to_tsv, LocalEndpoint, SparqlEndpoint};
use re2x_testkit::{check_n, TestRng};
use re2xolap::{RefineOp, Session, SessionConfig};

/// FNV-1a 64-bit over the rendered text, as transcripts were digested.
fn digest(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

fn op_label(op: RefineOp) -> &'static str {
    match op {
        RefineOp::Disaggregate => "dis",
        RefineOp::TopK => "topk",
        RefineOp::Percentile => "perc",
        RefineOp::Similarity => "sim",
    }
}

/// The rounds of `script` digested the old way: each result set rendered to
/// a TSV `String` first.
fn oracle_rounds(
    endpoint: &dyn SparqlEndpoint,
    schema: &VirtualSchemaGraph,
    script: &SessionScript,
) -> Vec<RoundRecord> {
    let mut session = Session::new(endpoint, schema, SessionConfig::default());
    let graph = endpoint.graph();
    let record = |op: String, digest: String| RoundRecord { op, digest };
    let mut rounds = Vec::new();
    for round in &script.rounds {
        rounds.push(match round {
            RoundOp::Synthesize { example, pick } => {
                let parts: Vec<&str> = example.iter().map(String::as_str).collect();
                let mut queries = session.synthesize(&parts).expect("synthesis").queries;
                if queries.is_empty() {
                    record("synthesize".into(), "no-candidates".into())
                } else {
                    let idx = pick % queries.len();
                    let step = session.choose(queries.swap_remove(idx)).expect("runs");
                    let text = to_tsv(&step.solutions, graph);
                    record(format!("synthesize[{idx}]"), digest(&text))
                }
            }
            RoundOp::Refine { op, pick } => {
                let mut offers = session.refinements(*op).expect("offers");
                if offers.is_empty() {
                    record(format!("refine:{}", op_label(*op)), "no-refinements".into())
                } else {
                    let idx = pick % offers.len();
                    let step = session.apply(offers.swap_remove(idx)).expect("runs");
                    let text = to_tsv(&step.solutions, graph);
                    record(format!("refine:{}[{idx}]", op_label(*op)), digest(&text))
                }
            }
            RoundOp::Preview { op } => {
                let offers = session.refinements(*op).expect("offers");
                let previews = session.preview(&offers).expect("previews");
                let mut all = String::new();
                for p in &previews {
                    all.push_str(&to_tsv(p, graph));
                    all.push('\n');
                }
                record(format!("preview:{}", op_label(*op)), digest(&all))
            }
            RoundOp::Backtrack => record(
                "backtrack".into(),
                if session.backtrack() {
                    "backtracked"
                } else {
                    "at-start"
                }
                .into(),
            ),
            RoundOp::Think { .. } => record("think".into(), "-".into()),
        });
    }
    rounds
}

const OPS: [RefineOp; 4] = [
    RefineOp::Disaggregate,
    RefineOp::TopK,
    RefineOp::Percentile,
    RefineOp::Similarity,
];

fn gen_script(rng: &mut TestRng, examples: &[Vec<String>]) -> SessionScript {
    let mut rounds = vec![RoundOp::Synthesize {
        example: rng.pick(examples).clone(),
        pick: rng.gen_range(0usize..4),
    }];
    for _ in 0..rng.gen_range(2usize..7) {
        let op = *rng.pick(&OPS);
        rounds.push(match rng.pick_weighted(&[5, 3, 1]) {
            0 => RoundOp::Refine {
                op,
                pick: rng.gen_range(0usize..4),
            },
            1 => RoundOp::Preview { op },
            _ => RoundOp::Backtrack,
        });
    }
    SessionScript {
        tenant: "t0".to_owned(),
        rounds,
    }
}

/// Runs seeded scripts over `dataset`, comparing every round's digest with
/// the oracle's; returns how many synthesize / refine rounds executed a
/// query and how many preview rounds previewed at least one refinement.
fn assert_digests_identical(mut dataset: Dataset, examples: Vec<Vec<String>>) -> [usize; 3] {
    let endpoint = LocalEndpoint::new(std::mem::take(&mut dataset.graph));
    let schema = bootstrap(&endpoint, &BootstrapConfig::new(&dataset.observation_class))
        .expect("bootstrap")
        .schema;
    let executed = std::cell::Cell::new([0usize; 3]);
    check_n(
        &format!("digest_differential_{}", dataset.name),
        12,
        |rng| {
            let script = gen_script(rng, &examples);
            let served = run_script(&endpoint, &schema, &script, &SessionConfig::default())
                .expect("script runs");
            let oracle = oracle_rounds(&endpoint, &schema, &script);
            assert_eq!(served.rounds.len(), oracle.len());
            let mut counts = executed.get();
            for (served, oracle) in served.rounds.iter().zip(&oracle) {
                assert_eq!(served, oracle, "{}: {script:?}", dataset.name);
                let kind = if served.op.starts_with("synthesize[") {
                    0
                } else if served.op.starts_with("refine:") && served.op.ends_with(']') {
                    1
                } else if served.op.starts_with("preview:") && served.digest != digest("") {
                    2
                } else {
                    continue;
                };
                counts[kind] += 1;
            }
            executed.set(counts);
        },
    );
    executed.get()
}

#[test]
fn streamed_digests_equal_rendered_ones_on_every_dataset() {
    let running_examples = [
        ["Germany", "2014"],
        ["France", "2014"],
        ["Germany", "Syria"],
    ]
    .iter()
    .map(|tuple| tuple.iter().map(|s| (*s).to_owned()).collect())
    .collect();
    let mut runs = vec![(running::generate(), running_examples)];
    for dataset in [
        eurostat::generate(300, 7),
        production::generate(250, 11),
        dbpedia::generate(250, 13),
    ] {
        let examples = example_workload(&dataset, 2, 6, 5);
        runs.push((dataset, examples));
    }
    for (dataset, examples) in runs {
        let name = dataset.name.clone();
        let [synthesized, refined, previewed] = assert_digests_identical(dataset, examples);
        // the comparison is not vacuous: each kind of round produced results
        assert!(synthesized > 0, "{name}: no synthesize round executed");
        assert!(refined > 0, "{name}: no refine round executed");
        assert!(previewed > 0, "{name}: no preview round ran");
    }
}

/// FNV-1a over every round of `transcript`: its op, its digest, a newline.
fn fold_rounds(hash: &mut u64, transcript: &re2x_serve::SessionTranscript) {
    for round in &transcript.rounds {
        for byte in round.op.bytes().chain([b'\t']) {
            *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        for byte in round.digest.bytes().chain([b'\n']) {
            *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The oracle above renders through `to_tsv`, which shares the number
/// rule with the streamed digest, so it cannot see a number render
/// differently. This test can: fixed scripts over three datasets run
/// through `run_script`, and one FNV-1a over all their rounds' digests
/// equals the value captured when numbers still rendered through
/// `format!("{n}")` (commit be55954).
#[test]
fn transcripts_match_the_parent_golden() {
    let runs = [
        (production::generate(1000, 21), "0001461442bd4641"),
        (dbpedia::generate(600, 22), "c28ade5c16a36326"),
        (eurostat::generate(500, 23), "8fe6e99677590113"),
    ];
    let mut found = Vec::new();
    for (mut dataset, golden) in runs {
        let examples = example_workload(&dataset, 2, 8, 24);
        let endpoint = LocalEndpoint::new(std::mem::take(&mut dataset.graph));
        let schema = bootstrap(&endpoint, &BootstrapConfig::new(&dataset.observation_class))
            .expect("bootstrap")
            .schema;
        let mut rng = TestRng::seed_from_u64(0x0090_1de2);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut executed = 0;
        for _ in 0..16 {
            let script = gen_script(&mut rng, &examples);
            let transcript = run_script(&endpoint, &schema, &script, &SessionConfig::default())
                .expect("script runs");
            executed += transcript
                .rounds
                .iter()
                .filter(|r| r.op.ends_with(']'))
                .count();
            fold_rounds(&mut hash, &transcript);
        }
        assert!(
            executed > 16,
            "{}: {executed} rounds executed",
            dataset.name
        );
        found.push((dataset.name.clone(), format!("{hash:016x}"), golden));
    }
    for (name, hash, golden) in &found {
        assert_eq!(hash, golden, "{name}: {found:?}");
    }
}
