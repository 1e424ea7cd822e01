//! Scripted sessions and replayable transcripts.
//!
//! A [`SessionScript`] is a deterministic sequence of exploration rounds —
//! synthesize-and-choose, refine-and-apply, preview, think, backtrack —
//! that the server's workers and a bare serial [`re2xolap::Session`] drive
//! through *the same* [`run_script`] code path. Each executed round is
//! digested into a [`RoundRecord`] (an FNV-1a hash of the result set's TSV
//! rendering, no timing; the TSV is streamed into the hash, never built),
//! so a [`SessionTranscript`] produced under concurrency is byte-identical
//! to the serial replay of the same script — the correctness oracle of the
//! concurrency property suite.

use re2x_cube::VirtualSchemaGraph;
use re2x_obs::{SpanGuard, Tracer};
use re2x_rdf::Graph;
use re2x_sparql::{write_tsv, Solutions, SparqlEndpoint};
use re2xolap::{Re2xError, RefineOp, Session, SessionConfig};
use std::fmt::{self, Write as _};
use std::time::Duration;

/// One scripted round of an exploration session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundOp {
    /// Synthesize candidate queries from an example tuple and execute the
    /// `pick`-th candidate (modulo the candidate count).
    Synthesize {
        /// The example tuple's components (labels or literals).
        example: Vec<String>,
        /// Index of the candidate to execute.
        pick: usize,
    },
    /// Generate refinements with one ExRef operation and apply the
    /// `pick`-th offer (modulo the offer count).
    Refine {
        /// The refinement operation.
        op: RefineOp,
        /// Index of the offer to apply.
        pick: usize,
    },
    /// Preview every offered refinement of `op` without committing to one.
    Preview {
        /// The refinement operation to preview.
        op: RefineOp,
    },
    /// Simulated user think time.
    Think {
        /// Milliseconds to pause before the next round.
        millis: u64,
    },
    /// Backtrack to the previous step.
    Backtrack,
}

/// A deterministic session workload: which tenant runs it and its rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionScript {
    /// The tenant whose endpoint stack services the session.
    pub tenant: String,
    /// The rounds, in order.
    pub rounds: Vec<RoundOp>,
}

/// The digested outcome of one executed round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRecord {
    /// What ran (`synthesize`, `refine:topk`, `preview:sim`, …).
    pub op: String,
    /// FNV-1a digest of the round's result set (or a symbolic outcome for
    /// resultless rounds), with no timing component.
    pub digest: String,
}

/// Timing-free end-of-session accounting, comparable across runs. Only
/// session-local counters belong here: endpoint-stats deltas (query
/// counts, busy time) are shared across every session on the same tenant
/// stack and would make transcripts diverge under concurrency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TranscriptSummary {
    /// Interactions performed.
    pub interactions: u64,
    /// Exploration paths offered across all rounds.
    pub paths_offered: u64,
    /// Result tuples made accessible.
    pub tuples_accessible: u64,
}

/// The replayable record of one scripted session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionTranscript {
    /// The tenant that ran it.
    pub tenant: String,
    /// One record per scripted round, in order.
    pub rounds: Vec<RoundRecord>,
    /// Timing-free session totals.
    pub summary: TranscriptSummary,
}

impl SessionTranscript {
    /// Renders the transcript as a stable text block — the byte-identity
    /// oracle used by the concurrency property suite.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "tenant\t{}", self.tenant);
        for (i, r) in self.rounds.iter().enumerate() {
            let _ = writeln!(out, "{i}\t{}\t{}", r.op, r.digest);
        }
        let s = &self.summary;
        let _ = writeln!(
            out,
            "summary\tinteractions={} paths={} tuples={}",
            s.interactions, s.paths_offered, s.tuples_accessible
        );
        out
    }
}

/// FNV-1a 64-bit as a [`fmt::Write`] sink: a result set is hashed as its
/// TSV is written, byte for byte what hashing the rendered text gives.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn finish(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        for byte in text.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// A round's digest: FNV-1a over its result set's TSV (hashing never
/// fails, so the writer's result is `Ok`).
fn result_digest(solutions: &Solutions, graph: &Graph) -> String {
    let mut hash = Fnv1a::new();
    let _ = write_tsv(solutions, graph, &mut hash);
    hash.finish()
}

/// A preview round's digest: FNV-1a over each preview's TSV followed by
/// `'\n'`.
fn preview_digest(previews: &[Solutions], graph: &Graph) -> String {
    let mut hash = Fnv1a::new();
    for preview in previews {
        let _ = write_tsv(preview, graph, &mut hash);
        let _ = hash.write_char('\n');
    }
    hash.finish()
}

/// The `serve.digest` span of one digested round, annotated with the
/// round's kind (`synthesize`, `refine` or `preview`); inert when the
/// tracer is disabled.
fn digest_span<'t>(tracer: &'t Tracer, round: &str) -> SpanGuard<'t> {
    tracer.span_with("serve.digest", &[("round", round)])
}

fn op_label(op: RefineOp) -> &'static str {
    match op {
        RefineOp::Disaggregate => "dis",
        RefineOp::TopK => "topk",
        RefineOp::Percentile => "perc",
        RefineOp::Similarity => "sim",
    }
}

/// Drives one scripted session to completion over `endpoint` and returns
/// its transcript. This is the single code path shared by the server's
/// workers and the serial replay oracle: determinism here is what makes
/// the two comparable. Rounds that find nothing to act on (no candidates,
/// no refinements, nothing to backtrack) record a symbolic digest instead
/// of failing, so scripts survive sparse corners of the data; endpoint and
/// engine errors propagate as typed [`Re2xError`]s. Each digested round
/// opens one `serve.digest` span on `config.tracer`.
pub fn run_script(
    endpoint: &dyn SparqlEndpoint,
    schema: &VirtualSchemaGraph,
    script: &SessionScript,
    config: &SessionConfig,
) -> Result<SessionTranscript, Re2xError> {
    let mut session = Session::new(endpoint, schema, config.clone());
    let graph = endpoint.graph();
    let mut rounds = Vec::with_capacity(script.rounds.len());
    for round in &script.rounds {
        let record = match round {
            RoundOp::Synthesize { example, pick } => {
                let parts: Vec<&str> = example.iter().map(String::as_str).collect();
                let outcome = session.synthesize(&parts)?;
                if outcome.queries.is_empty() {
                    RoundRecord {
                        op: "synthesize".to_owned(),
                        digest: "no-candidates".to_owned(),
                    }
                } else {
                    let idx = pick % outcome.queries.len();
                    let mut queries = outcome.queries;
                    let step = session.choose(queries.swap_remove(idx))?;
                    let _span = digest_span(&config.tracer, "synthesize");
                    RoundRecord {
                        op: format!("synthesize[{idx}]"),
                        digest: result_digest(&step.solutions, graph),
                    }
                }
            }
            RoundOp::Refine { op, pick } => {
                let offers = session.refinements(*op)?;
                if offers.is_empty() {
                    RoundRecord {
                        op: format!("refine:{}", op_label(*op)),
                        digest: "no-refinements".to_owned(),
                    }
                } else {
                    let idx = pick % offers.len();
                    let mut offers = offers;
                    let step = session.apply(offers.swap_remove(idx))?;
                    let _span = digest_span(&config.tracer, "refine");
                    RoundRecord {
                        op: format!("refine:{}[{idx}]", op_label(*op)),
                        digest: result_digest(&step.solutions, graph),
                    }
                }
            }
            RoundOp::Preview { op } => {
                let offers = session.refinements(*op)?;
                let previews = session.preview(&offers)?;
                let _span = digest_span(&config.tracer, "preview");
                RoundRecord {
                    op: format!("preview:{}", op_label(*op)),
                    digest: preview_digest(&previews, graph),
                }
            }
            RoundOp::Think { millis } => {
                std::thread::sleep(Duration::from_millis(*millis));
                RoundRecord {
                    op: "think".to_owned(),
                    digest: "-".to_owned(),
                }
            }
            RoundOp::Backtrack => RoundRecord {
                op: "backtrack".to_owned(),
                digest: if session.backtrack() {
                    "backtracked".to_owned()
                } else {
                    "at-start".to_owned()
                },
            },
        };
        rounds.push(record);
    }
    let metrics = session.finish();
    Ok(SessionTranscript {
        tenant: script.tenant.clone(),
        rounds,
        summary: TranscriptSummary {
            interactions: metrics.interactions,
            paths_offered: metrics.paths_offered,
            tuples_accessible: metrics.tuples_accessible,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv(text: &str) -> String {
        let mut hash = Fnv1a::new();
        let _ = hash.write_str(text);
        hash.finish()
    }

    #[test]
    fn digests_are_stable_and_sensitive() {
        assert_eq!(fnv(""), "cbf29ce484222325");
        assert_eq!(fnv("abc"), fnv("abc"));
        assert_ne!(fnv("abc"), fnv("abd"));
        // hashing is a stream: chunking does not change the digest
        let mut chunked = Fnv1a::new();
        for chunk in ["a", "", "bc"] {
            let _ = chunked.write_str(chunk);
        }
        assert_eq!(chunked.finish(), fnv("abc"));
    }

    #[test]
    fn transcript_text_is_stable() {
        let t = SessionTranscript {
            tenant: "t0".to_owned(),
            rounds: vec![
                RoundRecord {
                    op: "synthesize[0]".to_owned(),
                    digest: "deadbeefdeadbeef".to_owned(),
                },
                RoundRecord {
                    op: "think".to_owned(),
                    digest: "-".to_owned(),
                },
            ],
            summary: TranscriptSummary {
                interactions: 2,
                paths_offered: 3,
                tuples_accessible: 5,
            },
        };
        let text = t.to_text();
        assert_eq!(
            text,
            "tenant\tt0\n0\tsynthesize[0]\tdeadbeefdeadbeef\n1\tthink\t-\n\
             summary\tinteractions=2 paths=3 tuples=5\n"
        );
        assert_eq!(t.to_text(), text, "rendering is deterministic");
    }

    /// The transcript of a synthesize/refine script with every refinement
    /// *executed*: the offer's query goes through [`Session::choose`], which
    /// never answers from the rows the session holds.
    fn executed_transcript(
        endpoint: &dyn SparqlEndpoint,
        schema: &VirtualSchemaGraph,
        script: &SessionScript,
    ) -> SessionTranscript {
        let mut session = Session::new(endpoint, schema, SessionConfig::default());
        let graph = endpoint.graph();
        let mut rounds = Vec::new();
        for round in &script.rounds {
            let (op, query) = match round {
                RoundOp::Synthesize { example, pick } => {
                    let parts: Vec<&str> = example.iter().map(String::as_str).collect();
                    let mut queries = session.synthesize(&parts).expect("synthesis").queries;
                    let idx = pick % queries.len();
                    (format!("synthesize[{idx}]"), queries.swap_remove(idx))
                }
                RoundOp::Refine { op, pick } => {
                    let mut offers = session.refinements(*op).expect("offers");
                    let idx = pick % offers.len();
                    let label = format!("refine:{}[{idx}]", op_label(*op));
                    (label, offers.swap_remove(idx).query)
                }
                other => panic!("not a synthesize/refine round: {other:?}"),
            };
            let step = session.choose(query).expect("runs");
            assert!(!step.derived);
            rounds.push(RoundRecord {
                op,
                digest: result_digest(&step.solutions, graph),
            });
        }
        let metrics = session.finish();
        SessionTranscript {
            tenant: script.tenant.clone(),
            rounds,
            summary: TranscriptSummary {
                interactions: metrics.interactions,
                paths_offered: metrics.paths_offered,
                tuples_accessible: metrics.tuples_accessible,
            },
        }
    }

    #[test]
    fn answering_refinements_from_held_rows_leaves_the_transcript_unchanged() {
        use re2x_cube::{bootstrap, BootstrapConfig};
        use re2x_sparql::LocalEndpoint;

        let mut dataset = re2x_datagen::running::generate();
        let endpoint = LocalEndpoint::new(std::mem::take(&mut dataset.graph));
        let schema = bootstrap(&endpoint, &BootstrapConfig::new(&dataset.observation_class))
            .expect("bootstrap")
            .schema;
        let refine = |op, pick| RoundOp::Refine { op, pick };
        use RefineOp::{Disaggregate, Percentile, Similarity, TopK};
        for refines in [
            vec![
                refine(Disaggregate, 0),
                refine(Similarity, 1),
                refine(TopK, 0),
            ],
            vec![
                refine(Disaggregate, 1),
                refine(Percentile, 2),
                refine(Similarity, 0),
            ],
            vec![
                refine(TopK, 0),
                refine(Disaggregate, 0),
                refine(Percentile, 0),
            ],
        ] {
            let mut rounds = vec![RoundOp::Synthesize {
                example: vec!["Germany".to_owned(), "2014".to_owned()],
                pick: 0,
            }];
            rounds.extend(refines);
            let script = SessionScript {
                tenant: "t0".to_owned(),
                rounds,
            };
            let selects = || endpoint.stats().selects;
            let start = selects();
            let served = run_script(&endpoint, &schema, &script, &SessionConfig::default())
                .expect("script runs");
            let after_served = selects();
            let executed = executed_transcript(&endpoint, &schema, &script);
            assert_eq!(served.to_text(), executed.to_text());
            // two of the three refinements restrict the rows already held
            assert_eq!(after_served - start + 2, selects() - after_served);
        }
    }
}
