//! # re2x-lint — workspace invariant checker
//!
//! A zero-dependency static-analysis library over the workspace's own
//! source: a comment/string/raw-string-aware Rust tokenizer ([`lexer`]),
//! a brace-tree/scope layer with guard-liveness tracking ([`scope`]), a
//! rule engine reporting structured findings ([`findings::Finding`]) as
//! human text and JSON, and `// lint:allow(rule, reason)` escape hatches
//! ([`source`]).
//!
//! The shipped rules (see `DESIGN.md` § Enforced invariants):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `panic-freedom`        | no `.unwrap()`/`.expect(`/`panic!`/`unreachable!` in non-test library code |
//! | `lock-order`           | every `Mutex`/`RwLock` is registered (`// lock-order: name`) and the workspace nested-acquisition graph (extracted ∪ declared `A -> B` edges) is acyclic |
//! | `no-calls-under-lock`  | no `SparqlEndpoint` method, bus publish, or `std::io`/`std::fs` call while a guard is live |
//! | `guard-across-wait`    | no second acquisition or condvar wait under a held guard unless the pair is a declared `// lock-order: A -> B` edge |
//! | `discarded-result`     | no `let _ =` / bare-statement discard of a same-file `Result`-returning call |
//! | `no-wallclock`         | `Instant::now`/`SystemTime` only in bench/latency-measurement layers |
//! | `endpoint-seam`        | `core`/`cube` query only through the `SparqlEndpoint` trait |
//! | `forbid-unsafe`        | every crate root carries `#![forbid(unsafe_code)]` |
//! | `no-debug-output`      | no `println!`/`dbg!`/`eprintln!` in library crates |
//!
//! The static lock model is cross-checked at runtime: the lock witness in
//! `re2x-obs` (`RE2X_LOCK_WITNESS=1`) records the nesting edges real
//! threads perform, and the witness gate test asserts observed ⊆ the
//! static registry graph — a registry annotation that drifts from real
//! behavior fails CI with both lock names and the acquiring call sites.
//!
//! The binary (`cargo run -p re2x-lint`) walks `crates/*/src`, applies
//! the rules, and exits nonzero on any finding — `scripts/verify.sh` runs
//! it as a standing gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod findings;
pub mod lexer;
pub mod rules;
pub mod scope;
pub mod source;

pub use engine::{collect_files, lint_files, report_to_json, LintResult};
pub use findings::{finding_to_json, finding_to_text, json_escape, Finding};
pub use lexer::{tokenize, Token, TokenKind};
pub use scope::{Block, GuardTracker, LiveGuard, ScopeTree};
pub use source::SourceFile;
