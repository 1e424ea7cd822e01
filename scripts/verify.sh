#!/usr/bin/env bash
# Full offline verification gate: tier-1 (release build + tests) plus the
# complete workspace test suite, with warnings promoted to errors.
# Run from anywhere; operates on the repository containing this script.
set -euo pipefail

cd "$(dirname "$0")/.."

export RUSTFLAGS="-D warnings"
export CARGO_NET_OFFLINE="true"

echo "== formatting =="
cargo fmt --check

echo "== tier-1: release build =="
cargo build --release --offline

echo "== tier-1: tests =="
cargo test -q --offline

echo "== workspace tests =="
cargo test -q --offline --workspace

echo "== bench targets compile (bench-criterion) =="
cargo build --offline -p re2x-bench --benches --features bench-criterion

echo "== clippy (all targets, warnings are errors) =="
cargo clippy --offline --all-targets -- -D warnings

echo "== static analysis (re2x-lint, baseline-gated) =="
# The workspace lints itself: zero findings outside lint-baseline.txt and
# zero stale baseline entries (the baseline may only shrink). The JSON
# output must parse and agree with the gate, and the lock-order graph
# assembled from the `// lock-order:` registry must stay acyclic.
cargo run -q --release --offline -p re2x-lint
if command -v python3 >/dev/null 2>&1; then
    mkdir -p bench_results
    cargo run -q --release --offline -p re2x-lint -- --format json > bench_results/lint.json
    python3 - <<'EOF'
import json
with open("bench_results/lint.json") as f:
    report = json.load(f)
assert report["findings"] == [], f"unbaselined findings: {report['findings']}"
assert report["stale_baseline"] == [], f"stale baseline entries: {report['stale_baseline']}"
locks = set(report["locks"])
assert len(locks) >= 13, f"lock registry shrank unexpectedly: {sorted(locks)}"
for edge in report["lock_edges"] + report["declared_edges"]:
    assert edge["from"] in locks and edge["to"] in locks, f"dangling edge: {edge}"
declared = {(e["from"], e["to"]) for e in report["declared_edges"]}
extracted = {(e["from"], e["to"]) for e in report["lock_edges"]}
assert extracted <= declared, \
    f"extracted nesting not covered by declared // lock-order edges: {extracted - declared}"
print(f"lint.json: valid JSON; {report['baseline_matched']} baselined, "
      f"{report['suppressed']} allowed, {len(locks)} locks, "
      f"{len(report['lock_edges'])} nesting edges, {len(declared)} declared")
EOF
fi

echo "== lock witness: concurrent suites under RE2X_LOCK_WITNESS=1 =="
# The runtime half of the lock-order cross-check: re-run the concurrent
# suites with the witness recording every nesting real threads perform,
# then the witness gate asserts observed edges are a subset of the static
# registry graph (extracted + declared) and the union stays acyclic.
RE2X_LOCK_WITNESS=1 cargo test -q --offline -p re2x-obs -p re2x-sparql -p re2x-serve
RE2X_LOCK_WITNESS=1 cargo test -q --offline -p re2x-lint --test witness_gate

echo "== trace experiment (smallest dataset, offline) =="
# The trace experiment runs on the in-memory running-example generator —
# no datasets, no network — and must emit a well-formed trace.json
# including the serial-vs-async fan-out comparison row.
cargo run --release --offline -p re2x-bench --bin repro -- --out bench_results trace
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json
with open("bench_results/trace.json") as f:
    trace = json.load(f)
comparison = trace["async_comparison"]
ratio = float(comparison["overlap_ratio"])
assert ratio > 0.0, f"overlap_ratio must be positive, got {ratio}"
assert comparison["identical"] is True, "async legs diverged from serial"
assert float(comparison["speedup"]) > 0.0
print(f"trace.json: valid JSON; async row: {comparison['speedup']:.2f}x speedup, "
      f"overlap ratio {ratio:.2f}")
EOF
else
    # no python3 in the environment: fall back to a structural spot-check
    grep -q '"endpoint_fraction"' bench_results/trace.json
    grep -q '"async_comparison"' bench_results/trace.json
    grep -q '"overlap_ratio"' bench_results/trace.json
    grep -q '"identical": true' bench_results/trace.json
    echo "trace.json: present (python3 unavailable, structural check only)"
fi

echo "== sharded endpoint differential suite (offline) =="
# The scatter-gather decorator must stay byte-identical to LocalEndpoint
# (ulp-tolerant on the float-measure dataset) across every shard count.
cargo test -q --offline -p re2x-sparql --test sharded_differential

echo "== sharding experiment (offline) =="
# Scatter-gather over hash-partitioned shards with 2 ms injected latency:
# the 4-shard configuration must reclaim at least 1.5x of the 1-shard wall
# time, and every swept row must be reference-identical.
cargo run --release --offline -p re2x-bench --bin repro -- --out bench_results sharding
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json
with open("bench_results/sharding.json") as f:
    report = json.load(f)
assert report["all_identical"] is True, "a sharded configuration diverged from the reference"
assert report["shard_busy_exposed"] is True, "per-shard shard_busy gauges missing from exposition"
rows = {row["shards"]: row for row in report["rows"]}
assert set(rows) == {1, 2, 4, 8}, f"expected shard counts 1/2/4/8, got {sorted(rows)}"
for row in rows.values():
    assert row["identical"] is True
    assert float(row["skew"]) >= 1.0
speedup = float(rows[4]["speedup"])
assert speedup >= 1.5, f"4-shard speedup must be >= 1.5x, got {speedup:.2f}x"
print(f"sharding.json: valid JSON; 4-shard speedup {speedup:.2f}x, "
      f"8-shard {float(rows[8]['speedup']):.2f}x, all identical")
EOF
else
    # no python3 in the environment: fall back to a structural spot-check
    grep -q '"all_identical": true' bench_results/sharding.json
    grep -q '"shard_busy_exposed": true' bench_results/sharding.json
    grep -q '"shards": 8' bench_results/sharding.json
    grep -q '"skew"' bench_results/sharding.json
    echo "sharding.json: present (python3 unavailable, structural check only)"
fi

echo "== plan + filter differential suites (offline) =="
# Every PlanMode x ExecMode combination must produce identical solutions
# across the figure datasets and the seeded random-query harness (FILTERed
# shapes included, asserted via explain to run on the columnar kernel), the
# sharded composition must stay identical with columnar shards, a
# pushed-down LIMIT/OFFSET must return exactly that slice of the unlimited
# answer (DISTINCT / ORDER BY / aggregate shapes not cut short), and
# aggregates read off the batch must equal a fold over the rows bit for bit.
cargo test -q --offline -p re2x-sparql --test plan_differential
# The compiled filter evaluator (the only one WHERE filters run through)
# must agree with the tree-walking eval_expr on seeded random expressions.
cargo test -q --offline -p re2x-sparql --test filter_differential
# A set query (one DISTINCT / COUNT(DISTINCT) variable over a flat block)
# must answer the row executor's unprojected rows as a set, ids ascending,
# whether it is cut at an articulation variable, probed or joined — the
# crawl's shapes over every bootstrapped level path of all four datasets,
# seeded chains and stars, the 2x2 modes, 2 and 4 shards — and explain
# must print the decomposition evaluation takes.
cargo test -q --offline -p re2x-sparql --test set_query_differential

echo "== result serialization differential suites (offline) =="
# The streaming TSV / CSV writers must equal the string-building
# serializer they replaced (kept verbatim in the test as the oracle) byte
# for byte — real answers over all four datasets, seeded solution
# sequences, and edge cells (NaN, ±inf, -0.0, 1e15, escapes, blank nodes,
# tagged and typed literals).
cargo test -q --offline -p re2x-sparql --test results_io_differential
# Every transcript digest run_script streams (synthesize, refine and
# preview rounds, all four datasets) must equal FNV-1a over the rendered
# to_tsv text, the definition the digest keeps.
cargo test -q --offline -p re2x-serve --test digest_differential

echo "== derivation differential suite (offline) =="
# A Top-k / Percentile / Similarity refinement the session answers from
# the parent step's rows must be the executed answer row for row and TSV
# byte for byte — all four datasets, every order of refinements, bare /
# caching / sharded endpoints, ties at the HAVING boundary, unbound
# measures — and everything the structural rule does not cover must
# still reach the endpoint.
cargo test -q --offline -p re2xolap --test derivation_differential

echo "== refinement kernel differential suite (offline) =="
# The dense Top-k / Percentile / Similarity kernels must offer exactly
# what the per-row kernels they replaced (kept verbatim in the test as the
# oracle) offer — every offer list compared with no tolerance, at every
# step of seeded session chains on all four datasets and on seeded and
# hand-built tables (duplicate keys, unbound cells, NaN / +-inf / +-0
# measures, a zero-norm example, k >= items, absent examples).
cargo test -q --offline -p re2xolap --test refine_differential
# The columnar semijoin gallops through a posting list: it must equal the
# one-entry-at-a-time merge on random sorted lists, empty ones included.
cargo test -q --offline -p re2x-sparql --lib gallop

echo "== validation differential suite (offline) =="
# Candidate validation over shared, capped observation sets must decide
# exactly what the per-candidate ASK walk decides — all four datasets,
# sets over the cap, multi-tuple examples, sharded endpoints.
cargo test -q --offline -p re2xolap --test validation_differential

echo "== plan experiment (offline) =="
# Planner + executor ablation on the dbpedia M-to-N dataset: the greedy
# planner with columnar execution must beat the naive in-order row
# baseline by at least 1.5x on the adversarially-ordered workload, with
# all four configurations byte-identical.
cargo run --release --offline -p re2x-bench --bin repro -- --out bench_results plan
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json
with open("bench_results/plan.json") as f:
    report = json.load(f)
assert report["all_identical"] is True, "a plan/exec configuration diverged"
rows = {row["config"]: row for row in report["rows"]}
expected = {"planned+columnar", "planned+row", "in-order+columnar", "in-order+row"}
assert set(rows) == expected, f"expected configs {sorted(expected)}, got {sorted(rows)}"
for row in rows.values():
    assert row["identical"] is True
    assert int(row["rows"]) > 0
speedup = float(report["planned_speedup"])
assert speedup >= 1.5, f"planned+columnar speedup must be >= 1.5x, got {speedup:.2f}x"
assert float(report["columnar_speedup"]) > 0.0
print(f"plan.json: valid JSON; planned+columnar {speedup:.2f}x over in-order+row, "
      f"columnar {float(report['columnar_speedup']):.2f}x over row, all identical")
EOF
else
    # no python3 in the environment: fall back to a structural spot-check
    grep -q '"all_identical": true' bench_results/plan.json
    grep -q '"config": "in-order+row"' bench_results/plan.json
    grep -q '"planned_speedup"' bench_results/plan.json
    echo "plan.json: present (python3 unavailable, structural check only)"
fi

echo "== snapshot suites: round-trip / corruption / dataset cache (offline) =="
# write_snapshot -> load_snapshot must be the identity on graphs (incl.
# removal-orphaned text state and per-shard artifacts); every corrupted,
# truncated, stale or foreign file must fail with a typed error, never a
# panic; and all four dataset generators must round-trip through the
# cache layer with stale artifacts regenerated, not trusted.
cargo test -q --offline -p re2x-rdf --test snapshot_roundtrip
cargo test -q --offline -p re2x-rdf --test snapshot_corruption
cargo test -q --offline -p re2x-datagen --test snapshot_datasets

echo "== bulk build: extend_ids oracle suites (offline) =="
# Graph::extend_ids must be exactly insert_ids per triple then compact()
# (every access path, statistics, text search, returned count, snapshot
# bytes; on empty, loaded-plus-overlay and mid-way-cloned graphs), every
# generator's snapshot must equal a per-triple replay of its triples,
# and a parse that fails must leave the graph untouched.
cargo test -q --offline -p re2x-rdf --test properties extend_ids_is_insert_ids_then_compact
cargo test -q --offline -p re2x-datagen --test bulk_build
cargo test -q --offline -p re2x-rdf --lib a_syntax_error_inserts_nothing

echo "== scale experiment: snapshot load vs regeneration ladder (offline) =="
# The smoke ladder (100k/200k/400k observations): snapshot load must beat
# regeneration >= 3x on every rung (MIN_LOAD_SPEEDUP in scale.rs: 5x until
# generation bulk-built its indexes and got ~2x faster; the ladder now
# reads 4.2-6.6x), every loaded graph must prove
# digest- and probe-identical to the generated one, and bootstrap/ReOLAP
# latency must stay schema-bound (sublinear) as the data grows 4x — for
# ReOLAP on the slower of two probes per rung, one of which takes the
# observation-set path over a member reached by a seventh to a half of all
# observations (2 fetches, both over the cap: the check that the fetch cap
# bounds work, not just output). Each rung then walks the interactive loop
# on the loaded graph: the Top-k and the Similarity refinement it applies
# to the drilled-down query must be answered from that step's rows — zero
# endpoint queries — byte-identical to executing them. Last, the loaded
# graph is cloned and then written to beside the live clone: both must cost
# milliseconds at most (an index copy or rebuild is hundreds here). A fresh
# literal interned beside the clone is reported (`first_fresh_literal_ms`),
# not gated: the term table still copies whole, now into memory the
# bulk-built generation no longer left free (5-17 -> 6-56 ms).
cargo run --release --offline -p re2x-bench --bin repro -- --out bench_results --scale smoke scale
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json
with open("bench_results/scale.json") as f:
    report = json.load(f)
rungs = report["rungs"]
assert len(rungs) >= 3, f"expected >= 3 ladder rungs, got {len(rungs)}"
speedup = float(report["min_load_speedup"])
assert speedup >= 3.0, f"min load speedup must be >= 3x, got {speedup:.2f}x"
assert report["all_identical"] is True, "a loaded snapshot diverged from the regenerated graph"
assert report["bootstrap_sublinear"] is True, "bootstrap latency grew superlinearly"
assert report["reolap_sublinear"] is True, "reolap latency grew superlinearly"
obs = [int(r["observations"]) for r in rungs]
assert obs == sorted(obs) and len(set(obs)) == len(obs), f"rungs must ascend: {obs}"
for r in rungs:
    assert r["cache_hit"] is True and r["identical"] is True
    assert float(r["load_speedup"]) >= 3.0, \
        f"rung {r['observations']}: load speedup {r['load_speedup']}"
    assert r["synthesized"] is True, f"rung {r['observations']}: a ReOLAP probe found no query"
    assert int(r["set_fetches"]) == 2 and int(r["sets_truncated"]) == 2, \
        f"rung {r['observations']}: the set-path probe did not fetch two over-cap sets: {r}"
    assert r["loop_completed"] is True and r["refined_identical"] is True, \
        f"rung {r['observations']}: a derived refinement diverged from executing it: {r}"
    assert int(r["derived_endpoint_queries"]) == 0, \
        f"rung {r['observations']}: a derived refinement reached the endpoint: {r}"
    for op in ("topk", "sim"):
        assert 0.0 < float(r[f"{op}_refined_derived_ms"]) < float(r[f"{op}_refined_executed_ms"]), \
            f"rung {r['observations']}: derived {op} is not cheaper than executing it: {r}"
    assert r["wrote_beside_clone"] is True, f"rung {r['observations']}: no write beside a clone"
    for cost in ("clone_ms", "first_insert_ids_ms"):
        assert float(r[cost]) < 5.0, \
            f"rung {r['observations']}: {cost} = {r[cost]} — something copied the index"
    # reported, not gated: the term table still copies whole on a fresh intern
    assert float(r["first_fresh_literal_ms"]) > 0.0, \
        f"rung {r['observations']}: no fresh literal interned beside the clone: {r}"
assert report["all_refined_identical"] is True
print(f"scale.json: valid JSON; {len(rungs)} rungs, min load speedup {speedup:.2f}x, "
      f"all identical, analytics sublinear, refinements derived byte-identically")
EOF
else
    # no python3 in the environment: fall back to a structural spot-check
    grep -q '"all_identical": true' bench_results/scale.json
    grep -q '"bootstrap_sublinear": true' bench_results/scale.json
    grep -q '"reolap_sublinear": true' bench_results/scale.json
    grep -q '"sets_truncated": 2' bench_results/scale.json
    grep -q '"all_refined_identical": true' bench_results/scale.json
    test "$(grep -c '"refined_identical": true' bench_results/scale.json)" -ge 3
    test "$(grep -c '"derived_endpoint_queries": 0' bench_results/scale.json)" -ge 3
    # (`! grep` would be exempt from `set -e`)
    if grep -q '"refined_identical": false' bench_results/scale.json; then exit 1; fi
    # clone and first write beside it: under 5 ms on every rung
    test "$(grep -c '"wrote_beside_clone": true' bench_results/scale.json)" -ge 3
    test "$(grep -Ec '"clone_ms": [0-4]\.[0-9]+, "first_insert_ids_ms": [0-4]\.[0-9]+, "first_fresh_literal_ms": [0-9.]+\}' bench_results/scale.json)" -ge 3
    echo "scale.json: present (python3 unavailable, structural check only)"
fi

echo "== serve suites: concurrency / admission / fault injection (offline) =="
# The multi-tenant server must replay byte-identically against the serial
# oracle, reject over-admission with typed errors, and contain injected
# faults and worker panics to the offending tenant.
cargo test -q --offline -p re2x-serve

echo "== serve experiment (offline) =="
# Deterministic Zipf workload over three tenant stacks, swept across
# worker counts: every transcript must match the serial replay, the
# queue is sized for the load so nothing may be rejected, and p50/p99
# must be present for at least three worker counts.
cargo run --release --offline -p re2x-bench --bin repro -- --out bench_results serve
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json
with open("bench_results/serve.json") as f:
    report = json.load(f)
assert report["all_identical"] is True, "a served transcript diverged from the serial replay"
assert int(report["total_rejected"]) == 0, \
    f"admission control rejected {report['total_rejected']} sessions at low load"
rows = {row["workers"]: row for row in report["rows"]}
assert len(rows) >= 3, f"expected >= 3 worker counts, got {sorted(rows)}"
sessions = int(report["sessions"])
for row in rows.values():
    assert row["identical"] is True
    assert int(row["completed"]) == sessions, \
        f"{row['workers']} workers completed {row['completed']}/{sessions}"
    assert int(row["failed"]) == 0 and int(row["rejected"]) == 0
    p50, p99 = float(row["p50_us"]), float(row["p99_us"])
    assert 0.0 < p50 <= p99, f"malformed latency quantiles: p50={p50}, p99={p99}"
    assert float(row["throughput_sps"]) > 0.0
print(f"serve.json: valid JSON; {sessions} sessions x {len(rows)} worker counts, "
      f"all identical, zero rejections")
EOF
else
    # no python3 in the environment: fall back to a structural spot-check
    grep -q '"all_identical": true' bench_results/serve.json
    grep -q '"total_rejected": 0' bench_results/serve.json
    grep -q '"workers": 4' bench_results/serve.json
    grep -q '"p99_us"' bench_results/serve.json
    echo "serve.json: present (python3 unavailable, structural check only)"
fi

echo "== watch: headless golden-frame replay (offline) =="
# The TUI replay is a pure function of the recorded event log: rendering
# the committed scripted-session fixture must reproduce the committed
# golden frame script byte-for-byte (no wall clock, no terminal, no
# network in the render path). repro exits nonzero on any drift.
cargo run --release --offline -p re2x-bench --bin repro -- --out bench_results watch --headless
grep -q "golden frames matched byte-for-byte" bench_results/watch.txt
# determinism double-check: a second replay must emit identical bytes
cp bench_results/watch.txt bench_results/watch.first.txt
cargo run --release --offline -p re2x-bench --bin repro -- --out bench_results watch --headless
cmp bench_results/watch.first.txt bench_results/watch.txt
rm -f bench_results/watch.first.txt
echo "watch: golden frames stable across runs"

echo "== benchmark: own tests + a smoke run of every workload (offline) =="
# The benchmark package (benchmark/, BENCHMARK.json) is outside the
# workspace: its tests cover the drivers' arithmetic and scripts, and a
# smoke run of each workload must pass the benchmark's own output checks.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
for workload in explore_star explore_mton synth_ambiguous serve_live; do
    smoke=$(bash benchmark/run.sh --workload "$workload" --smoke | tail -n 1)
    case "$smoke" in
        *'"correct": true'*) echo "benchmark smoke: $workload correct" ;;
        *) echo "benchmark smoke failed: $workload: $smoke" >&2; exit 1 ;;
    esac
done

echo "verify: OK"
