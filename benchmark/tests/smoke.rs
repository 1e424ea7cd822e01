//! Every workload at its `--smoke` size: all output checks pass, and the
//! run emits exactly the metric names `BENCHMARK.json` lists.

use re2x_benchmark::run::{run, Options};
use re2x_benchmark::workload::Workload;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Names of the metric objects in the array under `key` of
/// `BENCHMARK.json`.
fn listed(key: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the root of the repository");
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let open = start + text[start..].find('[').expect("array follows the key");
    let close = open + text[open..].find(']').expect("array closes");
    text[open..close]
        .split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_owned())
        .collect()
}

fn check(workload: Workload) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{}", workload.name()));
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let report = run(&Options {
            workload,
            seed: 3,
            seconds: 0.3,
            trace,
            smoke: true,
            dir: dir.clone(),
        })
        .expect("the run completes");
        let violations: Vec<&(String, String)> = report
            .facts
            .iter()
            .filter(|(k, _)| k == "violation")
            .collect();
        assert!(
            report.correct,
            "{} trace={trace}: {violations:?}",
            workload.name()
        );
        assert_eq!(report.failed, 0);
        assert!(report.attempted > 0);
        let emitted: BTreeSet<String> = report.metrics.iter().map(|m| m.name.to_owned()).collect();
        assert_eq!(
            emitted.len(),
            report.metrics.len(),
            "a metric is emitted twice"
        );
        assert_eq!(emitted, listed(key), "{} trace={trace}", workload.name());
        for m in &report.metrics {
            assert!(
                m.value.is_finite(),
                "{} {}: no value",
                workload.name(),
                m.name
            );
        }
        // the JSON line carries every metric
        let json = report.to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(report
            .metrics
            .iter()
            .all(|m| json.contains(&format!("\"{}\": {{\"value\": ", m.name))));
    }
    let trace_file = dir.join(format!("trace_{}.jsonl", workload.name()));
    let trace = std::fs::read_to_string(trace_file).expect("the traced run wrote its trace");
    assert!(trace.lines().any(|l| l.contains("\"totals\":\"request\"")));
    assert!(trace
        .lines()
        .any(|l| l.contains("\"name\":\"endpoint.select\"")));
}

#[test]
fn explore_star() {
    check(Workload::ExploreStar);
}

#[test]
fn explore_mton() {
    check(Workload::ExploreMton);
}

#[test]
fn synth_ambiguous() {
    check(Workload::SynthAmbiguous);
}

#[test]
fn serve_live() {
    check(Workload::ServeLive);
}

#[test]
fn trace_file_is_capped() {
    use re2x_benchmark::trace::{render_jsonl, Span, NONE};
    // 100 000 spans over 1 000 requests would be 12 MB in full
    let spans: Vec<Span> = (0..100_000u32)
        .map(|id| Span {
            id,
            name: "endpoint.ask",
            request: id / 100,
            parent: NONE,
            start_ns: u64::from(id),
            end_ns: u64::from(id) + 1,
            rows: 1,
        })
        .collect();
    let text = render_jsonl(&spans, 1, 2 << 20);
    assert!(text.len() < 3 << 20, "{} bytes", text.len());
    assert!(text.contains("\"totals\":\"endpoint.ask\",\"count\":100000"));
    // whole requests are sampled, not single spans
    let sampled = text
        .lines()
        .filter(|l| l.contains("\"request\":0,"))
        .count();
    assert!(sampled == 0 || sampled == 100);
}
