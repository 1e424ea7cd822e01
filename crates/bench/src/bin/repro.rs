//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--scale smoke|full] [--seed N] [--out DIR]
//!       [--dash] [--input FILE] [--golden FILE] [--headless] [--live]
//!       [--speed F] [experiment …]
//!
//! experiments: table1 table2 table3 fig6 fig7 fig8 fig8c fig9 fig10
//!              ablations scaling latency trace sharding serve watch
//!              scale (default: all except `scale`, whose paper-scale
//!              ladder only runs when named explicitly)
//! ```
//!
//! `watch` replays a recorded JSONL event log through the `re2x-tui`
//! dashboard (`--headless` byte-compares the frames against the committed
//! golden and fails on drift; `--live` paints paced ANSI frames).
//! `--dash` attaches the live dashboard to the `serve` sweep.
//!
//! Results are printed and written to `<out>/<experiment>.txt`
//! (default `bench_results/`). Run with `--release`; the `full` scale
//! covers every base member pool so Table 3 is reproduced exactly.

use re2x_bench::env::{prepare, DatasetKind, PreparedDataset, Scales};
use re2x_bench::report::emit;
use re2x_bench::{ablation, figures};
use std::collections::BTreeSet;
use std::path::PathBuf;

struct Args {
    scale: Scales,
    scale_name: String,
    seed: u64,
    out: PathBuf,
    experiments: BTreeSet<String>,
    dash: bool,
    watch: re2x_bench::watch::WatchConfig,
}

const ALL: [&str; 17] = [
    "table1",
    "table2",
    "table3",
    "fig6",
    "fig7",
    "fig8",
    "fig8c",
    "fig9",
    "fig10",
    "ablations",
    "scaling",
    "latency",
    "trace",
    "sharding",
    "serve",
    "watch",
    "scale",
];

/// Experiments excluded from the implicit "run everything" default: the
/// scale ladder regenerates the dataset at paper-scale observation counts
/// (minutes of work), so it only runs when named explicitly.
const EXPLICIT_ONLY: [&str; 1] = ["scale"];

fn parse_args() -> Args {
    let mut args = Args {
        scale: Scales::full(),
        scale_name: "full".to_owned(),
        seed: 42,
        out: PathBuf::from("bench_results"),
        experiments: BTreeSet::new(),
        dash: false,
        watch: re2x_bench::watch::WatchConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().unwrap_or_default();
                args.scale = match v.as_str() {
                    "smoke" => Scales::smoke(),
                    "full" => Scales::full(),
                    other => {
                        eprintln!("unknown scale '{other}' (use smoke|full)");
                        std::process::exit(2);
                    }
                };
                args.scale_name = v;
            }
            "--seed" => {
                args.seed = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed expects an integer");
                    std::process::exit(2);
                });
            }
            "--out" => {
                args.out = PathBuf::from(it.next().unwrap_or_else(|| {
                    eprintln!("--out expects a directory");
                    std::process::exit(2);
                }));
            }
            "--dash" => {
                args.dash = true;
                args.watch.live = true;
            }
            "--headless" => args.watch.headless = true,
            "--live" => args.watch.live = true,
            "--input" => {
                args.watch.input = Some(PathBuf::from(it.next().unwrap_or_else(|| {
                    eprintln!("--input expects a JSONL event-log path");
                    std::process::exit(2);
                })));
            }
            "--golden" => {
                args.watch.golden = Some(PathBuf::from(it.next().unwrap_or_else(|| {
                    eprintln!("--golden expects a frame-script path");
                    std::process::exit(2);
                })));
            }
            "--speed" => {
                args.watch.speed = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--speed expects a positive number");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [--scale smoke|full] [--seed N] [--out DIR] \
                     [--dash] [--input FILE] [--golden FILE] [--headless] [--live] \
                     [--speed F] [experiment …]"
                );
                eprintln!("experiments: {}", ALL.join(" "));
                std::process::exit(0);
            }
            name if ALL.contains(&name) => {
                args.experiments.insert(name.to_owned());
            }
            other => {
                eprintln!("unknown experiment '{other}'; available: {}", ALL.join(" "));
                std::process::exit(2);
            }
        }
    }
    if args.experiments.is_empty() {
        args.experiments = ALL
            .iter()
            .filter(|s| !EXPLICIT_ONLY.contains(s))
            .map(|s| (*s).to_owned())
            .collect();
    }
    args
}

fn main() {
    let args = parse_args();
    let wants = |name: &str| args.experiments.contains(name);
    let needs_datasets = [
        "table3",
        "fig6",
        "fig7",
        "fig8",
        "fig8c",
        "fig9",
        "ablations",
    ]
    .iter()
    .any(|e| wants(e));

    println!(
        "RE2xOLAP reproduction — scale={}, seed={}, writing to {}\n",
        args.scale_name,
        args.seed,
        args.out.display()
    );

    if wants("table1") {
        emit(
            &args.out,
            "table1",
            "Table 1: capability comparison",
            &figures::table1(),
        );
    }
    if wants("table2") {
        emit(
            &args.out,
            "table2",
            "Table 2: resultset for ⟨\"Germany\", \"2014\"⟩ (running example)",
            &figures::table2(),
        );
    }
    if wants("scaling") {
        emit(
            &args.out,
            "scaling",
            "Scaling: synthesis time vs observation count (§5.3 claim)",
            &figures::scaling(args.seed),
        );
    }
    if wants("fig10") {
        emit(
            &args.out,
            "fig10",
            "Figure 10: SPARQLByE vs ReOLAP on the same example",
            &figures::fig10(),
        );
    }
    if wants("latency") {
        emit(
            &args.out,
            "latency",
            "Endpoint latency profile: per-phase p50/p99 and cache hit rates",
            &figures::latency_profile(args.seed),
        );
    }

    if wants("trace") {
        // 2 ms of injected latency stands in for a remote endpoint; the
        // phase-attributed report shows endpoint time dominating the
        // pipeline (the paper's Figs. 6–9 observation).
        let report = re2x_bench::trace::run(std::time::Duration::from_millis(2));
        emit(
            &args.out,
            "trace",
            "Trace: phase-attributed pipeline cost under 2 ms endpoint latency",
            &report.summary(),
        );
        let _ = std::fs::create_dir_all(&args.out);
        let json_path = args.out.join("trace.json");
        if let Err(e) = std::fs::write(&json_path, report.to_json()) {
            eprintln!("could not write {}: {e}", json_path.display());
        } else {
            println!("wrote {}", json_path.display());
        }
        // full span/query event log is opt-in: it is large and per-run
        if std::env::var("RE2X_TRACE").is_ok_and(|v| v != "0") {
            let jsonl_path = args.out.join("trace_events.jsonl");
            if let Err(e) = std::fs::write(&jsonl_path, report.events_jsonl()) {
                eprintln!("could not write {}: {e}", jsonl_path.display());
            } else {
                println!("wrote {}", jsonl_path.display());
            }
        }
    }

    if wants("sharding") {
        // Scatter-gather over hash-partitioned shards, each paying the same
        // 2 ms round-trip the trace experiment injects plus a per-row
        // transfer cost; smoke runs a smaller fact table so the sweep stays
        // fast, full uses the headline size.
        let observations = if args.scale_name == "smoke" {
            4_000
        } else {
            12_000
        };
        eprintln!("running sharding sweep on {observations} eurostat observations …");
        let report = re2x_bench::sharding::run(observations, args.seed);
        emit(
            &args.out,
            "sharding",
            "Sharding: scatter-gather speedup over hash-partitioned shards (2 ms latency)",
            &report.summary(),
        );
        let _ = std::fs::create_dir_all(&args.out);
        let json_path = args.out.join("sharding.json");
        if let Err(e) = std::fs::write(&json_path, report.to_json()) {
            eprintln!("could not write {}: {e}", json_path.display());
        } else {
            println!("wrote {}", json_path.display());
        }
    }

    if wants("serve") {
        // Deterministic multi-tenant load: Zipf-drawn example sessions over
        // three tenant stacks, swept across worker counts, every transcript
        // differentially checked against a serial replay.
        let observations = if args.scale_name == "smoke" {
            800
        } else {
            2_000
        };
        eprintln!("running serve sweep on {observations} eurostat observations …");
        let report = re2x_bench::serve::run(observations, args.seed, args.dash);
        emit(
            &args.out,
            "serve",
            "Serve: multi-tenant session latency/throughput vs worker count",
            &report.summary(),
        );
        let _ = std::fs::create_dir_all(&args.out);
        let json_path = args.out.join("serve.json");
        if let Err(e) = std::fs::write(&json_path, report.to_json()) {
            eprintln!("could not write {}: {e}", json_path.display());
        } else {
            println!("wrote {}", json_path.display());
        }
    }

    if wants("scale") {
        // Snapshot-vs-regeneration ladder: each rung regenerates Eurostat,
        // writes the dictionary-encoded snapshot, loads it back through the
        // cache, proves the loaded graph identical (digest + probe-query
        // answers), and runs bootstrap, two ReOLAP syntheses and the
        // interactive loop (execute, drill down, refine — derived vs
        // executed) end-to-end from the loaded graph. Full scale uses the
        // paper-scale rungs.
        let rungs: Vec<usize> = if args.scale_name == "smoke" {
            vec![100_000, 200_000, 400_000]
        } else {
            vec![1_000_000, 5_000_000, 15_000_000]
        };
        let snapshot_dir = args.out.join("snapshots");
        let report = re2x_bench::scale::run(&rungs, args.seed, &snapshot_dir);
        emit(
            &args.out,
            "scale",
            "Scale: snapshot load vs regeneration, schema-bound analytics ladder",
            &report.summary(),
        );
        let _ = std::fs::create_dir_all(&args.out);
        let json_path = args.out.join("scale.json");
        if let Err(e) = std::fs::write(&json_path, report.to_json()) {
            eprintln!("could not write {}: {e}", json_path.display());
        } else {
            println!("wrote {}", json_path.display());
        }
        if !report.all_identical() {
            eprintln!("scale: loaded snapshot diverged from the regenerated graph");
            std::process::exit(1);
        }
        if !report.refined_identical() {
            eprintln!(
                "scale: a refinement answered from the parent's rows diverged from executing it"
            );
            std::process::exit(1);
        }
    }

    if wants("watch") {
        // Deterministic TUI replay of the committed scripted-session
        // fixture (or `--input`): in `--headless` mode the rendered frame
        // script must match the committed golden byte-for-byte.
        match re2x_bench::watch::run(&args.watch) {
            Ok(outcome) => {
                emit(
                    &args.out,
                    "watch",
                    "Watch: deterministic TUI replay of a recorded event log",
                    &outcome.summary(),
                );
                if outcome.golden_matched == Some(false) {
                    eprintln!("watch: rendered frames diverged from the golden script");
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("watch: {e}");
                std::process::exit(1);
            }
        }
    }

    if !needs_datasets {
        return;
    }

    // Prepare the needed datasets (generation + bootstrap; bootstrap time
    // is itself the Figure 6c measurement). fig8c and the ablations run on
    // Eurostat only.
    let needs_all = ["table3", "fig6", "fig7", "fig8", "fig9"]
        .iter()
        .any(|e| wants(e));
    let kinds: &[DatasetKind] = if needs_all {
        &DatasetKind::ALL
    } else {
        &[DatasetKind::Eurostat]
    };
    let mut prepared: Vec<PreparedDataset> = Vec::new();
    for &kind in kinds {
        eprintln!(
            "preparing {} at scale {} …",
            kind.name(),
            args.scale.of(kind)
        );
        prepared.push(prepare(kind, &args.scale, args.seed));
    }

    if wants("table3") {
        emit(
            &args.out,
            "table3",
            "Table 3: dataset characteristics (discovered vs specification)",
            &figures::table3(&prepared),
        );
    }
    if wants("fig6") {
        emit(
            &args.out,
            "fig6",
            "Figure 6: dataset sizes and bootstrap time",
            &figures::fig6(&prepared, args.seed),
        );
    }

    let mut fig7_results = Vec::new();
    let mut fig8_results = Vec::new();
    let mut fig9_results = Vec::new();
    if wants("fig7") || wants("fig8") || wants("fig9") {
        for p in &prepared {
            eprintln!("running synthesis workload on {} …", p.kind.name());
            let series = figures::fig7_measure(p, args.seed);
            if wants("fig8") || wants("fig9") {
                eprintln!("executing Orig/Dis.1/Dis.2 queries on {} …", p.kind.name());
                let (fig8_series, executed) = figures::fig8_measure(p, &series);
                fig8_results.push((p.kind.name(), fig8_series));
                if wants("fig9") {
                    eprintln!("generating refinements on {} …", p.kind.name());
                    // the paper refines the 40 synthesized queries; cap the
                    // executed pool accordingly to bound harness runtime
                    let pool = &executed[..executed.len().min(40)];
                    let stats = figures::fig9_measure(p, pool, 3);
                    fig9_results.push((p.kind.name(), stats));
                }
            }
            fig7_results.push((p.kind.name(), series));
        }
    }
    if wants("fig7") {
        emit(
            &args.out,
            "fig7",
            "Figure 7: ReOLAP synthesis time (a) and #queries (b)",
            &figures::fig7(&fig7_results),
        );
    }
    if wants("fig8") {
        emit(
            &args.out,
            "fig8",
            "Figure 8a/8b: query execution time and result size per disaggregation depth",
            &figures::fig8(&fig8_results),
        );
    }
    if wants("fig9") {
        emit(
            &args.out,
            "fig9",
            "Figure 9: refinement generation time (a) and #refinements (b)",
            &figures::fig9(&fig9_results),
        );
    }
    if wants("fig8c") {
        let eurostat = prepared
            .iter()
            .find(|p| p.kind == DatasetKind::Eurostat)
            .expect("eurostat prepared");
        emit(
            &args.out,
            "fig8c",
            "Figure 8c: exploration workflow — cumulative paths and tuples (Eurostat)",
            &figures::fig8c(eurostat, args.seed),
        );
    }
    if wants("ablations") {
        let eurostat = prepared
            .iter()
            .find(|p| p.kind == DatasetKind::Eurostat)
            .expect("eurostat prepared");
        eprintln!("running ablations …");
        let mut body = String::new();
        body.push_str("A1 — Virtual Schema Graph vs direct navigation:\n\n");
        body.push_str(&ablation::ablation_vgraph(eurostat, args.seed));
        body.push_str("\nA2 — interpretation validity check:\n\n");
        body.push_str(&ablation::ablation_validate(eurostat, args.seed));
        body.push_str("\nA3 — full-text index vs literal scan:\n\n");
        body.push_str(&ablation::ablation_text_index(eurostat, args.seed));
        body.push_str("\nA4 — endpoint latency dominates bootstrap (§7.1):\n\n");
        body.push_str(&ablation::ablation_endpoint_latency(eurostat));
        emit(
            &args.out,
            "ablations",
            "Ablation studies (DESIGN.md §4)",
            &body,
        );
    }
}
