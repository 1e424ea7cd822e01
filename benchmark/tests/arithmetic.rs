//! Percentile and "samples beyond" arithmetic, and span self time.

use re2x_benchmark::stats::{median_of, percentile, samples_beyond, Fnv};
use re2x_benchmark::trace::{self_times, totals_by_name, Span, NONE};

#[test]
fn nearest_rank_percentiles() {
    let values: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&values, 50.0), 50.0);
    assert_eq!(percentile(&values, 95.0), 95.0);
    assert_eq!(percentile(&values, 100.0), 100.0);
    assert_eq!(percentile(&values, 0.0), 1.0);
    // 7 samples: the median is the 4th, p95 the 7th
    let seven = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
    assert_eq!(percentile(&seven, 50.0), 4.0);
    assert_eq!(percentile(&seven, 95.0), 7.0);
    assert_eq!(percentile(&[42.0], 95.0), 42.0);
    let mut unsorted = [3.0, 1.0, 2.0];
    assert_eq!(median_of(&mut unsorted), 2.0);
}

#[test]
fn samples_beyond_a_percentile() {
    // 400 requests leave 20 samples beyond p95 — the sizing rule
    assert_eq!(samples_beyond(400, 95.0), 20);
    assert_eq!(samples_beyond(200, 95.0), 10);
    assert_eq!(samples_beyond(160, 95.0), 8);
    assert_eq!(samples_beyond(100, 50.0), 50);
    assert_eq!(samples_beyond(7, 95.0), 0);
    assert_eq!(samples_beyond(0, 95.0), 0);
    // consistent with `percentile`: exactly that many values are larger
    let values: Vec<f64> = (1..=160).map(f64::from).collect();
    let p95 = percentile(&values, 95.0);
    assert_eq!(
        values.iter().filter(|&&v| v > p95).count(),
        samples_beyond(160, 95.0)
    );
}

#[test]
fn fnv_matches_the_transcript_digest() {
    assert_eq!(Fnv::of(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(Fnv::of(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_ne!(Fnv::of(b"abc"), Fnv::of(b"abd"));
}

fn span(id: u32, name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        name,
        request: 0,
        parent,
        start_ns,
        end_ns,
        rows: 1,
    }
}

#[test]
fn self_time_counts_overlapping_children_once() {
    // request [0, 100]
    //   synth  [10, 40]
    //     ask  [15, 25]
    //     ask  [20, 35]   overlaps the first ask: union [15, 35] = 20
    //   exec   [30, 70]   overlaps synth: union with it [10, 70] = 60
    //   late   [90, 120]  sticks out of its parent: only [90, 100] counts
    let spans = vec![
        span(0, "request", NONE, 0, 100),
        span(1, "synth", 0, 10, 40),
        span(2, "ask", 1, 15, 25),
        span(3, "ask", 1, 20, 35),
        span(4, "exec", 0, 30, 70),
        span(5, "late", 0, 90, 120),
    ];
    let selfs = self_times(&spans);
    assert_eq!(
        selfs[0],
        100 - 60 - 10,
        "root: children cover [10,70] and [90,100]"
    );
    assert_eq!(selfs[1], 30 - 20, "synth: asks cover [15,35]");
    assert_eq!(selfs[2], 10);
    assert_eq!(selfs[3], 15);
    assert_eq!(selfs[4], 40);
    assert_eq!(selfs[5], 30);

    let totals = totals_by_name(&spans);
    assert_eq!(totals["ask"].count, 2);
    assert_eq!(totals["ask"].total_ns, 25);
    assert_eq!(totals["ask"].self_ns, 25);
    assert_eq!(totals["ask"].rows, 2);
    assert_eq!(totals["request"].self_ns, 30);
}

#[test]
fn a_child_inside_an_earlier_child_adds_nothing() {
    let spans = vec![
        span(0, "root", NONE, 0, 50),
        span(1, "wide", 0, 5, 45),
        span(2, "inner", 0, 10, 20),
    ];
    assert_eq!(self_times(&spans)[0], 10);
}
