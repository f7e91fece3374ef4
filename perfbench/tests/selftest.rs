//! Self-tests of the benchmark's own accounting: host-speed
//! normalisation, the tail rule, due-time latency and generator lag,
//! failure counting, the output schema and the independent references.

use std::cell::Cell;

use fastlsa_core::AlignOptions;
use flsa_dp::{Move, Path};
use flsa_perfbench::align_run::Bench;
use flsa_perfbench::hostspeed::{self, REFERENCE_PROBE_MS};
use flsa_perfbench::inputs;
use flsa_perfbench::layers::PER_LAYER;
use flsa_perfbench::openloop::{pace, Clock, Schedule};
use flsa_perfbench::oracle::{self, Outcome, Tally};
use flsa_perfbench::report::{Metric, Report};
use flsa_perfbench::spans::{self_times, Span};
use flsa_perfbench::stats::{self, Window, TAIL_BEYOND};
use flsa_perfbench::workload::EndToEnd;
use flsa_scoring::{tables, GapModel, ScoringScheme};
use flsa_seq::{Alphabet, Sequence};

// --- host-speed normalisation ---------------------------------------------

#[test]
fn a_slower_host_reads_the_same_normalised_time() {
    let quiet = REFERENCE_PROBE_MS;
    let reads = |ms, before, after| hostspeed::normalise(ms, before, after);
    assert!((reads(100.0, quiet, quiet) - 100.0).abs() < 1e-9);
    // Everything twice as slow, the operation and both probes.
    assert!((reads(200.0, 2.0 * quiet, 2.0 * quiet) - 100.0).abs() < 1e-9);
    // The host slowed during the operation: the mean of the two probes.
    assert!((reads(150.0, quiet, 2.0 * quiet) - 100.0).abs() < 1e-9);
}

#[test]
fn the_probe_takes_time() {
    assert!(hostspeed::probe_ms() > 0.0);
}

// --- the tail rule ---------------------------------------------------------

#[test]
fn tail_is_the_sample_with_exactly_ten_beyond_it() {
    // 1..=30 shuffled: the 20th smallest has ten samples above it.
    let xs: Vec<f64> = (1..=30).rev().map(f64::from).collect();
    let t = stats::tail(&xs).expect("30 samples qualify");
    assert_eq!(t.value, 20.0);
    assert_eq!(t.samples, 30);
    assert!((t.pct - 100.0 * 20.0 / 30.0).abs() < 1e-12);
    assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
}

#[test]
fn tail_with_just_enough_samples_is_the_minimum() {
    let xs: Vec<f64> = (0..=TAIL_BEYOND).map(|i| i as f64).collect();
    let t = stats::tail(&xs).expect("eleven samples qualify");
    assert_eq!(t.value, 0.0);
    assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
}

#[test]
fn too_few_samples_have_no_tail() {
    assert_eq!(stats::tail(&[]), None);
    let ten: Vec<f64> = (0..TAIL_BEYOND).map(|i| i as f64).collect();
    assert_eq!(stats::tail(&ten), None);
    assert_eq!(Window::of(&ten), None);
    // And the end-to-end report refuses to invent one.
    let e2e = EndToEnd {
        setup_s: vec![1.0],
        latency: Window::of(&ten),
        ops_per_s: 1.0,
        gcells_per_s: 1.0,
        peak_rss_mib: 1.0,
        tally: Tally::default(),
    };
    assert!(e2e.metrics().is_err());
}

fn window(base: f64) -> Window {
    let xs: Vec<f64> = (0..21).map(|i| base + i as f64).collect();
    Window::of(&xs).expect("21 samples have a tail")
}

#[test]
fn latency_is_the_phase_median_and_tail_and_setup_the_median_repetition() {
    let e2e = EndToEnd {
        setup_s: vec![0.5, 0.1, 0.3],
        latency: Some(window(100.0)),
        ops_per_s: 1.0,
        gcells_per_s: 1.0,
        peak_rss_mib: 1.0,
        tally: Tally::default(),
    };
    let (metrics, lines) = e2e.metrics().expect("the window has a tail");
    let get = |n: &str| metrics.iter().find(|m| m.name == n).map(|m| m.value);
    assert_eq!(get("setup_s"), Some(0.3));
    // 100..=120: median 110; the 11th smallest, 110, has ten beyond it.
    assert_eq!(get("op_p50_ms"), Some(110.0));
    assert_eq!(get("op_tail_ms"), Some(110.0));
    assert!(
        lines.iter().any(|l| l.ends_with("p52.38 of 21")),
        "{lines:?}"
    );
}

// --- due-time latency and generator lag on a scripted clock ----------------

/// A clock that only moves when told to: sleeping jumps to the wake-up
/// time, and a scripted send can take time.
struct ScriptedClock {
    now: Cell<u64>,
}

impl Clock for ScriptedClock {
    fn now_ns(&self) -> u64 {
        self.now.get()
    }

    fn sleep_until(&self, t_ns: u64) {
        self.now.set(self.now.get().max(t_ns));
    }
}

#[test]
fn a_stalled_sender_is_charged_to_every_request_it_delayed() {
    const MS: u64 = 1_000_000;
    let clock = ScriptedClock { now: Cell::new(0) };
    let schedule = Schedule::at_rate(0, 1000.0, 5); // due at 0, 1, 2, 3, 4 ms
    let sent = pace(&clock, &schedule, |i| {
        if i == 1 {
            // The send of request 1 blocks for 5 ms.
            clock.now.set(clock.now.get() + 5 * MS);
        }
        true
    });
    assert_eq!(sent, vec![0, MS, 6 * MS, 6 * MS, 6 * MS]);
    let lag: Vec<f64> = (0..5).map(|i| schedule.since_due_ms(i, sent[i])).collect();
    assert_eq!(lag, vec![0.0, 0.0, 4.0, 3.0, 2.0]);
    // Every reply arrives half a millisecond after its send started.
    // Timed from the send these would all read 0.5 ms; from the due time
    // the stall shows on every request behind it.
    let latency: Vec<f64> = (0..5)
        .map(|i| schedule.since_due_ms(i, sent[i] + MS / 2))
        .collect();
    assert_eq!(latency, vec![0.5, 0.5, 4.5, 3.5, 2.5]);
}

#[test]
fn a_sender_on_time_has_no_lag() {
    let clock = ScriptedClock { now: Cell::new(0) };
    let schedule = Schedule::at_rate(10, 500.0, 4);
    let sent = pace(&clock, &schedule, |_| true);
    let due: Vec<u64> = (0..4).map(|i| schedule.due(i)).collect();
    assert_eq!(sent, due);
    assert!((0..4).all(|i| schedule.since_due_ms(i, sent[i]) == 0.0));
    // A reply can never be timed as earlier than its due time.
    assert_eq!(schedule.since_due_ms(3, 0), 0.0);
}

#[test]
fn pacing_stops_when_a_send_fails() {
    let clock = ScriptedClock { now: Cell::new(0) };
    let schedule = Schedule::at_rate(0, 1000.0, 10);
    let sent = pace(&clock, &schedule, |i| i < 3);
    assert_eq!(
        sent.len(),
        4,
        "the failed fourth send was attempted, then the loop stopped"
    );
}

// --- failures are counted ---------------------------------------------------

fn small_bench() -> Bench {
    let mut bench = Bench {
        scheme: inputs::dna_scheme(),
        pairs: inputs::pairs(&Alphabet::dna(), 300, 0.8, 2, 9),
        refs: Vec::new(),
    };
    bench.compute_refs();
    bench
}

#[test]
fn correct_results_pass_the_oracle() {
    let bench = small_bench();
    for mode in [
        flsa_perfbench::align_run::Mode::Linear,
        flsa_perfbench::align_run::Mode::LinearP2,
    ] {
        for i in 0..bench.pairs.len() {
            let res = bench.run(mode, i, &AlignOptions::default(), &flsa_dp::Metrics::new());
            assert_eq!(bench.check(i, &res), Outcome::Ok);
        }
    }
}

#[test]
fn an_injected_wrong_score_lands_in_fail_ratio() {
    let mut bench = small_bench();
    let mut tally = Tally::default();
    let mode = flsa_perfbench::align_run::Mode::Linear;
    let good = bench.run(mode, 0, &AlignOptions::default(), &flsa_dp::Metrics::new());
    tally.record(bench.check(0, &good));
    // A result whose score is off by one (its path still re-scores to
    // the true optimum).
    let mut wrong = bench
        .run(mode, 1, &AlignOptions::default(), &flsa_dp::Metrics::new())
        .expect("aligns");
    wrong.score += 1;
    tally.record(bench.check(1, &Ok(wrong)));
    // A reference that disagrees with the program.
    bench.refs[0] -= 1;
    tally.record(bench.check(0, &good));
    assert_eq!((tally.attempted, tally.ok, tally.mismatches), (3, 1, 2));
    assert_eq!(tally.fail_ratio(), 2.0 / 3.0);

    let e2e = EndToEnd {
        setup_s: vec![1.0],
        latency: Some(window(0.0)),
        ops_per_s: 1.0,
        gcells_per_s: 1.0,
        peak_rss_mib: 1.0,
        tally,
    };
    let (metrics, lines) = e2e.metrics().expect("enough samples");
    let ok = metrics
        .iter()
        .find(|m| m.name == "ok_ratio")
        .expect("reported");
    assert_eq!(ok.value, 1.0 / 3.0);
    assert!(lines.iter().any(|l| l.starts_with("fail_ratio = 0.666")));
}

#[test]
fn errors_and_rejections_count_as_failures() {
    let mut t = Tally::default();
    for o in [Outcome::Ok, Outcome::Error, Outcome::Rejected, Outcome::Ok] {
        t.record(o);
    }
    assert_eq!((t.failed(), t.fail_ratio()), (2, 0.5));
}

// --- the output schema ------------------------------------------------------

#[test]
fn report_round_trips_through_its_json_line() {
    let report = Report {
        correct: true,
        attempted: 1000,
        failed: 0,
        metrics: vec![
            Metric::new("latency_ms", 1.2034, "ms"),
            Metric::new("setup_s", 0.8127, "s"),
            Metric::new("gcells_per_s", 3.0e-7, "Gcell/s"),
            Metric::new("ok_ratio", 1.0, "ratio"),
        ],
    };
    let line = report.to_json().expect("finite values");
    assert!(!line.contains('\n'));
    assert_eq!(Report::parse(&line).expect("parses"), report);
}

#[test]
fn report_rejects_other_shapes() {
    let r = Report {
        correct: false,
        attempted: 1,
        failed: 1,
        metrics: vec![Metric::new("x", f64::NAN, "ms")],
    };
    assert!(r.to_json().is_err(), "a NaN has no JSON form");
    for bad in [
        r#"{"correct": true, "attempted": 1, "failed": 0}"#,
        r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}, "extra": 1}"#,
        r#"{"correct": 1, "attempted": 1, "failed": 0, "metrics": {}}"#,
        r#"{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {}}"#,
        r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a": {"value": 1}}}"#,
    ] {
        assert!(Report::parse(bad).is_err(), "{bad}");
    }
}

#[test]
fn benchmark_json_names_every_reported_metric() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits beside the benchmark");
    let doc = flsa_metrics::json::Json::parse(&text).expect("valid JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.items())
            .expect("a list")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(|v| v.as_str())
                        .expect("a string")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let e2e = EndToEnd {
        setup_s: vec![1.0],
        latency: Some(window(0.0)),
        ops_per_s: 1.0,
        gcells_per_s: 1.0,
        peak_rss_mib: 1.0,
        tally: Tally::default(),
    };
    let reported: Vec<(String, String)> = e2e
        .metrics()
        .expect("enough samples")
        .0
        .into_iter()
        .map(|m| (m.name, m.unit))
        .collect();
    assert_eq!(names("end_to_end"), reported);
    let layers: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names("per_layer"), layers);
}

// --- the references and span accounting -------------------------------------

#[test]
fn linear_reference_reproduces_the_papers_example() {
    let scheme = ScoringScheme::paper_example();
    let a = Sequence::from_str("a", scheme.alphabet(), "TLDKLLKD").expect("valid");
    let b = Sequence::from_str("b", scheme.alphabet(), "TDVLKAD").expect("valid");
    assert_eq!(oracle::linear_score(a.codes(), b.codes(), &scheme), 82);
}

#[test]
fn affine_reference_and_rescoring_agree_on_a_known_alignment() {
    let scheme = ScoringScheme::new(tables::dna_default(), GapModel::affine(-10, -1));
    let a = Sequence::from_str("a", scheme.alphabet(), "ACGTACCCCGTACGT").expect("valid");
    let b = Sequence::from_str("b", scheme.alphabet(), "ACGTACGTACGT").expect("valid");
    // 12 matches (+60) and one length-3 gap (-13).
    assert_eq!(oracle::affine_score(a.codes(), b.codes(), &scheme), 47);
    let mut moves = vec![Move::Diag; 6];
    moves.extend([Move::Up; 3]);
    moves.extend([Move::Diag; 6]);
    let path = Path::new((0, 0), moves);
    assert_eq!(
        oracle::affine_path_score(&path, a.codes(), b.codes(), &scheme),
        47
    );
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let span = |start, end, parent| Span {
        name: "s",
        start_ns: start,
        end_ns: Some(end),
        parent,
        op: 7,
    };
    let spans = vec![
        span(0, 100, None),
        span(10, 40, Some(0)),
        span(30, 60, Some(0)),  // overlaps the first child
        span(90, 150, Some(0)), // runs past its parent
        Span {
            end_ns: None,
            ..span(0, 0, None)
        },
    ];
    let t = self_times(&spans);
    assert_eq!(t[0], Some(100 - 50 - 10));
    assert_eq!(t[1], Some(30));
    assert_eq!(t[4], None);
}
