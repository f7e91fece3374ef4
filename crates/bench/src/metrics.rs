//! The `flsa bench metrics` suite: what does the always-on metrics layer
//! cost?
//!
//! Two measurements, because the layer has two failure modes. The
//! record-path nanobenches time a single `Counter::add` / `Gauge::set` /
//! `Histogram::record` in a tight loop — these must stay at a few
//! nanoseconds or the instruments are too expensive to leave in hot
//! loops. The end-to-end comparison runs the same parallel FastLSA
//! alignment with and without a registry attached and reports the
//! relative wall-clock cost; `flsa bench metrics --gate F` turns that
//! into a regression gate (DESIGN.md §12 budgets it at ≤2%). Like the
//! kernel sweep, the JSON report stamps the host's CPU features and the
//! auto-picked backend so numbers are comparable across machines.
//!
//! The gated statistic is the **median pairwise overhead**: plain and
//! metered runs alternate, and the overhead is the median of
//! `(metered_i - plain_i) / plain_i` across adjacent pairs. A genuine
//! regression is a cost added to *every* metered run, so it raises most
//! pairs and the median with them; a scheduler or thermal spike on
//! either side moves a minority of pairs, which the median ignores. The
//! minimum, the earlier statistic, was not robust that way: one pair
//! whose plain run was stalled reads a large negative overhead, and a
//! regression then passes the gate (the committed report's pairs span
//! −4.0% … +16.1%; the minimum read −3.99%, the median +0.23%).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fastlsa_core::{align_opts, AlignOptions, FastLsaConfig};
use flsa_dp::{detected_cpu_features, KernelBackend, Metrics};
use flsa_metrics::{names, Registry};
use flsa_scoring::ScoringScheme;
use flsa_seq::generate::homologous_pair;
use flsa_seq::{Alphabet, Sequence};

/// Measured ns/op for each record-path instrument.
#[derive(Debug, Clone, Copy)]
pub struct RecordPathCost {
    pub counter_ns: f64,
    pub gauge_ns: f64,
    pub histogram_ns: f64,
}

/// The full overhead report behind `BENCH_metrics.json`.
#[derive(Debug, Clone)]
pub struct MetricsBenchReport {
    /// Square problem side of the end-to-end comparison.
    pub len: usize,
    /// Timed repetitions per configuration (best kept).
    pub reps: usize,
    /// Worker threads of the parallel align.
    pub threads: usize,
    pub record: RecordPathCost,
    /// Best end-to-end wall time without a registry attached, ns.
    pub plain_best_ns: u64,
    /// Best end-to-end wall time with the full registry attached, ns.
    pub metered_best_ns: u64,
    /// Per-pair `(metered - plain) / plain` percentages, one per rep.
    pub pair_overheads_pct: Vec<f64>,
    /// DPM cells one metered run computed (scale context for the times).
    pub cells: u64,
    /// SIMD features the CPU reports (from `is_x86_feature_detected!`).
    pub cpu_features: Vec<&'static str>,
    /// The backend [`KernelBackend::detect_best`] would pick.
    pub best_backend: KernelBackend,
}

impl MetricsBenchReport {
    /// End-to-end cost of metrics-on relative to metrics-off, percent:
    /// the median pairwise overhead (see the module docs for why the
    /// median is the noise-robust gate statistic; an even count takes
    /// the mean of the middle two). Negative values mean the difference
    /// drowned in run-to-run noise.
    pub fn overhead_pct(&self) -> f64 {
        let mut pairs = self.pair_overheads_pct.clone();
        pairs.sort_by(f64::total_cmp);
        let n = pairs.len();
        if n > 0 {
            return (pairs[(n - 1) / 2] + pairs[n / 2]) / 2.0;
        }
        // No pair data (hand-built report): fall back to best-vs-best.
        if self.plain_best_ns == 0 {
            return 0.0;
        }
        (self.metered_best_ns as f64 - self.plain_best_ns as f64) / self.plain_best_ns as f64
            * 100.0
    }

    /// The JSON body of `BENCH_metrics.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"bench\": \"metrics\",\n  \"cpu_features\": [");
        for (i, f) in self.cpu_features.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{f}\""));
        }
        out.push_str(&format!(
            "],\n  \"best_backend\": \"{}\",\n",
            self.best_backend.name()
        ));
        out.push_str(&format!(
            "  \"record_path_ns\": {{\"counter\": {:.3}, \"gauge\": {:.3}, \
             \"histogram\": {:.3}}},\n",
            self.record.counter_ns, self.record.gauge_ns, self.record.histogram_ns
        ));
        out.push_str(&format!(
            "  \"align\": {{\"len\": {}, \"threads\": {}, \"reps\": {}, \"cells\": {}, \
             \"plain_best_ns\": {}, \"metered_best_ns\": {}, \"pair_overheads_pct\": [",
            self.len, self.threads, self.reps, self.cells, self.plain_best_ns, self.metered_best_ns,
        ));
        for (i, p) in self.pair_overheads_pct.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{p:.3}"));
        }
        out.push_str(&format!(
            "], \"overhead_pct\": {:.3}}}\n}}\n",
            self.overhead_pct()
        ));
        out
    }

    /// A plain-text table of both measurements.
    pub fn render(&self) -> String {
        let mut t = crate::Table::new(&["measurement", "value"]);
        t.row(&[
            "counter record".into(),
            format!("{:.2} ns/op", self.record.counter_ns),
        ]);
        t.row(&[
            "gauge record".into(),
            format!("{:.2} ns/op", self.record.gauge_ns),
        ]);
        t.row(&[
            "histogram record".into(),
            format!("{:.2} ns/op", self.record.histogram_ns),
        ]);
        t.row(&[
            format!("align {}x{} P{} off", self.len, self.len, self.threads),
            format!("{:.1} ms", self.plain_best_ns as f64 / 1e6),
        ]);
        t.row(&[
            format!("align {}x{} P{} on", self.len, self.len, self.threads),
            format!("{:.1} ms", self.metered_best_ns as f64 / 1e6),
        ]);
        t.row(&[
            "end-to-end overhead".into(),
            format!("{:+.2}%", self.overhead_pct()),
        ]);
        t.render()
    }
}

/// Times the three record paths in tight loops. The loop bodies are
/// `black_box`ed on both sides so the compiler can neither hoist the
/// operand nor discard the result.
fn bench_record_path() -> RecordPathCost {
    const N: u64 = 4_000_000;
    let reg = Registry::new();

    let c = reg.counter(names::CELLS_TOTAL);
    let start = Instant::now();
    for i in 0..N {
        c.add(black_box(i & 7));
    }
    let counter_ns = start.elapsed().as_nanos() as f64 / N as f64;
    black_box(c.get());

    let g = reg.gauge(names::MEM_RESERVED_BYTES);
    let start = Instant::now();
    for i in 0..N {
        g.set(black_box(i as i64));
    }
    let gauge_ns = start.elapsed().as_nanos() as f64 / N as f64;
    black_box(g.get());

    let h = reg.histogram(names::TILE_NS);
    let start = Instant::now();
    for i in 0..N {
        h.record(black_box(i.wrapping_mul(2654435761)));
    }
    let histogram_ns = start.elapsed().as_nanos() as f64 / N as f64;
    black_box(reg.snapshot());

    RecordPathCost {
        counter_ns,
        gauge_ns,
        histogram_ns,
    }
}

/// One end-to-end align; returns (wall ns, cells computed).
fn timed_align(
    sa: &Sequence,
    sb: &Sequence,
    scheme: &ScoringScheme,
    cfg: FastLsaConfig,
    registry: Option<&Arc<Registry>>,
) -> (u64, u64) {
    let metrics = match registry {
        Some(reg) => Metrics::new().with_registry(reg),
        None => Metrics::new(),
    };
    let opts = AlignOptions {
        registry: registry.cloned(),
        ..AlignOptions::default()
    };
    let start = Instant::now();
    let r = align_opts(sa, sb, scheme, cfg, &opts, &metrics).expect("bench align");
    let ns = start.elapsed().as_nanos() as u64;
    black_box(r.score);
    (ns, metrics.snapshot().cells_computed)
}

/// Runs the suite: record-path nanobenches, then `reps` interleaved
/// metrics-off / metrics-on parallel aligns of a `len`×`len` DNA
/// problem (best time kept per configuration, one untimed warmup).
pub fn run(len: usize, reps: usize, threads: usize) -> MetricsBenchReport {
    let record = bench_record_path();
    let scheme = ScoringScheme::dna_default();
    let (sa, sb) = homologous_pair("bench", &Alphabet::dna(), len, 0.8, 0xbc)
        .expect("bench sequence generation");
    let mut cfg = FastLsaConfig::new(8, 1 << 20);
    if threads > 1 {
        cfg = cfg.with_threads(threads);
    }

    // Warmup: populates allocator and arena pools for both paths.
    timed_align(&sa, &sb, &scheme, cfg, None);

    let mut plain_best = u64::MAX;
    let mut metered_best = u64::MAX;
    let mut pair_overheads_pct = Vec::with_capacity(reps.max(1));
    let mut cells = 0u64;
    for _ in 0..reps.max(1) {
        // Interleaved so clock drift and thermal state hit both sides,
        // and paired so each rep yields its own overhead estimate.
        let (p, _) = timed_align(&sa, &sb, &scheme, cfg, None);
        plain_best = plain_best.min(p);
        let reg = Arc::new(Registry::new());
        let (m, c) = timed_align(&sa, &sb, &scheme, cfg, Some(&reg));
        metered_best = metered_best.min(m);
        pair_overheads_pct.push((m as f64 - p as f64) / p as f64 * 100.0);
        cells = c;
    }

    MetricsBenchReport {
        len,
        reps,
        threads,
        record,
        plain_best_ns: plain_best,
        metered_best_ns: metered_best,
        pair_overheads_pct,
        cells,
        cpu_features: detected_cpu_features(),
        best_backend: KernelBackend::detect_best(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_path_costs_are_finite_and_small() {
        let r = bench_record_path();
        for v in [r.counter_ns, r.gauge_ns, r.histogram_ns] {
            assert!(v.is_finite() && v > 0.0, "{v}");
            // Generous CI bound; the committed report is the real gate.
            assert!(v < 1_000.0, "record path took {v} ns/op");
        }
    }

    fn report_with_pairs(pairs: &[f64]) -> MetricsBenchReport {
        MetricsBenchReport {
            len: 0,
            reps: pairs.len(),
            threads: 1,
            record: RecordPathCost {
                counter_ns: 1.0,
                gauge_ns: 1.0,
                histogram_ns: 1.0,
            },
            plain_best_ns: 0,
            metered_best_ns: 0,
            pair_overheads_pct: pairs.to_vec(),
            cells: 0,
            cpu_features: Vec::new(),
            best_backend: KernelBackend::Scalar,
        }
    }

    fn min_pair(r: &MetricsBenchReport) -> f64 {
        r.pair_overheads_pct
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn one_stalled_plain_run_moves_the_minimum_not_the_median() {
        // A real ~10% cost in every pair; then the second pair's plain
        // run is stalled, so that pair reads −4%. The minimum follows the
        // one bad pair below a 2% gate; the median stays on the
        // regression.
        let regressed = report_with_pairs(&[10.2, 10.0, 9.8, 11.0, 10.5]);
        let one_bad = report_with_pairs(&[10.2, -4.0, 9.8, 11.0, 10.5]);
        assert_eq!(min_pair(&regressed), 9.8);
        assert_eq!(min_pair(&one_bad), -4.0);
        assert_eq!(regressed.overhead_pct(), 10.2);
        assert_eq!(one_bad.overhead_pct(), 10.2);
        assert!(one_bad.overhead_pct() > 2.0);
    }

    #[test]
    fn one_stalled_metered_run_moves_neither_the_minimum_nor_the_median() {
        // The reverse: a clean layer (±0.5%), then one metered run hits a
        // scheduler spike (+16.1%). The minimum and the median both stay
        // with the clean pairs, so the gate still passes.
        let clean = report_with_pairs(&[0.3, -0.2, 0.2, 0.1, -0.4]);
        let one_bad = report_with_pairs(&[0.3, -0.2, 16.1, 0.1, -0.4]);
        assert_eq!(min_pair(&one_bad), min_pair(&clean));
        assert_eq!(clean.overhead_pct(), 0.1);
        assert_eq!(one_bad.overhead_pct(), 0.1);
        // An even count averages the middle two.
        assert_eq!(report_with_pairs(&[4.0, 1.0, 2.0, 3.0]).overhead_pct(), 2.5);
    }

    #[test]
    fn the_committed_pairs_read_their_median() {
        let committed = report_with_pairs(&[0.231, 13.256, -3.988, 16.065, -0.078]);
        assert_eq!(committed.overhead_pct(), 0.231);
    }

    #[test]
    fn end_to_end_report_has_sane_shape() {
        let report = run(256, 1, 2);
        assert!(report.plain_best_ns > 0);
        assert!(report.metered_best_ns > 0);
        assert!(report.cells >= 256 * 256);
        assert!(report.overhead_pct().is_finite());
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"metrics\""));
        assert!(json.contains("\"overhead_pct\""));
        assert!(json.contains("\"best_backend\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let table = report.render();
        assert!(table.contains("end-to-end overhead"), "{table}");
    }
}
