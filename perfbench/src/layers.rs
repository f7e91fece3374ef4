//! The traced run: per-layer metrics, each measured from outside by
//! timing calls into the layer's public functions and reading the
//! program's existing handles (`flsa_dp::Metrics`, `flsa_trace::Recorder`
//! with `analysis::analyze`, `flsa_metrics::Registry`).
//!
//! Every traced run reports every per-layer metric. A layer the workload
//! exercises is measured on the workload's own inputs (its "main"
//! probe); a layer it bypasses is measured on a small companion input
//! made from the same seed, so each name always carries a measured
//! value. Kernel ceilings and model predictions are taken in the same
//! process as the times they divide.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fastlsa_core::{
    align_opts, model, AlignOptions, CheckpointPolicy, FastLsaConfig, ParallelConfig,
};
use flsa_checkpoint::{CheckpointMetrics, FileCheckpointSink, SnapshotMeta};
use flsa_dp::affine::{affine_params, fill_affine_edges, AffineGlobalBoundary};
use flsa_dp::{BatchJob, BatchKernel, Kernel, Metrics, MetricsSnapshot};
use flsa_metrics::{names, Registry};
use flsa_seq::generate::random_sequence;
use flsa_seq::Alphabet;
use flsa_serve::{job, Client, ServeConfig};
use flsa_trace::analysis::{analyze, Analysis};
use flsa_trace::{Recorder, SpanKind};

use crate::align_run::{self, Bench, Mode};
use crate::inputs::{self, Pair, ServeItem};
use crate::openloop::RealClock;
use crate::oracle::{self, Outcome, Tally};
use crate::report::Metric;
use crate::serve_run::{self, Daemon, Expected, Pacing};
use crate::spans::{self, Spans};
use crate::stats::median;
use crate::workload::Workload;

/// Every per-layer metric, in report order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dp.ceiling_gcells_s", "Gcell/s"),
    ("dp.affine_ceiling_gcells_s", "Gcell/s"),
    ("dp.cells_computed", "count"),
    ("dp.cell_factor", "ratio"),
    ("dp.kernel_calls", "count"),
    ("dp.batch_pairs_per_s", "1/s"),
    ("dp.arena_fresh_allocs", "count"),
    ("core.fill_d0_ms", "ms"),
    ("core.fill_d0_cells", "count"),
    ("core.fill_d1_ms", "ms"),
    ("core.fill_d1_cells", "count"),
    ("core.basecase_ms", "ms"),
    ("core.basecase_cells", "count"),
    ("core.traceback_ms", "ms"),
    ("core.traceback_cells", "count"),
    ("core.fill_d1_cell_share", "ratio"),
    ("core.frac_of_ceiling", "ratio"),
    ("core.frac_of_model", "ratio"),
    ("core.peak_bytes", "bytes"),
    ("core.affine_per_cell_vs_linear", "ratio"),
    ("wavefront.speedup_p2", "ratio"),
    ("wavefront.frac_of_thm4", "ratio"),
    ("wavefront.busy_frac", "ratio"),
    ("wavefront.parks", "count"),
    ("wavefront.tiles", "count"),
    ("wavefront.tile_ms_p50", "ms"),
    ("serve.request_ms_p50", "ms"),
    ("serve.admit_wait_ms_p50", "ms"),
    ("serve.queue_depth_peak", "count"),
    ("serve.batch_share", "ratio"),
    ("serve.ping_rtt_us", "us"),
    ("serve.open_p50_ms", "ms"),
    ("serve.open_tail_ms", "ms"),
    ("serve.gen_lag_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.spooled_jobs", "count"),
    ("checkpoint.saves", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.fsync_ms_p50", "ms"),
    ("seq.gen_ms", "ms"),
    ("scoring.setup_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.root_self_ms_p50", "ms"),
];

/// Time each kernel-ceiling probe repeats its block.
const CEILING_S: f64 = 0.3;
/// Time the batch-kernel probe runs.
const BATCH_S: f64 = 0.3;
/// Time a companion probe of a bypassed layer runs.
const COMPANION_S: f64 = 1.2;
/// Share of `--seconds` the workload's own (main) probe runs.
const MAIN_SHARE: f64 = 0.5;
/// Residues of the companion linear pair: long enough (`(len/8)² > 1 Mi`
/// cells) for the recursion to reach depth 1, so every core metric has
/// work to time.
const COMPANION_DNA_LEN: usize = 12_000;
/// Residues of the companion protein pair.
const COMPANION_PROTEIN_LEN: usize = 2_000;
/// Side of the base-case-sized ceiling block: `(side+1)² = 1 Mi` entries,
/// the default base-case buffer.
const BLOCK_SIDE: usize = 1023;
/// Pings timed for the round-trip probe.
const PINGS: usize = 200;
/// Medium requests the spool probe sends.
const SPOOL_JOBS: usize = 32;
/// Medium requests the checkpoint probe runs.
const CHECKPOINT_JOBS: usize = 6;

/// Collected per-layer values; a later insert replaces an earlier one,
/// so a workload's main probe overrides its companion.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    pub tally: Tally,
    pub lines: Vec<String>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Every per-layer metric in [`PER_LAYER`] order.
    ///
    /// # Errors
    ///
    /// Names a metric no probe measured.
    pub fn metrics(&self) -> Result<Vec<Metric>, String> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                self.values
                    .get(name)
                    .map(|&v| Metric::new(name, v, unit))
                    .ok_or(format!("per-layer metric {name} was not measured"))
            })
            .collect()
    }
}

/// Runs `f` until `budget_s` has passed and at least `min` times,
/// returning each call's seconds.
fn repeat_for(budget_s: f64, min: usize, mut f: impl FnMut()) -> Vec<f64> {
    let until = Instant::now() + Duration::from_secs_f64(budget_s);
    let mut out = Vec::new();
    while out.len() < min || Instant::now() < until {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64());
    }
    out
}

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(f64::NAN)
}

/// Kernel ceilings in cells/s: the best backend's
/// `Kernel::fill_last_row_col` and `fill_affine_edges`, each on one
/// base-case-sized block.
pub fn kernel_ceilings(seed: u64) -> (f64, f64) {
    let dna = Alphabet::dna();
    let scheme = inputs::dna_scheme();
    let a = random_sequence("ceil-a", &dna, BLOCK_SIDE, seed);
    let b = random_sequence("ceil-b", &dna, BLOCK_SIDE, seed ^ 1);
    let gap = scheme.gap().linear_penalty();
    let ramp: Vec<i32> = (0..=BLOCK_SIDE as i32).map(|j| j * gap).collect();
    let (mut bottom, mut right) = (vec![0; BLOCK_SIDE + 1], vec![0; BLOCK_SIDE + 1]);
    let kernel = Kernel::auto();
    let metrics = Metrics::new();
    let cells = (BLOCK_SIDE * BLOCK_SIDE) as f64;
    let linear = repeat_for(CEILING_S, 3, || {
        kernel.fill_last_row_col(
            a.codes(),
            b.codes(),
            &ramp,
            &ramp,
            &scheme,
            &mut bottom,
            Some(&mut right),
            &metrics,
        );
        std::hint::black_box(&bottom);
    });

    let protein = Alphabet::protein();
    let scheme = inputs::affine_scheme();
    let a = random_sequence("ceil-pa", &protein, BLOCK_SIDE, seed ^ 2);
    let b = random_sequence("ceil-pb", &protein, BLOCK_SIDE, seed ^ 3);
    let (open, ext) = affine_params(&scheme);
    let bnd = AffineGlobalBoundary::new(BLOCK_SIDE, BLOCK_SIDE, open, ext);
    let affine = repeat_for(CEILING_S, 3, || {
        std::hint::black_box(fill_affine_edges(
            a.codes(),
            b.codes(),
            bnd.view(),
            &scheme,
            &metrics,
        ));
    });
    (cells / med(&linear), cells / med(&affine))
}

/// Direct `BatchKernel::align_batch` on the serve pool's short pairs,
/// 16 to a call (the daemon's default batch size); pairs per second.
pub fn batch_rate(pool: &[ServeItem], tally: &mut Tally) -> f64 {
    let scheme =
        job::scheme_for(inputs::SERVE_MATRIX, inputs::SERVE_GAP).expect("the serve matrix exists");
    let short: Vec<&Pair> = pool.iter().filter(|s| !s.medium).map(|s| &s.pair).collect();
    let refs: Vec<i64> = short
        .iter()
        .map(|p| oracle::linear_score(p.a.codes(), p.b.codes(), &scheme))
        .collect();
    let batch = BatchKernel::new(Kernel::auto());
    let width = ServeConfig::new("").batch_max;
    let chunks: Vec<usize> = (0..short.len()).step_by(width).collect();
    let metrics = Metrics::new();
    let mut c = 0usize;
    let mut rates = Vec::new();
    repeat_for(BATCH_S, chunks.len(), || {
        let lo = chunks[c % chunks.len()];
        let hi = (lo + width).min(short.len());
        c += 1;
        let jobs: Vec<BatchJob<'_>> = short[lo..hi]
            .iter()
            .map(|p| BatchJob {
                a: p.a.codes(),
                b: p.b.codes(),
                scheme: &scheme,
            })
            .collect();
        let t = Instant::now();
        let results = batch.align_batch(&jobs, &metrics);
        rates.push((hi - lo) as f64 / t.elapsed().as_secs_f64());
        for (k, r) in results.iter().enumerate() {
            let p = short[lo + k];
            tally.record(oracle::check(
                r.score,
                r.path.score(&p.a, &p.b, &scheme),
                refs[lo + k],
            ));
        }
    });
    med(&rates)
}

/// One traced operation and what the program's handles reported.
struct TracedOp {
    dp: MetricsSnapshot,
    analysis: Analysis,
    reg: flsa_metrics::MetricsSnapshot,
}

/// Runs pair `i` traced: a fresh recorder and registry per operation.
fn traced(bench: &Bench, mode: Mode, i: usize, tally: &mut Tally) -> (TracedOp, f64) {
    let recorder = Arc::new(Recorder::new());
    let registry = Arc::new(Registry::new());
    let metrics = Metrics::with_recorder(recorder.clone()).with_registry(&registry);
    let opts = AlignOptions {
        registry: Some(registry.clone()),
        ..AlignOptions::default()
    };
    let (res, ms) = align_run::timed(|| bench.run(mode, i, &opts, &metrics));
    tally.record(bench.check(i, &res));
    let op = TracedOp {
        dp: metrics.snapshot(),
        analysis: analyze(&recorder.snapshot()),
        reg: registry.snapshot(),
    };
    (op, ms)
}

/// Runs pair `i` untraced, checked; returns milliseconds.
fn untraced(
    bench: &Bench,
    mode: Mode,
    i: usize,
    tally: &mut Tally,
    spans: Option<(&Spans, u64)>,
) -> f64 {
    let Some((s, op)) = spans else {
        let opts = AlignOptions::default();
        let (res, ms) = align_run::timed(|| bench.run(mode, i, &opts, &Metrics::new()));
        tally.record(bench.check(i, &res));
        return ms;
    };
    // `op` spans the whole operation as the benchmark sees it; its self
    // time is what lies outside the `align` call and the `check`.
    let root = s.open("op", s.now(), None, op);
    let metrics = Metrics::new();
    let t0 = s.now();
    let (res, ms) = align_run::timed(|| bench.run(mode, i, &AlignOptions::default(), &metrics));
    let t1 = s.now();
    s.record("align", t0, t1, Some(root), op);
    let outcome = bench.check(i, &res);
    let t2 = s.now();
    s.record("check", t1, t2, Some(root), op);
    tally.record(outcome);
    drop(res);
    s.close(root, s.now());
    ms
}

fn span_ms(a: &Analysis, kind: SpanKind, depths: impl Fn(u32) -> bool) -> (f64, u64) {
    a.spans
        .iter()
        .filter(|s| s.kind == kind && depths(s.depth))
        .fold((0.0, 0), |(ms, cells), s| {
            (ms + s.total_ns as f64 / 1e6, cells + s.cells)
        })
}

fn counter(s: &flsa_metrics::MetricsSnapshot, name: &str) -> f64 {
    s.counter(name).unwrap_or(0) as f64
}

/// The linear FastLSA probe on pair 0 of `bench`: cycles of one- and
/// two-thread operations, each untraced then traced. The dp counts and
/// the tracing overhead are taken at one thread, as `dna-long` runs.
fn linear_probe(
    bench: &Bench,
    budget_s: f64,
    ceiling: f64,
    out: &mut Layers,
    spans: Option<&Spans>,
) {
    let (mut p1, mut p2, mut t1) = (Vec::new(), Vec::new(), Vec::new());
    let (mut p1_ops, mut p2_ops) = (Vec::new(), Vec::new());
    let until = Instant::now() + Duration::from_secs_f64(budget_s);
    let mut cycle = 0u64;
    while cycle < 3 || Instant::now() < until {
        let sp = |k: u64| spans.map(|s| (s, cycle * 2 + k));
        p1.push(untraced(bench, Mode::Linear, 0, &mut out.tally, sp(0)));
        let (op, ms) = traced(bench, Mode::Linear, 0, &mut out.tally);
        t1.push(ms);
        p1_ops.push(op);
        p2.push(untraced(bench, Mode::LinearP2, 0, &mut out.tally, sp(1)));
        p2_ops.push(traced(bench, Mode::LinearP2, 0, &mut out.tally).0);
        cycle += 1;
    }
    let p = &bench.pairs[0];
    let (m, n) = (p.a.len(), p.b.len());
    let cfg = FastLsaConfig::default();

    let own = &p1_ops[0];
    out.set("dp.cells_computed", own.dp.cells_computed as f64);
    out.set("dp.cell_factor", own.dp.cell_factor(m, n));
    out.set("dp.kernel_calls", own.dp.kernel_calls as f64);
    out.set(
        "dp.arena_fresh_allocs",
        med(&p1_ops
            .iter()
            .map(|o| o.reg.gauge(names::ARENA_FRESH_ALLOCS).unwrap_or(0) as f64)
            .collect::<Vec<_>>()),
    );

    let per_op = |f: &dyn Fn(&Analysis) -> f64| {
        med(&p1_ops.iter().map(|o| f(&o.analysis)).collect::<Vec<_>>())
    };
    let a0 = &p1_ops[0].analysis;
    let (_, d0_cells) = span_ms(a0, SpanKind::FillCache, |d| d == 0);
    let (_, d1_cells) = span_ms(a0, SpanKind::FillCache, |d| d >= 1);
    let (_, base_cells) = span_ms(a0, SpanKind::BaseCase, |_| true);
    let (_, tb_cells) = span_ms(a0, SpanKind::Traceback, |_| true);
    out.set(
        "core.fill_d0_ms",
        per_op(&|a| span_ms(a, SpanKind::FillCache, |d| d == 0).0),
    );
    out.set("core.fill_d0_cells", d0_cells as f64);
    out.set(
        "core.fill_d1_ms",
        per_op(&|a| span_ms(a, SpanKind::FillCache, |d| d >= 1).0),
    );
    out.set("core.fill_d1_cells", d1_cells as f64);
    out.set(
        "core.basecase_ms",
        per_op(&|a| span_ms(a, SpanKind::BaseCase, |_| true).0),
    );
    out.set("core.basecase_cells", base_cells as f64);
    out.set(
        "core.traceback_ms",
        per_op(&|a| span_ms(a, SpanKind::Traceback, |_| true).0),
    );
    out.set("core.traceback_cells", tb_cells as f64);
    out.set(
        "core.fill_d1_cell_share",
        d1_cells as f64 / p1_ops[0].dp.cells_computed.max(1) as f64,
    );
    let p1_s = med(&p1) / 1e3;
    out.set(
        "core.frac_of_ceiling",
        p1_ops[0].dp.cells_computed as f64 / p1_s / ceiling,
    );
    let model_s = model::fastlsa_cells_bound(m, n, cfg.k, cfg.base_cells) / ceiling;
    out.set("core.frac_of_model", model_s / p1_s);
    out.set("core.peak_bytes", p1_ops[0].dp.peak_bytes as f64);

    let p2_s = med(&p2) / 1e3;
    let f = ParallelConfig::for_threads(2).tiles_per_block;
    out.set("wavefront.speedup_p2", p1_s / p2_s);
    out.set(
        "wavefront.frac_of_thm4",
        model::theorem4_bound(m, n, cfg.k, 2, f) / ceiling / p2_s,
    );
    let reg_med = |f: &dyn Fn(&flsa_metrics::MetricsSnapshot) -> f64| {
        med(&p2_ops.iter().map(|o| f(&o.reg)).collect::<Vec<_>>())
    };
    out.set(
        "wavefront.busy_frac",
        reg_med(&|r| {
            let busy = counter(r, names::WORKER_BUSY_NS_TOTAL);
            busy / (busy + counter(r, names::WORKER_IDLE_NS_TOTAL)).max(1.0)
        }),
    );
    out.set(
        "wavefront.parks",
        reg_med(&|r| counter(r, names::WORKER_PARKS_TOTAL)),
    );
    out.set(
        "wavefront.tiles",
        reg_med(&|r| counter(r, names::TILES_TOTAL)),
    );
    out.set(
        "wavefront.tile_ms_p50",
        reg_med(&|r| r.histogram(names::TILE_NS).map_or(0, |h| h.quantile(0.5)) as f64 / 1e6),
    );

    out.set("trace.overhead_pct", overhead_pct(&p1, &t1));
    out.lines.push(format!(
        "linear probe: {m}x{n}, {cycle} cycles, P1 {:.3} ms, P2 {:.3} ms, ceiling {:.3} Gcell/s",
        p1_s * 1e3,
        p2_s * 1e3,
        ceiling / 1e9
    ));
}

/// Median of paired `(traced / untraced − 1)` in percent.
fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    let pairs: Vec<f64> = untraced
        .iter()
        .zip(traced)
        .map(|(u, t)| (t / u - 1.0) * 100.0)
        .collect();
    med(&pairs)
}

/// The affine probe on pair 0 of `bench` (an affine scheme): cycles of
/// an untraced and a traced `align_affine` plus a linear-gap `align` of
/// the same pair under the same matrix.
fn affine_probe(
    bench: &Bench,
    main: bool,
    budget_s: f64,
    ceiling: f64,
    out: &mut Layers,
    spans: Option<&Spans>,
) {
    let mut linear = Bench {
        scheme: inputs::protein_linear_scheme(),
        pairs: vec![bench.pairs[0].clone()],
        refs: Vec::new(),
    };
    linear.compute_refs();
    let (mut u, mut t, mut l) = (Vec::new(), Vec::new(), Vec::new());
    let mut ops = Vec::new();
    let until = Instant::now() + Duration::from_secs_f64(budget_s);
    let mut cycle = 0u64;
    while cycle < 3 || Instant::now() < until {
        u.push(untraced(
            bench,
            Mode::Affine,
            0,
            &mut out.tally,
            spans.map(|s| (s, cycle)),
        ));
        let (op, ms) = traced(bench, Mode::Affine, 0, &mut out.tally);
        t.push(ms);
        ops.push(op);
        l.push(untraced(&linear, Mode::Linear, 0, &mut out.tally, None));
        cycle += 1;
    }
    out.set("core.affine_per_cell_vs_linear", med(&u) / med(&l));
    if !main {
        return;
    }
    let p = &bench.pairs[0];
    let (m, n) = (p.a.len(), p.b.len());
    let dp = &ops[0].dp;
    let cfg = FastLsaConfig::default();
    let secs = med(&u) / 1e3;
    out.set("dp.cells_computed", dp.cells_computed as f64);
    out.set("dp.cell_factor", dp.cell_factor(m, n));
    out.set("dp.kernel_calls", dp.kernel_calls as f64);
    out.set(
        "core.frac_of_ceiling",
        dp.cells_computed as f64 / secs / ceiling,
    );
    out.set(
        "core.frac_of_model",
        model::fastlsa_cells_bound(m, n, cfg.k, cfg.base_cells) / ceiling / secs,
    );
    out.set("core.peak_bytes", dp.peak_bytes as f64);
    out.set("trace.overhead_pct", overhead_pct(&u, &t));
    out.lines.push(format!(
        "affine probe: {m}x{n}, {cycle} cycles, affine {:.3} ms, linear {:.3} ms, affine ceiling {:.4} Gcell/s",
        secs * 1e3,
        med(&l),
        ceiling / 1e9
    ));
}

/// The serve probe: a daemon with a registry attached, driven by an
/// open loop at [`serve_run::OPEN_RATE`] for `budget_s` (latency from
/// each request's due time, in windows), then timed pings.
fn serve_probe(
    seed: u64,
    pool: &[ServeItem],
    expected: &[Expected],
    budget_s: f64,
    out: &mut Layers,
) -> Result<(), String> {
    let registry = Arc::new(Registry::new());
    let daemon = Daemon::start(Some(registry.clone()), false)?;
    let clock = RealClock {
        epoch: Instant::now(),
    };
    let result = (|| -> Result<(), String> {
        let count = ((serve_run::OPEN_RATE * budget_s) as usize).max(align_run::MIN_OPS);
        let open = serve_run::run_phase(
            daemon.addr,
            pool,
            expected,
            |i| serve_run::pick(seed ^ 0x0E, i),
            Pacing::Open {
                rate: serve_run::OPEN_RATE,
                count,
            },
            &clock,
        )?;
        out.tally.merge(&open.tally);
        out.set("serve.gen_lag_ms", med(&open.lag_ms));
        let medians: Vec<f64> = open.latency.iter().map(|w| w.median).collect();
        let tails: Vec<f64> = open.latency.iter().map(|w| w.tail.value).collect();
        out.set("serve.open_p50_ms", med(&medians));
        out.set("serve.open_tail_ms", med(&tails));

        let mut client = Client::connect(daemon.addr).map_err(|e| e.to_string())?;
        let rtt: Vec<f64> = (0..PINGS)
            .map(|i| {
                let t = Instant::now();
                client
                    .ping(i as u64)
                    .map(|_| t.elapsed().as_secs_f64() * 1e6)
            })
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        out.set("serve.ping_rtt_us", med(&rtt));
        Ok(())
    })();
    daemon.stop();
    result?;

    let snap = registry.snapshot();
    let hist_ms = |name: &str| snap.histogram(name).map_or(0, |h| h.quantile(0.5)) as f64 / 1e6;
    out.set("serve.request_ms_p50", hist_ms(names::SERVE_REQUEST_NS));
    out.set(
        "serve.admit_wait_ms_p50",
        hist_ms(names::SERVE_ADMIT_WAIT_NS),
    );
    out.set(
        "serve.queue_depth_peak",
        snap.gauge(names::SERVE_QUEUE_DEPTH_PEAK).unwrap_or(0) as f64,
    );
    out.set(
        "serve.batch_share",
        counter(&snap, names::SERVE_BATCHED_JOBS_TOTAL)
            / counter(&snap, names::SERVE_COMPLETED_TOTAL).max(1.0),
    );
    out.set(
        "serve.rejected",
        counter(&snap, names::SERVE_REJECTED_TOTAL),
    );
    Ok(())
}

/// The spool probe: a daemon with a spool directory receives medium
/// requests in a closed loop of eight, so each is spooled with fsync'd
/// request and result files and checkpointed as it runs.
fn spool_probe(
    seed: u64,
    pool: &[ServeItem],
    expected: &[Expected],
    out: &mut Layers,
) -> Result<(), String> {
    let registry = Arc::new(Registry::new());
    let daemon = Daemon::start(Some(registry.clone()), true)?;
    let clock = RealClock {
        epoch: Instant::now(),
    };
    let medium: Vec<usize> = (0..pool.len()).filter(|&i| pool[i].medium).collect();
    let burst = Pacing::Closed {
        window: 8,
        count: SPOOL_JOBS,
    };
    let pick = |i: usize| medium[serve_run::pick(seed ^ 0x5B, i) % medium.len()];
    let phase = serve_run::run_phase(daemon.addr, pool, expected, pick, burst, &clock);
    daemon.stop();
    out.tally.merge(&phase?.tally);
    out.set(
        "serve.spooled_jobs",
        counter(&registry.snapshot(), names::SERVE_SPOOLED_TOTAL),
    );
    Ok(())
}

/// The checkpoint probe: medium pool pairs run in-process the way the
/// daemon runs a spooled job (the configuration `job::validate` gives the
/// request, the daemon's checkpoint cadence, a file sink with fsync),
/// with the sink's metrics attached. The daemon does not attach its
/// registry to the sink, so this layer is timed here, from outside.
fn checkpoint_probe(pool: &[ServeItem], out: &mut Layers) -> Result<(), String> {
    let dir = serve_run::spool_root().join(format!("ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let registry = Registry::new();
    let every = ServeConfig::new("").checkpoint_every_blocks;
    let result = (|| -> Result<(), String> {
        for (i, item) in pool
            .iter()
            .filter(|s| s.medium)
            .take(CHECKPOINT_JOBS)
            .enumerate()
        {
            let spec =
                job::validate(item.request.clone()).map_err(|(c, d)| format!("{c:?}: {d}"))?;
            let meta =
                SnapshotMeta::for_run(inputs::SERVE_MATRIX, &spec.scheme, &spec.a, &spec.b, every);
            let sink = FileCheckpointSink::new(dir.join(format!("job-{i}.ckpt")), meta)
                .with_metrics(CheckpointMetrics::new(&registry));
            let opts = AlignOptions {
                checkpoint: Some(CheckpointPolicy::new(every, Arc::new(sink))),
                ..AlignOptions::default()
            };
            let res = align_opts(
                &spec.a,
                &spec.b,
                &spec.scheme,
                spec.config,
                &opts,
                &Metrics::new(),
            );
            let outcome = match &res {
                Ok(r) => oracle::check(
                    r.score,
                    r.path.score(&spec.a, &spec.b, &spec.scheme),
                    oracle::linear_score(spec.a.codes(), spec.b.codes(), &spec.scheme),
                ),
                Err(_) => Outcome::Error,
            };
            out.tally.record(outcome);
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result?;
    let snap = registry.snapshot();
    out.set(
        "checkpoint.saves",
        counter(&snap, names::CHECKPOINT_SAVES_TOTAL),
    );
    out.set(
        "checkpoint.bytes",
        counter(&snap, names::CHECKPOINT_BYTES_TOTAL),
    );
    out.set(
        "checkpoint.fsync_ms_p50",
        snap.histogram(names::CHECKPOINT_FSYNC_NS)
            .map_or(0, |h| h.quantile(0.5)) as f64
            / 1e6,
    );
    Ok(())
}

/// A companion bench: `count` pairs of `len` residues under `scheme`.
fn companion(
    alphabet: &Alphabet,
    len: usize,
    identity: f64,
    scheme: flsa_scoring::ScoringScheme,
    seed: u64,
) -> Bench {
    let mut b = Bench {
        scheme,
        pairs: inputs::pairs(alphabet, len, identity, 1, seed),
        refs: Vec::new(),
    };
    b.compute_refs();
    b
}

/// The traced run of workload `w`.
pub fn run_traced(w: Workload, seed: u64, seconds: f64) -> Result<Layers, String> {
    let mut out = Layers::default();
    let spans = Spans::new();
    let main_s = seconds * MAIN_SHARE;

    let (ceiling, affine_ceiling) = kernel_ceilings(seed);
    out.set("dp.ceiling_gcells_s", ceiling / 1e9);
    out.set("dp.affine_ceiling_gcells_s", affine_ceiling / 1e9);

    let pool = inputs::serve_pool(seed);
    let expected = serve_run::expectations(&pool, &Metrics::new())?;
    let batch = batch_rate(&pool, &mut out.tally);
    out.set("dp.batch_pairs_per_s", batch);
    checkpoint_probe(&pool, &mut out)?;
    spool_probe(seed, &pool, &expected, &mut out)?;

    let (mut bench, setup_times) = align_run::setup(w, seed);
    bench.compute_refs();
    serve_probe(seed, &pool, &expected, COMPANION_S, &mut out)?;
    match w {
        Workload::DnaLong => {
            let protein = companion(
                &Alphabet::protein(),
                COMPANION_PROTEIN_LEN,
                inputs::PROTEIN_IDENTITY,
                inputs::affine_scheme(),
                seed ^ 0xA77,
            );
            affine_probe(
                &protein,
                false,
                COMPANION_S / 2.0,
                affine_ceiling,
                &mut out,
                None,
            );
            linear_probe(&bench, main_s, ceiling, &mut out, Some(&spans));
        }
        Workload::ProteinAffine => {
            let dna = companion(
                &Alphabet::dna(),
                COMPANION_DNA_LEN,
                inputs::DNA_IDENTITY,
                inputs::dna_scheme(),
                seed ^ 0xD0A,
            );
            linear_probe(&dna, COMPANION_S, ceiling, &mut out, None);
            affine_probe(&bench, true, main_s, affine_ceiling, &mut out, Some(&spans));
        }
    }
    out.set("seq.gen_ms", setup_times.gen_ms);
    out.set("scoring.setup_ms", setup_times.scoring_ms);

    let recorded = spans.snapshot();
    let self_ms: Vec<f64> = recorded
        .iter()
        .zip(spans::self_times(&recorded))
        .filter(|(s, _)| s.parent.is_none())
        .filter_map(|(_, t)| t.map(|ns| ns as f64 / 1e6))
        .collect();
    out.set("trace.spans", recorded.len() as f64);
    out.set("trace.root_self_ms_p50", med(&self_ms));
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{seed}.jsonl", w.name()));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.lines.push(format!(
        "spans: {} written to {}",
        recorded.len(),
        path.display()
    ));
    Ok(out)
}
