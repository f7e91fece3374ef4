//! The single-caller workloads, `dna-long` and `protein-affine`. Each is a closed loop with one caller that aligns
//! a few long seeded pairs in turn through the public entry points.

use std::time::{Duration, Instant};

use fastlsa_core::{align_affine, align_opts, AlignError, AlignOptions, FastLsaConfig};
use flsa_dp::{AlignResult, Metrics};
use flsa_scoring::{GapModel, ScoringScheme};
use flsa_seq::Alphabet;

use crate::inputs::{self, Pair};
use crate::oracle::{self, Outcome};
use crate::stats::{self, Window};
use crate::workload::{EndToEnd, Workload};
use crate::{hostspeed, rss};

/// How many times set-up is repeated; `setup_s` is their median. The
/// first set-up serves the timed phase; the repetitions run after it, so
/// what they leave behind (thread stacks glibc caches, heap the daemon
/// threads fragmented) is not in the phase's resident size.
pub const SETUP_REPS: usize = 9;
/// Operations a timed phase always completes, even on a very short run:
/// enough that the tail (the sample with ten beyond it) is at or above
/// the median.
pub const MIN_OPS: usize = 2 * crate::stats::TAIL_BEYOND + 1;

/// How an operation calls into the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `align` (default configuration, one thread).
    Linear,
    /// `align_with(.., FastLsaConfig::default().with_threads(2))`.
    LinearP2,
    /// `align_affine(.., FastLsaConfig::default())`.
    Affine,
}

/// Timings of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    /// Input generation.
    pub gen_ms: f64,
    /// Scheme and query-profile build.
    pub scoring_ms: f64,
}

/// A scheme plus the pairs aligned under it, with their references.
pub struct Bench {
    pub scheme: ScoringScheme,
    pub pairs: Vec<Pair>,
    /// Reference score of each pair (empty until [`Bench::compute_refs`]).
    pub refs: Vec<i64>,
}

impl Bench {
    /// Generates the pairs and builds the scheme, timing both.
    pub fn build(
        gen: impl FnOnce() -> Vec<Pair>,
        scheme: impl FnOnce() -> ScoringScheme,
        times: &mut SetupTimes,
    ) -> Bench {
        let t = Instant::now();
        let pairs = gen();
        times.gen_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let scheme = scheme();
        inputs::build_profiles(&scheme, &pairs);
        times.scoring_ms = t.elapsed().as_secs_f64() * 1e3;
        Bench {
            scheme,
            pairs,
            refs: Vec::new(),
        }
    }

    /// Computes every pair's independent `i64` reference score.
    pub fn compute_refs(&mut self) {
        self.refs = self
            .pairs
            .iter()
            .map(|p| reference(&self.scheme, p))
            .collect();
    }

    /// Runs pair `i` through the engine. With `AlignOptions::default()`
    /// a linear run is exactly `align` (one thread) or `align_with` (two);
    /// `align_affine` takes no options, so an affine run reports through
    /// `metrics` only.
    pub fn run(
        &self,
        mode: Mode,
        i: usize,
        opts: &AlignOptions,
        metrics: &Metrics,
    ) -> Result<AlignResult, AlignError> {
        let p = &self.pairs[i];
        let config = FastLsaConfig::default();
        match mode {
            Mode::Linear => align_opts(&p.a, &p.b, &self.scheme, config, opts, metrics),
            Mode::LinearP2 => align_opts(
                &p.a,
                &p.b,
                &self.scheme,
                config.with_threads(2),
                opts,
                metrics,
            ),
            Mode::Affine => align_affine(&p.a, &p.b, &self.scheme, config, metrics),
        }
    }

    /// Checks a result for pair `i` against its reference.
    pub fn check(&self, i: usize, res: &Result<AlignResult, AlignError>) -> Outcome {
        let Ok(r) = res else {
            return Outcome::Error;
        };
        let p = &self.pairs[i];
        if !r.path.is_global(p.a.len(), p.b.len()) {
            return Outcome::Mismatch;
        }
        let rescored = match self.scheme.gap() {
            GapModel::Linear { .. } => r.path.score(&p.a, &p.b, &self.scheme),
            GapModel::Affine { .. } => {
                oracle::affine_path_score(&r.path, p.a.codes(), p.b.codes(), &self.scheme)
            }
        };
        oracle::check(r.score, rescored, self.refs[i])
    }
}

/// The independent reference score of one pair.
fn reference(scheme: &ScoringScheme, p: &Pair) -> i64 {
    match scheme.gap() {
        GapModel::Linear { .. } => oracle::linear_score(p.a.codes(), p.b.codes(), scheme),
        GapModel::Affine { .. } => oracle::affine_score(p.a.codes(), p.b.codes(), scheme),
    }
}

/// The engine mode of a single-caller workload.
pub fn mode_of(w: Workload) -> Mode {
    match w {
        Workload::DnaLong => Mode::Linear,
        Workload::ProteinAffine => Mode::Affine,
    }
}

/// Generates the workload's inputs and builds its scheme.
pub fn build(w: Workload, seed: u64, times: &mut SetupTimes) -> Bench {
    match w {
        Workload::ProteinAffine => Bench::build(
            || {
                inputs::pairs(
                    &Alphabet::protein(),
                    inputs::PROTEIN_LEN,
                    inputs::PROTEIN_IDENTITY,
                    inputs::LONG_PAIRS,
                    seed,
                )
            },
            inputs::affine_scheme,
            times,
        ),
        _ => Bench::build(
            || {
                inputs::pairs(
                    &Alphabet::dna(),
                    inputs::DNA_LONG_LEN,
                    inputs::DNA_IDENTITY,
                    inputs::LONG_PAIRS,
                    seed,
                )
            },
            inputs::dna_scheme,
            times,
        ),
    }
}

/// One full set-up: inputs, scheme and profiles, and a warm-up
/// operation.
pub fn setup(w: Workload, seed: u64) -> (Bench, SetupTimes) {
    let start = Instant::now();
    let mut times = SetupTimes::default();
    let bench = build(w, seed, &mut times);
    let warm = bench.run(mode_of(w), 0, &AlignOptions::default(), &Metrics::new());
    let _ = std::hint::black_box(warm);
    times.total_s = start.elapsed().as_secs_f64();
    (bench, times)
}

/// The untraced run: set up, compute references, align the pairs in
/// turn for `seconds`, then repeat the set-up for `setup_s`. Every
/// operation and set-up is timed between two host-speed probes and
/// reported normalised to the reference probe speed (see
/// [`hostspeed`]); the wall-clock figures are printed beside them.
pub fn run_untraced(w: Workload, seed: u64, seconds: f64) -> (EndToEnd, Vec<String>) {
    let mode = mode_of(w);
    let mut e2e = EndToEnd::default();
    let mut wall_setup_s = Vec::new();
    let mut probe = hostspeed::probe_ms();
    let (mut bench, times) = setup(w, seed);
    let after = hostspeed::probe_ms();
    e2e.setup_s
        .push(hostspeed::normalise(times.total_s, probe, after));
    wall_setup_s.push(times.total_s);
    bench.compute_refs();
    let pairs: Vec<&Pair> = bench.pairs.iter().collect();
    let mut lines = vec![inputs::describe(w.name(), w.why(), &pairs)];

    let n = bench.pairs.len();
    let mut cells = 0u64;
    let mut op_ms = Vec::new();
    let mut wall_ms = Vec::new();
    let mut probes = Vec::new();
    let mut ok_s = 0.0f64;
    rss::start_phase();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    probe = hostspeed::probe_ms();
    let mut i = 0usize;
    while Instant::now() < deadline || i < MIN_OPS {
        let p = i % n;
        let t = Instant::now();
        let res = bench.run(mode, p, &AlignOptions::default(), &Metrics::new());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let after = hostspeed::probe_ms();
        let norm_ms = hostspeed::normalise(ms, probe, after);
        probes.push(probe);
        probe = after;
        let outcome = bench.check(p, &res);
        if res.is_ok() {
            op_ms.push(norm_ms);
            wall_ms.push(ms);
        }
        if outcome == Outcome::Ok {
            cells += bench.pairs[p].cells();
            ok_s += norm_ms / 1e3;
        }
        e2e.tally.record(outcome);
        i += 1;
    }
    e2e.peak_rss_mib = rss::peak_mib().unwrap_or(0.0);
    e2e.latency = Window::of(&op_ms);
    // Per second of normalised operation time; when no operation
    // succeeded both are 0.
    let per_s = |x: f64| if ok_s > 0.0 { x / ok_s } else { 0.0 };
    e2e.ops_per_s = per_s(e2e.tally.ok as f64);
    e2e.gcells_per_s = per_s(cells as f64) / 1e9;
    for _ in 1..SETUP_REPS {
        let before = hostspeed::probe_ms();
        let total_s = setup(w, seed).1.total_s;
        let after = hostspeed::probe_ms();
        e2e.setup_s
            .push(hostspeed::normalise(total_s, before, after));
        wall_setup_s.push(total_s);
    }
    let med = |xs: &[f64]| stats::median(xs).unwrap_or(f64::NAN);
    lines.push(format!(
        "wall clock: op p50 {:.3} ms, setup {:.4} s; host-speed probe median {:.4} ms, reference {} ms",
        med(&wall_ms),
        med(&wall_setup_s),
        med(&probes),
        hostspeed::REFERENCE_PROBE_MS
    ));
    (e2e, lines)
}

/// Times `f`, returning its result and the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}
