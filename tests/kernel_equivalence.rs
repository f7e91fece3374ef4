//! Differential suite: every DP kernel backend must be **bit-identical**
//! to the scalar reference — same scores, same [`Metrics`] cell counts,
//! same tracebacks — on randomized sequences, schemes, and boundaries.
//!
//! This is the contract that makes backend selection transparent: a run
//! on AVX2 and a run on a scalar-only machine must produce byte-identical
//! output. The SIMD kernels use an exact algebraic reformulation of the
//! recurrence (prefix-max scan), so equality here is integer equality,
//! not approximation.
//!
//! The affine (Gotoh) fills behind `Kernel::fill_affine_*` are under the
//! same contract against the scalar loops in `flsa_dp::affine`, and an
//! affine alignment's path bytes must equal the Gotoh oracle's on every
//! backend.
//!
//! The inter-sequence [`BatchKernel`] is under the same contract: a batch
//! of independent pairs must return exactly the results of aligning each
//! pair alone on the scalar kernel, including when `i16` saturation
//! forces per-lane fallback.
//!
//! Set `FLSA_KERNEL_FORCE=scalar` (comma-separated backend names) to
//! restrict the swept set — CI uses this to exercise the portable
//! backends on machines whose SIMD features it cannot assume (a
//! scalar-forced kernel also pins the batch kernel to its portable
//! striped path).

use fastlsa_core::{align_opts, AlignOptions, FastLsaConfig};
use flsa_dp::affine::{self, AffineBoundary, NEG};
use flsa_dp::kernel::{fill_dir, fill_full, fill_last_row_col};
use flsa_dp::{BatchJob, BatchKernel, Boundary, Kernel, KernelBackend, Metrics};
use flsa_fullmatrix::gotoh::gotoh;
use flsa_fullmatrix::{needleman_wunsch, needleman_wunsch_kernel};
use flsa_hirschberg::{hirschberg_kernel, HirschbergConfig};
use flsa_scoring::{tables, GapModel, ScoringScheme};
use flsa_seq::{Alphabet, Sequence};

/// Deterministic xorshift64* — no external RNG dependency.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Uniform in `[lo, hi]`.
    fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        lo + self.below((hi - lo + 1) as u64) as i32
    }
}

/// Backends under test: `FLSA_KERNEL_FORCE` (comma-separated names) when
/// set, every CPU-supported backend otherwise. Scalar is always included
/// as the reference.
fn backends() -> Vec<KernelBackend> {
    let mut set = match std::env::var("FLSA_KERNEL_FORCE") {
        Ok(csv) => csv
            .split(',')
            .map(|name| {
                KernelBackend::parse(name)
                    .unwrap_or_else(|| panic!("FLSA_KERNEL_FORCE: unknown backend {name:?}"))
            })
            .collect(),
        Err(_) => KernelBackend::available(),
    };
    if !set.contains(&KernelBackend::Scalar) {
        set.insert(0, KernelBackend::Scalar);
    }
    for b in &set {
        assert!(b.is_available(), "backend {b} is not available on this CPU");
    }
    set
}

fn random_codes(rng: &mut Rng, len: usize, alphabet_size: u8) -> Vec<u8> {
    (0..len)
        .map(|_| rng.below(alphabet_size as u64) as u8)
        .collect()
}

/// A random but *consistent* boundary: arbitrary values with the shared
/// corner, exercising the kernels away from the global gap ramp (inside
/// FastLSA, boundaries are grid-cache slices of arbitrary shape).
fn random_boundary(rng: &mut Rng, rows: usize, cols: usize) -> Boundary {
    let corner = rng.range_i32(-50, 50);
    let mut top = vec![corner];
    let mut left = vec![corner];
    for _ in 0..cols {
        let prev = *top.last().unwrap();
        top.push(prev + rng.range_i32(-12, 6));
    }
    for _ in 0..rows {
        let prev = *left.last().unwrap();
        left.push(prev + rng.range_i32(-12, 6));
    }
    Boundary::new(top, left)
}

fn schemes() -> Vec<ScoringScheme> {
    vec![
        ScoringScheme::dna_default(),
        ScoringScheme::new(tables::dna_default(), GapModel::linear(-3)),
        ScoringScheme::new(tables::identity(Alphabet::dna()), GapModel::linear(-1)),
        ScoringScheme::new(tables::blosum62(), GapModel::linear(-8)),
        ScoringScheme::paper_example(),
    ]
}

#[test]
fn fill_kernels_match_scalar_on_random_rectangles() {
    let mut rng = Rng::new(0xd1ff);
    let schemes = schemes();
    for case in 0..60 {
        let scheme = &schemes[case % schemes.len()];
        let codes = scheme.matrix().alphabet().len() as u8;
        // Skew toward widths that cross the vectorization cutoff and the
        // lane width, including degenerate 0/1-sized rectangles.
        let rows = rng.below(40) as usize;
        let cols = match case % 4 {
            0 => rng.below(8) as usize,
            1 => 8 + rng.below(16) as usize,
            _ => 16 + rng.below(120) as usize,
        };
        let a = random_codes(&mut rng, rows, codes);
        let b = random_codes(&mut rng, cols, codes);
        let bound = random_boundary(&mut rng, rows, cols);

        let m_ref = Metrics::new();
        let full_ref = fill_full(&a, &b, &bound.top, &bound.left, scheme, &m_ref);
        let mut bottom_ref = vec![0i32; cols + 1];
        let mut right_ref = vec![0i32; rows + 1];
        fill_last_row_col(
            &a,
            &b,
            &bound.top,
            &bound.left,
            scheme,
            &mut bottom_ref,
            Some(&mut right_ref),
            &m_ref,
        );
        let (dirs_ref, last_ref) = fill_dir(&a, &b, &bound.top, &bound.left, scheme, &m_ref);

        for backend in backends() {
            let kernel = Kernel::try_new(backend).unwrap();
            let m = Metrics::new();
            let full = kernel.fill_full(&a, &b, &bound.top, &bound.left, scheme, &m);
            assert_eq!(full, full_ref, "case {case} backend {backend}: fill_full");

            let mut bottom = vec![0i32; cols + 1];
            let mut right = vec![0i32; rows + 1];
            kernel.fill_last_row_col(
                &a,
                &b,
                &bound.top,
                &bound.left,
                scheme,
                &mut bottom,
                Some(&mut right),
                &m,
            );
            assert_eq!(bottom, bottom_ref, "case {case} backend {backend}: bottom");
            assert_eq!(right, right_ref, "case {case} backend {backend}: right");

            let (dirs, last) = kernel.fill_dir(&a, &b, &bound.top, &bound.left, scheme, &m);
            assert_eq!(
                last, last_ref,
                "case {case} backend {backend}: dir last row"
            );
            for i in 0..=rows {
                for j in 0..=cols {
                    assert_eq!(
                        dirs.get(i, j),
                        dirs_ref.get(i, j),
                        "case {case} backend {backend}: dir ({i},{j})"
                    );
                }
            }
            // Identical work accounting: cells_computed must not depend
            // on the backend.
            assert_eq!(
                m.snapshot().cells_computed,
                m_ref.snapshot().cells_computed,
                "case {case} backend {backend}: cells_computed"
            );
        }
    }
}

#[test]
fn full_pipeline_matches_scalar_per_backend() {
    let mut rng = Rng::new(0xa11);
    let scheme = ScoringScheme::dna_default();
    let alphabet = Alphabet::dna();
    for case in 0..8 {
        let la = 40 + rng.below(260) as usize;
        let lb = 40 + rng.below(260) as usize;
        let a = Sequence::from_codes(
            "a",
            &alphabet,
            random_codes(&mut rng, la, alphabet.len() as u8),
        );
        let b = Sequence::from_codes(
            "b",
            &alphabet,
            random_codes(&mut rng, lb, alphabet.len() as u8),
        );

        let m_ref = Metrics::new();
        let nw_ref = needleman_wunsch(&a, &b, &scheme, &m_ref);
        let cfg = FastLsaConfig::new(4, 256);
        let fl_ref = align_opts(
            &a,
            &b,
            &scheme,
            cfg,
            &AlignOptions {
                kernel: Some(KernelBackend::Scalar),
                ..AlignOptions::default()
            },
            &m_ref,
        )
        .unwrap();

        for backend in backends() {
            let kernel = Kernel::try_new(backend).unwrap();
            let m = Metrics::new();

            let nw = needleman_wunsch_kernel(&a, &b, &scheme, &kernel, &m);
            assert_eq!(
                nw.score, nw_ref.score,
                "case {case} backend {backend}: nw score"
            );
            assert_eq!(
                nw.path, nw_ref.path,
                "case {case} backend {backend}: nw path"
            );

            let h = hirschberg_kernel(
                &a,
                &b,
                &scheme,
                HirschbergConfig { base_cells: 128 },
                &kernel,
                &m,
            );
            assert_eq!(
                h.score, nw_ref.score,
                "case {case} backend {backend}: hirschberg"
            );

            let fl = align_opts(
                &a,
                &b,
                &scheme,
                cfg,
                &AlignOptions {
                    kernel: Some(backend),
                    ..AlignOptions::default()
                },
                &m,
            )
            .unwrap();
            assert_eq!(
                fl.score, fl_ref.score,
                "case {case} backend {backend}: fastlsa score"
            );
            assert_eq!(
                fl.path, fl_ref.path,
                "case {case} backend {backend}: fastlsa path"
            );
        }
    }
}

#[test]
fn paper_worked_example_scores_82_on_every_backend() {
    let scheme = ScoringScheme::paper_example();
    let a = Sequence::from_str("a", scheme.alphabet(), "TLDKLLKD").unwrap();
    let b = Sequence::from_str("b", scheme.alphabet(), "TDVLKAD").unwrap();
    for backend in backends() {
        let kernel = Kernel::try_new(backend).unwrap();
        let metrics = Metrics::new();
        let r = needleman_wunsch_kernel(&a, &b, &scheme, &kernel, &metrics);
        assert_eq!(r.score, 82, "backend {backend}");
        let h = hirschberg_kernel(
            &a,
            &b,
            &scheme,
            HirschbergConfig { base_cells: 16 },
            &kernel,
            &metrics,
        );
        assert_eq!(h.score, 82, "backend {backend} (hirschberg)");
        let fl = align_opts(
            &a,
            &b,
            &scheme,
            FastLsaConfig::new(2, 16),
            &AlignOptions {
                kernel: Some(backend),
                ..AlignOptions::default()
            },
            &metrics,
        )
        .unwrap();
        assert_eq!(fl.score, 82, "backend {backend} (fastlsa)");
    }
}

#[test]
fn unavailable_or_unknown_backends_are_rejected_cleanly() {
    assert!(KernelBackend::parse("no-such-simd").is_none());
    assert!(
        KernelBackend::parse("lanes").is_none(),
        "lanes backend is gone"
    );
    // Whatever this CPU supports, requesting it through AlignOptions
    // must validate; the scalar fallback must always exist.
    assert!(KernelBackend::Scalar.is_available());
    assert!(Kernel::try_new(KernelBackend::Scalar).is_ok());
}

/// The scalar reference for one batch job: single-pair packed-direction
/// fill + canonical traceback on the scalar kernel.
fn single_reference(job: &BatchJob<'_>, metrics: &Metrics) -> flsa_dp::AlignResult {
    let batch = BatchKernel::new(Kernel::scalar());
    let mut r = batch.align_batch(std::slice::from_ref(job), metrics);
    assert_eq!(r.len(), 1);
    r.remove(0)
}

#[test]
fn batch_kernel_matches_sequential_scalar_on_random_pair_sets() {
    let mut rng = Rng::new(0xba7c);
    let schemes = schemes();
    for backend in backends() {
        let kernel = Kernel::try_new(backend).unwrap();
        let batch = BatchKernel::new(kernel);
        for round in 0..4 {
            // Pair counts straddling the lane width, with empty and
            // length-1 sequences mixed in.
            let n_jobs = 1 + rng.below(40) as usize;
            let pairs: Vec<(Vec<u8>, Vec<u8>, usize)> = (0..n_jobs)
                .map(|_| {
                    let s = rng.below(schemes.len() as u64) as usize;
                    let codes = schemes[s].matrix().alphabet().len() as u8;
                    let la = rng.below(60) as usize;
                    let lb = rng.below(60) as usize;
                    (
                        random_codes(&mut rng, la, codes),
                        random_codes(&mut rng, lb, codes),
                        s,
                    )
                })
                .collect();
            let jobs: Vec<BatchJob<'_>> = pairs
                .iter()
                .map(|(a, b, s)| BatchJob {
                    a,
                    b,
                    scheme: &schemes[*s],
                })
                .collect();
            let got = batch.align_batch(&jobs, &Metrics::new());
            assert_eq!(got.len(), jobs.len());
            for (k, (job, r)) in jobs.iter().zip(got.iter()).enumerate() {
                let want = single_reference(job, &Metrics::new());
                assert_eq!(
                    r, &want,
                    "backend {backend} round {round} job {k}: batch diverged"
                );
            }
        }
    }
}

#[test]
fn batch_kernel_saturating_scores_force_exact_fallback() {
    // +2000/−2000 climbs out of the i16 safe zone within ~16 matched
    // residues: admitted upfront, flagged by the runtime min/max tracker,
    // recomputed exactly. Results must still match the scalar single path.
    let m = flsa_scoring::SubstitutionMatrix::match_mismatch("sat", Alphabet::dna(), 2000, -2000);
    let scheme = ScoringScheme::new(m, GapModel::linear(-2));
    let mut rng = Rng::new(0x5a7);
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..12)
        .map(|k| {
            if k % 3 == 0 {
                // Identical pair: monotone climb, guaranteed saturation.
                let a = random_codes(&mut rng, 40 + k, 4);
                (a.clone(), a)
            } else {
                (
                    random_codes(&mut rng, 30 + k, 4),
                    random_codes(&mut rng, 25 + k, 4),
                )
            }
        })
        .collect();
    let jobs: Vec<BatchJob<'_>> = pairs
        .iter()
        .map(|(a, b)| BatchJob {
            a,
            b,
            scheme: &scheme,
        })
        .collect();
    for backend in backends() {
        let batch = BatchKernel::new(Kernel::try_new(backend).unwrap());
        let got = batch.align_batch(&jobs, &Metrics::new());
        for (k, (job, r)) in jobs.iter().zip(got.iter()).enumerate() {
            let want = single_reference(job, &Metrics::new());
            assert_eq!(r, &want, "backend {backend} job {k}: saturating batch");
        }
    }
}

#[test]
fn paper_worked_example_scores_82_in_a_batch() {
    let scheme = ScoringScheme::paper_example();
    let a = Sequence::from_str("a", scheme.alphabet(), "TLDKLLKD").unwrap();
    let b = Sequence::from_str("b", scheme.alphabet(), "TDVLKAD").unwrap();
    // The paper pair in every lane of a full chunk plus a ragged tail.
    let jobs = vec![
        BatchJob {
            a: a.codes(),
            b: b.codes(),
            scheme: &scheme,
        };
        21
    ];
    for backend in backends() {
        let batch = BatchKernel::new(Kernel::try_new(backend).unwrap());
        for (k, r) in batch.align_batch(&jobs, &Metrics::new()).iter().enumerate() {
            assert_eq!(r.score, 82, "backend {backend} lane {k}");
            assert!(r.path.is_global(a.len(), b.len()), "backend {backend}");
        }
    }
}

// ---------------------------------------------------------------------
// Affine (Gotoh) kernels: the two-pass row kernel behind
// `Kernel::fill_affine_*` against the scalar free functions in
// `flsa_dp::affine`, which stay the cell-at-a-time reference.
// ---------------------------------------------------------------------

/// An owned affine boundary: `H`/`F` along the top row, `H`/`E` down the
/// left column.
struct AffineBound {
    top_h: Vec<i32>,
    top_v: Vec<i32>,
    left_h: Vec<i32>,
    left_e: Vec<i32>,
}

impl AffineBound {
    fn view(&self) -> AffineBoundary<'_> {
        AffineBoundary {
            top_h: &self.top_h,
            top_v: &self.top_v,
            left_h: &self.left_h,
            left_e: &self.left_e,
        }
    }
}

/// A random corner-consistent affine boundary. The gap-state entries
/// `top_v[0]`/`left_e[0]` are always the [`NEG`] placeholders no cell
/// reads; the rest are either all unreachable (as on the whole problem's
/// boundary) or arbitrary values at or below the `H` beside them, with
/// some unreachable ones mixed in (as on grid-cache lines).
fn random_affine_boundary(rng: &mut Rng, rows: usize, cols: usize) -> AffineBound {
    let h = random_boundary(rng, rows, cols);
    let all_neg = rng.below(3) == 0;
    let gap_state = |hs: &[i32], rng: &mut Rng| -> Vec<i32> {
        hs.iter()
            .enumerate()
            .map(|(k, &v)| {
                if k == 0 || all_neg || rng.below(5) == 0 {
                    NEG
                } else {
                    v - rng.range_i32(0, 30)
                }
            })
            .collect()
    };
    let top_v = gap_state(&h.top, rng);
    let left_e = gap_state(&h.left, rng);
    AffineBound {
        top_h: h.top,
        top_v,
        left_h: h.left,
        left_e,
    }
}

/// A random affine scheme over the DNA, protein or paper matrix, with
/// `open` and `extend` drawn from ranges that include 0.
fn random_affine_scheme(rng: &mut Rng, case: usize) -> ScoringScheme {
    let matrix = match case % 3 {
        0 => tables::dna_default(),
        1 => tables::blosum62(),
        _ => tables::mdm_fragment(),
    };
    let open = -rng.range_i32(0, 20);
    let extend = -rng.range_i32(0, 6);
    ScoringScheme::new(matrix, GapModel::affine(open, extend))
}

/// Asserts that every backend's `fill_affine_edges_into` and
/// `fill_affine_full` equal the scalar free functions on one rectangle,
/// including the cell count credited to `Metrics`.
fn assert_affine_fills_match(
    a: &[u8],
    b: &[u8],
    bnd: &AffineBound,
    scheme: &ScoringScheme,
    what: &str,
) {
    let (rows, cols) = (a.len(), b.len());
    let m_ref = Metrics::new();
    let mut bottom_ref = vec![0i32; 2 * (cols + 1)];
    let mut right_ref = vec![0i32; 2 * (rows + 1)];
    affine::fill_affine_edges_into(
        a,
        b,
        bnd.view(),
        scheme,
        &mut bottom_ref,
        &mut right_ref,
        &m_ref,
    );
    let full_ref = affine::fill_affine_full(a, b, bnd.view(), scheme, Default::default(), &m_ref);
    for backend in backends() {
        let kernel = Kernel::try_new(backend).unwrap();
        let m = Metrics::new();
        // Stale contents must not leak into the result.
        let mut bottom = vec![7i32; 2 * (cols + 1)];
        let mut right = vec![7i32; 2 * (rows + 1)];
        kernel.fill_affine_edges_into(a, b, bnd.view(), scheme, &mut bottom, &mut right, &m);
        assert_eq!(bottom, bottom_ref, "{what} backend {backend}: bottom H+F");
        assert_eq!(right, right_ref, "{what} backend {backend}: right H+E");
        let full = kernel.fill_affine_full(a, b, bnd.view(), scheme, Default::default(), &m);
        assert_eq!(full.h, full_ref.h, "{what} backend {backend}: full H");
        assert_eq!(full.e, full_ref.e, "{what} backend {backend}: full E");
        assert_eq!(full.f, full_ref.f, "{what} backend {backend}: full F");
        assert_eq!(
            m.snapshot().cells_computed,
            m_ref.snapshot().cells_computed,
            "{what} backend {backend}: cells_computed"
        );
    }
}

#[test]
fn affine_fills_match_scalar_on_random_rectangles() {
    let mut rng = Rng::new(0xaff1);
    for case in 0..240 {
        let scheme = random_affine_scheme(&mut rng, case);
        let codes = scheme.matrix().alphabet().len() as u8;
        // Widths below, at and across the vectorization cutoff and every
        // lane width, with odd tails and degenerate 0/1-sized rectangles.
        let rows = rng.below(40) as usize;
        let cols = match case % 4 {
            0 => rng.below(8) as usize,
            1 => 8 + rng.below(16) as usize,
            _ => 16 + rng.below(120) as usize,
        };
        let a = random_codes(&mut rng, rows, codes);
        let b = random_codes(&mut rng, cols, codes);
        let bnd = random_affine_boundary(&mut rng, rows, cols);
        assert_affine_fills_match(&a, &b, &bnd, &scheme, &format!("case {case}"));
    }
}

#[test]
fn affine_fills_match_scalar_near_the_overflow_envelope() {
    // Boundaries that put the rectangle at the far corner of a problem
    // of maximal certified span (`fastlsa_core::max_safe_span`'s
    // envelope: `|H| + span·(max(S,G)+G) + G ≤ i32::MAX`, with the
    // affine `G = |open| + |extend|`), for both score signs. The scalar
    // reference runs with overflow checks in test builds, so agreement
    // also shows the u-domain intermediates did not wrap.
    let mut rng = Rng::new(0xe9e1);
    for case in 0..48 {
        let scheme = random_affine_scheme(&mut rng, case);
        let (open, extend) = affine::affine_params(&scheme);
        let codes = scheme.matrix().alphabet().len() as u8;
        let rows = 1 + rng.below(24) as usize;
        let cols = 16 + rng.below(48) as usize;
        let a = random_codes(&mut rng, rows, codes);
        let b = random_codes(&mut rng, cols, codes);
        let s = i64::from(scheme.matrix().max_score().abs())
            .max(i64::from(scheme.matrix().min_score().abs()));
        let g = scheme.gap().max_penalty_abs();
        let budget =
            i64::from(i32::MAX) - (rows + cols) as i64 * (s.max(g) + g) - g - rng.below(64) as i64;
        let offset = if case % 2 == 0 { budget } else { -budget };
        let ramp = |len: usize| -> Vec<i32> {
            (0..=len)
                .map(|k| {
                    let v = if k == 0 {
                        offset
                    } else {
                        offset + i64::from(open) + i64::from(extend) * k as i64
                    };
                    i32::try_from(v).expect("envelope keeps the ramp in i32")
                })
                .collect()
        };
        let bnd = AffineBound {
            top_h: ramp(cols),
            top_v: vec![NEG; cols + 1],
            left_h: ramp(rows),
            left_e: vec![NEG; rows + 1],
        };
        assert_affine_fills_match(&a, &b, &bnd, &scheme, &format!("envelope case {case}"));
    }
}

#[test]
fn positive_open_schemes_take_the_scalar_affine_loop() {
    // `GapModel::affine` refuses `open > 0`, but the variant's fields are
    // public. The two-pass reformulation is exact only for `open ≤ 0`
    // (and the kernel admits it only with `extend ≤ 0` too), so a
    // hand-built scheme outside that range must fall back to the scalar
    // loop and still give its result.
    let mut rng = Rng::new(0x0be1);
    for (case, (open, extend)) in [(7, -1), (3, 0), (0, 2), (12, -4)].into_iter().enumerate() {
        let scheme = ScoringScheme::new(tables::dna_default(), GapModel::Affine { open, extend });
        let a = random_codes(&mut rng, 30, 4);
        let b = random_codes(&mut rng, 70, 4);
        let bnd = random_affine_boundary(&mut rng, a.len(), b.len());
        assert_affine_fills_match(&a, &b, &bnd, &scheme, &format!("open {open} case {case}"));
    }
}

#[test]
fn affine_alignment_path_bytes_match_gotoh_per_backend() {
    let mut rng = Rng::new(0x90f0);
    for case in 0..12 {
        let scheme = random_affine_scheme(&mut rng, case);
        let alphabet = scheme.alphabet().clone();
        let codes = alphabet.len() as u8;
        let la = 40 + rng.below(260) as usize;
        let lb = 40 + rng.below(260) as usize;
        let a = Sequence::from_codes("a", &alphabet, random_codes(&mut rng, la, codes));
        let b = Sequence::from_codes("b", &alphabet, random_codes(&mut rng, lb, codes));
        let want = gotoh(&a, &b, &scheme, &Metrics::new());
        let cfg = FastLsaConfig::new(2 + case % 4, 256 << (case % 3));
        for backend in backends() {
            let opts = AlignOptions {
                kernel: Some(backend),
                ..AlignOptions::default()
            };
            let got = align_opts(&a, &b, &scheme, cfg, &opts, &Metrics::new()).unwrap();
            assert_eq!(
                got.score, want.score,
                "case {case} backend {backend}: score"
            );
            assert_eq!(got.path, want.path, "case {case} backend {backend}: path");
        }
    }
}

#[test]
fn repeated_affine_fills_are_allocation_free_in_steady_state() {
    let scheme = ScoringScheme::new(tables::blosum62(), GapModel::affine(-10, -2));
    let mut rng = Rng::new(0xa7e4);
    let a = random_codes(&mut rng, 120, 20);
    let b = random_codes(&mut rng, 333, 20);
    let bnd = random_affine_boundary(&mut rng, a.len(), b.len());
    let metrics = Metrics::new();
    for backend in backends() {
        let kernel = Kernel::try_new(backend).unwrap();
        let mut bottom = vec![0i32; 2 * (b.len() + 1)];
        let mut right = vec![0i32; 2 * (a.len() + 1)];
        let mut storage: [Vec<i32>; 3] = Default::default();
        let mut fill = |storage: [Vec<i32>; 3]| {
            kernel.fill_affine_edges_into(
                &a,
                &b,
                bnd.view(),
                &scheme,
                &mut bottom,
                &mut right,
                &metrics,
            );
            kernel
                .fill_affine_full(&a, &b, bnd.view(), &scheme, storage, &metrics)
                .into_storage()
        };
        // Warm-up: the first fills grow the arena to its high-water mark.
        storage = fill(storage);
        let allocs = kernel.arena().fresh_allocs();
        let held = kernel.arena().held_bytes();
        for _ in 0..20 {
            storage = fill(storage);
        }
        assert_eq!(
            kernel.arena().fresh_allocs(),
            allocs,
            "backend {backend}: steady-state affine fills must not allocate"
        );
        assert_eq!(kernel.arena().held_bytes(), held, "backend {backend}");
    }
}
