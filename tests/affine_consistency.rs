//! Cross-checks of the affine-gap extension: the linear-space
//! Myers–Miller implementation against the full-matrix Gotoh oracle, and
//! the degenerate relationships back to the linear-gap algorithms.

use fastlsa::fullmatrix::gotoh::{gotoh, score_path_affine};
use fastlsa::hirschberg::myers_miller_affine;
use fastlsa::prelude::*;
use fastlsa::scoring::tables;
use proptest::prelude::*;

fn to_seq(codes: &[u8]) -> Sequence {
    Sequence::from_codes("s", &Alphabet::dna(), codes.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Myers-Miller affine equals Gotoh on arbitrary inputs and gap
    /// parameters, and its path re-scores to the reported optimum.
    #[test]
    fn myers_miller_matches_gotoh(
        a in prop::collection::vec(0u8..4, 0..90),
        b in prop::collection::vec(0u8..4, 0..90),
        open in -20i32..=0,
        extend in -6i32..=-1,
    ) {
        let scheme = ScoringScheme::new(tables::dna_default(), GapModel::affine(open, extend));
        let sa = to_seq(&a);
        let sb = to_seq(&b);
        let metrics = Metrics::new();
        let full = gotoh(&sa, &sb, &scheme, &metrics);
        let mm = myers_miller_affine(&sa, &sb, &scheme, &metrics);
        prop_assert_eq!(mm.score, full.score);
        prop_assert!(mm.path.is_global(sa.len(), sb.len()));
        prop_assert_eq!(score_path_affine(&mm.path, &sa, &sb, &scheme), mm.score);
    }

    /// Affine FastLSA (the grid-cache extension) equals Gotoh for every
    /// division factor and base-case size.
    #[test]
    fn affine_fastlsa_matches_gotoh(
        a in prop::collection::vec(0u8..4, 0..80),
        b in prop::collection::vec(0u8..4, 0..80),
        open in -16i32..=0,
        extend in -5i32..=-1,
        k in 2usize..6,
        base in 9usize..2000,
    ) {
        let scheme = ScoringScheme::new(tables::dna_default(), GapModel::affine(open, extend));
        let sa = to_seq(&a);
        let sb = to_seq(&b);
        let metrics = Metrics::new();
        let full = gotoh(&sa, &sb, &scheme, &metrics);
        let fl = fastlsa::core::align_affine(&sa, &sb, &scheme, FastLsaConfig::new(k, base), &metrics).unwrap();
        prop_assert_eq!(fl.score, full.score);
        prop_assert!(fl.path.is_global(sa.len(), sb.len()));
        prop_assert_eq!(score_path_affine(&fl.path, &sa, &sb, &scheme), fl.score);
    }

    /// With a zero open cost the affine algorithms equal the linear ones.
    #[test]
    fn zero_open_degenerates_to_linear(
        a in prop::collection::vec(0u8..4, 0..70),
        b in prop::collection::vec(0u8..4, 0..70),
        extend in -8i32..=-1,
    ) {
        let affine = ScoringScheme::new(tables::dna_default(), GapModel::affine(0, extend));
        let linear = ScoringScheme::new(tables::dna_default(), GapModel::linear(extend));
        let sa = to_seq(&a);
        let sb = to_seq(&b);
        let metrics = Metrics::new();
        let mm = myers_miller_affine(&sa, &sb, &affine, &metrics);
        let fl = fastlsa::align(&sa, &sb, &linear, &metrics).unwrap();
        prop_assert_eq!(mm.score, fl.score);
    }

    /// The affine optimum is never above the linear optimum with
    /// per-symbol cost `extend` (affine adds the open on top), and never
    /// below the linear optimum with per-symbol cost `open + extend`
    /// (which over-charges every symbol of runs longer than one).
    #[test]
    fn affine_score_sandwich(
        a in prop::collection::vec(0u8..4, 0..60),
        b in prop::collection::vec(0u8..4, 0..60),
        open in -15i32..=0,
        extend in -5i32..=-1,
    ) {
        let affine = ScoringScheme::new(tables::dna_default(), GapModel::affine(open, extend));
        let upper = ScoringScheme::new(tables::dna_default(), GapModel::linear(extend));
        let lower = ScoringScheme::new(
            tables::dna_default(),
            GapModel::linear(open.saturating_add(extend)),
        );
        let sa = to_seq(&a);
        let sb = to_seq(&b);
        let metrics = Metrics::new();
        let mid = myers_miller_affine(&sa, &sb, &affine, &metrics).score;
        let hi = fastlsa::align(&sa, &sb, &upper, &metrics).unwrap().score;
        let lo = fastlsa::align(&sa, &sb, &lower, &metrics).unwrap().score;
        prop_assert!(mid <= hi, "affine {mid} > extend-only {hi}");
        prop_assert!(mid >= lo, "affine {mid} < open+extend-per-symbol {lo}");
    }

    /// Banded alignment with a full-width band equals the exact optimum,
    /// and semiglobal with no free ends equals global.
    #[test]
    fn band_and_ends_degenerate_to_global(
        a in prop::collection::vec(0u8..4, 0..50),
        b in prop::collection::vec(0u8..4, 0..50),
    ) {
        let scheme = ScoringScheme::dna_default();
        let sa = to_seq(&a);
        let sb = to_seq(&b);
        let metrics = Metrics::new();
        let exact = fastlsa::fullmatrix::needleman_wunsch(&sa, &sb, &scheme, &metrics);
        let banded = fastlsa::fullmatrix::banded_needleman_wunsch(
            &sa, &sb, &scheme, a.len() + b.len() + 1, &metrics,
        );
        prop_assert_eq!(banded.score, exact.score);
        let semi = fastlsa::fullmatrix::semiglobal(
            &sa, &sb, &scheme, fastlsa::fullmatrix::EndsFree::default(), &metrics,
        );
        prop_assert_eq!(semi.score, exact.score);
    }
}

fn dna(s: &str) -> Sequence {
    Sequence::from_str("s", &Alphabet::dna(), s).unwrap()
}

/// The i32 overflow guard covers affine alignments: an open cost this
/// large leaves no safe span, so the run is refused instead of returning
/// a wrapped score.
#[test]
fn affine_overflow_guard_refuses_unsafe_spans() {
    let scheme = ScoringScheme::new(tables::dna_default(), GapModel::affine(-1_000_000_000, -1));
    let err = fastlsa::core::align_affine(
        &dna("ACGTACGTAC"),
        &dna("ACGTAC"),
        &scheme,
        FastLsaConfig::default(),
        &Metrics::new(),
    )
    .unwrap_err();
    assert_eq!(
        err,
        AlignError::Config(ConfigError::ScoreOverflow {
            span: 16,
            max_span: 0
        })
    );
}

/// Every entry point that cannot run a gap model says so with a typed
/// error instead of panicking.
#[test]
fn unsupported_gap_models_are_typed_errors() {
    struct NullSink;
    impl fastlsa::core::CheckpointSink for NullSink {
        fn save(&self, _: &fastlsa::core::CheckpointState) -> Result<u64, String> {
            Ok(0)
        }
    }
    let linear = ScoringScheme::dna_default();
    let affine = ScoringScheme::new(tables::dna_default(), GapModel::affine(-10, -2));
    let (a, b) = (dna("ACGTACGTAC"), dna("ACGTAC"));
    let m = Metrics::new();
    let unsupported = |r: Result<_, AlignError>| {
        matches!(
            r,
            Err(AlignError::Config(ConfigError::UnsupportedGapModel { .. }))
        )
    };
    let cfg = FastLsaConfig::new(4, 16);
    assert!(unsupported(
        fastlsa::core::align_affine(&a, &b, &linear, cfg, &m).map(|_| ())
    ));
    assert!(unsupported(
        fastlsa::align_batch(&[(&a, &b)], &affine, &AlignOptions::default(), &m).map(|_| ())
    ));
    let state = fastlsa::core::CheckpointState {
        config: cfg,
        blocks_done: 0,
        generation: 0,
        rev_moves: Vec::new(),
        frames: Vec::new(),
    };
    assert!(unsupported(
        fastlsa::core::align_resume(&a, &b, &affine, state, &AlignOptions::default(), &m)
            .map(|_| ())
    ));
    let threaded = cfg.with_threads(2);
    assert!(unsupported(
        fastlsa::align_opts(&a, &b, &affine, threaded, &AlignOptions::default(), &m).map(|_| ())
    ));
    let checkpointed = AlignOptions {
        checkpoint: Some(fastlsa::core::CheckpointPolicy::new(
            1,
            std::sync::Arc::new(NullSink),
        )),
        ..AlignOptions::default()
    };
    assert!(unsupported(
        fastlsa::align_opts(&a, &b, &affine, cfg, &checkpointed, &m).map(|_| ())
    ));
}

/// Affine runs share the degradation ladder: a budget below the default
/// footprint (three 4 MiB base-case layers) walks down the rungs, and the
/// result still equals Gotoh in score and in the re-scored path.
#[test]
fn affine_budget_descends_the_ladder_and_matches_gotoh() {
    let scheme = ScoringScheme::new(tables::dna_default(), GapModel::affine(-12, -2));
    let (a, b) = generate::homologous_pair("t", &Alphabet::dna(), 600, 0.8, 5).unwrap();
    let reg = std::sync::Arc::new(fastlsa::metrics::Registry::new());
    let opts = AlignOptions {
        budget_bytes: Some(256 << 10),
        registry: Some(reg.clone()),
        ..AlignOptions::default()
    };
    let metrics = Metrics::new();
    let r =
        fastlsa::align_opts(&a, &b, &scheme, FastLsaConfig::default(), &opts, &metrics).unwrap();
    let degrades = reg
        .snapshot()
        .counter(fastlsa::metrics::names::DEGRADE_STEPS_TOTAL)
        .unwrap_or(0);
    assert!(degrades >= 1, "the budget should force a degrade step");
    let full = gotoh(&a, &b, &scheme, &Metrics::new());
    assert_eq!(r.score, full.score);
    assert!(r.path.is_global(a.len(), b.len()));
    assert_eq!(score_path_affine(&r.path, &a, &b, &scheme), full.score);
}
