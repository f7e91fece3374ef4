//! Affine-gap FastLSA (extension; see DESIGN.md §6).
//!
//! The paper defines FastLSA for linear gap penalties. The same drive
//! loop runs affine gaps (`crate::solver`) once two things change:
//!
//! 1. **Richer grid lines.** A horizontal grid line caches `H` *and* `F`
//!    (vertical gap runs cross it); a vertical line caches `H` and `E`.
//!    Cache storage doubles — still `O(k·(m+n))`.
//! 2. **Stateful path head.** The traceback may leave a sub-problem in
//!    the middle of a gap run; the head therefore carries a
//!    [`GapState`](flsa_dp::affine::GapState), and the next sub-problem's
//!    traceback resumes in that layer (the run's open cost is charged
//!    exactly once because the boundary `F`/`E` values already include
//!    it).
//!
//! Parallel fills and checkpoints store one layer per grid line, so
//! [`crate::align_opts`] refuses them for affine schemes with
//! [`ConfigError::UnsupportedGapModel`]. The extension is validated
//! against Gotoh and Myers–Miller oracles.

use flsa_dp::{AlignResult, Metrics};
use flsa_scoring::{GapModel, ScoringScheme};
use flsa_seq::Sequence;

use crate::config::FastLsaConfig;
use crate::error::{AlignError, ConfigError};

/// Affine-gap global alignment with the FastLSA recursion: exactly
/// [`crate::align_with`], after checking that the scheme is affine.
///
/// Produces the same optimal score as [`flsa_fullmatrix::gotoh()`] in
/// FastLSA's adaptive memory footprint.
///
/// # Errors
///
/// Returns [`ConfigError::UnsupportedGapModel`] (wrapped in
/// [`AlignError::Config`]) when `scheme.gap()` is not affine, and the
/// errors of [`crate::align_with`] otherwise.
///
/// # Examples
///
/// ```
/// use fastlsa_core::{align_affine, FastLsaConfig};
/// use flsa_dp::Metrics;
/// use flsa_scoring::{tables, GapModel, ScoringScheme};
/// use flsa_seq::Sequence;
///
/// let scheme = ScoringScheme::new(tables::dna_default(), GapModel::affine(-10, -1));
/// let a = Sequence::from_str("a", scheme.alphabet(), "ACGTACCCCGTACGT").unwrap();
/// let b = Sequence::from_str("b", scheme.alphabet(), "ACGTACGTACGT").unwrap();
/// let metrics = Metrics::new();
/// let r = align_affine(&a, &b, &scheme, FastLsaConfig::new(4, 256), &metrics).unwrap();
/// assert!(r.path.is_global(a.len(), b.len()));
/// // 12 matches (+60) and one length-3 gap (-13): score 47.
/// assert_eq!(r.score, 47);
/// ```
pub fn align_affine(
    a: &Sequence,
    b: &Sequence,
    scheme: &ScoringScheme,
    config: FastLsaConfig,
    metrics: &Metrics,
) -> Result<AlignResult, AlignError> {
    if !matches!(scheme.gap(), GapModel::Affine { .. }) {
        return Err(ConfigError::UnsupportedGapModel {
            entry: "align_affine",
        }
        .into());
    }
    crate::align_with(a, b, scheme, config, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flsa_dp::Move;
    use flsa_fullmatrix::gotoh::gotoh;
    use flsa_scoring::tables;
    use flsa_seq::generate::{homologous_pair, random_sequence};
    use flsa_seq::Alphabet;

    fn scheme(open: i32, extend: i32) -> ScoringScheme {
        ScoringScheme::new(tables::dna_default(), GapModel::affine(open, extend))
    }

    #[test]
    fn matches_gotoh_on_fixed_cases() {
        let scheme = scheme(-10, -2);
        let cases = [
            ("ACGT", "ACGT"),
            ("AAAACCAAAA", "AAAAAAAA"),
            ("ACGTACGTACGTACGTACGT", "ACGTACGACGTACGGT"),
            ("A", "GGGGGGGG"),
            ("ACCCCCCCCCCA", "AA"),
        ];
        for (sa, sb) in cases {
            let a = Sequence::from_str("a", scheme.alphabet(), sa).unwrap();
            let b = Sequence::from_str("b", scheme.alphabet(), sb).unwrap();
            let metrics = Metrics::new();
            let oracle = gotoh(&a, &b, &scheme, &metrics);
            for k in [2usize, 3, 4] {
                for base in [16usize, 64, 1 << 20] {
                    let m = Metrics::new();
                    let r = align_affine(&a, &b, &scheme, FastLsaConfig::new(k, base), &m).unwrap();
                    assert_eq!(r.score, oracle.score, "{sa}/{sb} k={k} base={base}");
                }
            }
        }
    }

    #[test]
    fn matches_gotoh_on_random_homologs() {
        let scheme = scheme(-12, -1);
        for seed in 0..6 {
            let (a, b) = homologous_pair("t", &Alphabet::dna(), 250, 0.8, seed).unwrap();
            let metrics = Metrics::new();
            let oracle = gotoh(&a, &b, &scheme, &metrics);
            let r = align_affine(&a, &b, &scheme, FastLsaConfig::new(4, 512), &metrics).unwrap();
            assert_eq!(r.score, oracle.score, "seed {seed}");
            assert!(r.path.is_global(a.len(), b.len()));
        }
    }

    #[test]
    fn matches_gotoh_on_random_unrelated() {
        let scheme = scheme(-8, -3);
        for seed in 0..6 {
            let a = random_sequence("a", &Alphabet::dna(), 120, seed * 2);
            let b = random_sequence("b", &Alphabet::dna(), 140, seed * 2 + 1);
            let metrics = Metrics::new();
            let oracle = gotoh(&a, &b, &scheme, &metrics);
            let r = align_affine(&a, &b, &scheme, FastLsaConfig::new(3, 128), &metrics).unwrap();
            assert_eq!(r.score, oracle.score, "seed {seed}");
        }
    }

    #[test]
    fn long_gap_crossing_many_grid_lines() {
        // A 40-base gap with k=4 and a tiny base case: the run crosses
        // several grid rows, exercising the stateful head repeatedly.
        let scheme = scheme(-30, -1);
        let core = "ACGTACGTACGTACGTACGT";
        let a = Sequence::from_str(
            "a",
            scheme.alphabet(),
            &format!("{core}{}{core}", "C".repeat(40)),
        )
        .unwrap();
        let b = Sequence::from_str("b", scheme.alphabet(), &format!("{core}{core}")).unwrap();
        let metrics = Metrics::new();
        let oracle = gotoh(&a, &b, &scheme, &metrics);
        let r = align_affine(&a, &b, &scheme, FastLsaConfig::new(4, 64), &metrics).unwrap();
        assert_eq!(r.score, oracle.score);
        // The 40 Ups must be one contiguous run (single open), otherwise
        // the rescore would fall short of the oracle.
        let ups: Vec<usize> = r
            .path
            .moves()
            .iter()
            .enumerate()
            .filter(|(_, &m)| m == Move::Up)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(ups.len(), 40);
        assert!(ups.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn memory_stays_linear() {
        let scheme = scheme(-10, -2);
        let (a, b) = homologous_pair("t", &Alphabet::dna(), 1500, 0.85, 4).unwrap();
        let m_fl = Metrics::new();
        align_affine(&a, &b, &scheme, FastLsaConfig::new(8, 1 << 12), &m_fl).unwrap();
        let m_g = Metrics::new();
        gotoh(&a, &b, &scheme, &m_g);
        assert!(
            m_fl.snapshot().peak_bytes * 10 < m_g.snapshot().peak_bytes,
            "fastlsa-affine {} vs gotoh {}",
            m_fl.snapshot().peak_bytes,
            m_g.snapshot().peak_bytes
        );
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let scheme = scheme(-10, -2);
        let metrics = Metrics::new();
        let e = Sequence::from_str("e", scheme.alphabet(), "").unwrap();
        let b = Sequence::from_str("b", scheme.alphabet(), "ACG").unwrap();
        let cfg = FastLsaConfig::new(2, 8);
        assert_eq!(
            align_affine(&e, &b, &scheme, cfg, &metrics).unwrap().score,
            -16
        );
        assert_eq!(
            align_affine(&b, &e, &scheme, cfg, &metrics).unwrap().score,
            -16
        );
        assert_eq!(
            align_affine(&e, &e, &scheme, cfg, &metrics).unwrap().score,
            0
        );
    }

    #[test]
    fn linear_scheme_rejected() {
        let scheme = ScoringScheme::dna_default();
        let a = Sequence::from_str("a", scheme.alphabet(), "ACG").unwrap();
        let metrics = Metrics::new();
        let err = align_affine(&a, &a, &scheme, FastLsaConfig::default(), &metrics).unwrap_err();
        assert_eq!(
            err,
            AlignError::Config(ConfigError::UnsupportedGapModel {
                entry: "align_affine"
            }),
            "linear gap model must be rejected as a config error"
        );
    }
}
