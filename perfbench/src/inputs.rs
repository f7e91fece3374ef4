//! Seeded workload inputs, made with the `flsa-seq` generators.
//!
//! The same `--seed` gives byte-identical inputs; every workload prints
//! its shapes, `Σ m·n` and an input digest so two runs can show they
//! measured the same thing.

use flsa_scoring::{tables, GapModel, QueryProfile, ScoringScheme};
use flsa_seq::generate::homologous_pair;
use flsa_seq::{Alphabet, Sequence};
use flsa_serve::AlignRequest;

/// Residues of each `dna-long` ancestor.
pub const DNA_LONG_LEN: usize = 20_000;
pub const DNA_IDENTITY: f64 = 0.80;
/// Distinct pairs a long workload cycles through. Op time depends on the
/// pair beyond its size (±10% between 8k protein pairs of one seed), and
/// the median op is the middle pair's, so five pairs make it steadier
/// across seeds than three.
pub const LONG_PAIRS: usize = 5;
/// Residues of each `protein-affine` ancestor.
pub const PROTEIN_LEN: usize = 8_000;
pub const PROTEIN_IDENTITY: f64 = 0.75;
/// Affine gap scores of `protein-affine` (gap of length L costs
/// `open + L·extend`).
pub const AFFINE_OPEN: i32 = -10;
pub const AFFINE_EXTEND: i32 = -2;
/// Distinct requests in the serve pool.
pub const SERVE_POOL: usize = 512;
/// One pool entry in ten is a medium pair.
pub const SERVE_MEDIUM_EVERY: usize = 10;
/// Deadline every medium request carries, ms. The daemon coalesces only
/// deadline-free jobs into batches, so this keeps medium pairs on the
/// single FastLSA path (batched, each would hold a full direction matrix
/// per lane); it is long enough never to expire.
pub const MEDIUM_DEADLINE_MS: u32 = 60_000;
/// FastLSA settings every medium request carries: with `k = 4` and a
/// 64 Ki-entry base case a 700–1000 residue pair recurses, so a spooling
/// daemon completes grid blocks and saves checkpoints at its cadence
/// (at the daemon's defaults the pair would be one base case and never
/// checkpoint).
pub const MEDIUM_K: u16 = 4;
pub const MEDIUM_BASE_CELLS: u64 = 1 << 16;
/// Matrix and linear gap every serve request names.
pub const SERVE_MATRIX: &str = "dna";
pub const SERVE_GAP: i32 = -10;

/// SplitMix64: a tiny seeded generator for choices the benchmark makes
/// itself (lengths, request order).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// Seed of the `i`-th item derived from a workload seed.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    Rng::new(seed ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// One pair to align.
#[derive(Debug, Clone)]
pub struct Pair {
    pub a: Sequence,
    pub b: Sequence,
}

impl Pair {
    pub fn cells(&self) -> u64 {
        self.a.len() as u64 * self.b.len() as u64
    }
}

/// `count` homologous pairs of `len`-residue ancestors.
pub fn pairs(alphabet: &Alphabet, len: usize, identity: f64, count: usize, seed: u64) -> Vec<Pair> {
    (0..count)
        .map(|i| {
            let (a, b) =
                homologous_pair("bench", alphabet, len, identity, sub_seed(seed, i as u64))
                    .expect("identity is a valid probability");
            Pair { a, b }
        })
        .collect()
}

/// The linear-gap DNA scheme of the long workloads.
pub fn dna_scheme() -> ScoringScheme {
    ScoringScheme::dna_default()
}

/// BLOSUM62 with the affine gaps of `protein-affine`.
pub fn affine_scheme() -> ScoringScheme {
    ScoringScheme::new(
        tables::blosum62(),
        GapModel::affine(AFFINE_OPEN, AFFINE_EXTEND),
    )
}

/// BLOSUM62 with a linear gap, for per-cell comparisons with the affine
/// scheme on the same pairs.
pub fn protein_linear_scheme() -> ScoringScheme {
    ScoringScheme::new(tables::blosum62(), GapModel::linear(AFFINE_OPEN))
}

/// Builds one query profile per pair — the per-input scoring set-up the
/// kernels repeat on every fill — and returns a checksum so the work
/// cannot be optimized away.
pub fn build_profiles(scheme: &ScoringScheme, pairs: &[Pair]) -> usize {
    pairs
        .iter()
        .map(|p| std::hint::black_box(QueryProfile::build(scheme.matrix(), p.b.codes())).len())
        .sum()
}

/// One serve request template and its decoded sequences.
#[derive(Debug, Clone)]
pub struct ServeItem {
    pub request: AlignRequest,
    pub pair: Pair,
    pub medium: bool,
}

/// The request pool the traced run's daemons receive: nine in ten are
/// short DNA pairs (64–256 residues, batch-eligible), one in ten medium
/// pairs (700–1000 residues, ≥ 250k cells, the size a spooling daemon
/// spools) carrying [`MEDIUM_DEADLINE_MS`], [`MEDIUM_K`] and
/// [`MEDIUM_BASE_CELLS`]. Short requests leave `k` and the base case at
/// the daemon's defaults.
pub fn serve_pool(seed: u64) -> Vec<ServeItem> {
    let alphabet = Alphabet::dna();
    let mut rng = Rng::new(seed ^ 0x5E47_E000);
    (0..SERVE_POOL)
        .map(|i| {
            let medium = i % SERVE_MEDIUM_EVERY == SERVE_MEDIUM_EVERY - 1;
            let (len, identity) = if medium {
                (rng.range(700, 1000), 0.80)
            } else {
                (rng.range(64, 256), 0.85)
            };
            let (a, b) = homologous_pair("serve", &alphabet, len, identity, rng.next_u64())
                .expect("identity is a valid probability");
            let request = AlignRequest {
                id: 0,
                deadline_ms: if medium { MEDIUM_DEADLINE_MS } else { 0 },
                threads: 0,
                k: if medium { MEDIUM_K } else { 0 },
                gap: SERVE_GAP,
                base_cells: if medium { MEDIUM_BASE_CELLS } else { 0 },
                matrix: SERVE_MATRIX.to_string(),
                seq_a: alphabet.decode_all(a.codes()).into_bytes(),
                seq_b: alphabet.decode_all(b.codes()).into_bytes(),
            };
            ServeItem {
                request,
                pair: Pair { a, b },
                medium,
            }
        })
        .collect()
}

/// FNV-1a over every sequence's residue codes, with a separator after
/// each sequence.
pub fn digest<'a>(seqs: impl IntoIterator<Item = &'a Sequence>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in seqs {
        for &c in s.codes().iter().chain(&[0xFF]) {
            h ^= c as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The input record a workload prints.
pub fn describe(workload: &str, why: &str, pairs: &[&Pair]) -> String {
    let ms: Vec<usize> = pairs.iter().map(|p| p.a.len()).collect();
    let ns: Vec<usize> = pairs.iter().map(|p| p.b.len()).collect();
    let sum: u64 = pairs.iter().map(|p| p.cells()).sum();
    let shapes = if pairs.len() <= 4 {
        format!("m={ms:?} n={ns:?}")
    } else {
        format!(
            "{} pairs, m {}..{}",
            pairs.len(),
            ms.iter().min().unwrap_or(&0),
            ms.iter().max().unwrap_or(&0)
        )
    };
    format!(
        "inputs {workload}: {shapes} sum_mn={sum} digest={:016x} why: {why}",
        digest(pairs.iter().flat_map(|p| [&p.a, &p.b]))
    )
}
