//! Independent correctness references and the failure tally.
//!
//! The references share no code with the program's kernels: plain `i64`
//! score-only dynamic programming (one rolling row for linear gaps,
//! three rolling rows for Gotoh's affine gaps), so a kernel or
//! recursion defect cannot hide by being reproduced here.

use flsa_dp::{Move, Path};
use flsa_scoring::{GapModel, ScoringScheme};

/// `sub[c][j]` = substitution score of residue code `c` against `b[j]`.
fn profile(b: &[u8], scheme: &ScoringScheme) -> Vec<Vec<i64>> {
    (0..scheme.alphabet().len())
        .map(|c| b.iter().map(|&y| scheme.sub(c as u8, y) as i64).collect())
        .collect()
}

/// Optimal global score under a linear gap model, last-row DP in `i64`.
pub fn linear_score(a: &[u8], b: &[u8], scheme: &ScoringScheme) -> i64 {
    let gap = match *scheme.gap() {
        GapModel::Linear { penalty } => penalty as i64,
        GapModel::Affine { .. } => panic!("linear_score needs a linear gap model"),
    };
    let prof = profile(b, scheme);
    let mut row: Vec<i64> = (0..=b.len() as i64).map(|j| j * gap).collect();
    for (i, &x) in a.iter().enumerate() {
        let mut diag = row[0];
        row[0] = (i as i64 + 1) * gap;
        let mut left = row[0];
        for (cell, &s) in row[1..].iter_mut().zip(&prof[x as usize]) {
            let up = *cell;
            let v = (diag + s).max(up + gap).max(left + gap);
            diag = up;
            *cell = v;
            left = v;
        }
    }
    row[b.len()]
}

/// Optimal global score under an affine gap model (a gap of length `L`
/// costs `open + L·extend`), three-row Gotoh DP in `i64`.
pub fn affine_score(a: &[u8], b: &[u8], scheme: &ScoringScheme) -> i64 {
    let (open, ext) = match *scheme.gap() {
        GapModel::Affine { open, extend } => (open as i64, extend as i64),
        GapModel::Linear { .. } => panic!("affine_score needs an affine gap model"),
    };
    const NEG: i64 = i64::MIN / 4;
    let n = b.len();
    let prof = profile(b, scheme);
    // h: best score; e: ends in a gap in `a` (Left moves); f: ends in a
    // gap in `b` (Up moves).
    let mut h: Vec<i64> = (0..=n as i64)
        .map(|j| if j == 0 { 0 } else { open + j * ext })
        .collect();
    let mut f = vec![NEG; n + 1];
    for (i, &x) in a.iter().enumerate() {
        let mut diag = h[0];
        h[0] = open + (i as i64 + 1) * ext;
        let mut left = h[0];
        let mut e = NEG;
        for ((hj, fj), &s) in h[1..].iter_mut().zip(&mut f[1..]).zip(&prof[x as usize]) {
            *fj = (*fj + ext).max(*hj + open + ext);
            e = (e + ext).max(left + open + ext);
            let v = (diag + s).max(e).max(*fj);
            diag = *hj;
            *hj = v;
            left = v;
        }
    }
    h[n]
}

/// Re-scores a path under an affine gap model: each maximal run of
/// `Up` or `Left` moves is one gap.
pub fn affine_path_score(path: &Path, a: &[u8], b: &[u8], scheme: &ScoringScheme) -> i64 {
    let (open, ext) = match *scheme.gap() {
        GapModel::Affine { open, extend } => (open as i64, extend as i64),
        GapModel::Linear { .. } => panic!("affine_path_score needs an affine gap model"),
    };
    let (mut i, mut j) = path.start();
    let mut total = 0i64;
    let mut prev: Option<Move> = None;
    for &m in path.moves() {
        match m {
            Move::Diag => {
                total += scheme.sub(a[i], b[j]) as i64;
                i += 1;
                j += 1;
            }
            Move::Up | Move::Left => {
                if prev != Some(m) {
                    total += open;
                }
                total += ext;
                if m == Move::Up {
                    i += 1;
                } else {
                    j += 1;
                }
            }
        }
        prev = Some(m);
    }
    total
}

/// Outcome counts of one run; every attempted operation lands in
/// exactly one bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    /// Correct results.
    pub ok: u64,
    /// Typed errors returned by the program.
    pub errors: u64,
    /// Requests the program refused (`Overloaded`).
    pub rejections: u64,
    /// Results that differ from the reference.
    pub mismatches: u64,
}

impl Tally {
    /// Files one operation's outcome.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Error => self.errors += 1,
            Outcome::Rejected => self.rejections += 1,
            Outcome::Mismatch => self.mismatches += 1,
        }
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.rejections + self.mismatches
    }

    /// `(errors + rejections + mismatches) / attempted`.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed() as f64 / self.attempted as f64
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.errors += other.errors;
        self.rejections += other.rejections;
        self.mismatches += other.mismatches;
    }
}

/// One operation's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    Error,
    Rejected,
    Mismatch,
}

/// Checks a result's score against the reference and its path's
/// re-score against its score.
pub fn check(score: i64, path_score: i64, reference: i64) -> Outcome {
    if score == reference && path_score == score {
        Outcome::Ok
    } else {
        Outcome::Mismatch
    }
}
