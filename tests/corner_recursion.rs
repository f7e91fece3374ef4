//! Corner-anchored recursion: every FastLSA sub-problem is the rectangle
//! from its grid block's top-left corner to the path head, so the head
//! enters at the sub-problem's bottom-right corner (DESIGN.md §6).
//!
//! The cut must not change a byte of the answer. Each entry point is
//! checked against an independent i64 full-matrix reference (NW for
//! linear gaps, Gotoh for affine) that walks back from `(m, n)` with the
//! same Diag ≻ Up ≻ Left preference, in score and in path. A cell-count
//! ceiling guards against a return to whole-block recursion, and a
//! snapshot whose top frame is the whole block (the shape older
//! checkpoints hold) must still resume to the same bytes.

use std::sync::{Arc, Mutex};

use fastlsa::core::grid::segment_of;
use fastlsa::core::{
    align_affine, align_resume, CheckpointPolicy, CheckpointSink, CheckpointState, FrameState,
};
use fastlsa::prelude::*;
use fastlsa::scoring::tables;

const NEG: i64 = i64::MIN / 4;

/// Walks a reversed move list forward into a global path from `(0, 0)`.
fn path_from_rev(mut rev: Vec<Move>) -> Path {
    rev.reverse();
    Path::new((0, 0), rev)
}

/// i64 Needleman–Wunsch with a full-matrix traceback from `(m, n)`
/// (Diag ≻ Up ≻ Left), then straight to `(0, 0)` along the boundary.
fn nw_i64(a: &Sequence, b: &Sequence, scheme: &ScoringScheme) -> (i64, Path) {
    let (a, b) = (a.codes(), b.codes());
    let (m, n) = (a.len(), b.len());
    let g = scheme.gap().linear_penalty() as i64;
    let w = n + 1;
    let mut h: Vec<i64> = (0..=n).map(|j| g * j as i64).collect();
    h.resize((m + 1) * w, 0);
    for i in 1..=m {
        h[i * w] = g * i as i64;
        for j in 1..=n {
            let diag = h[(i - 1) * w + j - 1] + scheme.sub(a[i - 1], b[j - 1]) as i64;
            let up = h[(i - 1) * w + j] + g;
            let left = h[i * w + j - 1] + g;
            h[i * w + j] = diag.max(up).max(left);
        }
    }
    let (mut i, mut j) = (m, n);
    let mut rev = Vec::new();
    while i > 0 && j > 0 {
        let v = h[i * w + j];
        if h[(i - 1) * w + j - 1] + scheme.sub(a[i - 1], b[j - 1]) as i64 == v {
            rev.push(Move::Diag);
            i -= 1;
            j -= 1;
        } else if h[(i - 1) * w + j] + g == v {
            rev.push(Move::Up);
            i -= 1;
        } else {
            rev.push(Move::Left);
            j -= 1;
        }
    }
    rev.extend(std::iter::repeat_n(Move::Up, i));
    rev.extend(std::iter::repeat_n(Move::Left, j));
    (h[m * w + n], path_from_rev(rev))
}

/// i64 Gotoh (gap of length `L` costs `open + L·extend`) with a
/// state-machine traceback from `(m, n)` in `H`: Diag ≻ `F` (Up run) ≻
/// `E` (Left run), and a run re-enters `H` as soon as it can.
fn gotoh_i64(a: &Sequence, b: &Sequence, scheme: &ScoringScheme) -> (i64, Path) {
    let GapModel::Affine { open, extend } = *scheme.gap() else {
        panic!("gotoh_i64 needs an affine scheme");
    };
    let (open, ext) = (open as i64, extend as i64);
    let (a, b) = (a.codes(), b.codes());
    let (m, n) = (a.len(), b.len());
    let w = n + 1;
    let at = |i: usize, j: usize| i * w + j;
    let mut h = vec![NEG; (m + 1) * w];
    let mut e = vec![NEG; (m + 1) * w];
    let mut f = vec![NEG; (m + 1) * w];
    h[0] = 0;
    for j in 1..=n {
        h[at(0, j)] = open + ext * j as i64;
    }
    for i in 1..=m {
        h[at(i, 0)] = open + ext * i as i64;
        for j in 1..=n {
            e[at(i, j)] = (e[at(i, j - 1)] + ext).max(h[at(i, j - 1)] + open + ext);
            f[at(i, j)] = (f[at(i - 1, j)] + ext).max(h[at(i - 1, j)] + open + ext);
            let diag = h[at(i - 1, j - 1)] + scheme.sub(a[i - 1], b[j - 1]) as i64;
            h[at(i, j)] = diag.max(e[at(i, j)]).max(f[at(i, j)]);
        }
    }
    enum St {
        H,
        E,
        F,
    }
    let (mut i, mut j) = (m, n);
    let mut st = St::H;
    let mut rev = Vec::new();
    loop {
        match st {
            St::H if i == 0 || j == 0 => break,
            St::H => {
                let v = h[at(i, j)];
                if h[at(i - 1, j - 1)] + scheme.sub(a[i - 1], b[j - 1]) as i64 == v {
                    rev.push(Move::Diag);
                    i -= 1;
                    j -= 1;
                } else if f[at(i, j)] == v {
                    st = St::F;
                } else {
                    assert_eq!(e[at(i, j)], v, "reference stuck at ({i},{j})");
                    st = St::E;
                }
            }
            St::F if i == 0 => break,
            St::F => {
                rev.push(Move::Up);
                let from_h = h[at(i - 1, j)] + open + ext == f[at(i, j)];
                i -= 1;
                st = if from_h { St::H } else { St::F };
            }
            St::E if j == 0 => break,
            St::E => {
                rev.push(Move::Left);
                let from_h = h[at(i, j - 1)] + open + ext == e[at(i, j)];
                j -= 1;
                st = if from_h { St::H } else { St::E };
            }
        }
    }
    rev.extend(std::iter::repeat_n(Move::Up, i));
    rev.extend(std::iter::repeat_n(Move::Left, j));
    (h[at(m, n)], path_from_rev(rev))
}

fn reference(a: &Sequence, b: &Sequence, scheme: &ScoringScheme) -> (i64, Path) {
    match scheme.gap() {
        GapModel::Linear { .. } => nw_i64(a, b, scheme),
        GapModel::Affine { .. } => gotoh_i64(a, b, scheme),
    }
}

fn assert_matches(what: &str, got: &AlignResult, want: &(i64, Path)) {
    assert_eq!(got.score, want.0, "{what}: score");
    assert_eq!(got.path, want.1, "{what}: path");
}

fn pair(scheme: &ScoringScheme, len: usize, identity: f64, seed: u64) -> (Sequence, Sequence) {
    generate::homologous_pair("c", scheme.alphabet(), len, identity, seed).unwrap()
}

fn dna(s: &str) -> Sequence {
    Sequence::from_str("d", &Alphabet::dna(), s).unwrap()
}

/// Keeps every snapshot in memory.
#[derive(Default)]
struct CaptureSink(Mutex<Vec<CheckpointState>>);

impl CheckpointSink for CaptureSink {
    fn save(&self, state: &CheckpointState) -> Result<u64, String> {
        self.0.lock().unwrap().push(state.clone());
        Ok(0)
    }
}

/// Runs `cfg` with a snapshot after every completed block and returns
/// the checkpointed result with every snapshot taken.
fn snapshots(
    a: &Sequence,
    b: &Sequence,
    scheme: &ScoringScheme,
    cfg: FastLsaConfig,
) -> (AlignResult, Vec<CheckpointState>) {
    let sink = Arc::new(CaptureSink::default());
    let opts = AlignOptions {
        checkpoint: Some(CheckpointPolicy::new(1, sink.clone())),
        ..AlignOptions::default()
    };
    let r = fastlsa::align_opts(a, b, scheme, cfg, &opts, &Metrics::new()).unwrap();
    let states = sink.0.lock().unwrap().clone();
    (r, states)
}

fn resume(a: &Sequence, b: &Sequence, scheme: &ScoringScheme, s: CheckpointState) -> AlignResult {
    align_resume(a, b, scheme, s, &AlignOptions::default(), &Metrics::new()).unwrap()
}

/// Every linear-gap entry point on one input: `align`, `align_with`
/// sequential and on two threads, and `align_resume` from every
/// checkpoint cut. Returns how many cuts were resumed.
fn check_linear(name: &str, a: &Sequence, b: &Sequence, scheme: &ScoringScheme) -> usize {
    let want = reference(a, b, scheme);
    let m = Metrics::new();
    assert_matches(name, &fastlsa::align(a, b, scheme, &m).unwrap(), &want);
    let cfg = FastLsaConfig::new(4, 256);
    for threads in [1, 2] {
        let got = fastlsa::align_with(a, b, scheme, cfg.with_threads(threads), &m).unwrap();
        assert_matches(&format!("{name} threads={threads}"), &got, &want);
    }
    let (got, states) = snapshots(a, b, scheme, cfg);
    assert_matches(&format!("{name} checkpointed"), &got, &want);
    let cuts = states.len();
    for (cut, state) in states.into_iter().enumerate() {
        let got = resume(a, b, scheme, state);
        assert_matches(&format!("{name} resumed at cut {cut}"), &got, &want);
    }
    cuts
}

/// `align_affine` under the default configuration and under small
/// grids, where heads inside gap runs cross many sub-problems.
fn check_affine(name: &str, a: &Sequence, b: &Sequence, scheme: &ScoringScheme) {
    let want = reference(a, b, scheme);
    for cfg in [
        FastLsaConfig::default(),
        FastLsaConfig::new(4, 256),
        FastLsaConfig::new(8, 1 << 12),
    ] {
        let got = align_affine(a, b, scheme, cfg, &Metrics::new()).unwrap();
        assert_matches(
            &format!("{name} k={} base={}", cfg.k, cfg.base_cells),
            &got,
            &want,
        );
    }
}

#[test]
fn dna_linear_entry_points_match_the_i64_reference() {
    let scheme = ScoringScheme::dna_default();
    let (a, b) = pair(&scheme, 1500, 0.8, 31);
    let m = Metrics::new();
    let want = reference(&a, &b, &scheme);
    // Large enough that the default configuration recurses once.
    assert_matches(
        "dna 1500",
        &fastlsa::align(&a, &b, &scheme, &m).unwrap(),
        &want,
    );
    let cfg = FastLsaConfig::new(4, 1 << 16).with_threads(2);
    let got = fastlsa::align_with(&a, &b, &scheme, cfg, &m).unwrap();
    assert_matches("dna 1500 k=4 threads=2", &got, &want);
    let (a, b) = pair(&scheme, 300, 0.75, 32);
    let cuts = check_linear("dna 300", &a, &b, &scheme);
    assert!(
        cuts > 20,
        "every-block cadence should cut often (got {cuts})"
    );
}

#[test]
fn blosum62_affine_matches_the_i64_gotoh_reference() {
    let scheme = ScoringScheme::new(tables::blosum62(), GapModel::affine(-10, -2));
    for (len, seed) in [(700, 41), (257, 42)] {
        let (a, b) = pair(&scheme, len, 0.6, seed);
        check_affine(&format!("blosum62 {len}"), &a, &b, &scheme);
    }
}

#[test]
fn dna_affine_long_gaps_match_the_i64_gotoh_reference() {
    // A dear open and a cheap extend favour long gap runs, so paths
    // cross sub-problem edges inside `E`/`F` runs at every depth.
    let scheme = ScoringScheme::new(tables::dna_default(), GapModel::affine(-30, -1));
    for (len, identity, seed) in [(900, 0.7, 51), (400, 0.5, 52)] {
        let (a, b) = pair(&scheme, len, identity, seed);
        let want = reference(&a, &b, &scheme);
        let got = align_affine(&a, &b, &scheme, FastLsaConfig::new(4, 256), &Metrics::new());
        assert_matches(&format!("dna affine {len}"), &got.unwrap(), &want);
    }
    // Trim one side so the two sequences differ in length by a long run.
    let (a, b) = pair(&scheme, 600, 0.8, 53);
    let b = Sequence::from_codes("t", scheme.alphabet(), b.codes()[..350].to_vec());
    check_affine("dna affine trimmed", &a, &b, &scheme);
}

#[test]
fn edge_shapes_match_the_i64_reference() {
    let linear = ScoringScheme::dna_default();
    let affine = ScoringScheme::new(tables::dna_default(), GapModel::affine(-30, -1));
    let (long, _) = pair(&linear, 400, 0.8, 61);
    let one = dna("G");
    // 1×n and n×1.
    for (name, a, b) in [("1xn", &one, &long), ("nx1", &long, &one)] {
        check_linear(name, a, b, &linear);
        check_affine(name, a, b, &affine);
    }
    // All-gap optimum: no shared letter, and two gaps cost less than one
    // mismatch (−2 > −4 linear; one open each side under affine).
    let cheap = ScoringScheme::new(tables::dna_default(), GapModel::linear(-1));
    let (a, b) = (dna(&"A".repeat(180)), dna(&"CG".repeat(70)));
    check_linear("all-gap", &a, &b, &cheap);
    let (score, path) = reference(&a, &b, &cheap);
    assert_eq!(path.move_counts().0, 0, "the optimum must be all gaps");
    assert_eq!(score, -(a.len() as i64 + b.len() as i64));
    check_affine("all-gap affine", &a, &b, &affine);
    assert_eq!(reference(&a, &b, &affine).1.move_counts().0, 0);
}

#[test]
fn recursion_refills_at_most_1_35_mn_on_the_theorem_input() {
    // The input and configuration of theorem_bounds'
    // `fastlsa_linear_space_mode_is_at_most_about_1_5x_fm`. Whole-block
    // recursion refilled about 1.5·m·n here; corner-anchored recursion
    // refills about 1.25·m·n.
    let scheme = ScoringScheme::dna_default();
    let (a, b) = pair(&scheme, 4000, 0.8, 4);
    let metrics = Metrics::new();
    fastlsa::align_with(&a, &b, &scheme, FastLsaConfig::new(4, 1 << 12), &metrics).unwrap();
    let cells = metrics.snapshot().cells_computed as f64;
    let mn = (a.len() * b.len()) as f64;
    assert!(cells <= 1.35 * mn, "cells {cells} > 1.35·m·n ({mn})");
}

#[test]
fn whole_block_snapshots_still_resume_byte_identically() {
    let scheme = ScoringScheme::dna_default();
    let (a, b) = pair(&scheme, 320, 0.75, 71);
    let want = reference(&a, &b, &scheme);
    let (_, states) = snapshots(&a, &b, &scheme, FastLsaConfig::new(4, 256));
    let mut widened = 0;
    for (cut, mut state) in states.into_iter().enumerate() {
        if !push_whole_block_child(&mut state) {
            continue;
        }
        widened += 1;
        let got = resume(&a, &b, &scheme, state);
        assert_matches(&format!("whole-block child at cut {cut}"), &got, &want);
    }
    assert!(widened > 5, "too few snapshots to extend ({widened})");
}

/// Takes the descent step the way whole-block recursion did: pushes, on
/// top of the snapshot's filled top frame, a child frame covering the
/// entire grid block that holds the path head, with its boundary read
/// from the grid cache and the head left where it lies (on the block's
/// bottom row or right column, not necessarily its corner). Returns
/// `false` when the top frame has no grid, its head has already left
/// it, or the block ends at the head anyway.
fn push_whole_block_child(state: &mut CheckpointState) -> bool {
    let Some(p) = state.frames.last() else {
        return false;
    };
    let Some(g) = &p.grid else { return false };
    let (i, j) = p.head;
    if i == 0 || j == 0 {
        return false;
    }
    let s = segment_of(&g.row_bounds, i);
    let t = segment_of(&g.col_bounds, j);
    let (r0, r1) = (g.row_bounds[s], g.row_bounds[s + 1]);
    let (c0, c1) = (g.col_bounds[t], g.col_bounds[t + 1]);
    if (r1, c1) == (i, j) {
        return false;
    }
    let top = if s == 0 { &p.top } else { &g.rows_cache[s - 1] };
    let left = if t == 0 {
        &p.left
    } else {
        &g.cols_cache[t - 1]
    };
    let child = FrameState {
        r0: p.r0 + r0,
        c0: p.c0 + c0,
        rows: r1 - r0,
        cols: c1 - c0,
        head: (i - r0, j - c0),
        top: top[c0..=c1].to_vec(),
        left: left[r0..=r1].to_vec(),
        grid: None,
    };
    state.frames.push(child);
    true
}
