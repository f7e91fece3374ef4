//! Inter-sequence batch alignment: many small independent pairs, one pair
//! per SIMD lane.
//!
//! The intra-sequence kernels in [`crate::simd`] vectorize *within* one
//! DP matrix and pay a prefix-scan per row to resolve the left-to-right
//! dependency. When the workload is many small *independent* pairs (the
//! flsa-serve request mix, database scans), a better axis exists: put one
//! pair in each 16-bit SIMD lane and run the plain three-way-max
//! recurrence vertically — at a fixed `(i, j)` every lane's
//! left-dependency is its own previous `j` iteration, so there is no scan
//! at all. This is the inter-sequence (Farrar-style "striped across
//! sequences") layout used by SWIPE and the BSW family.
//!
//! # Exactness
//!
//! Lanes are 16-bit and the adds *saturating*, so a pair whose DP values
//! stray near `i16` range could silently clamp. [`BatchKernel`] keeps
//! results bit-identical to the scalar kernels anyway:
//!
//! * **Upfront admission** — a lane enters the striped fill only when its
//!   boundary ramp over the chunk's padded extent plus one step
//!   (`max(rows_max, cols_max)·|gap| + Δ`, with `Δ = max(|S|_max, |gap|)`)
//!   stays inside `i16`, so every boundary input is in the safe zone.
//! * **Saturation detection** — the striped fill tracks each lane's
//!   running min/max DP value. If all of a lane's values stay in
//!   `[i16::MIN + Δ, i16::MAX − Δ]`, every add it performed was exact by
//!   induction; a lane that leaves that zone is *flagged* and transparently
//!   recomputed on the exact `i32` single-pair path.
//!
//! Flagging is conservative (a lane padded out to a longer chunk-mate can
//! false-flag on cells past its own rectangle) — that costs a fallback
//! fill, never a wrong result. Direction ties break Diag ≻ Up ≻ Left like
//! every other kernel in the workspace, so the recovered path is the
//! canonical one.

use flsa_scoring::{GapModel, QueryProfileI16, ScoringScheme};

use crate::path::{Move, PathBuilder};
use crate::result::AlignResult;
use crate::simd::{Kernel, KernelBackend, UnsupportedBackend};
use crate::traceback::trace_dirs;
use crate::{Boundary, Metrics};

/// Direction codes stored in the striped batch direction slab; chosen to
/// match [`crate::matrix::Dir`]'s discriminants (Diag = 1, Up = 2,
/// Left = 3). Only this module and the batch kernels interpret them.
pub(crate) const BDIR_DIAG: u8 = 1;
pub(crate) const BDIR_UP: u8 = 2;
pub(crate) const BDIR_LEFT: u8 = 3;

/// One global-alignment request in a batch: a pair of encoded sequences
/// plus the scheme scoring them. Jobs in one batch may use different
/// schemes (each lane carries its own gap penalty and score profile).
#[derive(Debug, Clone, Copy)]
pub struct BatchJob<'s> {
    /// Left sequence codes (DP matrix rows).
    pub a: &'s [u8],
    /// Top sequence codes (DP matrix columns).
    pub b: &'s [u8],
    /// Scoring scheme; the gap model must be linear (the paper's model).
    pub scheme: &'s ScoringScheme,
}

/// The striped lane configuration a [`BatchKernel`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BatchBackend {
    /// 16 × i16 lanes in AVX2 registers.
    Avx2x16,
    /// 8 × i16 lanes in SSE4.1 registers.
    Sse41x8,
    /// Scalar striped loop, 8 lanes — semantically identical to the
    /// vector paths (same saturating adds, same dir codes); the non-x86
    /// and forced-scalar fallback.
    Portable,
}

/// Widest striped backend the CPU supports.
fn detect_batch_backend() -> BatchBackend {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            return BatchBackend::Avx2x16;
        }
        if is_x86_feature_detected!("sse4.1") {
            return BatchBackend::Sse41x8;
        }
    }
    BatchBackend::Portable
}

/// Per-lane admission parameters for the striped fill.
#[derive(Debug, Clone, Copy)]
struct LaneParams {
    gap: i32,
    /// `max(|S|_max, |gap|)` — the largest magnitude one DP step can add.
    delta: i32,
}

/// The striped inter-sequence batch kernel.
///
/// Wraps a single-pair [`Kernel`] (used for fallback fills and shared
/// scratch via its arena) and aligns batches of independent pairs with
/// [`BatchKernel::align_batch`]. Every result is bit-identical to running
/// the scalar single-pair kernel on the same job.
///
/// # Examples
///
/// ```
/// use flsa_dp::{BatchJob, BatchKernel, Kernel, Metrics};
/// use flsa_scoring::ScoringScheme;
/// use flsa_seq::Sequence;
///
/// let scheme = ScoringScheme::paper_example();
/// let a = Sequence::from_str("a", scheme.alphabet(), "TDVLKAD").unwrap();
/// let b = Sequence::from_str("b", scheme.alphabet(), "TLDKLLKD").unwrap();
/// let jobs = vec![BatchJob { a: a.codes(), b: b.codes(), scheme: &scheme }; 5];
/// let batch = BatchKernel::new(Kernel::auto());
/// let results = batch.align_batch(&jobs, &Metrics::new());
/// assert!(results.iter().all(|r| r.score == 82));
/// ```
#[derive(Debug, Clone)]
pub struct BatchKernel {
    kernel: Kernel,
    backend: BatchBackend,
}

impl BatchKernel {
    /// A batch kernel over the widest striped backend this CPU supports.
    ///
    /// A forced-scalar `kernel` (`FLSA_KERNEL_FORCE=scalar`) pins the
    /// batch path to the portable striped loop too, so differential runs
    /// exercise every layer without vector instructions.
    pub fn new(kernel: Kernel) -> BatchKernel {
        let backend = if kernel.backend() == KernelBackend::Scalar {
            BatchBackend::Portable
        } else {
            detect_batch_backend()
        };
        BatchKernel { kernel, backend }
    }

    /// A batch kernel with an explicit lane width: 16 (AVX2), 8 (SSE4.1)
    /// or 0 (portable striped loop). Rejects widths the CPU cannot run.
    ///
    /// # Panics
    ///
    /// Panics on widths other than 0, 8 or 16 — a configuration error.
    pub fn try_with_lanes(kernel: Kernel, lanes: usize) -> Result<BatchKernel, UnsupportedBackend> {
        #[cfg(target_arch = "x86_64")]
        let backend = match lanes {
            0 => BatchBackend::Portable,
            8 if is_x86_feature_detected!("sse4.1") => BatchBackend::Sse41x8,
            16 if is_x86_feature_detected!("avx2") => BatchBackend::Avx2x16,
            8 => {
                return Err(UnsupportedBackend {
                    backend: KernelBackend::Sse41,
                })
            }
            16 => {
                return Err(UnsupportedBackend {
                    backend: KernelBackend::Avx2,
                })
            }
            other => panic!("batch lane width must be 0, 8 or 16, got {other}"),
        };
        #[cfg(not(target_arch = "x86_64"))]
        let backend = match lanes {
            0 => BatchBackend::Portable,
            8 => {
                return Err(UnsupportedBackend {
                    backend: KernelBackend::Sse41,
                })
            }
            16 => {
                return Err(UnsupportedBackend {
                    backend: KernelBackend::Avx2,
                })
            }
            other => panic!("batch lane width must be 0, 8 or 16, got {other}"),
        };
        Ok(BatchKernel { kernel, backend })
    }

    /// Pairs aligned per striped chunk (8 or 16).
    pub fn lanes(&self) -> usize {
        match self.backend {
            BatchBackend::Avx2x16 => 16,
            BatchBackend::Sse41x8 | BatchBackend::Portable => 8,
        }
    }

    /// Short backend label for metrics/trace attribution.
    pub fn backend_name(&self) -> &'static str {
        match self.backend {
            BatchBackend::Avx2x16 => "batch-avx2x16",
            BatchBackend::Sse41x8 => "batch-sse41x8",
            BatchBackend::Portable => "batch-portable",
        }
    }

    /// The wrapped single-pair kernel (fallback path + arena owner).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Globally aligns every job, returning results in job order.
    ///
    /// Jobs are processed in chunks of [`BatchKernel::lanes`]; lanes the
    /// striped `i16` fill cannot serve exactly (empty sequences, scores
    /// or extents too large for 16 bits, saturation flagged at runtime)
    /// fall back to the exact `i32` single-pair kernel. Every result —
    /// score *and* path — is bit-identical to the scalar kernel's.
    ///
    /// # Panics
    ///
    /// Panics when a job's gap model is affine: like every linear-space
    /// kernel in this workspace, the batch kernel is defined for the
    /// paper's linear gap model only, and callers validate up front.
    pub fn align_batch(&self, jobs: &[BatchJob<'_>], metrics: &Metrics) -> Vec<AlignResult> {
        let w = self.lanes();
        let mut results = Vec::with_capacity(jobs.len());
        for chunk in jobs.chunks(w) {
            self.align_chunk(chunk, &mut results, metrics);
        }
        results
    }

    /// Aligns one ≤ `lanes()`-sized chunk, appending results in order.
    fn align_chunk(
        &self,
        chunk: &[BatchJob<'_>],
        results: &mut Vec<AlignResult>,
        metrics: &Metrics,
    ) {
        let mut params: Vec<Option<LaneParams>> =
            chunk.iter().map(|job| lane_params(job)).collect();
        // Chunk-extent admission must hold for the *striped* extents
        // (every lane's boundary ramp runs to the chunk max, not its
        // own). Dropping a lane can shrink the extents, so iterate to a
        // fixpoint; each pass only removes lanes, so it terminates.
        loop {
            let rows_max = extent(chunk, &params, |j| j.a.len());
            let cols_max = extent(chunk, &params, |j| j.b.len());
            let span = rows_max.max(cols_max) as i64;
            let mut changed = false;
            for p in params.iter_mut() {
                if let Some(lp) = p {
                    if span * (lp.gap as i64).abs() + lp.delta as i64 >= i16::MAX as i64 {
                        *p = None;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let active = params.iter().flatten().count();
        let mut striped: Vec<Option<AlignResult>> = vec![None; chunk.len()];
        // One striped lane would just be a slower single-pair fill.
        if active >= 2 {
            self.fill_striped(chunk, &params, &mut striped, metrics);
        }
        for (job, r) in chunk.iter().zip(striped) {
            results.push(match r {
                Some(r) => r,
                None => self.align_single(job, metrics),
            });
        }
    }

    /// The striped `i16` fill over one chunk. Writes `Some(result)` for
    /// every admitted lane whose values provably stayed exact; leaves
    /// `None` (→ single-pair fallback) for the rest.
    fn fill_striped(
        &self,
        chunk: &[BatchJob<'_>],
        params: &[Option<LaneParams>],
        out: &mut [Option<AlignResult>],
        metrics: &Metrics,
    ) {
        let w = self.lanes();
        let arena = self.kernel.arena();
        let rows_max = extent(chunk, params, |j| j.a.len());
        let cols_max = extent(chunk, params, |j| j.b.len());
        let cols_pad = cols_max.next_multiple_of(8);

        // Per-lane gap ramps, profiles, and the shared zero row idle
        // lanes read their "scores" from.
        let mut gaps = vec![0i16; w];
        let mut profiles: Vec<Option<QueryProfileI16>> = (0..w).map(|_| None).collect();
        let zeros = arena.take_i16(cols_pad);
        for (l, (job, p)) in chunk.iter().zip(params.iter()).enumerate() {
            let Some(lp) = p else { continue };
            // Fits i16 exactly: admission bounded span·|gap| + Δ.
            gaps[l] = lp.gap as i16;
            let m = job.scheme.matrix();
            let storage = arena.take_i16(m.alphabet().len() * cols_pad);
            profiles[l] = Some(QueryProfileI16::build_padded_in(
                m, job.b, cols_pad, storage,
            ));
        }

        let mut prev = arena.take_i16((cols_max + 1) * w);
        let mut cur = arena.take_i16((cols_max + 1) * w);
        let mut scores = arena.take_i16(cols_pad * w);
        let mut dirs = arena.take_u8(rows_max * cols_max * w);
        let _mem = metrics
            .track_alloc(dirs.len() + 2 * (prev.len() + cur.len() + scores.len() + zeros.len()));
        let mut minmax = vec![i16::MAX; 2 * w];
        minmax[w..].fill(i16::MIN);
        let mut final_scores = vec![0i16; w];

        // Top boundary: lane l's gap ramp continued across the chunk's
        // padded width (exact by admission; idle lanes ride at 0).
        for j in 0..=cols_max {
            for l in 0..w {
                prev[j * w + l] = (j as i32 * gaps[l] as i32) as i16;
            }
        }
        let mut row_refs: Vec<&[i16]> = vec![zeros.as_slice(); w];
        for i in 1..=rows_max {
            for (l, g) in gaps.iter().enumerate() {
                cur[l] = (i as i32 * *g as i32) as i16;
            }
            for (l, (job, p)) in chunk.iter().zip(profiles.iter()).enumerate() {
                row_refs[l] = match p {
                    // A lane shorter than the chunk repeats its last
                    // residue; its result was already captured.
                    Some(prof) => prof.row(job.a[i.min(job.a.len()) - 1]),
                    None => zeros.as_slice(),
                };
            }
            self.stripe_scores(&row_refs, &mut scores);
            let drow = &mut dirs[(i - 1) * cols_max * w..i * cols_max * w];
            self.stripe_row_update(&prev, &mut cur, &scores, &gaps, drow, &mut minmax);
            for (l, job) in chunk.iter().enumerate() {
                if params[l].is_some() && job.a.len() == i {
                    final_scores[l] = cur[job.b.len() * w + l];
                }
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        metrics.add_cells(rows_max as u64 * cols_max as u64 * active_count(params) as u64);

        for (l, (job, p)) in chunk.iter().zip(params.iter()).enumerate() {
            let Some(lp) = p else { continue };
            let d = lp.delta as i16;
            // Saturation flag: any value outside the safe zone means some
            // later add *may* have clamped — recompute the lane exactly.
            if minmax[w + l] > i16::MAX - d || minmax[l] < i16::MIN + d {
                continue;
            }
            out[l] = Some(trace_striped(
                job,
                &dirs,
                cols_max,
                w,
                l,
                final_scores[l],
                metrics,
            ));
        }

        drop(row_refs);
        arena.put_i16(zeros);
        arena.put_i16(prev);
        arena.put_i16(cur);
        arena.put_i16(scores);
        arena.put_u8(dirs);
        for p in profiles.into_iter().flatten() {
            arena.put_i16(p.into_storage());
        }
    }

    /// Dispatches one striped score-row interleave to the active backend.
    #[inline]
    fn stripe_scores(&self, rows: &[&[i16]], out: &mut [i16]) {
        match self.backend {
            BatchBackend::Portable => batch_score_row_portable(rows, out),
            #[cfg(target_arch = "x86_64")]
            BatchBackend::Sse41x8 => {
                // SAFETY: every `BatchKernel` constructor admits Sse41x8
                // only after `is_x86_feature_detected!("sse4.1")`.
                unsafe { crate::simd::x86::batch_score_row_sse41(rows, out) }
            }
            #[cfg(target_arch = "x86_64")]
            BatchBackend::Avx2x16 => {
                // SAFETY: every `BatchKernel` constructor admits Avx2x16
                // only after `is_x86_feature_detected!("avx2")`.
                unsafe { crate::simd::x86::batch_score_row_avx2(rows, out) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            BatchBackend::Sse41x8 | BatchBackend::Avx2x16 => {
                // Constructors never admit these off x86-64; the portable
                // loop keeps the arm correct regardless.
                batch_score_row_portable(rows, out)
            }
        }
    }

    /// Dispatches one striped row update to the active backend.
    #[inline]
    fn stripe_row_update(
        &self,
        prev: &[i16],
        cur: &mut [i16],
        scores: &[i16],
        gaps: &[i16],
        dirs: &mut [u8],
        minmax: &mut [i16],
    ) {
        match self.backend {
            BatchBackend::Portable => {
                batch_row_update_portable(prev, cur, scores, gaps, dirs, minmax)
            }
            #[cfg(target_arch = "x86_64")]
            BatchBackend::Sse41x8 => {
                // SAFETY: every `BatchKernel` constructor admits Sse41x8
                // only after `is_x86_feature_detected!("sse4.1")`.
                unsafe {
                    crate::simd::x86::batch_row_update_sse41(prev, cur, scores, gaps, dirs, minmax)
                }
            }
            #[cfg(target_arch = "x86_64")]
            BatchBackend::Avx2x16 => {
                // SAFETY: every `BatchKernel` constructor admits Avx2x16
                // only after `is_x86_feature_detected!("avx2")`.
                unsafe {
                    crate::simd::x86::batch_row_update_avx2(prev, cur, scores, gaps, dirs, minmax)
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            BatchBackend::Sse41x8 | BatchBackend::Avx2x16 => {
                // Constructors never admit these off x86-64.
                batch_row_update_portable(prev, cur, scores, gaps, dirs, minmax)
            }
        }
    }

    /// The exact `i32` single-pair path: packed-direction fill on the
    /// wrapped kernel plus the shared traceback — byte-for-byte the
    /// canonical full-matrix result.
    fn align_single(&self, job: &BatchJob<'_>, metrics: &Metrics) -> AlignResult {
        let (m, n) = (job.a.len(), job.b.len());
        let gap = job.scheme.gap().linear_penalty();
        let bound = Boundary::global(m, n, gap);
        let (dirs, last) =
            self.kernel
                .fill_dir(job.a, job.b, &bound.top, &bound.left, job.scheme, metrics);
        assert_eq!(last.len(), n + 1, "kernel last-row length");
        let mut builder = PathBuilder::new();
        trace_dirs(&dirs, (m, n), &mut builder, metrics);
        AlignResult {
            score: last[n] as i64,
            path: builder.finish((0, 0)),
        }
    }
}

/// Striped-fill admission for one lane in isolation; the chunk-extent
/// check in `align_chunk` tightens this with the actual striped extents.
fn lane_params(job: &BatchJob<'_>) -> Option<LaneParams> {
    if job.a.is_empty() || job.b.is_empty() {
        return None;
    }
    // Affine jobs are never striped; the fallback path reports the
    // canonical linear-only panic.
    let GapModel::Linear { penalty } = *job.scheme.gap() else {
        return None;
    };
    let m = job.scheme.matrix();
    let smax = m.max_score().abs().max(m.min_score().abs()) as i64;
    let delta = smax.max((penalty as i64).abs());
    if delta >= i16::MAX as i64 {
        return None;
    }
    Some(LaneParams {
        gap: penalty,
        delta: delta as i32,
    })
}

/// Max of `f` over the chunk's admitted lanes.
fn extent(
    chunk: &[BatchJob<'_>],
    params: &[Option<LaneParams>],
    f: impl Fn(&BatchJob<'_>) -> usize,
) -> usize {
    chunk
        .iter()
        .zip(params.iter())
        .filter(|(_, p)| p.is_some())
        .map(|(j, _)| f(j))
        .max()
        .unwrap_or(0)
}

fn active_count(params: &[Option<LaneParams>]) -> usize {
    params.iter().flatten().count()
}

/// Walks lane `l`'s striped direction slab backwards from the job's
/// bottom-right corner to `(0, 0)` — the same Diag ≻ Up ≻ Left canonical
/// walk as [`trace_dirs`], reading `dirs[((i-1)*cols_max + (j-1))*w + l]`.
fn trace_striped(
    job: &BatchJob<'_>,
    dirs: &[u8],
    cols_max: usize,
    w: usize,
    l: usize,
    score: i16,
    metrics: &Metrics,
) -> AlignResult {
    let mut builder = PathBuilder::new();
    let (mut i, mut j) = (job.a.len(), job.b.len());
    let mut steps = 0u64;
    while i > 0 || j > 0 {
        let m = if i == 0 {
            j -= 1;
            Move::Left
        } else if j == 0 {
            i -= 1;
            Move::Up
        } else {
            match dirs[((i - 1) * cols_max + (j - 1)) * w + l] {
                BDIR_DIAG => {
                    i -= 1;
                    j -= 1;
                    Move::Diag
                }
                BDIR_UP => {
                    i -= 1;
                    Move::Up
                }
                // BDIR_LEFT — an exact (unflagged) lane stores only the
                // three codes, so no other byte can appear here.
                _ => {
                    j -= 1;
                    Move::Left
                }
            }
        };
        builder.push_back(m);
        steps += 1;
    }
    metrics.add_traceback_steps(steps);
    AlignResult {
        score: score as i64,
        path: builder.finish((0, 0)),
    }
}

/// Scalar reference for the striped score-row interleave:
/// `out[j*w + l] = rows[l][j]`.
fn batch_score_row_portable(rows: &[&[i16]], out: &mut [i16]) {
    let w = rows.len();
    for (j, chunk) in out.chunks_exact_mut(w).enumerate() {
        for (slot, row) in chunk.iter_mut().zip(rows.iter()) {
            *slot = row[j];
        }
    }
}

/// Scalar reference for the striped row update — semantically identical
/// to the vector paths: same saturating adds, same Diag ≻ Up ≻ Left
/// precedence, same dir codes, same min/max tracking.
fn batch_row_update_portable(
    prev: &[i16],
    cur: &mut [i16],
    scores: &[i16],
    gaps: &[i16],
    dirs: &mut [u8],
    minmax: &mut [i16],
) {
    let w = gaps.len();
    let cols = dirs.len() / w;
    assert_eq!(dirs.len() % w, 0, "dir row length");
    assert_eq!(prev.len(), (cols + 1) * w, "prev row length");
    assert_eq!(cur.len(), (cols + 1) * w, "cur row length");
    assert!(scores.len() >= cols * w, "score row length");
    assert_eq!(minmax.len(), 2 * w, "per-lane min/max");
    for l in 0..w {
        let gap = gaps[l];
        let mut diag = prev[l];
        let mut left = cur[l];
        let mut mn = minmax[l];
        let mut mx = minmax[w + l];
        for j in 1..=cols {
            let up = prev[j * w + l];
            let t1 = diag.saturating_add(scores[(j - 1) * w + l]);
            let t2 = up.saturating_add(gap);
            let t3 = left.saturating_add(gap);
            let v = t1.max(t2).max(t3);
            cur[j * w + l] = v;
            dirs[(j - 1) * w + l] = if t1 == v {
                BDIR_DIAG
            } else if t2 == v {
                BDIR_UP
            } else {
                BDIR_LEFT
            };
            mn = mn.min(v);
            mx = mx.max(v);
            diag = up;
            left = v;
        }
        minmax[l] = mn;
        minmax[w + l] = mx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flsa_scoring::SubstitutionMatrix;
    use flsa_seq::Alphabet;

    /// Deterministic xorshift so the tests need no external RNG.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn random_seqs(rng: &mut Rng, n_codes: usize, max_len: usize) -> (Vec<u8>, Vec<u8>) {
        let rows = rng.below(max_len);
        let cols = rng.below(max_len);
        (
            (0..rows).map(|_| rng.below(n_codes) as u8).collect(),
            (0..cols).map(|_| rng.below(n_codes) as u8).collect(),
        )
    }

    fn check_batch_matches_single(batch: &BatchKernel, jobs: &[BatchJob<'_>]) {
        let metrics = Metrics::new();
        let got = batch.align_batch(jobs, &metrics);
        assert_eq!(got.len(), jobs.len());
        let reference = BatchKernel {
            kernel: Kernel::scalar(),
            backend: BatchBackend::Portable,
        };
        for (k, (job, r)) in jobs.iter().zip(got.iter()).enumerate() {
            let want = reference.align_single(job, &Metrics::new());
            assert_eq!(r, &want, "job {k} diverged from the scalar result");
        }
    }

    #[test]
    fn portable_batch_matches_scalar_on_random_jobs() {
        let mut rng = Rng(0x5eed_0001);
        let schemes = [
            ScoringScheme::paper_example(),
            ScoringScheme::dna_default(),
            ScoringScheme::protein_default(),
        ];
        let mut pairs = Vec::new();
        for _ in 0..23 {
            let scheme = &schemes[rng.below(schemes.len())];
            let n_codes = scheme.alphabet().len();
            pairs.push((random_seqs(&mut rng, n_codes, 40), scheme));
        }
        let jobs: Vec<BatchJob<'_>> = pairs
            .iter()
            .map(|((a, b), scheme)| BatchJob { a, b, scheme })
            .collect();
        let batch = BatchKernel::try_with_lanes(Kernel::scalar(), 0)
            .unwrap_or_else(|e| panic!("portable always available: {e}"));
        check_batch_matches_single(&batch, &jobs);
    }

    #[test]
    fn native_batch_matches_scalar_on_random_jobs() {
        let mut rng = Rng(0xfeed_0002);
        let scheme = ScoringScheme::protein_default();
        let n_codes = scheme.alphabet().len();
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..37)
            .map(|_| random_seqs(&mut rng, n_codes, 70))
            .collect();
        let jobs: Vec<BatchJob<'_>> = pairs
            .iter()
            .map(|(a, b)| BatchJob {
                a,
                b,
                scheme: &scheme,
            })
            .collect();
        check_batch_matches_single(&BatchKernel::new(Kernel::auto()), &jobs);
    }

    #[test]
    fn paper_example_scores_82_in_every_lane() {
        let scheme = ScoringScheme::paper_example();
        let a = scheme
            .alphabet()
            .encode_str("TDVLKAD")
            .unwrap_or_else(|e| panic!("paper sequence encodes: {e}"));
        let b = scheme
            .alphabet()
            .encode_str("TLDKLLKD")
            .unwrap_or_else(|e| panic!("paper sequence encodes: {e}"));
        let jobs = vec![
            BatchJob {
                a: &a,
                b: &b,
                scheme: &scheme,
            };
            19
        ];
        let batch = BatchKernel::new(Kernel::auto());
        for r in batch.align_batch(&jobs, &Metrics::new()) {
            assert_eq!(r.score, 82);
            assert!(r.path.is_global(a.len(), b.len()));
        }
    }

    #[test]
    fn huge_scores_fall_back_to_exact_path() {
        // Scores near i16::MAX are inadmissible for the striped fill —
        // every lane must silently take the exact i32 fallback.
        let m = SubstitutionMatrix::match_mismatch("big", Alphabet::dna(), 30000, -30000);
        let scheme = ScoringScheme::new(m, GapModel::linear(-10));
        let a = vec![0u8, 1, 2, 3, 0, 1];
        let b = vec![0u8, 1, 2, 0, 3];
        let jobs = vec![
            BatchJob {
                a: &a,
                b: &b,
                scheme: &scheme,
            };
            9
        ];
        check_batch_matches_single(&BatchKernel::new(Kernel::auto()), &jobs);
    }

    #[test]
    fn saturating_lane_is_flagged_and_recomputed() {
        // Admissible per the upfront check (Δ and span·|gap| both small)
        // but with values that climb steadily: long perfect matches at
        // +1000/cell cross the i16 safe zone mid-fill, so the runtime
        // min/max tracker must flag the lanes and fall back.
        let m = SubstitutionMatrix::match_mismatch("climb", Alphabet::dna(), 1000, -1000);
        let scheme = ScoringScheme::new(m, GapModel::linear(-1));
        let a: Vec<u8> = (0..60).map(|i| (i % 4) as u8).collect();
        let jobs = vec![
            BatchJob {
                a: &a,
                b: &a,
                scheme: &scheme,
            };
            5
        ];
        let batch = BatchKernel::new(Kernel::auto());
        for r in batch.align_batch(&jobs, &Metrics::new()) {
            assert_eq!(r.score, 60 * 1000, "exact score despite i16 overflow");
        }
        check_batch_matches_single(&batch, &jobs);
    }

    #[test]
    fn mixed_lengths_empty_pairs_and_schemes_in_one_batch() {
        let dna = ScoringScheme::dna_default();
        let paper = ScoringScheme::paper_example();
        let a1 = vec![0u8, 1, 2];
        let b1 = vec![2u8, 1];
        let long: Vec<u8> = (0..33).map(|i| (i % 4) as u8).collect();
        let pa = vec![3u8, 1, 4, 1];
        let jobs = vec![
            BatchJob {
                a: &a1,
                b: &b1,
                scheme: &dna,
            },
            BatchJob {
                a: &[],
                b: &b1,
                scheme: &dna,
            },
            BatchJob {
                a: &long,
                b: &a1,
                scheme: &dna,
            },
            BatchJob {
                a: &pa,
                b: &pa,
                scheme: &paper,
            },
            BatchJob {
                a: &a1,
                b: &[],
                scheme: &dna,
            },
            BatchJob {
                a: &long,
                b: &long,
                scheme: &dna,
            },
        ];
        check_batch_matches_single(&BatchKernel::new(Kernel::auto()), &jobs);
    }

    #[test]
    fn empty_batch_is_fine() {
        let batch = BatchKernel::new(Kernel::auto());
        assert!(batch.align_batch(&[], &Metrics::new()).is_empty());
    }

    #[test]
    fn lane_widths_report_correctly() {
        let p = BatchKernel::try_with_lanes(Kernel::scalar(), 0)
            .unwrap_or_else(|e| panic!("portable always available: {e}"));
        assert_eq!(p.lanes(), 8);
        assert_eq!(p.backend_name(), "batch-portable");
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            let v = BatchKernel::try_with_lanes(Kernel::auto(), 16)
                .unwrap_or_else(|e| panic!("avx2 detected: {e}"));
            assert_eq!(v.lanes(), 16);
            assert_eq!(v.backend_name(), "batch-avx2x16");
        }
    }
}
