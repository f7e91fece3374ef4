//! Vectorized DP kernels: backend selection and dispatch.
//!
//! The scalar kernels in [`crate::kernel`] walk the recurrence
//!
//! ```text
//! H(i,j) = max( H(i-1,j-1) + S(a[i-1], b[j-1]),
//!               H(i-1,j)   + gap,
//!               H(i,j-1)   + gap )
//! ```
//!
//! one cell at a time. The `H(i,j-1) + gap` term carries a dependency
//! along the row — the same dependency the classic anti-diagonal
//! transformation removes by sweeping diagonals. This module removes it
//! algebraically instead, which keeps the memory accesses row-major and
//! unit-stride (the anti-diagonal layout scatters them):
//!
//! 1. **Pass A** (vertically independent, trivially vectorizable):
//!    `t[j] = max(H(i-1,j-1) + S(a_i, b_j), H(i-1,j) + gap)`.
//! 2. **Pass B** (prefix scan): with the gap ramp `r[j] = j·gap` define
//!    `u[j] = t[j] − r[j]`. Then `H(i,j) = r[j] + max(u[0..=j])` where
//!    `u[0]` is the left boundary — a plain inclusive prefix maximum,
//!    computed in `log₂(width)` shift-and-max steps per vector block.
//!
//! The identity is exact over the integers (max-plus algebra has no
//! rounding), so **every backend produces bit-identical scores, cell
//! counts, and tracebacks** — the property the differential suite in
//! `tests/kernel_equivalence.rs` enforces. Ties need no special care:
//! equal scores are equal bit patterns, and both score-based traceback
//! and the direction derivation in [`Kernel::fill_dir`] apply the shared
//! Diag ≻ Up ≻ Left precedence *after* the max, not during it.
//!
//! Backends:
//!
//! * [`KernelBackend::Scalar`] — the reference kernels, always available
//!   and the fallback on every non-x86-64 target;
//! * [`KernelBackend::Sse41`] / [`KernelBackend::Avx2`] /
//!   [`KernelBackend::Avx512`] — explicit `core::arch` kernels, admitted
//!   only after `is_x86_feature_detected!` (rule R6 pins their
//!   `#[target_feature]` functions to this module).
//!
//! (An earlier "portable lanes" backend — `[i32; 8]` blocks left to the
//! autovectorizer — measured at 0.2–0.3× *scalar* on x86-64 and was
//! removed; see BENCH_kernels.json history.)
//!
//! Scoring goes through a [`QueryProfile`] (contiguous per-residue score
//! rows) and scratch comes from a shared [`KernelArena`], so steady-state
//! block fills perform no allocation at all. The intra-sequence kernels
//! here speed up one pair; for many small independent pairs see the
//! inter-sequence [`crate::batch::BatchKernel`], whose striped
//! `#[target_feature]` kernels also live in this module's `x86` file.

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86;

use std::sync::Arc;

use flsa_scoring::{QueryProfile, ScoringScheme};

use crate::affine::{self, affine_params, AffineBoundary, AffineMatrices, NEG};
use crate::arena::KernelArena;
use crate::boundary::check_boundary;
use crate::kernel;
use crate::matrix::{Dir, DirMatrix, ScoreMatrix};
use crate::Metrics;

/// Rectangles narrower than this skip the vector path: profile build and
/// prefix-scan setup would dominate. Purely a performance cutoff — both
/// paths produce identical bits.
const MIN_VEC_COLS: usize = 16;

/// Which row-update implementation a [`Kernel`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// The reference scalar kernels in [`crate::kernel`].
    Scalar,
    /// Explicit SSE4.1 intrinsics (x86-64, runtime-detected).
    Sse41,
    /// Explicit AVX2 intrinsics (x86-64, runtime-detected).
    Avx2,
    /// Explicit AVX-512F intrinsics (x86-64, runtime-detected).
    Avx512,
}

impl KernelBackend {
    /// Every backend, in increasing vector width.
    pub const ALL: [KernelBackend; 4] = [
        KernelBackend::Scalar,
        KernelBackend::Sse41,
        KernelBackend::Avx2,
        KernelBackend::Avx512,
    ];

    /// Stable lowercase name (CLI values, trace events, bench reports).
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Sse41 => "sse4.1",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Avx512 => "avx512",
        }
    }

    /// Parses a backend name as accepted by `flsa align --kernel`.
    pub fn parse(s: &str) -> Option<KernelBackend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelBackend::Scalar),
            "sse4.1" | "sse41" => Some(KernelBackend::Sse41),
            "avx2" => Some(KernelBackend::Avx2),
            "avx512" | "avx512f" => Some(KernelBackend::Avx512),
            _ => None,
        }
    }

    /// True when this backend can run on the current CPU.
    pub fn is_available(self) -> bool {
        match self {
            KernelBackend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Sse41 => is_x86_feature_detected!("sse4.1"),
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest backend available on this CPU:
    /// AVX-512 ≻ AVX2 ≻ SSE4.1 ≻ scalar.
    pub fn detect_best() -> KernelBackend {
        if KernelBackend::Avx512.is_available() {
            KernelBackend::Avx512
        } else if KernelBackend::Avx2.is_available() {
            KernelBackend::Avx2
        } else if KernelBackend::Sse41.is_available() {
            KernelBackend::Sse41
        } else {
            KernelBackend::Scalar
        }
    }

    /// Every backend available on this CPU.
    pub fn available() -> Vec<KernelBackend> {
        KernelBackend::ALL
            .into_iter()
            .filter(|b| b.is_available())
            .collect()
    }
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Names of the CPU SIMD features relevant to kernel selection that the
/// current machine reports (empty on non-x86-64 targets). Recorded in
/// bench reports so numbers can be compared across machines.
pub fn detected_cpu_features() -> Vec<&'static str> {
    #[allow(unused_mut)] // non-x86 builds return it untouched
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    for (name, present) in [
        ("sse2", is_x86_feature_detected!("sse2")),
        ("sse4.1", is_x86_feature_detected!("sse4.1")),
        ("avx", is_x86_feature_detected!("avx")),
        ("avx2", is_x86_feature_detected!("avx2")),
        ("avx512f", is_x86_feature_detected!("avx512f")),
        ("avx512bw", is_x86_feature_detected!("avx512bw")),
    ] {
        if present {
            out.push(name);
        }
    }
    out
}

/// Portable one-row update in the u-domain formulation: pass A and the
/// prefix max fused into one scalar sweep. Identical results to
/// [`crate::kernel`]'s cell-at-a-time recurrence (the reformulation is
/// exact over the integers) and to every vector kernel in [`x86`].
///
/// Contract: `prev.len() == cur.len() == profile.len() + 1`, and
/// `cur[0]` holds the row's left-boundary value on entry.
fn row_update_portable(prev: &[i32], cur: &mut [i32], profile: &[i32], gap: i32) {
    let cols = profile.len();
    assert_eq!(prev.len(), cols + 1, "prev row length");
    assert_eq!(cur.len(), cols + 1, "cur row length");
    let mut carry = cur[0];
    for j in 1..=cols {
        let diag = prev[j - 1] + profile[j - 1];
        let up = prev[j] + gap;
        let t = if diag > up { diag } else { up };
        let u = t - j as i32 * gap;
        carry = if u > carry { u } else { carry };
        cur[j] = carry + j as i32 * gap;
    }
}

/// Portable one-row update of the affine (Gotoh) recurrence in the
/// two-pass form: per column, pass A's elementwise
/// `F[j] = max(F↑[j] + ext, H↑[j] + open + ext)` and
/// `T[j] = max(H↑[j−1] + prof[j−1], F[j])`, fused with pass B's
/// *exclusive* prefix max `E[j] = ext·j + max(c₀, x[1..j−1])` over the
/// u-domain values `x[k] = T[k] + open − ext·k`, `c₀ = max(E₀, H₀ + open)`;
/// then `H[j] = max(T[j], E[j])`. Exact whenever `open ≤ 0` (DESIGN.md
/// §11), so it matches [`crate::affine`]'s cell-at-a-time loop and every
/// vector kernel in [`x86`] bit for bit.
///
/// Contract: `prev.len() == cur.len() == f.len() == profile.len() + 1`
/// (and `e_row`'s, when given). `prev` is the `H` row above; `cur[0]`
/// holds `H₀`, the row's left-boundary `H`, on entry; `f` holds the `F`
/// row above on entry and this row's `F` on exit (`f[0]` is untouched);
/// `e_row`, when given, receives `E[1..=cols]`. `e0` is the left-boundary
/// `E₀` and `gaps` is `(open, extend)`. Returns `E[cols]` (`e0` when the
/// row is empty).
fn affine_row_update_portable(
    prev: &[i32],
    cur: &mut [i32],
    f: &mut [i32],
    e_row: Option<&mut [i32]>,
    profile: &[i32],
    e0: i32,
    gaps: (i32, i32),
) -> i32 {
    let cols = profile.len();
    assert_eq!(prev.len(), cols + 1, "prev row length");
    assert_eq!(cur.len(), cols + 1, "cur row length");
    assert_eq!(f.len(), cols + 1, "F row length");
    assert!(
        e_row.as_ref().is_none_or(|e| e.len() == cols + 1),
        "E row length"
    );
    let c0 = e0.max(cur[0] + gaps.0);
    affine_row_tail(prev, cur, f, e_row, profile, gaps, 1, c0, e0)
}

/// Columns `j..=cols` of [`affine_row_update_portable`], resuming from
/// the u-domain carry `carry = max(c₀, x[1..j−1])`. Returns `E[cols]`, or
/// `e_last` (the caller's `E[j−1]`) when the range is empty. The vector
/// kernels finish their odd tails here.
#[allow(clippy::too_many_arguments)] // a row kernel's operands plus its resume state
fn affine_row_tail(
    prev: &[i32],
    cur: &mut [i32],
    f: &mut [i32],
    mut e_row: Option<&mut [i32]>,
    profile: &[i32],
    (open, ext): (i32, i32),
    start: usize,
    mut carry: i32,
    mut e_last: i32,
) -> i32 {
    for j in start..=profile.len() {
        let fv = (f[j] + ext).max(prev[j] + open + ext);
        f[j] = fv;
        let t = (prev[j - 1] + profile[j - 1]).max(fv);
        let e = carry + j as i32 * ext;
        cur[j] = t.max(e);
        if let Some(ref mut er) = e_row {
            er[j] = e;
        }
        carry = carry.max(t + open - j as i32 * ext);
        e_last = e;
    }
    e_last
}

/// A requested backend the current CPU cannot run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedBackend {
    /// The rejected backend.
    pub backend: KernelBackend,
}

impl std::fmt::Display for UnsupportedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "kernel backend `{}` is not supported on this CPU",
            self.backend.name()
        )
    }
}

impl std::error::Error for UnsupportedBackend {}

/// A kernel handle: a backend plus the scratch arena its fills draw from.
///
/// Cheap to clone (the arena is shared through an [`Arc`]) and `Sync`, so
/// parallel tile workers can share one handle. All fill methods mirror
/// the free functions in [`crate::kernel`] exactly — same signatures,
/// same panics, same [`Metrics`] accounting, bit-identical output.
#[derive(Debug, Clone)]
pub struct Kernel {
    backend: KernelBackend,
    arena: Arc<KernelArena>,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::scalar()
    }
}

impl Kernel {
    /// A kernel on `backend`, rejecting backends the CPU cannot run.
    pub fn try_new(backend: KernelBackend) -> Result<Kernel, UnsupportedBackend> {
        if !backend.is_available() {
            return Err(UnsupportedBackend { backend });
        }
        Ok(Kernel {
            backend,
            arena: Arc::new(KernelArena::new()),
        })
    }

    /// The widest kernel available on this CPU.
    pub fn auto() -> Kernel {
        Kernel {
            backend: KernelBackend::detect_best(),
            arena: Arc::new(KernelArena::new()),
        }
    }

    /// The reference scalar kernel.
    pub fn scalar() -> Kernel {
        Kernel {
            backend: KernelBackend::Scalar,
            arena: Arc::new(KernelArena::new()),
        }
    }

    /// The active backend.
    pub fn backend(&self) -> KernelBackend {
        self.backend
    }

    /// The shared scratch arena.
    pub fn arena(&self) -> &Arc<KernelArena> {
        &self.arena
    }

    /// Permanently drops to the scalar backend and frees the arena's
    /// pooled scratch — the memory-pressure escape hatch: the scalar
    /// kernels run entirely in caller-owned buffers.
    pub fn degrade_to_scalar(&mut self) {
        self.backend = KernelBackend::Scalar;
        self.arena.clear();
    }

    fn vectorize(&self, rows: usize, cols: usize) -> bool {
        self.backend != KernelBackend::Scalar && rows >= 1 && cols >= MIN_VEC_COLS
    }

    /// Dispatches one row update to the active backend.
    #[inline]
    fn row_update(&self, prev: &[i32], cur: &mut [i32], profile: &[i32], gap: i32) {
        match self.backend {
            KernelBackend::Scalar => row_update_portable(prev, cur, profile, gap),
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Sse41 => {
                // SAFETY: `try_new` admits Sse41 only after
                // `is_x86_feature_detected!("sse4.1")` returned true.
                unsafe { x86::row_update_sse41(prev, cur, profile, gap) }
            }
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2 => {
                // SAFETY: `try_new` admits Avx2 only after
                // `is_x86_feature_detected!("avx2")` returned true.
                unsafe { x86::row_update_avx2(prev, cur, profile, gap) }
            }
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx512 => {
                // SAFETY: `try_new` admits Avx512 only after
                // `is_x86_feature_detected!("avx512f")` returned true.
                unsafe { x86::row_update_avx512(prev, cur, profile, gap) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            KernelBackend::Sse41 | KernelBackend::Avx2 | KernelBackend::Avx512 => {
                // `try_new` rejects these off x86-64, so this arm never
                // runs; the portable kernel keeps it correct regardless.
                row_update_portable(prev, cur, profile, gap)
            }
        }
    }

    /// Dispatches one affine row update to the active backend (contract
    /// of [`affine_row_update_portable`]).
    #[inline]
    #[allow(clippy::too_many_arguments)] // mirrors the DP recurrence inputs
    fn affine_row_update(
        &self,
        prev: &[i32],
        cur: &mut [i32],
        f: &mut [i32],
        e_row: Option<&mut [i32]>,
        profile: &[i32],
        e0: i32,
        gaps: (i32, i32),
    ) -> i32 {
        match self.backend {
            KernelBackend::Scalar => {
                affine_row_update_portable(prev, cur, f, e_row, profile, e0, gaps)
            }
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Sse41 => {
                // SAFETY: `try_new` admits Sse41 only after
                // `is_x86_feature_detected!("sse4.1")` returned true.
                unsafe { x86::affine_row_update_sse41(prev, cur, f, e_row, profile, e0, gaps) }
            }
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2 => {
                // SAFETY: `try_new` admits Avx2 only after
                // `is_x86_feature_detected!("avx2")` returned true.
                unsafe { x86::affine_row_update_avx2(prev, cur, f, e_row, profile, e0, gaps) }
            }
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx512 => {
                // SAFETY: `try_new` admits Avx512 only after
                // `is_x86_feature_detected!("avx512f")` returned true.
                unsafe { x86::affine_row_update_avx512(prev, cur, f, e_row, profile, e0, gaps) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            KernelBackend::Sse41 | KernelBackend::Avx2 | KernelBackend::Avx512 => {
                // `try_new` rejects these off x86-64, so this arm never
                // runs; the portable kernel keeps it correct regardless.
                affine_row_update_portable(prev, cur, f, e_row, profile, e0, gaps)
            }
        }
    }

    /// The affine gap parameters when the two-pass row kernel applies:
    /// a vector backend, a wide enough rectangle, and `open ≤ 0 &&
    /// extend ≤ 0`, the range in which the reformulation is exact.
    /// `GapModel::affine` enforces that range, but the variant's fields
    /// are public, so a hand-built scheme outside it takes the scalar
    /// loop instead.
    fn vectorize_affine(
        &self,
        scheme: &ScoringScheme,
        rows: usize,
        cols: usize,
    ) -> Option<(i32, i32)> {
        let (open, extend) = affine_params(scheme);
        (self.vectorize(rows, cols) && open <= 0 && extend <= 0).then_some((open, extend))
    }

    /// [`crate::affine::fill_affine_edges_into`] on the active backend.
    #[allow(clippy::too_many_arguments)] // mirrors the DP recurrence inputs
    pub fn fill_affine_edges_into(
        &self,
        a: &[u8],
        b: &[u8],
        bnd: AffineBoundary<'_>,
        scheme: &ScoringScheme,
        bottom: &mut [i32],
        right: &mut [i32],
        metrics: &Metrics,
    ) {
        let (rows, cols) = (a.len(), b.len());
        let Some(gaps) = self.vectorize_affine(scheme, rows, cols) else {
            return affine::fill_affine_edges_into(a, b, bnd, scheme, bottom, right, metrics);
        };
        bnd.check_boundary(rows, cols);
        assert_eq!(bottom.len(), 2 * (cols + 1), "bottom edge length");
        assert_eq!(right.len(), 2 * (rows + 1), "right edge length");
        let profile = self.take_profile(scheme, b);
        let (bottom_h, f) = bottom.split_at_mut(cols + 1);
        let (right_h, right_e) = right.split_at_mut(rows + 1);
        f.copy_from_slice(bnd.top_v);
        right_h[0] = bnd.top_h[cols];
        right_e[0] = NEG;
        let mut prev = self.arena.take(cols + 1);
        let mut cur = self.arena.take(cols + 1);
        prev.copy_from_slice(bnd.top_h);
        for i in 1..=rows {
            cur[0] = bnd.left_h[i];
            right_e[i] = self.affine_row_update(
                &prev,
                &mut cur,
                f,
                None,
                profile.row(a[i - 1]),
                bnd.left_e[i],
                gaps,
            );
            right_h[i] = cur[cols];
            std::mem::swap(&mut prev, &mut cur);
        }
        bottom_h.copy_from_slice(&prev);
        self.arena.put(prev);
        self.arena.put(cur);
        self.put_profile(profile);
        metrics.add_cells(rows as u64 * cols as u64);
    }

    /// [`crate::affine::fill_affine_full`] on the active backend: all
    /// three layers, `E` included for the traceback, reusing `storage`.
    pub fn fill_affine_full(
        &self,
        a: &[u8],
        b: &[u8],
        bnd: AffineBoundary<'_>,
        scheme: &ScoringScheme,
        storage: [Vec<i32>; 3],
        metrics: &Metrics,
    ) -> AffineMatrices {
        let (rows, cols) = (a.len(), b.len());
        let Some(gaps) = self.vectorize_affine(scheme, rows, cols) else {
            return affine::fill_affine_full(a, b, bnd, scheme, storage, metrics);
        };
        bnd.check_boundary(rows, cols);
        let profile = self.take_profile(scheme, b);
        let [h, e, f] = storage;
        let mut h = ScoreMatrix::from_storage(rows, cols, h);
        let mut e = ScoreMatrix::from_storage(rows, cols, e);
        let mut f = ScoreMatrix::from_storage(rows, cols, f);
        h.row_mut(0).copy_from_slice(bnd.top_h);
        f.row_mut(0).copy_from_slice(bnd.top_v);
        e.row_mut(0).fill(NEG);
        for i in 1..=rows {
            let (f_up, f_cur) = f.rows_prev_cur(i);
            f_cur.copy_from_slice(f_up);
            f_cur[0] = NEG;
            let e_cur = e.row_mut(i);
            e_cur[0] = bnd.left_e[i];
            let (prev, cur) = h.rows_prev_cur(i);
            cur[0] = bnd.left_h[i];
            self.affine_row_update(
                prev,
                cur,
                f_cur,
                Some(e_cur),
                profile.row(a[i - 1]),
                bnd.left_e[i],
                gaps,
            );
        }
        self.put_profile(profile);
        metrics.add_cells(rows as u64 * cols as u64);
        AffineMatrices { h, e, f }
    }

    /// Builds the query profile for `b` in arena-backed storage, sized
    /// exactly so the build never grows the buffer (which would escape the
    /// arena's byte accounting).
    fn take_profile(&self, scheme: &ScoringScheme, b: &[u8]) -> QueryProfile {
        let codes = scheme.matrix().alphabet().len();
        QueryProfile::build_in(scheme.matrix(), b, self.arena.take(codes * b.len()))
    }

    fn put_profile(&self, profile: QueryProfile) {
        self.arena.put(profile.into_storage());
    }

    /// [`crate::kernel::fill_full`] on the active backend.
    pub fn fill_full(
        &self,
        a: &[u8],
        b: &[u8],
        top: &[i32],
        left: &[i32],
        scheme: &ScoringScheme,
        metrics: &Metrics,
    ) -> ScoreMatrix {
        self.fill_full_reusing(a, b, top, left, scheme, Vec::new(), metrics)
    }

    /// [`crate::kernel::fill_full_reusing`] on the active backend.
    #[allow(clippy::too_many_arguments)] // mirrors the DP recurrence inputs
    pub fn fill_full_reusing(
        &self,
        a: &[u8],
        b: &[u8],
        top: &[i32],
        left: &[i32],
        scheme: &ScoringScheme,
        storage: Vec<i32>,
        metrics: &Metrics,
    ) -> ScoreMatrix {
        let rows = a.len();
        let cols = b.len();
        if !self.vectorize(rows, cols) {
            return kernel::fill_full_reusing(a, b, top, left, scheme, storage, metrics);
        }
        check_boundary(top, left, rows, cols);
        let gap = scheme.gap().linear_penalty();
        let profile = self.take_profile(scheme, b);
        let mut dpm = ScoreMatrix::from_storage(rows, cols, storage);
        dpm.row_mut(0).copy_from_slice(top);
        for i in 1..=rows {
            let (prev, cur) = dpm.rows_prev_cur(i);
            cur[0] = left[i];
            self.row_update(prev, cur, profile.row(a[i - 1]), gap);
        }
        self.put_profile(profile);
        metrics.add_cells(rows as u64 * cols as u64);
        dpm
    }

    /// [`crate::kernel::fill_last_row_col`] on the active backend.
    #[allow(clippy::too_many_arguments)] // mirrors the DP recurrence inputs
    pub fn fill_last_row_col(
        &self,
        a: &[u8],
        b: &[u8],
        top: &[i32],
        left: &[i32],
        scheme: &ScoringScheme,
        out_bottom: &mut [i32],
        mut out_right: Option<&mut [i32]>,
        metrics: &Metrics,
    ) {
        let rows = a.len();
        let cols = b.len();
        if !self.vectorize(rows, cols) {
            return kernel::fill_last_row_col(
                a, b, top, left, scheme, out_bottom, out_right, metrics,
            );
        }
        check_boundary(top, left, rows, cols);
        assert_eq!(out_bottom.len(), cols + 1, "out_bottom length");
        if let Some(ref r) = out_right {
            assert_eq!(r.len(), rows + 1, "out_right length");
        }
        let gap = scheme.gap().linear_penalty();
        let profile = self.take_profile(scheme, b);
        let mut prev = self.arena.take(cols + 1);
        let mut cur = self.arena.take(cols + 1);
        prev.copy_from_slice(top);
        if let Some(ref mut r) = out_right {
            r[0] = top[cols];
        }
        for i in 1..=rows {
            cur[0] = left[i];
            self.row_update(&prev, &mut cur, profile.row(a[i - 1]), gap);
            if let Some(ref mut r) = out_right {
                r[i] = cur[cols];
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        out_bottom.copy_from_slice(&prev);
        self.arena.put(prev);
        self.arena.put(cur);
        self.put_profile(profile);
        metrics.add_cells(rows as u64 * cols as u64);
    }

    /// [`crate::kernel::fill_last_row`] on the active backend.
    #[allow(clippy::too_many_arguments)] // mirrors the DP recurrence inputs
    pub fn fill_last_row(
        &self,
        a: &[u8],
        b: &[u8],
        top: &[i32],
        left: &[i32],
        scheme: &ScoringScheme,
        out_bottom: &mut [i32],
        metrics: &Metrics,
    ) {
        self.fill_last_row_col(a, b, top, left, scheme, out_bottom, None, metrics);
    }

    /// [`crate::kernel::fill_dir`] on the active backend. Directions are
    /// derived from the vectorized score rows with the shared Diag ≻ Up ≻
    /// Left precedence, so the packed matrix is byte-identical to the
    /// scalar kernel's.
    pub fn fill_dir(
        &self,
        a: &[u8],
        b: &[u8],
        top: &[i32],
        left: &[i32],
        scheme: &ScoringScheme,
        metrics: &Metrics,
    ) -> (DirMatrix, Vec<i32>) {
        let rows = a.len();
        let cols = b.len();
        if !self.vectorize(rows, cols) {
            return kernel::fill_dir(a, b, top, left, scheme, metrics);
        }
        check_boundary(top, left, rows, cols);
        let gap = scheme.gap().linear_penalty();
        let profile = self.take_profile(scheme, b);

        let mut dirs = DirMatrix::new(rows, cols);
        dirs.set(0, 0, Dir::Stop);
        for j in 1..=cols {
            dirs.set(0, j, Dir::Left);
        }
        for i in 1..=rows {
            dirs.set(i, 0, Dir::Up);
        }

        let mut prev = self.arena.take(cols + 1);
        let mut cur = self.arena.take(cols + 1);
        prev.copy_from_slice(top);
        for i in 1..=rows {
            let prow = profile.row(a[i - 1]);
            cur[0] = left[i];
            self.row_update(&prev, &mut cur, prow, gap);
            for j in 1..=cols {
                // `v` is the max of the three terms, so comparing in
                // precedence order reproduces the scalar tie-break exactly.
                let v = cur[j];
                let d = if prev[j - 1] + prow[j - 1] == v {
                    Dir::Diag
                } else if prev[j] + gap == v {
                    Dir::Up
                } else {
                    Dir::Left
                };
                dirs.set(i, j, d);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        let row = prev.clone();
        self.arena.put(prev);
        self.arena.put(cur);
        self.put_profile(profile);
        metrics.add_cells(rows as u64 * cols as u64);
        (dirs, row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Boundary;

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

    fn random_case(rng: &mut Rng) -> (Vec<u8>, Vec<u8>, ScoringScheme, Boundary) {
        let scheme = match rng.below(3) {
            0 => ScoringScheme::dna_default(),
            1 => ScoringScheme::paper_example(),
            _ => ScoringScheme::protein_default(),
        };
        let n_codes = scheme.alphabet().len();
        let rows = rng.below(40);
        let cols = rng.below(90); // often crosses MIN_VEC_COLS, with odd tails
        let a: Vec<u8> = (0..rows).map(|_| rng.below(n_codes) as u8).collect();
        let b: Vec<u8> = (0..cols).map(|_| rng.below(n_codes) as u8).collect();
        let bound = if rng.below(2) == 0 {
            Boundary::global(rows, cols, scheme.gap().linear_penalty())
        } else {
            // An arbitrary (still corner-consistent) boundary.
            let mut top: Vec<i32> = (0..=cols).map(|_| rng.below(2000) as i32 - 1000).collect();
            let mut left: Vec<i32> = (0..=rows).map(|_| rng.below(2000) as i32 - 1000).collect();
            top[0] = 0;
            left[0] = 0;
            Boundary::new(top, left)
        };
        (a, b, scheme, bound)
    }

    fn non_scalar_backends() -> Vec<KernelBackend> {
        KernelBackend::available()
            .into_iter()
            .filter(|b| *b != KernelBackend::Scalar)
            .collect()
    }

    #[test]
    fn every_backend_matches_scalar_on_random_rectangles() {
        let mut rng = Rng(0x5eed_cafe);
        for case in 0..200 {
            let (a, b, scheme, bound) = random_case(&mut rng);
            let metrics = Metrics::new();
            let reference = kernel::fill_full(&a, &b, &bound.top, &bound.left, &scheme, &metrics);
            let ref_cells = metrics.snapshot();
            for backend in non_scalar_backends() {
                let k = Kernel::try_new(backend).expect("available backend");
                let metrics = Metrics::new();
                let m = k.fill_full(&a, &b, &bound.top, &bound.left, &scheme, &metrics);
                for i in 0..=a.len() {
                    assert_eq!(
                        m.row(i),
                        reference.row(i),
                        "case {case} backend {backend} row {i}"
                    );
                }
                assert_eq!(metrics.snapshot(), ref_cells, "case {case} {backend}");
            }
        }
    }

    #[test]
    fn last_row_col_matches_scalar_including_corner() {
        let mut rng = Rng(0xabcd_1234);
        for case in 0..200 {
            let (a, b, scheme, bound) = random_case(&mut rng);
            let metrics = Metrics::new();
            let mut want_b = vec![0; b.len() + 1];
            let mut want_r = vec![0; a.len() + 1];
            kernel::fill_last_row_col(
                &a,
                &b,
                &bound.top,
                &bound.left,
                &scheme,
                &mut want_b,
                Some(&mut want_r),
                &metrics,
            );
            for backend in non_scalar_backends() {
                let k = Kernel::try_new(backend).expect("available backend");
                let mut got_b = vec![0; b.len() + 1];
                let mut got_r = vec![0; a.len() + 1];
                k.fill_last_row_col(
                    &a,
                    &b,
                    &bound.top,
                    &bound.left,
                    &scheme,
                    &mut got_b,
                    Some(&mut got_r),
                    &metrics,
                );
                assert_eq!(got_b, want_b, "case {case} backend {backend} bottom row");
                assert_eq!(got_r, want_r, "case {case} backend {backend} right col");
            }
        }
    }

    #[test]
    fn fill_dir_directions_and_final_row_match_scalar() {
        let mut rng = Rng(0x0ddb_1175);
        for case in 0..120 {
            let (a, b, scheme, bound) = random_case(&mut rng);
            let metrics = Metrics::new();
            let (want_dirs, want_row) =
                kernel::fill_dir(&a, &b, &bound.top, &bound.left, &scheme, &metrics);
            for backend in non_scalar_backends() {
                let k = Kernel::try_new(backend).expect("available backend");
                let (got_dirs, got_row) =
                    k.fill_dir(&a, &b, &bound.top, &bound.left, &scheme, &metrics);
                assert_eq!(got_row, want_row, "case {case} backend {backend} final row");
                for i in 0..=a.len() {
                    for j in 0..=b.len() {
                        assert_eq!(
                            got_dirs.get(i, j),
                            want_dirs.get(i, j),
                            "case {case} backend {backend} dir ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn repeated_fills_are_allocation_free_in_steady_state() {
        let k = Kernel::auto();
        let scheme = ScoringScheme::dna_default();
        let a: Vec<u8> = (0..200).map(|i| (i % 4) as u8).collect();
        let b: Vec<u8> = (0..300).map(|i| (i % 3) as u8).collect();
        let bound = Boundary::global(a.len(), b.len(), scheme.gap().linear_penalty());
        let metrics = Metrics::new();
        let mut bottom = vec![0; b.len() + 1];
        let mut right = vec![0; a.len() + 1];
        // Warm-up: first fill grows the arena to its high-water mark.
        k.fill_last_row_col(
            &a,
            &b,
            &bound.top,
            &bound.left,
            &scheme,
            &mut bottom,
            Some(&mut right),
            &metrics,
        );
        let allocs = k.arena().fresh_allocs();
        let held = k.arena().held_bytes();
        for _ in 0..50 {
            k.fill_last_row_col(
                &a,
                &b,
                &bound.top,
                &bound.left,
                &scheme,
                &mut bottom,
                Some(&mut right),
                &metrics,
            );
        }
        assert_eq!(
            k.arena().fresh_allocs(),
            allocs,
            "steady-state fills must not allocate"
        );
        assert_eq!(k.arena().held_bytes(), held);
        assert!(k.arena().reuses() >= 150, "three buffers per fill reused");
    }

    #[test]
    fn affine_row_kernels_match_the_gotoh_row_loop() {
        // Every row kernel, the portable one included (it runs whole rows
        // only off x86-64), against one cell-at-a-time Gotoh row.
        let mut rng = Rng(0x90_70a1);
        for case in 0..300 {
            let cols = rng.below(70);
            let open = -(rng.below(15) as i32);
            let ext = -(rng.below(5) as i32);
            let val = |rng: &mut Rng| rng.below(400) as i32 - 200;
            let prev: Vec<i32> = (0..=cols).map(|_| val(&mut rng)).collect();
            let f_up: Vec<i32> = (0..=cols).map(|_| val(&mut rng)).collect();
            let profile: Vec<i32> = (0..cols).map(|_| rng.below(20) as i32 - 8).collect();
            let (h0, e0) = (val(&mut rng), val(&mut rng));

            let mut want_h = vec![h0; cols + 1];
            let mut want_e = vec![0; cols + 1];
            let mut want_f = f_up.clone();
            let mut e = e0;
            for j in 1..=cols {
                want_f[j] = (f_up[j] + ext).max(prev[j] + open + ext);
                e = (e + ext).max(want_h[j - 1] + open + ext);
                want_e[j] = e;
                want_h[j] = (prev[j - 1] + profile[j - 1]).max(want_f[j]).max(e);
            }

            let portable = Kernel::scalar();
            for k in std::iter::once(portable).chain(
                non_scalar_backends()
                    .into_iter()
                    .map(|b| Kernel::try_new(b).expect("available backend")),
            ) {
                let mut cur = vec![h0; cols + 1];
                let mut f = f_up.clone();
                let mut e_row = vec![0; cols + 1];
                let last = k.affine_row_update(
                    &prev,
                    &mut cur,
                    &mut f,
                    Some(&mut e_row),
                    &profile,
                    e0,
                    (open, ext),
                );
                let name = k.backend();
                assert_eq!(cur, want_h, "case {case} {name} H");
                assert_eq!(f, want_f, "case {case} {name} F");
                assert_eq!(e_row[1..], want_e[1..], "case {case} {name} E");
                assert_eq!(last, e, "case {case} {name} E[cols]");
            }
        }
    }

    #[test]
    fn backend_parse_and_names_round_trip() {
        for b in KernelBackend::ALL {
            assert_eq!(KernelBackend::parse(b.name()), Some(b));
        }
        assert_eq!(KernelBackend::parse("SSE41"), Some(KernelBackend::Sse41));
        assert_eq!(KernelBackend::parse("bogus"), None);
    }

    #[test]
    fn scalar_is_always_available_and_detect_best_is_admitted() {
        assert!(KernelBackend::Scalar.is_available());
        assert!(KernelBackend::available().contains(&KernelBackend::detect_best()));
        Kernel::try_new(KernelBackend::Scalar).expect("scalar is always available");
        // Backend order is widest-first: anything detect_best skips over
        // an available backend must itself be available.
        #[cfg(target_arch = "x86_64")]
        if KernelBackend::Avx512.is_available() {
            assert_eq!(KernelBackend::detect_best(), KernelBackend::Avx512);
        }
    }

    #[test]
    fn degrade_to_scalar_frees_the_arena() {
        let mut k = Kernel::auto();
        let scheme = ScoringScheme::dna_default();
        let a = vec![0u8; 64];
        let b = vec![1u8; 64];
        let bound = Boundary::global(64, 64, scheme.gap().linear_penalty());
        let metrics = Metrics::new();
        let mut bottom = vec![0; 65];
        k.fill_last_row(
            &a,
            &b,
            &bound.top,
            &bound.left,
            &scheme,
            &mut bottom,
            &metrics,
        );
        k.degrade_to_scalar();
        assert_eq!(k.backend(), KernelBackend::Scalar);
        assert_eq!(k.arena().held_bytes(), 0);
        // And the scalar path still produces the right answer.
        let mut again = vec![0; 65];
        k.fill_last_row(
            &a,
            &b,
            &bound.top,
            &bound.left,
            &scheme,
            &mut again,
            &metrics,
        );
        assert_eq!(again, bottom);
    }
}
