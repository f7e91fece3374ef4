//! The FastLSA recursion (paper Figure 2), run as an explicit stack
//! machine.
//!
//! Invariant maintained by the drive loop: the path head enters every
//! sub-problem at its **bottom-right corner** and leaves on its **top row
//! or left column**, as in the paper's prose. After a sub-recursion the
//! head sits somewhere on the next grid block's bottom row or right
//! column; the child frame is the rectangle from that block's top-left
//! corner to the head, not the whole block. This is exact: a cell
//! `(i', j')` with `i' ≤ i`, `j' ≤ j` depends only on the top boundary up
//! to `j` and the left boundary up to `i` (in every affine layer too),
//! and the traceback is a pure function of cell values, so the path is
//! the same while the part of the block the path never enters is never
//! filled (DESIGN.md §6).
//!
//! One loop serves both gap models. What differs is what a grid line
//! stores (one i32 layer for linear gaps, `H` plus the gap state crossing
//! the line for affine gaps) and whether the head sits inside a gap run,
//! so the code dispatches on [`ScoringScheme::gap`] in three places only:
//! the whole problem's boundary (`run`), the block edge fill
//! (`fill_grid_sequential`) and the base case (`base_case`).
//!
//! The recursion is materialized as a [`Frame`] stack rather than call
//! frames so the live state can be snapshotted (DESIGN.md §10): at the
//! top of every drive-loop iteration, the stack plus the partial path is
//! *exactly* the remaining work — every grid fill and base case has
//! either fully completed or not started. That is the consistent point
//! where [`CheckpointPolicy`] snapshots are taken and where resumed runs
//! re-enter.

use flsa_dp::affine::{
    trace_affine, AffineBoundary, AffineGlobalBoundary, AffineMatrices, GapState,
};
use flsa_dp::traceback::trace_from;
use flsa_dp::{AlignResult, Kernel, MemGuard, Metrics, PathBuilder, ScoreMatrix};
use flsa_fullmatrix::gotoh::score_path_affine;
use flsa_scoring::{GapModel, ScoringScheme};
use flsa_seq::Sequence;
use flsa_trace::{EventKind, Recorder, SpanKind};

use crate::checkpoint::{CheckpointState, FrameState, GridState};
use crate::config::FastLsaConfig;
use crate::costlog::{CostEvent, CostLog};
use crate::error::AlignError;
use crate::governor::{AlignOptions, RunCtx};
use crate::grid::{segment_of, store_edge, sub_line, Grid};
use crate::metrics::CoreMetrics;
use crate::parallel;

/// One suspended rectangle of the FastLSA recursion. Coordinates `r0`/
/// `c0` are absolute; `head`, `top`, and `left` are local to the
/// rectangle. `grid` is `None` until fillGridCache has run.
struct Frame<'m> {
    r0: usize,
    c0: usize,
    rows: usize,
    cols: usize,
    /// Input top boundary, `cols + 1` entries per frontier layer (owned
    /// so the frame is self-contained and snapshot-able).
    top: Vec<i32>,
    /// Input left boundary, `rows + 1` entries per frontier layer.
    left: Vec<i32>,
    /// Path head in local coordinates.
    head: (usize, usize),
    /// The DP layer the head is in: always `H` for linear gaps; `E`/`F`
    /// when an affine gap run crosses into this rectangle.
    state: GapState,
    grid: Option<Grid>,
    /// Metrics accounting for the grid cache, dropped with the frame.
    grid_guard: Option<MemGuard<'m>>,
}

/// One FastLSA run's mutable state: configuration, reusable buffers, the
/// recursion-frame stack, and the execution trace.
pub(crate) struct Solver<'s> {
    pub scheme: &'s ScoringScheme,
    pub config: FastLsaConfig,
    pub metrics: &'s Metrics,
    /// The pre-allocated Base Case buffer (paper: "BM units of memory are
    /// reserved"), one `base_cells` layer per DP layer of the gap model
    /// (`H`; or `H`, `E`, `F`), recycled across base-case solves.
    base_storage: [Vec<i32>; 3],
    /// Scratch for discarded block outputs during sequential grid fills.
    scratch_row: Vec<i32>,
    scratch_col: Vec<i32>,
    /// Persistent worker pool for parallel fills (spawned once per run,
    /// as in the paper's implementation).
    pub(crate) pool: Option<flsa_wavefront::WorkerPool>,
    /// Execution trace for schedule replay.
    pub log: CostLog,
    /// Depth of the frame currently being processed (0 = whole problem),
    /// recorded on trace spans.
    depth: u32,
    /// The explicit recursion stack, outermost frame first.
    frames: Vec<Frame<'s>>,
    /// Completed grid blocks (filled blocks + base cases), the
    /// checkpoint cadence's progress measure.
    blocks_done: u64,
    /// `blocks_done` at the last persisted snapshot.
    last_ckpt_blocks: u64,
    /// Snapshot sequence number within this process lifetime.
    ckpt_seq: u32,
    /// Resume generation (0 = fresh run), embedded in snapshots.
    generation: u32,
    /// Fallible-execution context: memory governor, cancellation,
    /// fault-injection hooks, checkpoint policy.
    pub(crate) ctx: RunCtx,
    /// DP kernel dispatch handle (backend + scratch arena), shared with
    /// the parallel tile executor.
    pub(crate) kernel: Kernel,
    /// Arena bytes currently charged against the governor's budget;
    /// settled at the drive loop's consistent points.
    arena_charged: usize,
    /// Engine-level registry handles (blocks, depth, phase, arena);
    /// `None` when no registry is attached (DESIGN.md §12).
    obs: Option<CoreMetrics>,
}

impl<'s> Solver<'s> {
    /// Builds a solver. The caller (`align_opts`) is responsible for
    /// validating `config` first.
    pub fn new(
        scheme: &'s ScoringScheme,
        config: FastLsaConfig,
        metrics: &'s Metrics,
        opts: &AlignOptions,
    ) -> Self {
        let pool = (config.threads() > 1).then(|| {
            let pool = flsa_wavefront::WorkerPool::new(config.threads());
            if let Some(reg) = opts.registry.as_deref() {
                pool.set_metrics(flsa_wavefront::PoolMetrics::new(reg));
            }
            pool
        });
        // `align_opts` validates availability up front, so an explicit
        // request can only fail here on a resumed snapshot from another
        // machine — fall back to auto-detection rather than erroring.
        let kernel = match opts.kernel {
            Some(b) => Kernel::try_new(b).unwrap_or_else(|_| Kernel::auto()),
            None => Kernel::auto(),
        };
        if let Some(r) = metrics.recorder() {
            r.set_kernel_backend(kernel.backend().name());
        }
        // Keep the metrics sink's backend attribution in lockstep with
        // the recorder's so exported per-backend cell counts match the
        // trace-derived ones exactly.
        metrics.set_kernel_backend(kernel.backend().name());
        Solver {
            scheme,
            config,
            metrics,
            base_storage: Default::default(),
            scratch_row: Vec::new(),
            scratch_col: Vec::new(),
            pool,
            log: CostLog::default(),
            depth: 0,
            frames: Vec::new(),
            blocks_done: 0,
            last_ckpt_blocks: 0,
            ckpt_seq: 0,
            generation: 0,
            ctx: RunCtx::from_options(opts),
            kernel,
            arena_charged: 0,
            obs: opts.registry.as_deref().map(CoreMetrics::new),
        }
    }

    /// i32 layers per frontier entry: `H` for linear gaps; `H` plus the
    /// gap state crossing the line (`F` on rows, `E` on columns) for
    /// affine gaps.
    fn line_layers(&self) -> usize {
        match self.scheme.gap() {
            GapModel::Linear { .. } => 1,
            GapModel::Affine { .. } => 2,
        }
    }

    /// Reserves the Base Case buffer up front, as the paper does — one
    /// layer per DP layer of the gap model — fallibly, through the
    /// governor, so an over-budget `BM` surfaces as `AllocFailed` before
    /// any work happens.
    fn reserve_base(&mut self) -> Result<MemGuard<'s>, AlignError> {
        let layers = match self.scheme.gap() {
            GapModel::Linear { .. } => 1,
            GapModel::Affine { .. } => 3,
        };
        for layer in &mut self.base_storage[..layers] {
            *layer = self
                .ctx
                .governor
                .try_alloc_i32(self.config.base_cells, "base-case buffer")?;
        }
        Ok(self
            .metrics
            .track_alloc(layers * self.config.base_cells * std::mem::size_of::<i32>()))
    }

    /// Sets the run-phase gauge (see [`flsa_metrics::names::PHASE`]).
    #[inline]
    fn set_phase(&self, phase: i64) {
        if let Some(obs) = &self.obs {
            obs.phase.set(phase);
        }
    }

    /// The attached trace recorder, if any. Detached from `&mut self`
    /// borrows because `metrics` is itself a shared reference.
    #[inline]
    pub(crate) fn recorder(&self) -> Option<&'s Recorder> {
        self.metrics.recorder()
    }

    /// Records one recursion span if tracing is on. `k_r`/`k_c` are 0 for
    /// base cases and tracebacks.
    #[inline]
    fn record_span(
        &self,
        started_ns: Option<u64>,
        kind: SpanKind,
        rows: usize,
        cols: usize,
        k_r: usize,
        k_c: usize,
    ) {
        if let (Some(r), Some(start)) = (self.recorder(), started_ns) {
            r.record(
                start,
                r.now_ns(),
                EventKind::Span {
                    kind,
                    depth: self.depth,
                    rows: rows as u64,
                    cols: cols as u64,
                    k_r: k_r as u32,
                    k_c: k_c as u32,
                    cells: rows as u64 * cols as u64,
                },
            );
        }
    }

    fn check_alphabets(&self, a: &Sequence, b: &Sequence) -> Result<(), AlignError> {
        for s in [a, b] {
            if s.alphabet() != self.scheme.alphabet() {
                return Err(AlignError::AlphabetMismatch {
                    expected: self.scheme.alphabet().name().to_string(),
                    found: s.alphabet().name().to_string(),
                });
            }
        }
        Ok(())
    }

    /// Aligns two sequences, returning the optimal score and path, or a
    /// structured error (bad alphabet, refused allocation, cancellation,
    /// worker panic). No panic escapes this method for any input.
    pub fn run(&mut self, a: &Sequence, b: &Sequence) -> Result<AlignResult, AlignError> {
        self.check_alphabets(a, b)?;
        let (m, n) = (a.len(), b.len());
        if let Some(obs) = &self.obs {
            // `m·n` is a lower bound on total cells (grid-cache refills
            // push the real total above it); the progress line caps its
            // percentage accordingly.
            obs.run_expected.set((m as i64).saturating_mul(n as i64));
        }
        let base_guard = self.reserve_base()?;

        // The whole problem's boundary: the gap ramp, with the affine
        // gap states unreachable.
        let (top, left) = match *self.scheme.gap() {
            GapModel::Linear { penalty } => {
                let ramp = |len: usize| -> Vec<i32> {
                    (0..=len as i64)
                        .map(|k| (k * penalty as i64) as i32)
                        .collect()
                };
                (ramp(n), ramp(m))
            }
            GapModel::Affine { open, extend } => {
                let g = AffineGlobalBoundary::new(m, n, open, extend);
                ([g.top_h, g.top_v].concat(), [g.left_h, g.left_e].concat())
            }
        };
        self.frames.push(Frame {
            r0: 0,
            c0: 0,
            rows: m,
            cols: n,
            top,
            left,
            head: (m, n),
            state: GapState::H,
            grid: None,
            grid_guard: None,
        });

        let mut builder = PathBuilder::new();
        let exit = self.drive(a.codes(), b.codes(), &mut builder)?;
        drop(base_guard);
        self.set_phase(flsa_metrics::names::PHASE_IDLE);
        Ok(self.finish_path(a, b, builder, exit))
    }

    /// Continues an interrupted run from a validated snapshot: rebuilds
    /// the frame stack and partial path, emits an
    /// [`EventKind::Resume`] marker, and drives to completion. The
    /// result is byte-identical to what the uninterrupted run would have
    /// produced — resuming replays no completed work and skips none.
    pub fn resume(
        &mut self,
        a: &Sequence,
        b: &Sequence,
        state: CheckpointState,
    ) -> Result<AlignResult, AlignError> {
        self.check_alphabets(a, b)?;
        state
            .validate(a.len(), b.len())
            .map_err(|detail| AlignError::CorruptCheckpoint { detail })?;
        if let Some(obs) = &self.obs {
            obs.run_expected
                .set((a.len() as i64).saturating_mul(b.len() as i64));
        }

        let base_guard = self.reserve_base()?;

        for fs in state.frames {
            let FrameState {
                r0,
                c0,
                rows,
                cols,
                head,
                top,
                left,
                grid,
            } = fs;
            let grid = match grid {
                Some(gs) => Some(Grid::from_parts(gs, &self.ctx.governor)?),
                None => None,
            };
            let grid_guard = grid
                .as_ref()
                .map(|g| self.metrics.track_alloc(g.cache_entries() * 4));
            self.frames.push(Frame {
                r0,
                c0,
                rows,
                cols,
                top,
                left,
                head,
                state: GapState::H,
                grid,
                grid_guard,
            });
        }
        self.blocks_done = state.blocks_done;
        self.last_ckpt_blocks = state.blocks_done;
        self.generation = state.generation + 1;
        if let Some(r) = self.recorder() {
            let now = r.now_ns();
            r.record(
                now,
                now,
                EventKind::Resume {
                    generation: self.generation,
                    blocks: self.blocks_done,
                    frames: self.frames.len() as u32,
                },
            );
        }

        let mut builder = PathBuilder::from_rev_moves(state.rev_moves);
        let exit = self.drive(a.codes(), b.codes(), &mut builder)?;
        drop(base_guard);
        self.set_phase(flsa_metrics::names::PHASE_IDLE);
        Ok(self.finish_path(a, b, builder, exit))
    }

    /// Extends the partial path from the recursion's exit point along
    /// the gap-ramp boundary to the top-left corner (paper: "this
    /// partial optimal path can then be extended to the top-left
    /// entry") and scores it under the scheme's gap model.
    fn finish_path(
        &self,
        a: &Sequence,
        b: &Sequence,
        mut builder: PathBuilder,
        exit: (usize, usize),
    ) -> AlignResult {
        for _ in 0..exit.0 {
            builder.push_back(flsa_dp::Move::Up);
        }
        for _ in 0..exit.1 {
            builder.push_back(flsa_dp::Move::Left);
        }
        let path = builder.finish((0, 0));
        debug_assert!(path.is_global(a.len(), b.len()));
        let score = match self.scheme.gap() {
            GapModel::Linear { .. } => path.score(a, b, self.scheme),
            GapModel::Affine { .. } => score_path_affine(&path, a, b, self.scheme),
        };
        AlignResult { score, path }
    }

    /// The stack-machine drive loop (Figure 2, iteratively). Each
    /// iteration inspects the top frame and either pops it (head on the
    /// exit boundary), solves it as a base case, fills its grid cache,
    /// or descends into the sub-block containing the head. Returns the
    /// absolute exit point on the whole problem's top/left boundary.
    fn drive(
        &mut self,
        a: &[u8],
        b: &[u8],
        out: &mut PathBuilder,
    ) -> Result<(usize, usize), AlignError> {
        loop {
            // Consistent point: the frame stack plus `out` is exactly
            // the remaining work. Snapshots happen here and nowhere else,
            // and the kernel arena (no buffers checked out here) settles
            // its growth against the budget.
            self.charge_arena();
            if let Some(obs) = &self.obs {
                obs.solver_steps.inc();
                let depth = self.frames.len() as i64;
                obs.depth.set(depth);
                obs.depth_peak.fetch_max(depth);
            }
            self.maybe_checkpoint(out, false)?;
            if let Err(e) = self.ctx.step() {
                return Err(self.fail_with_snapshot(out, e));
            }

            let Some(f) = self.frames.last() else {
                // The root frame always returns through the pop branch;
                // an empty stack here means a caller-provided state was
                // inconsistent in a way validation cannot express.
                return Err(AlignError::CorruptCheckpoint {
                    detail: "drive loop ran out of frames".to_string(),
                });
            };

            // 1. Head on the exit boundary for its state: pop and
            //    propagate.
            if exited(f.head, f.state) {
                let exit = (f.r0 + f.head.0, f.c0 + f.head.1);
                let state = f.state;
                if let Some(frame) = self.frames.pop() {
                    self.release_frame(frame);
                }
                if let Some(exit) = self.return_to_parent(exit, state) {
                    return Ok(exit);
                }
                continue;
            }

            // 2. Filled grid: descend into the block containing the head
            //    (Figure 2 lines 8-13), cut down to the rectangle from the
            //    block's top-left corner to the head. Cells up to the head
            //    depend only on the boundary up to it, so the cut is exact
            //    and skips the part of the block the path never enters.
            if let Some(grid) = &f.grid {
                let (i, j) = f.head;
                let s = segment_of(&grid.row_bounds, i);
                let t = segment_of(&grid.col_bounds, j);
                let r0 = grid.row_bounds[s];
                let c0 = grid.col_bounds[t];
                let layers = self.line_layers();
                let child = Frame {
                    r0: f.r0 + r0,
                    c0: f.c0 + c0,
                    rows: i - r0,
                    cols: j - c0,
                    top: sub_line(grid.row_line(s).unwrap_or(&f.top), layers, c0, j),
                    left: sub_line(grid.col_line(t).unwrap_or(&f.left), layers, r0, i),
                    head: (i - r0, j - c0),
                    state: f.state,
                    grid: None,
                    grid_guard: None,
                };
                debug_assert!(
                    child.head == (child.rows, child.cols),
                    "path head must enter at the bottom-right corner"
                );
                self.frames.push(child);
                continue;
            }

            // 3. BASE CASE (Figure 2 lines 1-2): the rectangle fits the
            //    buffer. Rectangles thinner than 2 residues are also
            //    solved directly — their full matrix is at most 2
            //    rows/columns, i.e. linear size.
            let cells = (f.rows + 1).saturating_mul(f.cols + 1);
            let is_base = cells <= self.config.base_cells || f.rows < 2 || f.cols < 2;
            let Some(frame) = self.frames.pop() else {
                continue;
            };
            self.depth = self.frames.len() as u32;
            let fa = &a[frame.r0..frame.r0 + frame.rows];
            let fb = &b[frame.c0..frame.c0 + frame.cols];

            if is_base {
                let solved = self.base_case(
                    fa,
                    fb,
                    &frame.top,
                    &frame.left,
                    (frame.head, frame.state),
                    out,
                );
                match solved {
                    Ok((local_exit, state)) => {
                        self.blocks_done += 1;
                        if let Some(obs) = &self.obs {
                            obs.blocks.inc();
                        }
                        let exit = (frame.r0 + local_exit.0, frame.c0 + local_exit.1);
                        if let Some(exit) = self.return_to_parent(exit, state) {
                            return Ok(exit);
                        }
                    }
                    Err(e) => {
                        // The base case mutated nothing (fills fail
                        // before any path moves are pushed): restoring
                        // the frame restores consistency.
                        self.frames.push(frame);
                        return Err(self.fail_with_snapshot(out, e));
                    }
                }
                continue;
            }

            // 4. GENERAL CASE (Figure 2 lines 3-15): fillGridCache.
            match self.fill_grid(fa, fb, frame) {
                Ok(()) => {}
                Err((frame, e)) => {
                    self.frames.push(frame);
                    return Err(self.fail_with_snapshot(out, e));
                }
            }
        }
    }

    /// Moves the path head to absolute `exit` in `state` on the frame
    /// below the popped one; `Some(exit)` when the popped frame was the
    /// root.
    fn return_to_parent(
        &mut self,
        exit: (usize, usize),
        state: GapState,
    ) -> Option<(usize, usize)> {
        let Some(p) = self.frames.last_mut() else {
            return Some(exit);
        };
        p.head = (exit.0 - p.r0, exit.1 - p.c0);
        p.state = state;
        None
    }

    /// Settles the kernel arena's byte usage against the governor. The
    /// arena is an opportunistic cache: if the budget refuses its
    /// growth, the kernel degrades to the scalar backend (bit-identical
    /// results, caller-owned buffers only) and the pooled scratch is
    /// freed — a graceful fallback, never an error, and deliberately
    /// outside the fault hooks and the degradation ladder.
    fn charge_arena(&mut self) {
        let held = self.kernel.arena().held_bytes();
        if held > self.arena_charged {
            if self
                .ctx
                .governor
                .try_charge_bytes(held - self.arena_charged)
            {
                self.arena_charged = held;
            } else {
                self.kernel.degrade_to_scalar();
                if let Some(r) = self.recorder() {
                    r.set_kernel_backend(self.kernel.backend().name());
                }
                self.metrics
                    .set_kernel_backend(self.kernel.backend().name());
                self.ctx.governor.release_bytes(self.arena_charged);
                self.arena_charged = 0;
            }
        } else if held < self.arena_charged {
            self.ctx.governor.release_bytes(self.arena_charged - held);
            self.arena_charged = held;
        }
        // The arena stats are observed here — the drive loop's consistent
        // point — rather than instrumented inside the arena's hot
        // take/put path.
        if let Some(obs) = &self.obs {
            let arena = self.kernel.arena();
            obs.arena_held.set(arena.held_bytes() as i64);
            obs.arena_fresh.set(arena.fresh_allocs() as i64);
            obs.arena_reuses.set(arena.reuses() as i64);
        }
    }

    /// Allocates and fills `frame`'s grid cache, then pushes the frame
    /// back with the grid attached. On failure the frame is returned
    /// untouched (grid still `None`) so the caller can restore it.
    #[allow(clippy::result_large_err)] // Err hands the frame back for push-back + snapshot
    fn fill_grid(
        &mut self,
        fa: &[u8],
        fb: &[u8],
        mut frame: Frame<'s>,
    ) -> Result<(), (Frame<'s>, AlignError)> {
        let (rows, cols) = (frame.rows, frame.cols);
        let k_r = self.config.k.min(rows);
        let k_c = self.config.k.min(cols);
        let layers = self.line_layers();
        let mut grid = match Grid::try_new(rows, cols, k_r, k_c, layers, &self.ctx.governor) {
            Ok(g) => g,
            Err(e) => return Err((frame, e)),
        };
        let grid_guard = self
            .metrics
            .track_alloc(grid.cache_entries() * std::mem::size_of::<i32>());
        self.log.events.push(CostEvent::GridFill {
            rows,
            cols,
            k_r,
            k_c,
        });

        // fillGridCache (Figure 2 line 5 / Figure 3d).
        self.set_phase(flsa_metrics::names::PHASE_GRID_FILL);
        let fill_start = self.recorder().map(Recorder::now_ns);
        let filled = if self.config.threads() > 1 {
            parallel::fill_grid_parallel(self, fa, fb, &frame.top, &frame.left, &mut grid)
        } else {
            self.fill_grid_sequential(fa, fb, &frame.top, &frame.left, &mut grid);
            Ok(())
        };
        if let Err(e) = filled {
            // The fill did not complete: undo the partial cost-log entry
            // and the grid's budget charge, hand the frame back intact.
            self.log.events.pop();
            self.ctx.governor.release_i32(grid.cache_entries());
            return Err((frame, e));
        }
        self.record_span(fill_start, SpanKind::FillCache, rows, cols, k_r, k_c);
        // All blocks except the bottom-right one are now complete.
        self.blocks_done += (k_r * k_c - 1) as u64;
        if let Some(obs) = &self.obs {
            obs.blocks.add((k_r * k_c - 1) as u64);
        }
        frame.grid = Some(grid);
        frame.grid_guard = Some(grid_guard);
        self.frames.push(frame);
        Ok(())
    }

    /// Drops a popped frame, returning its grid cache's bytes to the
    /// governor (the metrics guard drops with the frame).
    fn release_frame(&self, frame: Frame<'_>) {
        if let Some(g) = &frame.grid {
            self.ctx.governor.release_i32(g.cache_entries());
        }
    }

    /// On cancellation, force one final snapshot at the current (still
    /// consistent) state so `resume` can pick up exactly here; other
    /// errors pass through. Snapshot failures never mask the original
    /// error.
    fn fail_with_snapshot(&mut self, out: &PathBuilder, e: AlignError) -> AlignError {
        if matches!(e, AlignError::Cancelled) {
            let _ = self.maybe_checkpoint(out, true);
        }
        e
    }

    /// Captures and persists a snapshot if a policy is attached and the
    /// cadence (or `force`) says so.
    fn maybe_checkpoint(&mut self, out: &PathBuilder, force: bool) -> Result<(), AlignError> {
        let Some(policy) = self.ctx.checkpoint.clone() else {
            return Ok(());
        };
        let due =
            self.blocks_done.saturating_sub(self.last_ckpt_blocks) >= policy.every_blocks.max(1);
        if !(due || force) {
            return Ok(());
        }
        let state = self.capture_state(out);
        let frames = state.frames.len() as u32;
        let blocks = state.blocks_done;
        match policy.sink.save(&state) {
            Ok(bytes) => {
                self.last_ckpt_blocks = self.blocks_done;
                if let Some(r) = self.recorder() {
                    let now = r.now_ns();
                    r.record(
                        now,
                        now,
                        EventKind::Checkpoint {
                            seq: self.ckpt_seq,
                            blocks,
                            frames,
                            bytes,
                        },
                    );
                }
                self.ckpt_seq += 1;
                Ok(())
            }
            Err(detail) => Err(AlignError::CheckpointSave { detail }),
        }
    }

    /// Copies the live state into a plain-data [`CheckpointState`]. By
    /// Theorem 2 this is `O(k·(m+n))` cells: one boundary pair plus at
    /// most one grid cache per stack level.
    fn capture_state(&self, out: &PathBuilder) -> CheckpointState {
        CheckpointState {
            config: self.config,
            blocks_done: self.blocks_done,
            generation: self.generation,
            rev_moves: out.rev_moves().to_vec(),
            frames: self
                .frames
                .iter()
                .map(|f| FrameState {
                    r0: f.r0,
                    c0: f.c0,
                    rows: f.rows,
                    cols: f.cols,
                    head: f.head,
                    top: f.top.clone(),
                    left: f.left.clone(),
                    grid: f.grid.as_ref().map(|g| GridState {
                        row_bounds: g.row_bounds.clone(),
                        col_bounds: g.col_bounds.clone(),
                        rows_cache: g.rows_cache.clone(),
                        cols_cache: g.cols_cache.clone(),
                    }),
                })
                .collect(),
        }
    }

    /// Figure 2's BASE CASE: full-matrix solve in the reserved buffer,
    /// then traceback from `head` (with its gap state) to the rectangle's
    /// exit boundary.
    fn base_case(
        &mut self,
        a: &[u8],
        b: &[u8],
        top: &[i32],
        left: &[i32],
        (head, state): ((usize, usize), GapState),
        out: &mut PathBuilder,
    ) -> Result<((usize, usize), GapState), AlignError> {
        let (rows, cols) = (a.len(), b.len());
        self.log.events.push(CostEvent::BaseFill { rows, cols });

        // Parallel fill pays off only when the matrix is large enough to
        // amortize tile scheduling; small base cases stay sequential.
        let use_parallel = self.config.threads() > 1 && rows * cols >= 16_384;
        // The parallel fill allocates a fresh shared buffer instead of the
        // reserved base storage; account for it explicitly.
        let _par_mem = use_parallel.then(|| {
            self.metrics
                .track_alloc((rows + 1) * (cols + 1) * std::mem::size_of::<i32>())
        });
        self.set_phase(flsa_metrics::names::PHASE_BASE_CASE);
        let fill_start = self.recorder().map(Recorder::now_ns);
        let filled = match self.scheme.gap() {
            GapModel::Affine { .. } => Filled::Affine(self.kernel.fill_affine_full(
                a,
                b,
                AffineBoundary::from_layers(top, left),
                self.scheme,
                std::mem::take(&mut self.base_storage),
                self.metrics,
            )),
            GapModel::Linear { .. } if use_parallel => {
                match parallel::fill_base_parallel(self, a, b, top, left) {
                    Ok(d) => Filled::Linear(d),
                    Err(e) => {
                        // The fill never ran to completion: undo the
                        // cost-log entry so replay stays consistent.
                        self.log.events.pop();
                        return Err(e);
                    }
                }
            }
            GapModel::Linear { .. } => {
                let storage = std::mem::take(&mut self.base_storage[0]);
                Filled::Linear(self.kernel.fill_full_reusing(
                    a,
                    b,
                    top,
                    left,
                    self.scheme,
                    storage,
                    self.metrics,
                ))
            }
        };
        self.record_span(fill_start, SpanKind::BaseCase, rows, cols, 0, 0);
        self.metrics.add_base_case_cells(rows as u64 * cols as u64);

        let before = out.len();
        self.set_phase(flsa_metrics::names::PHASE_TRACEBACK);
        let trace_start = self.recorder().map(Recorder::now_ns);
        let exit = match &filled {
            Filled::Linear(dpm) => (
                trace_from(dpm, a, b, self.scheme, head, out, self.metrics),
                GapState::H,
            ),
            Filled::Affine(mats) => {
                trace_affine(mats, a, b, self.scheme, head, state, out, self.metrics)
            }
        };
        self.record_span(trace_start, SpanKind::Traceback, rows, cols, 0, 0);
        self.log.events.push(CostEvent::Trace {
            steps: (out.len() - before) as u64,
        });

        // Return the buffers for the next base case (keep the larger
        // linear one: a parallel fill brings its own).
        match filled {
            Filled::Linear(dpm) => {
                let storage = dpm.into_vec();
                if storage.capacity() > self.base_storage[0].capacity() {
                    self.base_storage[0] = storage;
                }
            }
            Filled::Affine(mats) => self.base_storage = mats.into_storage(),
        }
        Ok(exit)
    }

    /// Sequential fillGridCache: every block except the bottom-right one,
    /// in row-major order (a valid topological order of the block DAG),
    /// on the kernel's linear or affine edge fill.
    fn fill_grid_sequential(
        &mut self,
        a: &[u8],
        b: &[u8],
        top: &[i32],
        left: &[i32],
        grid: &mut Grid,
    ) {
        let layers = self.line_layers();
        let k_r = grid.k_r();
        let k_c = grid.k_c();
        for s in 0..k_r {
            for t in 0..k_c {
                if s == k_r - 1 && t == k_c - 1 {
                    continue; // bottom-right block: solved by recursion instead
                }
                let r0 = grid.row_bounds[s];
                let r1 = grid.row_bounds[s + 1];
                let c0 = grid.col_bounds[t];
                let c1 = grid.col_bounds[t + 1];

                // Copy the input boundary out of the grid first so the
                // output borrows below don't conflict.
                let top_buf = sub_line(grid.row_line(s).unwrap_or(top), layers, c0, c1);
                let left_buf = sub_line(grid.col_line(t).unwrap_or(left), layers, r0, r1);

                self.scratch_row.resize(layers * (c1 - c0 + 1), 0);
                self.scratch_col.resize(layers * (r1 - r0 + 1), 0);
                let (ba, bb) = (&a[r0..r1], &b[c0..c1]);
                match self.scheme.gap() {
                    GapModel::Linear { .. } => {
                        flsa_dp::boundary::check_boundary(&top_buf, &left_buf, r1 - r0, c1 - c0);
                        self.kernel.fill_last_row_col(
                            ba,
                            bb,
                            &top_buf,
                            &left_buf,
                            self.scheme,
                            &mut self.scratch_row,
                            Some(&mut self.scratch_col),
                            self.metrics,
                        );
                    }
                    GapModel::Affine { .. } => self.kernel.fill_affine_edges_into(
                        ba,
                        bb,
                        AffineBoundary::from_layers(&top_buf, &left_buf),
                        self.scheme,
                        &mut self.scratch_row,
                        &mut self.scratch_col,
                        self.metrics,
                    ),
                }
                if s + 1 < k_r {
                    store_edge(&mut grid.rows_cache[s], &self.scratch_row, layers, c0);
                }
                if t + 1 < k_c {
                    store_edge(&mut grid.cols_cache[t], &self.scratch_col, layers, r0);
                }
            }
        }
    }
}

/// Whether a path head at `head` in `state` has left its rectangle: on
/// the top row or left column, except that inside an affine gap run it
/// leaves only the way the run points (`F`, an Up run, through the top
/// row; `E`, a Left run, through the left column).
fn exited(head: (usize, usize), state: GapState) -> bool {
    match state {
        GapState::H => head.0 == 0 || head.1 == 0,
        GapState::F => head.0 == 0,
        GapState::E => head.1 == 0,
    }
}

/// A filled base case, per gap model.
enum Filled {
    Linear(ScoreMatrix),
    Affine(AffineMatrices),
}
