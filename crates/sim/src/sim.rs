//! Golden, tiled and cone-DAG execution of stencil patterns.

use std::sync::Arc;

use isl_ir::{Cone, ConeCache, FieldId, FieldKind, StencilPattern, Window};

use isl_fpga::FixedFormat;

use crate::border::BorderMode;
use crate::compile::{CompiledCone, CompiledPattern, ProgramCache};
use crate::error::SimError;
use crate::frame::{Frame, FrameSet};
use crate::qvm::{self, WordSet};
use crate::vm;

/// Result of a fixed-point run ([`Simulator::run_until_converged`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceReport {
    /// Iterations actually performed.
    pub iterations: u32,
    /// Last observed max-abs update delta.
    pub delta: f64,
    /// Whether the delta fell below the threshold before the iteration cap.
    pub converged: bool,
}

/// One cone firing recorded by [`Simulator::record_cone_dag_quantized`]: a
/// depth-`d` cone applied at one window tile of one level, as raw words of
/// the run's format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConeFiring {
    /// Level index in the decomposition ([`level_depths`] order).
    pub level: u32,
    /// Frame coordinates of the tile origin.
    pub tile: (i64, i64),
    /// Border-resolved base-input words, in [`Cone::inputs`] then
    /// [`Cone::static_inputs`] order.
    pub inputs: Vec<i64>,
    /// Every output word, in [`Cone::outputs`] order — including outputs
    /// an edge tile computes past the frame edge.
    pub outputs: Vec<i64>,
}

/// A quantised cone-DAG run with its firings
/// ([`Simulator::record_cone_dag_quantized`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ConeDagRecording {
    /// The dequantised final state — bit-identical to
    /// [`Simulator::run_cone_dag_quantized`].
    pub frames: FrameSet,
    /// One entry per distinct cone depth in first-use order (the main
    /// depth, then a remainder depth): the depth and its firings.
    pub shapes: Vec<(u32, Vec<ConeFiring>)>,
}

/// Executes a [`StencilPattern`] on frames under three semantics: golden
/// whole-frame iteration, hardware-faithful cone-DAG evaluation, and exact
/// tiled (cone-architecture) execution — the last on the tree-walking
/// interpreter only, as an oracle.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Simulator<'p> {
    pattern: &'p StencilPattern,
    border: BorderMode,
    params: Vec<f64>,
    threads: usize,
    programs: ProgramCache,
    cones: Option<ConeCache>,
}

impl<'p> Simulator<'p> {
    /// Wrap a validated pattern with default border (clamp) and default
    /// parameter values.
    ///
    /// # Errors
    ///
    /// [`SimError::UnsupportedRank`] for rank-3 patterns;
    /// [`SimError::Pattern`] if the pattern fails validation.
    pub fn new(pattern: &'p StencilPattern) -> Result<Self, SimError> {
        pattern
            .validate()
            .map_err(|e| SimError::Pattern(e.to_string()))?;
        if pattern.rank() > 2 {
            return Err(SimError::UnsupportedRank(pattern.rank()));
        }
        Ok(Simulator {
            pattern,
            border: BorderMode::default(),
            params: pattern.params().iter().map(|p| p.default).collect(),
            threads: 0,
            programs: ProgramCache::new(),
            cones: None,
        })
    }

    /// Share a compile cache with other simulators (and other sessions'
    /// engines): every `(pattern, params, fold, cone shape)` identity is
    /// then lowered at most once across all of them. The cache keys on
    /// content, so attaching one cache to simulators of different patterns
    /// or parameter bindings is safe.
    pub fn with_program_cache(mut self, programs: ProgramCache) -> Self {
        self.programs = programs;
        self
    }

    /// Share a cone store: the cone-DAG engines (compiled *and* reference)
    /// then fetch their per-depth cones from `cones` instead of rebuilding
    /// them per run.
    pub fn with_cone_cache(mut self, cones: ConeCache) -> Self {
        self.cones = Some(cones);
        self
    }

    /// Build (or fetch from the attached cone store) the simplified cone of
    /// one shape.
    fn build_cone(&self, window: Window, depth: u32) -> Result<Arc<Cone>, SimError> {
        match &self.cones {
            Some(cache) => cache
                .get_or_build(self.pattern, window, depth, true)
                .map_err(|e| SimError::Cone(e.to_string())),
            None => Cone::build(self.pattern, window, depth)
                .map(Arc::new)
                .map_err(|e| SimError::Cone(e.to_string())),
        }
    }

    /// Select the border mode.
    pub fn with_border(mut self, border: BorderMode) -> Self {
        self.border = border;
        self
    }

    /// Cap the worker threads used by the compiled engine (0 = one per
    /// available core, 1 = fully serial). Results are bit-identical for any
    /// thread count; only wall-clock time changes.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Override parameter values (by [`isl_ir::ParamId`] index).
    ///
    /// # Errors
    ///
    /// [`SimError::ParamCountMismatch`] when the length differs from the
    /// pattern's parameter list.
    pub fn with_params(mut self, params: Vec<f64>) -> Result<Self, SimError> {
        if params.len() != self.pattern.params().len() {
            return Err(SimError::ParamCountMismatch {
                expected: self.pattern.params().len(),
                got: params.len(),
            });
        }
        self.params = params;
        // Parameters are baked into the bytecode, but the program cache is
        // keyed by the binding's bit patterns — no invalidation needed.
        Ok(self)
    }

    /// The compiled bytecode program for this pattern + parameter binding
    /// (built on first use, served from the program cache afterwards).
    pub fn compiled(&self) -> Arc<CompiledPattern> {
        self.programs.pattern_program(self.pattern, &self.params, true)
    }

    /// The pattern being simulated.
    pub fn pattern(&self) -> &StencilPattern {
        self.pattern
    }

    /// The active border mode.
    pub fn border(&self) -> BorderMode {
        self.border
    }

    /// Value of parameter `p` (default or override).
    pub fn param_value(&self, p: isl_ir::ParamId) -> f64 {
        self.params[p.index()]
    }

    /// The full parameter binding, in [`isl_ir::ParamId`] order.
    pub fn params(&self) -> &[f64] {
        &self.params
    }

    /// The configured worker-thread cap (0 = auto).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The attached program cache (crate-internal: the quantised entry
    /// points in [`crate::fixed`] fetch their programs through it).
    pub(crate) fn program_cache(&self) -> &ProgramCache {
        &self.programs
    }

    fn check(&self, state: &FrameSet) -> Result<(), SimError> {
        if state.len() != self.pattern.fields().len() {
            return Err(SimError::FieldCountMismatch {
                expected: self.pattern.fields().len(),
                got: state.len(),
            });
        }
        Ok(())
    }

    // -- golden semantics ---------------------------------------------------

    /// One whole-frame iteration (the body of Algorithm 1).
    ///
    /// # Errors
    ///
    /// [`SimError::FieldCountMismatch`] when the frame set does not match the
    /// pattern.
    pub fn step(&self, state: &FrameSet) -> Result<FrameSet, SimError> {
        self.check(state)?;
        let program = self.compiled();
        Ok(vm::step_compiled(&program, state, self.border, self.threads))
    }

    /// One whole-frame iteration through the tree-walking interpreter — the
    /// golden reference semantics the compiled engine is property-tested
    /// against. Prefer [`Simulator::step`] (bit-identical, much faster).
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::step`].
    pub fn step_reference(&self, state: &FrameSet) -> Result<FrameSet, SimError> {
        self.check(state)?;
        let (w, h) = (state.width(), state.height());
        let mut next = Vec::with_capacity(state.len());
        for (i, decl) in self.pattern.fields().iter().enumerate() {
            let fid = FieldId::new(i as u16);
            match decl.kind {
                FieldKind::Static => next.push(state.frame_arc(i)),
                FieldKind::Dynamic => {
                    let update = self.pattern.update(fid).expect("validated pattern");
                    let mut out = Frame::new(w, h);
                    for y in 0..h {
                        for x in 0..w {
                            let v = update.eval(
                                &|f: FieldId, o: isl_ir::Offset| {
                                    state.frame(f.index()).sample(
                                        x as i64 + o.dx as i64,
                                        y as i64 + o.dy as i64,
                                        self.border,
                                    )
                                },
                                &|p: isl_ir::ParamId| self.params[p.index()],
                            );
                            out.set(x, y, v);
                        }
                    }
                    next.push(std::sync::Arc::new(out));
                }
            }
        }
        Ok(FrameSet::from_shared(next).expect("shapes preserved"))
    }

    /// `iterations` golden whole-frame steps through the tree-walking
    /// interpreter (see [`Simulator::step_reference`]).
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::step`].
    pub fn run_reference(&self, init: &FrameSet, iterations: u32) -> Result<FrameSet, SimError> {
        let mut state = init.clone();
        for _ in 0..iterations {
            state = self.step_reference(&state)?;
        }
        Ok(state)
    }

    /// `iterations` golden whole-frame steps.
    ///
    /// Stepping is **double-buffered**: from the third iteration on, the
    /// retiring state's dynamic frames (uniquely owned by the run loop) are
    /// recycled as the next step's output buffers, so long runs allocate a
    /// bounded ping-pong pair instead of one frame set per iteration.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::step`].
    pub fn run(&self, init: &FrameSet, iterations: u32) -> Result<FrameSet, SimError> {
        self.check(init)?;
        let program = self.compiled();
        let mut state = init.clone();
        let mut spare: Option<FrameSet> = None;
        for _ in 0..iterations {
            let next =
                vm::step_compiled_into(&program, &state, self.border, self.threads, spare.take());
            spare = Some(std::mem::replace(&mut state, next));
        }
        Ok(state)
    }

    /// Iterate until the max-abs delta of the dynamic fields drops below
    /// `epsilon`, or `max_iterations` is reached — the "fixed point of the
    /// single step transformation" formulation from the paper's introduction.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::step`].
    pub fn run_until_converged(
        &self,
        init: &FrameSet,
        epsilon: f64,
        max_iterations: u32,
    ) -> Result<(FrameSet, ConvergenceReport), SimError> {
        self.check(init)?;
        let program = self.compiled();
        let mut state = init.clone();
        let mut spare: Option<FrameSet> = None;
        let mut delta = f64::INFINITY;
        for i in 0..max_iterations {
            let next =
                vm::step_compiled_into(&program, &state, self.border, self.threads, spare.take());
            delta = self
                .pattern
                .dynamic_fields()
                .iter()
                .map(|f| state.frame(f.index()).max_abs_diff(next.frame(f.index())))
                .fold(0.0, f64::max);
            spare = Some(std::mem::replace(&mut state, next));
            if delta < epsilon {
                return Ok((
                    state,
                    ConvergenceReport {
                        iterations: i + 1,
                        delta,
                        converged: true,
                    },
                ));
            }
        }
        Ok((
            state,
            ConvergenceReport {
                iterations: max_iterations,
                delta,
                converged: false,
            },
        ))
    }

    // -- tiled (cone-architecture) oracle -------------------------------------

    /// Execute `iterations` through levels of depth-`depth` cones applied
    /// window by window — the paper's architecture template (Section 3.1),
    /// with border resolution at every level — on the tree-walking
    /// interpreter. Bit-identical to [`Simulator::run`] for local border
    /// modes.
    ///
    /// Iterations are decomposed exactly like the flow's architecture
    /// instances: `floor(iterations / depth)` levels of `depth`, plus one
    /// remainder level when `depth` does not divide `iterations`.
    ///
    /// Neither the emitted VHDL nor certification computes this semantics
    /// (both run [`Simulator::run_cone_dag_quantized`]); it stays only as the
    /// oracle for the paper's exactness claim that tiling changes nothing
    /// for local borders.
    ///
    /// # Errors
    ///
    /// [`SimError::NonLocalBorder`] for wrap borders; [`SimError::Cone`] for
    /// `depth == 0`; plus the [`Simulator::step`] errors.
    pub fn run_tiled_reference(
        &self,
        init: &FrameSet,
        iterations: u32,
        window: Window,
        depth: u32,
    ) -> Result<FrameSet, SimError> {
        self.check_tiled(init, depth)?;
        let mut state = init.clone();
        for d in level_depths(iterations, depth) {
            state = self.tiled_level(&state, window, d)?;
        }
        Ok(state)
    }

    /// Forwards to [`Simulator::run_tiled_quantized_reference`]. Kept only
    /// because the repository benchmark's (`perfbench/`) traced replay still
    /// calls it, like the [`Quantizer`](crate::Quantizer) alias; new code
    /// calls the reference.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run_tiled_reference`].
    pub fn run_tiled_quantized(
        &self,
        init: &FrameSet,
        iterations: u32,
        window: Window,
        depth: u32,
        fmt: FixedFormat,
    ) -> Result<FrameSet, SimError> {
        self.run_tiled_quantized_reference(init, iterations, window, depth, fmt)
    }

    /// [`Simulator::run_tiled_reference`] in fixed point, through the
    /// tree-walking interpreter in the raw word domain — the oracle for the
    /// claim that rounding commutes with the tiling (equal to
    /// [`Simulator::run_quantized`] for local borders).
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run_tiled_reference`].
    pub fn run_tiled_quantized_reference(
        &self,
        init: &FrameSet,
        iterations: u32,
        window: Window,
        depth: u32,
        fmt: FixedFormat,
    ) -> Result<FrameSet, SimError> {
        self.check_tiled(init, depth)?;
        let mut state = WordSet::quantize(init, fmt);
        for d in level_depths(iterations, depth) {
            state = self.tiled_level_raw(&state, window, d, fmt)?;
        }
        Ok(state.dequantize(fmt))
    }

    fn check_tiled(&self, init: &FrameSet, depth: u32) -> Result<(), SimError> {
        self.check(init)?;
        if depth == 0 {
            return Err(SimError::Cone("cone depth must be at least 1".into()));
        }
        if !self.border.is_local() {
            return Err(SimError::NonLocalBorder);
        }
        Ok(())
    }

    /// One reference level: apply depth-`d` cones over every window tile.
    fn tiled_level(
        &self,
        state: &FrameSet,
        window: Window,
        d: u32,
    ) -> Result<FrameSet, SimError> {
        let (w, h) = (state.width() as i64, state.height() as i64);
        let r = self.pattern.radius() as i64;
        let mut next: Vec<Arc<Frame>> = state.frames().to_vec();

        // Field id → dynamic slot, computed once per level instead of a
        // linear scan on every dynamic read inside the tile hot loop.
        let dyn_fields = self.pattern.dynamic_fields();
        let (_, dyn_index) = vm::dyn_slot_map(
            self.pattern.fields().len(),
            dyn_fields.iter().map(|f| f.index()),
        );

        let (tw, th) = (window.w as i64, window.h as i64);
        let mut ty = 0;
        while ty < h {
            let mut tx = 0;
            while tx < w {
                self.tile(state, &mut next, (tx, ty), (tw, th), d, r, &dyn_index)?;
                tx += tw;
            }
            ty += th;
        }
        Ok(FrameSet::from_shared(next).expect("shapes preserved"))
    }

    /// Compute one tile through `d` levels, reading `state`, writing `next`.
    #[allow(clippy::too_many_arguments)]
    fn tile(
        &self,
        state: &FrameSet,
        next: &mut [Arc<Frame>],
        (tx, ty): (i64, i64),
        (tw, th): (i64, i64),
        d: u32,
        r: i64,
        dyn_index: &[Option<usize>],
    ) -> Result<(), SimError> {
        let (w, h) = (state.width() as i64, state.height() as i64);
        let dyn_fields = self.pattern.dynamic_fields();

        // Level extents, clipped to the frame: level `l` needs the tile grown
        // by radius x (d - l).
        let rect = |l: u32| -> (i64, i64, i64, i64) {
            let halo = r * (d - l) as i64;
            let x0 = (tx - halo).max(0);
            let y0 = if h > 1 { (ty - halo).max(0) } else { 0 };
            let x1 = (tx + tw - 1 + halo).min(w - 1);
            let y1 = if h > 1 { (ty + th - 1 + halo).min(h - 1) } else { 0 };
            (x0, y0, x1, y1)
        };

        // Level-0 buffers: direct copies of the current state over ext(0).
        let (x0, y0, x1, y1) = rect(0);
        let (bw, bh) = ((x1 - x0 + 1) as usize, (y1 - y0 + 1) as usize);
        let mut bufs: Vec<Vec<f64>> = dyn_fields
            .iter()
            .map(|f| {
                let fr = state.frame(f.index());
                let mut b = vec![0.0; bw * bh];
                for yy in 0..bh as i64 {
                    for xx in 0..bw as i64 {
                        b[(yy * bw as i64 + xx) as usize] =
                            fr.get((x0 + xx) as usize, (y0 + yy) as usize);
                    }
                }
                b
            })
            .collect();
        let mut buf_rect = (x0, y0, x1, y1);

        for l in 1..=d {
            let (nx0, ny0, nx1, ny1) = rect(l);
            let (nbw, nbh) = ((nx1 - nx0 + 1) as usize, (ny1 - ny0 + 1) as usize);
            let mut new_bufs: Vec<Vec<f64>> = dyn_fields
                .iter()
                .map(|_| vec![0.0; nbw * nbh])
                .collect();
            let (px0, py0, px1, py1) = buf_rect;
            let pbw = (px1 - px0 + 1) as usize;
            for (di, f) in dyn_fields.iter().enumerate() {
                let update = self.pattern.update(*f).expect("validated pattern");
                for yy in ny0..=ny1 {
                    for xx in nx0..=nx1 {
                        let read = |rf: FieldId, o: isl_ir::Offset| {
                            let (qx, qy) = (xx + o.dx as i64, yy + o.dy as i64);
                            if self.pattern.field(rf).kind == FieldKind::Static {
                                return state.frame(rf.index()).sample(qx, qy, self.border);
                            }
                            // Border-resolve at absolute frame coordinates,
                            // then look up in the previous level's buffer.
                            // (Resolve y even for height-1 frames: a
                            // rank-2 pattern can tap dy ≠ 0 there, and
                            // the golden run border-resolves it.)
                            let rx = self.border.resolve(qx, w);
                            let ry = self.border.resolve(qy, h);
                            match (rx, ry) {
                                (Some(rx), Some(ry)) => {
                                    debug_assert!(
                                        rx >= px0 && rx <= px1 && ry >= py0 && ry <= py1,
                                        "tile halo must cover border-resolved reads"
                                    );
                                    let di2 = dyn_index[rf.index()].expect("dynamic read");
                                    bufs[di2][((ry - py0) as usize) * pbw + (rx - px0) as usize]
                                }
                                _ => self
                                    .border
                                    .constant_value()
                                    .expect("non-resolving border is Constant"),
                            }
                        };
                        let param = |p: isl_ir::ParamId| self.params[p.index()];
                        let v = update.eval(&read, &param);
                        new_bufs[di][((yy - ny0) as usize) * nbw + (xx - nx0) as usize] = v;
                    }
                }
            }
            bufs = new_bufs;
            buf_rect = (nx0, ny0, nx1, ny1);
        }

        // Commit the top level into the output frames.
        let (fx0, fy0, fx1, fy1) = buf_rect;
        let fbw = (fx1 - fx0 + 1) as usize;
        for (di, f) in dyn_fields.iter().enumerate() {
            let out = Arc::make_mut(&mut next[f.index()]);
            for yy in fy0..=fy1 {
                for xx in fx0..=fx1 {
                    out.set(
                        xx as usize,
                        yy as usize,
                        bufs[di][((yy - fy0) as usize) * fbw + (xx - fx0) as usize],
                    );
                }
            }
        }
        Ok(())
    }

    /// One quantised reference level in the raw word domain — mirrors
    /// [`Simulator::tiled_level`] with `FixedFormat` node semantics.
    fn tiled_level_raw(
        &self,
        state: &WordSet,
        window: Window,
        d: u32,
        fmt: FixedFormat,
    ) -> Result<WordSet, SimError> {
        let (w, h) = (state.width() as i64, state.height() as i64);
        let r = self.pattern.radius() as i64;
        let mut next: Vec<Arc<Vec<i64>>> = (0..state.len()).map(|i| state.words_arc(i)).collect();
        let dyn_fields = self.pattern.dynamic_fields();
        let (_, dyn_index) = vm::dyn_slot_map(
            self.pattern.fields().len(),
            dyn_fields.iter().map(|f| f.index()),
        );
        let (tw, th) = (window.w as i64, window.h as i64);
        let mut ty = 0;
        while ty < h {
            let mut tx = 0;
            while tx < w {
                self.tile_raw(state, &mut next, (tx, ty), (tw, th), d, r, &dyn_index, fmt)?;
                tx += tw;
            }
            ty += th;
        }
        Ok(WordSet::from_shared(
            state.width(),
            state.height(),
            next,
        ))
    }

    /// Compute one tile through `d` raw-word levels — mirrors
    /// [`Simulator::tile`] with every node one `FixedFormat` operation.
    #[allow(clippy::too_many_arguments)]
    fn tile_raw(
        &self,
        state: &WordSet,
        next: &mut [Arc<Vec<i64>>],
        (tx, ty): (i64, i64),
        (tw, th): (i64, i64),
        d: u32,
        r: i64,
        dyn_index: &[Option<usize>],
        fmt: FixedFormat,
    ) -> Result<(), SimError> {
        let (w, h) = (state.width() as i64, state.height() as i64);
        let braw = qvm::border_raw(self.border, fmt);
        let dyn_fields = self.pattern.dynamic_fields();

        let rect = |l: u32| -> (i64, i64, i64, i64) {
            let halo = r * (d - l) as i64;
            let x0 = (tx - halo).max(0);
            let y0 = if h > 1 { (ty - halo).max(0) } else { 0 };
            let x1 = (tx + tw - 1 + halo).min(w - 1);
            let y1 = if h > 1 { (ty + th - 1 + halo).min(h - 1) } else { 0 };
            (x0, y0, x1, y1)
        };

        // Level-0 buffers: verbatim word copies of the current state.
        let (x0, y0, x1, y1) = rect(0);
        let (bw, bh) = ((x1 - x0 + 1) as usize, (y1 - y0 + 1) as usize);
        let mut bufs: Vec<Vec<i64>> = dyn_fields
            .iter()
            .map(|f| {
                let fr = state.words(f.index());
                let mut b = vec![0i64; bw * bh];
                for yy in 0..bh as i64 {
                    for xx in 0..bw as i64 {
                        b[(yy * bw as i64 + xx) as usize] =
                            fr[((y0 + yy) * w + x0 + xx) as usize];
                    }
                }
                b
            })
            .collect();
        let mut buf_rect = (x0, y0, x1, y1);

        for l in 1..=d {
            let (nx0, ny0, nx1, ny1) = rect(l);
            let (nbw, nbh) = ((nx1 - nx0 + 1) as usize, (ny1 - ny0 + 1) as usize);
            let mut new_bufs: Vec<Vec<i64>> = dyn_fields
                .iter()
                .map(|_| vec![0i64; nbw * nbh])
                .collect();
            let (px0, py0, px1, py1) = buf_rect;
            let pbw = (px1 - px0 + 1) as usize;
            for (di, f) in dyn_fields.iter().enumerate() {
                let update = self.pattern.update(*f).expect("validated pattern");
                for yy in ny0..=ny1 {
                    for xx in nx0..=nx1 {
                        let read = |rf: FieldId, o: isl_ir::Offset| {
                            let (qx, qy) = (xx + o.dx as i64, yy + o.dy as i64);
                            if self.pattern.field(rf).kind == FieldKind::Static {
                                return state.sample(rf.index(), qx, qy, self.border, braw);
                            }
                            let rx = self.border.resolve(qx, w);
                            let ry = self.border.resolve(qy, h);
                            match (rx, ry) {
                                (Some(rx), Some(ry)) => {
                                    debug_assert!(
                                        rx >= px0 && rx <= px1 && ry >= py0 && ry <= py1,
                                        "tile halo must cover border-resolved reads"
                                    );
                                    let di2 = dyn_index[rf.index()].expect("dynamic read");
                                    bufs[di2][((ry - py0) as usize) * pbw + (rx - px0) as usize]
                                }
                                _ => braw,
                            }
                        };
                        let param = |p: isl_ir::ParamId| self.params[p.index()];
                        let v = qvm::eval_expr_raw(update, &read, &param, fmt);
                        new_bufs[di][((yy - ny0) as usize) * nbw + (xx - nx0) as usize] = v;
                    }
                }
            }
            bufs = new_bufs;
            buf_rect = (nx0, ny0, nx1, ny1);
        }

        // Commit the top level into the output word buffers.
        let (fx0, fy0, fx1, fy1) = buf_rect;
        let fbw = (fx1 - fx0 + 1) as usize;
        for (di, f) in dyn_fields.iter().enumerate() {
            let out = Arc::make_mut(&mut next[f.index()]);
            for yy in fy0..=fy1 {
                for xx in fx0..=fx1 {
                    out[(yy * w + xx) as usize] =
                        bufs[di][((yy - fy0) as usize) * fbw + (xx - fx0) as usize];
                }
            }
        }
        Ok(())
    }

    // -- cone-DAG semantics ---------------------------------------------------

    /// Execute through the actual hash-consed cone DAGs (the structures the
    /// VHDL backend emits), window by window.
    ///
    /// Cones resolve borders only at their *base* inputs, exactly like the
    /// generated hardware; intermediate levels extrapolate past the frame
    /// edge. The result therefore matches [`Simulator::run`] on the frame
    /// interior (at distance ≥ `radius × iterations` from the edge) and may
    /// differ in a border band — the standard behaviour of streaming stencil
    /// hardware.
    ///
    /// Each distinct level depth is lowered **once** to a flat multi-output
    /// bytecode program ([`crate::compile::CompiledCone`]) and executed tile
    /// by tile on the VM — bit-identical to
    /// [`Simulator::run_cone_dag_reference`] (tests enforce it) for every
    /// thread count.
    ///
    /// # Errors
    ///
    /// [`SimError::Cone`] when cone construction fails, plus the
    /// [`Simulator::step`] errors.
    pub fn run_cone_dag(
        &self,
        init: &FrameSet,
        iterations: u32,
        window: Window,
        depth: u32,
    ) -> Result<FrameSet, SimError> {
        self.check(init)?;
        if depth == 0 {
            return Err(SimError::Cone("cone depth must be at least 1".into()));
        }
        let (tw, th) = (window.w as i64, window.h as i64);
        // At most two distinct depths appear (the main one plus a possible
        // remainder); fetch each from the program cache exactly once.
        let mut programs: Vec<(u32, Arc<CompiledCone>)> = Vec::new();
        let mut state = init.clone();
        let mut spare: Option<FrameSet> = None;
        for d in level_depths(iterations, depth) {
            if !programs.iter().any(|(pd, _)| *pd == d) {
                let cone = self.build_cone(window, d)?;
                programs.push((
                    d,
                    self.programs
                        .cone_program(self.pattern, &cone, &self.params, true),
                ));
            }
            let cc = &programs
                .iter()
                .find(|(pd, _)| *pd == d)
                .expect("program built above")
                .1;
            let next = vm::cone_level_compiled(
                cc,
                &state,
                self.border,
                self.threads,
                (tw, th),
                spare.take(),
            );
            spare = Some(std::mem::replace(&mut state, next));
        }
        Ok(state)
    }

    /// [`Simulator::run_cone_dag`] in fixed point — the exact numeric
    /// behaviour of the generated hardware's multi-level datapath, window
    /// by window.
    ///
    /// Runs the cone programs lowered **without** constant folding, so
    /// every operation node of the cone graph (the set the VHDL registers)
    /// executes as one saturating fixed-point instruction in `fmt` —
    /// bit-identical to [`Simulator::run_cone_dag_quantized_reference`],
    /// which tests enforce. The programs hold no format, so runs in every
    /// format share one cached program per cone shape.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run_cone_dag`].
    pub fn run_cone_dag_quantized(
        &self,
        init: &FrameSet,
        iterations: u32,
        window: Window,
        depth: u32,
        fmt: FixedFormat,
    ) -> Result<FrameSet, SimError> {
        self.cone_dag_quantized(init, iterations, window, depth, fmt, false)
            .map(|run| run.frames)
    }

    /// [`Simulator::run_cone_dag_quantized`] that also records every cone
    /// firing — the golden vectors of the run: per level and window tile,
    /// the border-resolved base-input words the cone read and every output
    /// word it produced (out-of-frame outputs of edge tiles included).
    /// Firings come back in level order, tiles row-major within a level,
    /// for any thread count; the frames are bit-identical to the
    /// non-recording run.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run_cone_dag`].
    pub fn record_cone_dag_quantized(
        &self,
        init: &FrameSet,
        iterations: u32,
        window: Window,
        depth: u32,
        fmt: FixedFormat,
    ) -> Result<ConeDagRecording, SimError> {
        self.cone_dag_quantized(init, iterations, window, depth, fmt, true)
    }

    fn cone_dag_quantized(
        &self,
        init: &FrameSet,
        iterations: u32,
        window: Window,
        depth: u32,
        fmt: FixedFormat,
        record: bool,
    ) -> Result<ConeDagRecording, SimError> {
        self.check(init)?;
        if depth == 0 {
            return Err(SimError::Cone("cone depth must be at least 1".into()));
        }
        let (tw, th) = (window.w as i64, window.h as i64);
        // Per distinct depth: the fold-free program and, when recording,
        // the cone's base-input taps in input-port order.
        type Shape = (u32, Arc<CompiledCone>, Vec<(u16, i32, i32)>);
        let mut programs: Vec<Shape> = Vec::new();
        let mut shapes: Vec<(u32, Vec<ConeFiring>)> = Vec::new();
        let mut state = WordSet::quantize(init, fmt);
        let mut spare: Option<WordSet> = None;
        for (level, d) in level_depths(iterations, depth).into_iter().enumerate() {
            if !programs.iter().any(|(pd, ..)| *pd == d) {
                let cone = self.build_cone(window, d)?;
                let taps = if record {
                    cone.inputs()
                        .iter()
                        .chain(cone.static_inputs())
                        .map(|i| (i.field.index() as u16, i.point.x, i.point.y))
                        .collect()
                } else {
                    Vec::new()
                };
                programs.push((
                    d,
                    self.programs
                        .cone_program(self.pattern, &cone, &self.params, false),
                    taps,
                ));
                if record {
                    shapes.push((d, Vec::new()));
                }
            }
            let (_, cc, taps) = programs
                .iter()
                .find(|(pd, ..)| *pd == d)
                .expect("program built above");
            let (next, firings) = qvm::cone_level_quantized(
                cc,
                fmt,
                &state,
                self.border,
                self.threads,
                (tw, th),
                spare.take(),
                record.then_some(qvm::LevelRecord {
                    level: level as u32,
                    taps,
                }),
            );
            if let Some((_, fired)) = shapes.iter_mut().find(|(sd, _)| *sd == d) {
                fired.extend(firings);
            }
            spare = Some(std::mem::replace(&mut state, next));
        }
        Ok(ConeDagRecording {
            frames: state.dequantize(fmt),
            shapes,
        })
    }

    /// [`Simulator::run_cone_dag_quantized`] through a tree-walking graph
    /// interpreter in the raw word domain — the golden quantised
    /// hardware-datapath semantics.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run_cone_dag`].
    pub fn run_cone_dag_quantized_reference(
        &self,
        init: &FrameSet,
        iterations: u32,
        window: Window,
        depth: u32,
        fmt: FixedFormat,
    ) -> Result<FrameSet, SimError> {
        self.check(init)?;
        if depth == 0 {
            return Err(SimError::Cone("cone depth must be at least 1".into()));
        }
        let mut state = WordSet::quantize(init, fmt);
        for d in level_depths(iterations, depth) {
            let cone = self.build_cone(window, d)?;
            state = self.cone_level_raw(&state, &cone, fmt)?;
        }
        Ok(state.dequantize(fmt))
    }

    /// [`Simulator::run_cone_dag`] through [`Cone::eval`]'s tree-walking
    /// graph interpreter — the golden hardware-data-path semantics the
    /// compiled cone engine is property-tested against. Prefer
    /// [`Simulator::run_cone_dag`] (bit-identical, much faster).
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run_cone_dag`].
    pub fn run_cone_dag_reference(
        &self,
        init: &FrameSet,
        iterations: u32,
        window: Window,
        depth: u32,
    ) -> Result<FrameSet, SimError> {
        self.check(init)?;
        if depth == 0 {
            return Err(SimError::Cone("cone depth must be at least 1".into()));
        }
        let mut state = init.clone();
        for d in level_depths(iterations, depth) {
            let cone = self.build_cone(window, d)?;
            state = self.cone_level(&state, &cone)?;
        }
        Ok(state)
    }

    fn cone_level(&self, state: &FrameSet, cone: &Cone) -> Result<FrameSet, SimError> {
        let (w, h) = (state.width() as i64, state.height() as i64);
        let window = cone.window();
        let mut next: Vec<Arc<Frame>> = state.frames().to_vec();
        let (tw, th) = (window.w as i64, window.h as i64);
        let mut ty = 0;
        while ty < h {
            let mut tx = 0;
            while tx < w {
                let read = |f: isl_ir::FieldId, p: isl_ir::Point| {
                    state
                        .frame(f.index())
                        .sample(tx + p.x as i64, ty + p.y as i64, self.border)
                };
                for (f, p, v) in cone.eval(read, &self.params) {
                    let (ax, ay) = (tx + p.x as i64, ty + p.y as i64);
                    if ax < w && ay < h {
                        Arc::make_mut(&mut next[f.index()]).set(ax as usize, ay as usize, v);
                    }
                }
                tx += tw;
            }
            ty += th;
        }
        Ok(FrameSet::from_shared(next).expect("shapes preserved"))
    }

    /// One cone level over raw words — the tree-walking golden reference of
    /// the quantised cone engine.
    fn cone_level_raw(
        &self,
        state: &WordSet,
        cone: &Cone,
        fmt: FixedFormat,
    ) -> Result<WordSet, SimError> {
        let (w, h) = (state.width() as i64, state.height() as i64);
        let braw = qvm::border_raw(self.border, fmt);
        let window = cone.window();
        let mut next: Vec<Arc<Vec<i64>>> =
            (0..state.len()).map(|i| state.words_arc(i)).collect();
        let (tw, th) = (window.w as i64, window.h as i64);
        let mut ty = 0;
        while ty < h {
            let mut tx = 0;
            while tx < w {
                let read = |f: isl_ir::FieldId, p: isl_ir::Point| {
                    state.sample(
                        f.index(),
                        tx + p.x as i64,
                        ty + p.y as i64,
                        self.border,
                        braw,
                    )
                };
                for (f, p, v) in eval_cone_graph_raw(cone, read, &self.params, fmt) {
                    let (ax, ay) = (tx + p.x as i64, ty + p.y as i64);
                    if ax < w && ay < h {
                        Arc::make_mut(&mut next[f.index()])[(ay * w + ax) as usize] = v;
                    }
                }
                tx += tw;
            }
            ty += th;
        }
        Ok(WordSet::from_shared(w as usize, h as usize, next))
    }
}

/// Evaluate a cone's dataflow graph in the raw word domain: every node is
/// one saturating `FixedFormat` operation (selects forward words unrounded,
/// like the hardware mux) — the tree-walking golden reference of the
/// quantised cone engine.
fn eval_cone_graph_raw<R>(
    cone: &Cone,
    read: R,
    params: &[f64],
    fmt: FixedFormat,
) -> Vec<(isl_ir::FieldId, isl_ir::Point, i64)>
where
    R: Fn(isl_ir::FieldId, isl_ir::Point) -> i64,
{
    use isl_ir::{Leaf, Node};
    let graph = cone.graph();
    let mut vals: Vec<i64> = Vec::with_capacity(graph.len());
    for (_, node) in graph.nodes() {
        let v = match node {
            Node::Leaf(Leaf::Input { field, point }) | Node::Leaf(Leaf::Static { field, point }) => {
                read(*field, *point)
            }
            Node::Leaf(Leaf::Const(c)) => fmt.quantize(c.value()),
            Node::Leaf(Leaf::Param(p)) => fmt.quantize(params[p.index()]),
            Node::Unary { op, arg } => fmt.apply_unary(*op, vals[arg.index()]),
            Node::Binary { op, lhs, rhs } => {
                fmt.apply_binary(*op, vals[lhs.index()], vals[rhs.index()])
            }
            Node::Select { cond, then_, else_ } => {
                if vals[cond.index()] != 0 {
                    vals[then_.index()]
                } else {
                    vals[else_.index()]
                }
            }
        };
        vals.push(v);
    }
    cone.outputs()
        .iter()
        .map(|o| (o.field, o.point, vals[o.node.index()]))
        .collect()
}

/// Decompose `iterations` into cone levels of `depth` plus a remainder level
/// — the paper's "additional specific core" for non-divisor depths. Public
/// because every consumer of the cone architecture (the quantised engines
/// here, the bit-true co-simulator in `isl-cosim`) must agree on exactly
/// this plan for their outputs to correspond level by level.
pub fn level_depths(iterations: u32, depth: u32) -> Vec<u32> {
    let mut v = vec![depth; (iterations / depth) as usize];
    if !iterations.is_multiple_of(depth) {
        v.push(iterations % depth);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use isl_ir::{BinaryOp, Expr, Offset};

    fn jacobi() -> StencilPattern {
        let mut p = StencilPattern::new(2).with_name("jacobi");
        let f = p.add_field("f", FieldKind::Dynamic);
        let avg = Expr::binary(
            BinaryOp::Mul,
            Expr::sum([
                Expr::input(f, Offset::d2(0, -1)),
                Expr::input(f, Offset::d2(-1, 0)),
                Expr::input(f, Offset::d2(1, 0)),
                Expr::input(f, Offset::d2(0, 1)),
            ]),
            Expr::constant(0.25),
        );
        p.set_update(f, avg).unwrap();
        p
    }

    fn relax_to_static() -> StencilPattern {
        // f' = 0.5 f + 0.5 g — converges to the static field g.
        let mut p = StencilPattern::new(2).with_name("relax");
        let f = p.add_field("f", FieldKind::Dynamic);
        let g = p.add_field("g", FieldKind::Static);
        let e = Expr::binary(
            BinaryOp::Add,
            Expr::binary(BinaryOp::Mul, Expr::input(f, Offset::ZERO), Expr::constant(0.5)),
            Expr::binary(BinaryOp::Mul, Expr::input(g, Offset::ZERO), Expr::constant(0.5)),
        );
        p.set_update(f, e).unwrap();
        p
    }

    fn noisy(w: usize, h: usize) -> Frame {
        Frame::from_fn(w, h, |x, y| {
            ((x * 31 + y * 17) % 11) as f64 * 0.7 + (x as f64 * 0.1)
        })
    }

    #[test]
    fn golden_step_smooths() {
        let p = jacobi();
        let sim = Simulator::new(&p).unwrap();
        let init = FrameSet::from_frames(vec![noisy(12, 12)]).unwrap();
        let out = sim.run(&init, 5).unwrap();
        // Variance must drop under repeated averaging.
        let var = |f: &Frame| {
            let m = f.mean();
            f.as_slice().iter().map(|v| (v - m) * (v - m)).sum::<f64>() / f.len() as f64
        };
        assert!(var(out.frame(0)) < var(init.frame(0)));
    }

    #[test]
    fn tiled_equals_golden_all_local_borders() {
        let p = jacobi();
        let init = FrameSet::from_frames(vec![noisy(17, 13)]).unwrap();
        for border in [
            BorderMode::Clamp,
            BorderMode::Mirror,
            BorderMode::Constant(0.5),
        ] {
            let sim = Simulator::new(&p).unwrap().with_border(border);
            let golden = sim.run(&init, 5).unwrap();
            for (window, depth) in [
                (Window::square(4), 1),
                (Window::square(4), 2),
                (Window::square(3), 5),
                (Window::rect(5, 2), 3),
                (Window::square(1), 2),
            ] {
                let tiled = sim.run_tiled_reference(&init, 5, window, depth).unwrap();
                assert!(
                    golden.max_abs_diff(&tiled) < 1e-12,
                    "border {border}, window {window}, depth {depth}"
                );
            }
        }
    }

    #[test]
    fn tiled_handles_remainder_levels() {
        // 7 iterations with depth 3 = levels [3, 3, 1].
        assert_eq!(level_depths(7, 3), vec![3, 3, 1]);
        assert_eq!(level_depths(10, 5), vec![5, 5]);
        assert_eq!(level_depths(3, 5), vec![3]);
        let p = jacobi();
        let sim = Simulator::new(&p).unwrap();
        let init = FrameSet::from_frames(vec![noisy(11, 9)]).unwrap();
        let golden = sim.run(&init, 7).unwrap();
        let tiled = sim
            .run_tiled_reference(&init, 7, Window::square(4), 3)
            .unwrap();
        assert!(golden.max_abs_diff(&tiled) < 1e-12);
    }

    #[test]
    fn cone_dag_rejects_zero_depth() {
        let p = jacobi();
        let sim = Simulator::new(&p).unwrap();
        let init = FrameSet::from_frames(vec![noisy(8, 8)]).unwrap();
        for f in [Simulator::run_cone_dag, Simulator::run_cone_dag_reference] {
            assert!(matches!(
                f(&sim, &init, 3, Window::square(4), 0),
                Err(SimError::Cone(_))
            ));
        }
    }

    #[test]
    fn tiled_rejects_wrap() {
        let p = jacobi();
        let sim = Simulator::new(&p).unwrap().with_border(BorderMode::Wrap);
        let init = FrameSet::from_frames(vec![noisy(8, 8)]).unwrap();
        assert_eq!(
            sim.run_tiled_reference(&init, 2, Window::square(4), 2)
                .unwrap_err(),
            SimError::NonLocalBorder
        );
        // Golden still supports wrap.
        sim.run(&init, 2).unwrap();
    }

    #[test]
    fn tiled_multi_field_with_static() {
        let p = relax_to_static();
        let sim = Simulator::new(&p).unwrap();
        let init = FrameSet::from_frames(vec![noisy(10, 10), Frame::from_fn(10, 10, |x, _| x as f64)])
            .unwrap();
        let golden = sim.run(&init, 4).unwrap();
        let tiled = sim
            .run_tiled_reference(&init, 4, Window::square(3), 2)
            .unwrap();
        assert!(golden.max_abs_diff(&tiled) < 1e-12);
        // Static field untouched.
        assert_eq!(golden.frame(1), init.frame(1));
    }

    #[test]
    fn one_dimensional_tiled() {
        let mut p = StencilPattern::new(1).with_name("avg1d");
        let f = p.add_field("f", FieldKind::Dynamic);
        p.set_update(
            f,
            Expr::binary(
                BinaryOp::Mul,
                Expr::sum([
                    Expr::input(f, Offset::d1(-1)),
                    Expr::input(f, Offset::d1(0)),
                    Expr::input(f, Offset::d1(1)),
                ]),
                Expr::constant(1.0 / 3.0),
            ),
        )
        .unwrap();
        let sim = Simulator::new(&p).unwrap().with_border(BorderMode::Mirror);
        let init = FrameSet::from_frames(vec![Frame::from_samples(&[
            3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0,
        ])])
        .unwrap();
        let golden = sim.run(&init, 6).unwrap();
        let tiled = sim
            .run_tiled_reference(&init, 6, Window::line(4), 2)
            .unwrap();
        assert!(golden.max_abs_diff(&tiled) < 1e-12);
    }

    #[test]
    fn compiled_cone_dag_matches_reference_bitwise() {
        let p = jacobi();
        let init = FrameSet::from_frames(vec![noisy(22, 15)]).unwrap();
        for border in [BorderMode::Clamp, BorderMode::Wrap, BorderMode::Constant(0.5)] {
            for threads in [1, 2, 4] {
                let sim = Simulator::new(&p)
                    .unwrap()
                    .with_border(border)
                    .with_threads(threads);
                for (window, depth) in [(Window::square(4), 2), (Window::rect(6, 3), 3)] {
                    let fast = sim.run_cone_dag(&init, 5, window, depth).unwrap();
                    let gold = sim.run_cone_dag_reference(&init, 5, window, depth).unwrap();
                    for (a, b) in fast
                        .frame(0)
                        .as_slice()
                        .iter()
                        .zip(gold.frame(0).as_slice())
                    {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "border {border}, window {window}, depth {depth}, {threads}t"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cone_dag_matches_golden_in_interior() {
        let p = jacobi();
        let sim = Simulator::new(&p).unwrap();
        let init = FrameSet::from_frames(vec![noisy(24, 24)]).unwrap();
        let iters = 4u32;
        let golden = sim.run(&init, iters).unwrap();
        let dag = sim.run_cone_dag(&init, iters, Window::square(4), 2).unwrap();
        let margin = (p.radius() * iters) as usize;
        for y in margin..24 - margin {
            for x in margin..24 - margin {
                let a = golden.frame(0).get(x, y);
                let b = dag.frame(0).get(x, y);
                assert!((a - b).abs() < 1e-12, "mismatch at ({x},{y}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn convergence_to_static_field() {
        let p = relax_to_static();
        let sim = Simulator::new(&p).unwrap();
        let g = Frame::from_fn(8, 8, |x, y| (x + y) as f64);
        let init = FrameSet::from_frames(vec![Frame::new(8, 8), g.clone()]).unwrap();
        let (fixed, report) = sim.run_until_converged(&init, 1e-9, 200).unwrap();
        assert!(report.converged);
        assert!(report.iterations < 200);
        assert!(fixed.frame(0).max_abs_diff(&g) < 1e-6);
    }

    #[test]
    fn non_convergence_is_reported() {
        // f' = f + 1 never converges.
        let mut p = StencilPattern::new(1);
        let f = p.add_field("f", FieldKind::Dynamic);
        p.set_update(
            f,
            Expr::binary(BinaryOp::Add, Expr::input(f, Offset::ZERO), Expr::constant(1.0)),
        )
        .unwrap();
        let sim = Simulator::new(&p).unwrap();
        let init = FrameSet::from_frames(vec![Frame::from_samples(&[0.0; 4])]).unwrap();
        let (_, report) = sim.run_until_converged(&init, 1e-9, 10).unwrap();
        assert!(!report.converged);
        assert_eq!(report.iterations, 10);
        assert!((report.delta - 1.0).abs() < 1e-12);
    }

    #[test]
    fn params_are_respected() {
        let mut p = StencilPattern::new(1);
        let f = p.add_field("f", FieldKind::Dynamic);
        let tau = p.add_param("tau", 0.5);
        p.set_update(
            f,
            Expr::binary(BinaryOp::Mul, Expr::input(f, Offset::ZERO), Expr::param(tau)),
        )
        .unwrap();
        let init = FrameSet::from_frames(vec![Frame::from_samples(&[8.0])]).unwrap();
        let by_default = Simulator::new(&p).unwrap().run(&init, 1).unwrap();
        assert_eq!(by_default.frame(0).get(0, 0), 4.0);
        let by_override = Simulator::new(&p)
            .unwrap()
            .with_params(vec![0.25])
            .unwrap()
            .run(&init, 1)
            .unwrap();
        assert_eq!(by_override.frame(0).get(0, 0), 2.0);
        assert!(matches!(
            Simulator::new(&p).unwrap().with_params(vec![]),
            Err(SimError::ParamCountMismatch { .. })
        ));
    }

    #[test]
    fn field_count_mismatch_detected() {
        let p = jacobi();
        let sim = Simulator::new(&p).unwrap();
        let bad = FrameSet::from_frames(vec![noisy(4, 4), noisy(4, 4)]).unwrap();
        assert!(matches!(
            sim.step(&bad),
            Err(SimError::FieldCountMismatch { expected: 1, got: 2 })
        ));
    }
}
