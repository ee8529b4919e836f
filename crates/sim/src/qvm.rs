//! The quantised (raw fixed-point word) execution engines.
//!
//! Mirrors [`crate::vm`] in the **integer domain**: state is held as raw
//! fixed-point words (`i64`), and every arithmetic instruction is one of
//! `isl_fpga::FixedFormat`'s saturating/truncating lane kernels
//! ([`FixedFormat::unary_span`] / [`FixedFormat::binary_span`]) — the same
//! single bit-true definition the co-simulation VM executes scalar-wise.
//! The engines run the fold-free [`Instr`] programs the `f64` side
//! compiles (every operation node survives, so each gets its own
//! rounding), with the [`FixedFormat`] passed in at run time: an
//! [`Instr::Const`] is quantised where it is read, exactly as the
//! co-simulation VM does, and a power-of-two constant operand still drops
//! to [`FixedFormat::binary_span_const`]'s shift kernels. One program per
//! shape therefore serves every format a search probes.
//!
//! Two engines, mirroring the `f64` pair:
//!
//! * [`step_quantized`] — whole-frame row evaluation (interior spans +
//!   scalar border strips) of the **fused** multi-output program
//!   ([`crate::compile::QuantizedStep`]), so subexpressions shared between
//!   field updates are computed once per pixel, not once per field;
//! * [`cone_level_quantized`] — cone-DAG tiles as SoA lanes with streaming
//!   output retirement (outputs scatter the moment their defining
//!   instruction executes, so the scratch tracks the live set, not the
//!   output count).
//!
//! Frames enter through [`WordSet::quantize`] (one `FixedFormat::quantize`
//! per sample — including the border constant, pre-quantised once per pass)
//! and leave through [`WordSet::dequantize`]; in between, *everything* is
//! integer. `f64` cannot round-trip raw words wider than 53 bits, which is
//! exactly why the state lives in words rather than floats.

use std::sync::{Arc, Mutex};

use isl_fpga::FixedFormat;
use isl_ir::{Expr, FieldId, Offset, ParamId};

use crate::border::BorderMode;
use crate::compile::{CompiledCone, Instr, QuantizedStep};
use crate::frame::{Frame, FrameSet};
use crate::parallel::for_each_task;
use crate::sim::ConeFiring;
use crate::vm::{dyn_slot_map, split_bands, tile_banding, LANE_SCRATCH, SPAN};

// -- word-domain state ------------------------------------------------------

/// A frame set in the raw fixed-point word domain: one `i64` word per
/// sample, row-major, `Arc`-shared so static fields pass through levels
/// without copies and retiring buffers recycle exactly like [`FrameSet`].
#[derive(Debug, Clone)]
pub(crate) struct WordSet {
    width: usize,
    height: usize,
    frames: Vec<Arc<Vec<i64>>>,
}

impl WordSet {
    /// Load a `f64` frame set into `fmt`'s word domain (round-to-nearest
    /// with saturation per sample — the hardware's input conversion).
    pub(crate) fn quantize(init: &FrameSet, fmt: FixedFormat) -> Self {
        let frames = init
            .frames()
            .iter()
            .map(|f| {
                let mut w = vec![0i64; f.len()];
                fmt.quantize_span(f.as_slice(), &mut w);
                Arc::new(w)
            })
            .collect();
        WordSet {
            width: init.width(),
            height: init.height(),
            frames,
        }
    }

    /// Convert back to real units. Lossy above 53 significant bits — the
    /// reason the run itself stays in words.
    pub(crate) fn dequantize(&self, fmt: FixedFormat) -> FrameSet {
        FrameSet::from_frames(
            self.frames
                .iter()
                .map(|w| {
                    let mut f = vec![0.0; w.len()];
                    fmt.dequantize_span(w, &mut f);
                    Frame::from_vec(self.width, self.height, f)
                })
                .collect(),
        )
        .expect("shapes preserved")
    }

    /// Assemble from already-shared word buffers (the tree-walking
    /// references use this to pass static fields through unchanged).
    pub(crate) fn from_shared(width: usize, height: usize, frames: Vec<Arc<Vec<i64>>>) -> Self {
        debug_assert!(frames.iter().all(|f| f.len() == width * height));
        WordSet { width, height, frames }
    }

    pub(crate) fn width(&self) -> usize {
        self.width
    }

    pub(crate) fn height(&self) -> usize {
        self.height
    }

    /// The word buffer of field `i`.
    pub(crate) fn words(&self, i: usize) -> &[i64] {
        &self.frames[i]
    }

    /// The shared word buffer of field `i`.
    pub(crate) fn words_arc(&self, i: usize) -> Arc<Vec<i64>> {
        Arc::clone(&self.frames[i])
    }

    /// Number of fields.
    pub(crate) fn len(&self) -> usize {
        self.frames.len()
    }

    /// Border-resolved read of field `i` at `(x, y)` with the pre-quantised
    /// border constant `border_raw`.
    pub(crate) fn sample(&self, i: usize, x: i64, y: i64, border: BorderMode, border_raw: i64) -> i64 {
        WordView::frame(&self.frames[i], self.width).sample(
            x,
            y,
            self.width as i64,
            self.height as i64,
            border,
            border_raw,
        )
    }
}

/// The quantised border constant of a pass: [`BorderMode::Constant`] values
/// enter the word domain once, not per read.
pub(crate) fn border_raw(border: BorderMode, fmt: FixedFormat) -> i64 {
    border.constant_value().map_or(0, |c| fmt.quantize(c))
}

// -- source views -----------------------------------------------------------

/// A read-only view of one field's raw words: a whole row-major frame of
/// `stride`-word rows, with [`Frame::sample`]'s border resolution.
#[derive(Clone, Copy)]
struct WordView<'a> {
    data: &'a [i64],
    stride: usize,
}

impl<'a> WordView<'a> {
    fn frame(data: &'a [i64], stride: usize) -> Self {
        WordView { data, stride }
    }

    fn sample(&self, x: i64, y: i64, w: i64, h: i64, border: BorderMode, border_raw: i64) -> i64 {
        match (border.resolve(x, w), border.resolve(y, h)) {
            (Some(rx), Some(ry)) => self.data[ry as usize * self.stride + rx as usize],
            _ => border_raw,
        }
    }
}

/// Reusable per-worker scratch of the quantised row evaluator.
#[derive(Default)]
struct ScratchQ {
    lanes: Vec<i64>,
    regs: Vec<i64>,
}

impl ScratchQ {
    fn ensure(&mut self, instrs: usize) {
        self.lanes.resize(instrs.max(1) * SPAN, 0);
        self.regs.resize(instrs.max(1), 0);
    }
}

// -- whole-frame stepping ---------------------------------------------------

/// One quantised whole-frame step in `fmt` — the engine behind
/// [`crate::Simulator::run_quantized`]. `state` must hold words of `fmt`.
///
/// Evaluates the pattern's **fused** multi-output program rather than one
/// kernel per field: all dynamic fields of a row band are produced in a
/// single pass over the instruction stream, with cross-field common
/// subexpressions (gradients, norms, parameter quotients) computed once per
/// pixel.
pub(crate) fn step_quantized(
    step: &QuantizedStep,
    fmt: FixedFormat,
    state: &WordSet,
    border: BorderMode,
    threads: usize,
    recycle: Option<WordSet>,
) -> WordSet {
    let _span = isl_telemetry::span("engine", "frame step q");
    let (w, h) = (state.width(), state.height());
    let braw = border_raw(border, fmt);
    let dyn_fields: Vec<usize> = step.outputs().iter().map(|&(f, _)| f as usize).collect();
    let t = tile_banding(h, 1, threads, w * h * step.len());
    let srcs: Vec<WordView<'_>> = state.frames.iter().map(|f| WordView::frame(f, w)).collect();
    banded_level_q(state, &dyn_fields, 1, t, recycle, |row0, slices| {
        let rows = slices[0].len() / w;
        let mut scratch = ScratchQ::default();
        eval_rect_step_q(
            step,
            fmt,
            &srcs,
            (w, h),
            border,
            braw,
            (row0 as i64, (row0 + rows) as i64 - 1),
            slices,
            row0 as i64,
            &mut scratch,
        );
    })
}

/// Reclaim uniquely-owned word buffers of a retiring set (double buffering).
fn reclaim(recycle: Option<WordSet>, w: usize, h: usize) -> Vec<Option<Vec<i64>>> {
    match recycle {
        None => Vec::new(),
        Some(ws) => ws
            .frames
            .into_iter()
            .map(|arc| Arc::try_unwrap(arc).ok().filter(|v| v.len() == w * h))
            .collect(),
    }
}

// -- row evaluation ---------------------------------------------------------

/// Multi-output integer twin of `vm::eval_rows` for the fused whole-frame
/// program: interior spans through the format's lane kernels, border pixels
/// scalar through `apply_unary` / `apply_binary` — bit-identical by
/// construction (the lane kernels are property-tested against the scalar
/// ops element-wise). One instruction-stream pass per span writes **every**
/// dynamic field's band. Always covers full rows (`x ∈ [0, w)`) of a band
/// anchored at row `oy`; `outs[k]` is the band of the `k`-th entry of
/// `step.outputs()`.
#[allow(clippy::too_many_arguments)]
fn eval_rect_step_q(
    step: &QuantizedStep,
    fmt: FixedFormat,
    srcs: &[WordView<'_>],
    (w, h): (usize, usize),
    border: BorderMode,
    braw: i64,
    (ry0, ry1): (i64, i64),
    outs: &mut [&mut [i64]],
    oy: i64,
    scratch: &mut ScratchQ,
) {
    if isl_telemetry::enabled() {
        crate::metrics::tally_qinstrs(step.code(), (w as i64 * (ry1 - ry0 + 1)) as u64);
    }
    let halo = step.halo();
    let xlo = i64::from(halo.left);
    let xhi = w as i64 - 1 - i64::from(halo.right);
    let ylo = ry0.max(i64::from(halo.up));
    let yhi = ry1.min(h as i64 - 1 - i64::from(halo.down));
    scratch.ensure(step.len());
    for y in ry0..=ry1 {
        let row = ((y - oy) as usize) * w;
        if (ylo..=yhi).contains(&y) && xlo <= xhi {
            for x in 0..xlo {
                pixel_step_q(step, fmt, srcs, border, braw, (w, h), x, y, row, outs, scratch);
            }
            let mut x0 = xlo;
            while x0 <= xhi {
                let len = (xhi - x0 + 1).min(SPAN as i64) as usize;
                eval_span_q(step.code(), fmt, srcs, y, x0, len, &mut scratch.lanes);
                let at = row + x0 as usize;
                for (out, &(_, res)) in outs.iter_mut().zip(step.outputs()) {
                    let res = res as usize;
                    out[at..at + len].copy_from_slice(&scratch.lanes[res * len..(res + 1) * len]);
                }
                x0 += len as i64;
            }
            for x in (xhi + 1)..w as i64 {
                pixel_step_q(step, fmt, srcs, border, braw, (w, h), x, y, row, outs, scratch);
            }
        } else {
            for x in 0..w as i64 {
                pixel_step_q(step, fmt, srcs, border, braw, (w, h), x, y, row, outs, scratch);
            }
        }
    }
}

/// One border pixel of the fused program: evaluate all registers once,
/// scatter every output field's result register.
#[allow(clippy::too_many_arguments)]
fn pixel_step_q(
    step: &QuantizedStep,
    fmt: FixedFormat,
    srcs: &[WordView<'_>],
    border: BorderMode,
    braw: i64,
    (w, h): (usize, usize),
    x: i64,
    y: i64,
    row: usize,
    outs: &mut [&mut [i64]],
    scratch: &mut ScratchQ,
) {
    eval_pixel_q(step.code(), fmt, srcs, border, braw, (w, h), x, y, &mut scratch.regs);
    for (out, &(_, res)) in outs.iter_mut().zip(step.outputs()) {
        out[row + x as usize] = scratch.regs[res as usize];
    }
}

/// Evaluate a quantised multi-output program over the
/// statically in-bounds span `[x0, x0 + len)` of row `y`, one format lane
/// kernel per instruction; callers read result registers out of `scratch`.
fn eval_span_q(
    code: &[Instr],
    fmt: FixedFormat,
    srcs: &[WordView<'_>],
    y: i64,
    x0: i64,
    len: usize,
    scratch: &mut [i64],
) {
    for (i, instr) in code.iter().enumerate() {
        let (prev, cur) = scratch.split_at_mut(i * len);
        let dst = &mut cur[..len];
        let lane = |r: u32| &prev[r as usize * len..(r as usize + 1) * len];
        match *instr {
            Instr::Const(v) => dst.fill(fmt.quantize(v)),
            Instr::Input { field, dx, dy } => {
                let s = &srcs[field as usize];
                let base = (y + i64::from(dy)) * s.stride as i64 + x0 + i64::from(dx);
                let base = usize::try_from(base).expect("interior read in bounds");
                dst.copy_from_slice(&s.data[base..base + len]);
            }
            Instr::Unary { op, a } => fmt.unary_span(op, lane(a), dst),
            Instr::Binary { op, a, b } => {
                // Kernel registers are instruction indices, so a constant
                // right operand is visible here — power-of-two multiplies
                // and divides of its quantised word drop to shift kernels,
                // bit-identically.
                let done = matches!(code[b as usize], Instr::Const(c)
                    if fmt.binary_span_const(op, lane(a), fmt.quantize(c), dst));
                if !done {
                    fmt.binary_span(op, lane(a), lane(b), dst);
                }
            }
            Instr::Select { c, t, e } => {
                let (c, t, e) = (lane(c), lane(t), lane(e));
                for k in 0..len {
                    dst[k] = if c[k] != 0 { t[k] } else { e[k] };
                }
            }
        }
    }
}

/// Scalar per-pixel evaluation with full border resolution; callers read
/// result registers out of `regs`.
#[allow(clippy::too_many_arguments)]
fn eval_pixel_q(
    code: &[Instr],
    fmt: FixedFormat,
    srcs: &[WordView<'_>],
    border: BorderMode,
    braw: i64,
    (w, h): (usize, usize),
    x: i64,
    y: i64,
    regs: &mut [i64],
) {
    for (i, instr) in code.iter().enumerate() {
        regs[i] = match *instr {
            Instr::Const(c) => fmt.quantize(c),
            Instr::Input { field, dx, dy } => srcs[field as usize].sample(
                x + i64::from(dx),
                y + i64::from(dy),
                w as i64,
                h as i64,
                border,
                braw,
            ),
            Instr::Unary { op, a } => fmt.apply_unary(op, regs[a as usize]),
            Instr::Binary { op, a, b } => {
                fmt.apply_binary(op, regs[a as usize], regs[b as usize])
            }
            Instr::Select { c, t, e } => {
                if regs[c as usize] != 0 {
                    regs[t as usize]
                } else {
                    regs[e as usize]
                }
            }
        };
    }
}

// -- tile-banded level execution -----------------------------------------------

/// Shared frame of the quantised banded executors (row bands of the
/// whole-frame step, tile-row bands of the cone levels) — the integer twin
/// of `vm::banded_level`.
fn banded_level_q<F>(
    state: &WordSet,
    dyn_fields: &[usize],
    th: usize,
    t: usize,
    recycle: Option<WordSet>,
    band_fn: F,
) -> WordSet
where
    F: Fn(usize, &mut [&mut [i64]]) + Sync,
{
    let (w, h) = (state.width(), state.height());
    let mut recycled = reclaim(recycle, w, h);
    let mut outs: Vec<Vec<i64>> = dyn_fields
        .iter()
        .map(|&i| {
            recycled
                .get_mut(i)
                .and_then(Option::take)
                .unwrap_or_else(|| vec![0i64; w * h])
        })
        .collect();
    let rows_per_band = h.div_ceil(th).div_ceil(t) * th;
    let bands = split_bands(outs.iter_mut().map(Vec::as_mut_slice).collect(), w, rows_per_band);
    for_each_task(bands, t, |(row0, mut slices)| band_fn(row0, &mut slices));
    let mut next: Vec<Arc<Vec<i64>>> = state.frames.to_vec();
    for (&fi, data) in dyn_fields.iter().zip(outs) {
        next[fi] = Arc::new(data);
    }
    WordSet {
        width: w,
        height: h,
        frames: next,
    }
}

// -- cone-DAG level execution -----------------------------------------------

/// What a recording cone-DAG level captures: the level index and the
/// base-input taps `(field, dx, dy)` of the cone, in input-port order.
pub(crate) struct LevelRecord<'a> {
    pub(crate) level: u32,
    pub(crate) taps: &'a [(u16, i32, i32)],
}

/// The firings of one band of tile rows, in row-major tile order.
struct BandFirings {
    firings: Vec<ConeFiring>,
    row0: i64,
    tiles_x: usize,
    tile: (i64, i64),
}

impl BandFirings {
    /// Capture every tile's border-resolved base-input words up front; the
    /// output words fill in as the lanes retire them.
    #[allow(clippy::too_many_arguments)]
    fn new(
        rec: &LevelRecord<'_>,
        state: &WordSet,
        border: BorderMode,
        braw: i64,
        (row0, rows): (usize, usize),
        tiles_x: usize,
        (tw, th): (i64, i64),
        outputs: usize,
    ) -> Self {
        let mut firings = Vec::with_capacity(rows.div_ceil(th as usize) * tiles_x);
        let mut ty = row0 as i64;
        while ty < (row0 + rows) as i64 {
            for k in 0..tiles_x as i64 {
                let tx = k * tw;
                let inputs = rec
                    .taps
                    .iter()
                    .map(|&(f, dx, dy)| {
                        let (x, y) = (tx + i64::from(dx), ty + i64::from(dy));
                        state.sample(f as usize, x, y, border, braw)
                    })
                    .collect();
                firings.push(ConeFiring {
                    level: rec.level,
                    tile: (tx, ty),
                    inputs,
                    outputs: vec![0; outputs],
                });
            }
            ty += th;
        }
        BandFirings {
            firings,
            row0: row0 as i64,
            tiles_x,
            tile: (tw, th),
        }
    }

    fn at(&mut self, (tx, ty): (i64, i64)) -> &mut ConeFiring {
        let row = ((ty - self.row0) / self.tile.1) as usize;
        &mut self.firings[row * self.tiles_x + (tx / self.tile.0) as usize]
    }
}

/// One quantised cone-DAG level of the fold-free cone program `cc` in
/// `fmt` — the engine behind [`crate::Simulator::run_cone_dag_quantized`].
/// Integer twin of [`crate::vm::cone_level_compiled`], including the
/// streaming output retirement. With `record`, every firing is also
/// returned in row-major tile order, whatever the thread count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn cone_level_quantized(
    cc: &CompiledCone,
    fmt: FixedFormat,
    state: &WordSet,
    border: BorderMode,
    threads: usize,
    (tw, th): (i64, i64),
    recycle: Option<WordSet>,
    record: Option<LevelRecord<'_>>,
) -> (WordSet, Vec<ConeFiring>) {
    let _span = isl_telemetry::span("engine", "cone level q");
    let (w, h) = (state.width(), state.height());
    let braw = border_raw(border, fmt);
    let (dyn_fields, dyn_slot) =
        dyn_slot_map(state.frames.len(), cc.outputs.iter().map(|s| s.field as usize));
    let tiles_x = w.div_ceil(tw as usize);
    let work = tiles_x * h.div_ceil(th as usize) * cc.len();
    let t = tile_banding(h, th as usize, threads, work);
    let reach = cc.reach();
    let lanes_cap = (LANE_SCRATCH / cc.slots().max(1)).clamp(1, 512);
    let bands: Mutex<Vec<BandFirings>> = Mutex::new(Vec::new());
    let next = banded_level_q(state, &dyn_fields, th as usize, t, recycle, |row0, slices| {
        let rows = slices[0].len() / w;
        let mut interior: Vec<(i64, i64)> = Vec::new();
        let mut edge: Vec<(i64, i64)> = Vec::new();
        let mut ty = row0 as i64;
        while ty < (row0 + rows) as i64 {
            let y_in =
                ty + i64::from(reach.min_dy) >= 0 && ty + i64::from(reach.max_dy) < h as i64;
            for k in 0..tiles_x as i64 {
                let tx = k * tw;
                if y_in
                    && tx + i64::from(reach.min_dx) >= 0
                    && tx + i64::from(reach.max_dx) < w as i64
                {
                    interior.push((tx, ty));
                } else {
                    edge.push((tx, ty));
                }
            }
            ty += th;
        }
        let mut band = record.as_ref().map(|rec| {
            let outputs = cc.output_count();
            BandFirings::new(rec, state, border, braw, (row0, rows), tiles_x, (tw, th), outputs)
        });
        let mut scratch = vec![0i64; cc.slots() * lanes_cap];
        for chunk in interior.chunks(lanes_cap) {
            eval_cone_lanes_q(cc, fmt, state, border, braw, chunk, true, &dyn_slot, &mut scratch, (slices, row0), band.as_mut());
        }
        for chunk in edge.chunks(lanes_cap) {
            eval_cone_lanes_q(cc, fmt, state, border, braw, chunk, false, &dyn_slot, &mut scratch, (slices, row0), band.as_mut());
        }
        if let Some(band) = band {
            bands.lock().expect("band firings").push(band);
        }
    });
    let mut bands = bands.into_inner().expect("band firings");
    bands.sort_by_key(|b| b.row0);
    (next, bands.into_iter().flat_map(|b| b.firings).collect())
}

/// Evaluate the fold-free cone program in `fmt` for every tile of `chunk`
/// at once — integer twin of `vm::eval_cone_lanes`, with the same streaming output
/// retirement (outputs scatter at their capture instruction, before their
/// slot can be reused). A recording band also keeps every retired word,
/// out-of-frame outputs of edge tiles included.
#[allow(clippy::too_many_arguments)]
fn eval_cone_lanes_q(
    cc: &CompiledCone,
    fmt: FixedFormat,
    state: &WordSet,
    border: BorderMode,
    braw: i64,
    chunk: &[(i64, i64)],
    interior: bool,
    dyn_slot: &[Option<usize>],
    scratch: &mut [i64],
    (slices, row0): (&mut [&mut [i64]], usize),
    mut band: Option<&mut BandFirings>,
) {
    let (w, h) = (state.width(), state.height());
    let n = chunk.len();
    if isl_telemetry::enabled() {
        crate::metrics::tally_qinstrs(&cc.code, n as u64);
    }
    let read_origin: Vec<i64> = chunk.iter().map(|&(tx, ty)| ty * w as i64 + tx).collect();
    let write_origin: Vec<i64> = chunk
        .iter()
        .map(|&(tx, ty)| (ty - row0 as i64) * w as i64 + tx)
        .collect();
    let range = |s: u32| s as usize * n..s as usize * n + n;
    let mut next_retire = 0usize;
    for (i, instr) in cc.code.iter().enumerate() {
        let d = cc.dst[i];
        match *instr {
            Instr::Const(v) => scratch[range(d)].fill(fmt.quantize(v)),
            Instr::Input { field, dx, dy } => {
                let dst = &mut scratch[range(d)];
                if interior {
                    let src = state.words(field as usize);
                    let off = i64::from(dy) * w as i64 + i64::from(dx);
                    for (d, &o) in dst.iter_mut().zip(&read_origin) {
                        *d = src[(o + off) as usize];
                    }
                } else {
                    let f = WordView::frame(state.words(field as usize), w);
                    for (d, &(tx, ty)) in dst.iter_mut().zip(chunk) {
                        *d = f.sample(
                            tx + i64::from(dx),
                            ty + i64::from(dy),
                            w as i64,
                            h as i64,
                            border,
                            braw,
                        );
                    }
                }
            }
            Instr::Unary { op, a } => {
                let [dst, a] = scratch
                    .get_disjoint_mut([range(d), range(a)])
                    .expect("dst slot distinct from operands");
                fmt.unary_span(op, a, dst);
            }
            Instr::Binary { op, a, b } => {
                if a == b {
                    let [dst, a] = scratch
                        .get_disjoint_mut([range(d), range(a)])
                        .expect("dst slot distinct from operands");
                    let a = &*a;
                    fmt.binary_span(op, a, a, dst);
                } else {
                    let [dst, a, b] = scratch
                        .get_disjoint_mut([range(d), range(a), range(b)])
                        .expect("dst slot distinct from operands");
                    fmt.binary_span(op, a, b, dst);
                }
            }
            Instr::Select { c, t, e } => {
                let (c0, t0, e0, d0) =
                    (c as usize * n, t as usize * n, e as usize * n, d as usize * n);
                for k in 0..n {
                    scratch[d0 + k] = if scratch[c0 + k] != 0 {
                        scratch[t0 + k]
                    } else {
                        scratch[e0 + k]
                    };
                }
            }
        }
        while next_retire < cc.retire.len()
            && cc.capture[cc.retire[next_retire] as usize] as usize == i
        {
            let oi = cc.retire[next_retire] as usize;
            let slot = &cc.outputs[oi];
            next_retire += 1;
            let di = dyn_slot[slot.field as usize].expect("output field is dynamic");
            let src = &scratch[range(slot.reg)];
            if let Some(band) = band.as_deref_mut() {
                for (&tile, &v) in chunk.iter().zip(src) {
                    band.at(tile).outputs[oi] = v;
                }
            }
            let off = i64::from(slot.py) * w as i64 + i64::from(slot.px);
            if interior {
                for (&v, &o) in src.iter().zip(&write_origin) {
                    slices[di][(o + off) as usize] = v;
                }
            } else {
                for (k, &(tx, ty)) in chunk.iter().enumerate() {
                    let (ax, ay) = (tx + i64::from(slot.px), ty + i64::from(slot.py));
                    if ax < w as i64 && ay < h as i64 {
                        slices[di][(ay as usize - row0) * w + ax as usize] = src[k];
                    }
                }
            }
        }
    }
    debug_assert_eq!(next_retire, cc.outputs.len(), "every output must retire");
}

// -- tree-walking raw reference ---------------------------------------------

/// Evaluate an update expression in the raw word domain — the tree-walking
/// golden reference of the quantised engines. Every node is one
/// `FixedFormat` operation: leaves quantise (`Const` / `Param`) or read
/// already-quantised words (`Input`); operators are the saturating
/// fixed-point datapath; a select forwards one branch's word unchanged.
pub(crate) fn eval_expr_raw<R, P>(e: &Expr, read: &R, param: &P, fmt: FixedFormat) -> i64
where
    R: Fn(FieldId, Offset) -> i64,
    P: Fn(ParamId) -> f64,
{
    match e {
        Expr::Input { field, offset } => read(*field, *offset),
        Expr::Const(c) => fmt.quantize(*c),
        Expr::Param(p) => fmt.quantize(param(*p)),
        Expr::Unary { op, arg } => fmt.apply_unary(*op, eval_expr_raw(arg, read, param, fmt)),
        Expr::Binary { op, lhs, rhs } => fmt.apply_binary(
            *op,
            eval_expr_raw(lhs, read, param, fmt),
            eval_expr_raw(rhs, read, param, fmt),
        ),
        Expr::Select { cond, then_, else_ } => {
            if eval_expr_raw(cond, read, param, fmt) != 0 {
                eval_expr_raw(then_, read, param, fmt)
            } else {
                eval_expr_raw(else_, read, param, fmt)
            }
        }
    }
}
