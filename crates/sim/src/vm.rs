//! The compiled stencil execution engine.
//!
//! Executes [`CompiledPattern`] programs (see [`crate::compile`]) over whole
//! frames in **three planes** per dynamic field:
//!
//! * an **interior plane** — the sub-rectangle where every read of the
//!   kernel's halo stays in-bounds. Reads become raw row-slice copies and the
//!   program is evaluated *instruction-at-a-time over whole row spans*
//!   (structure-of-arrays), so dispatch cost is paid once per instruction per
//!   span instead of once per pixel, and the arithmetic loops vectorise;
//! * two **border strips** (left/right columns of interior rows) and the
//!   **border rows** (top/bottom), which fall back to per-pixel evaluation
//!   with full [`BorderMode`] resolution — identical semantics to
//!   [`isl_ir::Expr::eval`], paid only on the frame perimeter.
//!
//! Cone DAGs lowered by [`crate::compile::CompiledCone`] execute per window
//! tile, with interior tiles batched into structure-of-arrays *lanes* (one
//! lane per tile, gathers strided by the window width) and edge tiles
//! evaluated with border resolution — the engine behind
//! [`crate::Simulator::run_cone_dag`].
//!
//! Output allocations are **recycled**: steps accept the retiring frame set
//! of two iterations ago and reuse any uniquely-owned dynamic frame as the
//! next output buffer (ping-pong double buffering), so long runs stop paying
//! the allocator per step.
//!
//! Interior rows are distributed over persistent pool workers in contiguous
//! bands, and cone levels over contiguous bands of whole *tile* rows
//! ([`crate::parallel`]); every band writes a disjoint region, so results
//! are bit-identical for any thread count.

use std::sync::Arc;

use isl_ir::BinaryOp;

use crate::border::BorderMode;
use crate::compile::{CompiledCone, CompiledKernel, CompiledPattern, Instr};
use crate::frame::{Frame, FrameSet};
use crate::parallel::{effective_threads, for_each_row_band, for_each_task};

/// Row-span width of the structure-of-arrays scratch (bounds scratch memory
/// at `instructions × SPAN × 8` bytes per worker).
pub(crate) const SPAN: usize = 512;

/// Cap on the structure-of-arrays scratch of the cone-lane evaluator, in
/// scratch values (`live slots × lanes` must fit; at most 512 KiB per
/// worker, sized to stay L2-resident).
pub(crate) const LANE_SCRATCH: usize = 1 << 16;

/// Below this many pixel-instructions a step runs serially even in auto
/// thread mode — even pool dispatch cost would dominate.
pub(crate) const PARALLEL_WORK_THRESHOLD: usize = 100_000;

/// Reusable per-worker scratch of the row evaluator.
#[derive(Default)]
struct Scratch {
    lanes: Vec<f64>,
    regs: Vec<f64>,
}

impl Scratch {
    fn ensure(&mut self, instrs: usize) {
        self.lanes.resize(instrs.max(1) * SPAN, 0.0);
        self.regs.resize(instrs.max(1), 0.0);
    }
}

// -- whole-frame stepping ---------------------------------------------------

/// One compiled whole-frame step — the engine behind
/// [`crate::Simulator::step`].
pub(crate) fn step_compiled(
    cp: &CompiledPattern,
    state: &FrameSet,
    border: BorderMode,
    threads: usize,
) -> FrameSet {
    step_impl(cp, state, border, threads, None)
}

/// [`step_compiled`] with a retiring frame set whose uniquely-owned dynamic
/// frames are recycled as output buffers (double buffering) — the engine
/// behind [`crate::Simulator::run`].
pub(crate) fn step_compiled_into(
    cp: &CompiledPattern,
    state: &FrameSet,
    border: BorderMode,
    threads: usize,
    recycle: Option<FrameSet>,
) -> FrameSet {
    step_impl(cp, state, border, threads, recycle)
}

/// Reclaim the sample storage of every frame of `recycle` that is not shared
/// with anyone else (index-aligned; `None` where the frame is still shared).
fn reclaim(recycle: Option<FrameSet>, w: usize, h: usize) -> Vec<Option<Vec<f64>>> {
    match recycle {
        None => Vec::new(),
        Some(fs) => fs
            .into_frames()
            .into_iter()
            .map(|arc| {
                Arc::try_unwrap(arc)
                    .ok()
                    .map(Frame::into_vec)
                    .filter(|v| v.len() == w * h)
            })
            .collect(),
    }
}

fn step_impl(
    cp: &CompiledPattern,
    state: &FrameSet,
    border: BorderMode,
    threads: usize,
    recycle: Option<FrameSet>,
) -> FrameSet {
    let _span = isl_telemetry::span("engine", "frame step f64");
    let (w, h) = (state.width(), state.height());
    let frames: Vec<&Frame> = state.frames().iter().map(Arc::as_ref).collect();
    let mut recycled = reclaim(recycle, w, h);
    let mut next = Vec::with_capacity(cp.field_count());
    for i in 0..cp.field_count() {
        match cp.kernel(i) {
            None => next.push(state.frame_arc(i)),
            Some(k) => {
                let reuse = recycled.get_mut(i).and_then(Option::take);
                let data = eval_field(k, &frames, w, h, border, threads, reuse);
                next.push(Arc::new(Frame::from_vec(w, h, data)));
            }
        }
    }
    FrameSet::from_shared(next).expect("shapes preserved")
}

/// Evaluate one kernel over the full frame, returning the output samples
/// (into `reuse`'s storage when provided).
fn eval_field(
    kernel: &CompiledKernel,
    frames: &[&Frame],
    w: usize,
    h: usize,
    border: BorderMode,
    threads: usize,
    reuse: Option<Vec<f64>>,
) -> Vec<f64> {
    let threads = if threads == 0 && w * h * kernel.len() < PARALLEL_WORK_THRESHOLD {
        1
    } else {
        threads
    };
    let mut out = reuse.unwrap_or_else(|| vec![0.0; w * h]);
    debug_assert_eq!(out.len(), w * h);
    for_each_row_band(&mut out, w, threads, |y0, band| {
        let rows = band.len() / w;
        let mut scratch = Scratch::default();
        eval_rows(
            kernel,
            frames,
            (w, h),
            border,
            (y0 as i64, (y0 + rows) as i64 - 1),
            band,
            y0 as i64,
            &mut scratch,
        );
    });
    out
}

// -- row evaluation ---------------------------------------------------------

/// Evaluate `kernel` at every element of rows `ry0..=ry1` (inclusive),
/// reading `frames` with `border` resolved at frame
/// coordinates, writing into `out`, a band of whole rows whose first row is
/// `oy`. The interior portion of each row (where every tap is statically
/// in-frame) runs as vectorised spans; the rest falls back to per-pixel
/// evaluation.
#[allow(clippy::too_many_arguments)]
fn eval_rows(
    kernel: &CompiledKernel,
    frames: &[&Frame],
    (w, h): (usize, usize),
    border: BorderMode,
    (ry0, ry1): (i64, i64),
    out: &mut [f64],
    oy: i64,
    scratch: &mut Scratch,
) {
    if isl_telemetry::enabled() {
        crate::metrics::tally_instrs(&kernel.code, (w as i64 * (ry1 - ry0 + 1)) as u64);
    }
    let halo = kernel.halo();
    // Frame-interior coordinate range (inclusive).
    let xlo = i64::from(halo.left);
    let xhi = w as i64 - 1 - i64::from(halo.right);
    let ylo = ry0.max(i64::from(halo.up));
    let yhi = ry1.min(h as i64 - 1 - i64::from(halo.down));
    scratch.ensure(kernel.len());
    for y in ry0..=ry1 {
        let row = ((y - oy) as usize) * w;
        if (ylo..=yhi).contains(&y) && xlo <= xhi {
            for x in 0..xlo {
                out[row + x as usize] = eval_pixel(kernel, frames, border, x, y, &mut scratch.regs);
            }
            let mut x0 = xlo;
            while x0 <= xhi {
                let len = (xhi - x0 + 1).min(SPAN as i64) as usize;
                eval_span(kernel, frames, y, x0, len, &mut scratch.lanes);
                let res = kernel.result as usize;
                let at = row + x0 as usize;
                out[at..at + len].copy_from_slice(&scratch.lanes[res * len..(res + 1) * len]);
                x0 += len as i64;
            }
            for x in (xhi + 1)..w as i64 {
                out[row + x as usize] = eval_pixel(kernel, frames, border, x, y, &mut scratch.regs);
            }
        } else {
            for x in 0..w as i64 {
                out[row + x as usize] = eval_pixel(kernel, frames, border, x, y, &mut scratch.regs);
            }
        }
    }
}

/// Evaluate the program over the statically in-bounds span `[x0, x0 + len)`
/// of row `y`. `scratch` holds one `len`-wide lane per instruction.
fn eval_span(
    kernel: &CompiledKernel,
    frames: &[&Frame],
    y: i64,
    x0: i64,
    len: usize,
    scratch: &mut [f64],
) {
    for (i, instr) in kernel.code.iter().enumerate() {
        let (prev, cur) = scratch.split_at_mut(i * len);
        let dst = &mut cur[..len];
        let lane = |r: u32| &prev[r as usize * len..(r as usize + 1) * len];
        match *instr {
            Instr::Const(v) => dst.fill(v),
            Instr::Input { field, dx, dy } => {
                let f = frames[field as usize];
                let base = (y + i64::from(dy)) * f.width() as i64 + x0 + i64::from(dx);
                let base = usize::try_from(base).expect("interior read in bounds");
                dst.copy_from_slice(&f.as_slice()[base..base + len]);
            }
            Instr::Unary { op, a } => unary_span(op, lane(a), dst),
            Instr::Binary { op, a, b } => binary_span(op, lane(a), lane(b), dst),
            Instr::Select { c, t, e } => {
                let (c, t, e) = (lane(c), lane(t), lane(e));
                for k in 0..len {
                    dst[k] = if c[k] != 0.0 { t[k] } else { e[k] };
                }
            }
        }
    }
}

fn unary_span(op: isl_ir::UnaryOp, a: &[f64], dst: &mut [f64]) {
    use isl_ir::UnaryOp::*;
    fn zip1(a: &[f64], dst: &mut [f64], f: impl Fn(f64) -> f64) {
        for (d, &x) in dst.iter_mut().zip(a) {
            *d = f(x);
        }
    }
    match op {
        Neg => zip1(a, dst, |x| -x),
        Abs => zip1(a, dst, f64::abs),
        Sqrt => zip1(a, dst, f64::sqrt),
    }
}

fn binary_span(op: BinaryOp, a: &[f64], b: &[f64], dst: &mut [f64]) {
    use BinaryOp::*;
    fn zip2(a: &[f64], b: &[f64], dst: &mut [f64], f: impl Fn(f64, f64) -> f64) {
        for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
            *d = f(x, y);
        }
    }
    match op {
        Add => zip2(a, b, dst, |x, y| x + y),
        Sub => zip2(a, b, dst, |x, y| x - y),
        Mul => zip2(a, b, dst, |x, y| x * y),
        Div => zip2(a, b, dst, |x, y| x / y),
        Min => zip2(a, b, dst, f64::min),
        Max => zip2(a, b, dst, f64::max),
        Lt => zip2(a, b, dst, |x, y| f64::from(x < y)),
        Le => zip2(a, b, dst, |x, y| f64::from(x <= y)),
        Gt => zip2(a, b, dst, |x, y| f64::from(x > y)),
        Ge => zip2(a, b, dst, |x, y| f64::from(x >= y)),
    }
}

/// Per-pixel program evaluation with full border resolution — used for the
/// border strips and for rows with no interior at all.
fn eval_pixel(
    kernel: &CompiledKernel,
    frames: &[&Frame],
    border: BorderMode,
    x: i64,
    y: i64,
    regs: &mut [f64],
) -> f64 {
    for (i, instr) in kernel.code.iter().enumerate() {
        regs[i] = match *instr {
            Instr::Const(c) => c,
            Instr::Input { field, dx, dy } => {
                frames[field as usize].sample(x + i64::from(dx), y + i64::from(dy), border)
            }
            Instr::Unary { op, a } => op.apply(regs[a as usize]),
            Instr::Binary { op, a, b } => op.apply(regs[a as usize], regs[b as usize]),
            Instr::Select { c, t, e } => {
                if regs[c as usize] != 0.0 {
                    regs[t as usize]
                } else {
                    regs[e as usize]
                }
            }
        };
    }
    regs[kernel.result as usize]
}

// -- tile-banded level execution -----------------------------------------------

/// Dense dynamic-slot mapping: the dynamic field ids in first-appearance
/// order, plus the inverse `field id → slot` table — so per-read lookups
/// in the tile hot loops are one index, not a scan.
pub(crate) fn dyn_slot_map(
    field_count: usize,
    fields: impl Iterator<Item = usize>,
) -> (Vec<usize>, Vec<Option<usize>>) {
    let mut slot: Vec<Option<usize>> = vec![None; field_count];
    let mut dyn_fields = Vec::new();
    for f in fields {
        if slot[f].is_none() {
            slot[f] = Some(dyn_fields.len());
            dyn_fields.push(f);
        }
    }
    (dyn_fields, slot)
}

/// Split each buffer of `bufs` (all the same length, `width`-sample rows)
/// into aligned bands of at most `rows_per_band` rows. Returns
/// `(first_row, per-buffer band slices)` per band.
pub(crate) fn split_bands<T>(
    mut bufs: Vec<&mut [T]>,
    width: usize,
    rows_per_band: usize,
) -> Vec<(usize, Vec<&mut [T]>)> {
    let mut out = Vec::new();
    let mut row0 = 0;
    while bufs.first().is_some_and(|b| !b.is_empty()) {
        let take_rows = rows_per_band.min(bufs[0].len() / width);
        let mut band = Vec::with_capacity(bufs.len());
        let mut rest = Vec::with_capacity(bufs.len());
        for b in bufs {
            let (head, tail) = b.split_at_mut(take_rows * width);
            band.push(head);
            rest.push(tail);
        }
        out.push((row0, band));
        bufs = rest;
        row0 += take_rows;
    }
    out
}

/// Concurrency for a tile-banded pass: contiguous bands of whole tile rows.
pub(crate) fn tile_banding(h: usize, th: usize, threads: usize, work: usize) -> usize {
    let threads = if threads == 0 && work < PARALLEL_WORK_THRESHOLD {
        1
    } else {
        threads
    };
    let tile_rows = h.div_ceil(th);
    effective_threads(threads).min(tile_rows).max(1)
}

/// Shared frame of every tile-banded level executor: take (or recycle) one
/// output buffer per dynamic field, split all of them into aligned bands of
/// whole tile rows, run `band_fn(first_row, band_slices)` per band on up to
/// `t` workers, and reassemble the next frame set (static fields shared).
fn banded_level<F>(
    state: &FrameSet,
    dyn_fields: &[usize],
    th: usize,
    t: usize,
    recycle: Option<FrameSet>,
    band_fn: F,
) -> FrameSet
where
    F: Fn(usize, &mut [&mut [f64]]) + Sync,
{
    let (w, h) = (state.width(), state.height());
    let mut recycled = reclaim(recycle, w, h);
    let mut outs: Vec<Vec<f64>> = dyn_fields
        .iter()
        .map(|&i| {
            recycled
                .get_mut(i)
                .and_then(Option::take)
                .unwrap_or_else(|| vec![0.0; w * h])
        })
        .collect();
    let rows_per_band = h.div_ceil(th).div_ceil(t) * th;
    let bands = split_bands(outs.iter_mut().map(Vec::as_mut_slice).collect(), w, rows_per_band);
    for_each_task(bands, t, |(row0, mut slices)| band_fn(row0, &mut slices));
    let mut next: Vec<Arc<Frame>> = state.frames().to_vec();
    for (&fi, data) in dyn_fields.iter().zip(outs) {
        next[fi] = Arc::new(Frame::from_vec(w, h, data));
    }
    FrameSet::from_shared(next).expect("shapes preserved")
}

// -- cone-DAG level execution -----------------------------------------------

/// One compiled cone-DAG level: evaluate the lowered cone program window by
/// window — the engine behind [`crate::Simulator::run_cone_dag`]. Interior
/// tiles run as structure-of-arrays lanes (one lane per tile); tiles whose
/// reach crosses the frame edge run scalar with base-input border
/// resolution, exactly like [`isl_ir::Cone::eval`].
pub(crate) fn cone_level_compiled(
    cc: &CompiledCone,
    state: &FrameSet,
    border: BorderMode,
    threads: usize,
    (tw, th): (i64, i64),
    recycle: Option<FrameSet>,
) -> FrameSet {
    let _span = isl_telemetry::span("engine", "cone level f64");
    let (w, h) = (state.width(), state.height());
    let (dyn_fields, dyn_slot) =
        dyn_slot_map(state.len(), cc.outputs.iter().map(|s| s.field as usize));
    let frames: Vec<&Frame> = state.frames().iter().map(Arc::as_ref).collect();
    let tiles_x = w.div_ceil(tw as usize);
    let work = tiles_x * h.div_ceil(th as usize) * cc.len();
    let t = tile_banding(h, th as usize, threads, work);
    let reach = cc.reach();
    let lanes_cap = (LANE_SCRATCH / cc.slots().max(1)).clamp(1, 512);
    banded_level(state, &dyn_fields, th as usize, t, recycle, |row0, slices| {
        // Every tile of the band becomes one lane. Interior tiles (whole
        // reach in-frame) batch into chunks with direct strided gathers;
        // edge tiles batch into chunks whose gathers border-resolve — the
        // arithmetic instructions are amortised across the lanes of a chunk
        // either way.
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
        let mut scratch = vec![0.0; cc.slots() * lanes_cap];
        for chunk in interior.chunks(lanes_cap) {
            eval_cone_lanes(
                cc,
                &frames,
                (w, h),
                border,
                chunk,
                true,
                &dyn_slot,
                &mut scratch,
                (slices, row0),
            );
        }
        for chunk in edge.chunks(lanes_cap) {
            eval_cone_lanes(
                cc,
                &frames,
                (w, h),
                border,
                chunk,
                false,
                &dyn_slot,
                &mut scratch,
                (slices, row0),
            );
        }
    })
}

/// Evaluate the cone program for every tile of `chunk` at once: one
/// structure-of-arrays lane per tile. `interior == true` promises that
/// every tap and every output of every tile is statically in-frame, so
/// gathers index directly and scatters skip bounds checks; otherwise
/// gathers border-resolve at the cone base (exactly like
/// [`isl_ir::Cone::eval`]) and scatters clip to the frame. The arithmetic
/// instructions are identical — and amortised across the chunk — either
/// way.
///
/// Outputs **stream to their destinations as they retire**: slot allocation
/// frees an output's slot right after its defining instruction (see
/// [`CompiledCone::retire`]), so each output lane is scattered the moment it
/// is produced, walking the capture-sorted retire list alongside the
/// instruction loop. That is what shrinks the live set — and the scratch —
/// below the output count, letting far more lanes fit in the L2-sized
/// scratch budget.
#[allow(clippy::too_many_arguments)]
fn eval_cone_lanes(
    cc: &CompiledCone,
    frames: &[&Frame],
    (w, h): (usize, usize),
    border: BorderMode,
    chunk: &[(i64, i64)],
    interior: bool,
    dyn_slot: &[Option<usize>],
    scratch: &mut [f64],
    (slices, row0): (&mut [&mut [f64]], usize),
) {
    let n = chunk.len();
    if isl_telemetry::enabled() {
        crate::metrics::tally_instrs(&cc.code, n as u64);
    }
    // Per-lane linear origins: read side in frame space, write side in
    // band space. One add per lane per gather/scatter afterwards.
    let read_origin: Vec<i64> = chunk.iter().map(|&(tx, ty)| ty * w as i64 + tx).collect();
    let write_origin: Vec<i64> = chunk
        .iter()
        .map(|&(tx, ty)| (ty - row0 as i64) * w as i64 + tx)
        .collect();
    // Values live in allocated slots (`cc.dst`); an instruction's
    // destination slot is never one of its operand slots, so the disjoint
    // borrows below cannot fail.
    let range = |s: u32| s as usize * n..s as usize * n + n;
    let mut next_retire = 0usize;
    for (i, instr) in cc.code.iter().enumerate() {
        let d = cc.dst[i];
        match *instr {
            Instr::Const(v) => scratch[range(d)].fill(v),
            Instr::Input { field, dx, dy } => {
                let dst = &mut scratch[range(d)];
                if interior {
                    let src = frames[field as usize].as_slice();
                    let off = i64::from(dy) * w as i64 + i64::from(dx);
                    for (d, &o) in dst.iter_mut().zip(&read_origin) {
                        *d = src[(o + off) as usize];
                    }
                } else {
                    let f = frames[field as usize];
                    for (d, &(tx, ty)) in dst.iter_mut().zip(chunk) {
                        *d = f.sample(tx + i64::from(dx), ty + i64::from(dy), border);
                    }
                }
            }
            Instr::Unary { op, a } => {
                let [dst, a] = scratch
                    .get_disjoint_mut([range(d), range(a)])
                    .expect("dst slot distinct from operands");
                unary_span(op, a, dst);
            }
            Instr::Binary { op, a, b } => {
                if a == b {
                    let [dst, a] = scratch
                        .get_disjoint_mut([range(d), range(a)])
                        .expect("dst slot distinct from operands");
                    let a = &*a;
                    binary_span(op, a, a, dst);
                } else {
                    let [dst, a, b] = scratch
                        .get_disjoint_mut([range(d), range(a), range(b)])
                        .expect("dst slot distinct from operands");
                    binary_span(op, a, b, dst);
                }
            }
            Instr::Select { c, t, e } => {
                // Rare op: plain indexed loop sidesteps operand aliasing.
                let (c0, t0, e0, d0) =
                    (c as usize * n, t as usize * n, e as usize * n, d as usize * n);
                for k in 0..n {
                    scratch[d0 + k] = if scratch[c0 + k] != 0.0 {
                        scratch[t0 + k]
                    } else {
                        scratch[e0 + k]
                    };
                }
            }
        }
        // Stream every output defined by this instruction to its destination
        // before its slot can be reused.
        while next_retire < cc.retire.len() && cc.capture[cc.retire[next_retire] as usize] as usize == i
        {
            let slot = &cc.outputs[cc.retire[next_retire] as usize];
            next_retire += 1;
            let di = dyn_slot[slot.field as usize].expect("output field is dynamic");
            let src = &scratch[range(slot.reg)];
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use crate::synthetic;
    use isl_ir::{Expr, FieldKind, Offset, StencilPattern, UnaryOp};

    fn spiky() -> StencilPattern {
        // Exercises every plane: radius-2 taps, select, sqrt, min/max.
        let mut p = StencilPattern::new(2).with_name("spiky");
        let f = p.add_field("f", FieldKind::Dynamic);
        let g = p.add_field("g", FieldKind::Static);
        let t = p.add_param("t", 0.35);
        let grad = Expr::binary(
            BinaryOp::Sub,
            Expr::input(f, Offset::d2(2, 0)),
            Expr::input(f, Offset::d2(0, -2)),
        );
        let norm = Expr::unary(
            UnaryOp::Sqrt,
            Expr::binary(
                BinaryOp::Add,
                Expr::binary(BinaryOp::Mul, grad.clone(), grad),
                Expr::constant(1e-6),
            ),
        );
        let blend = Expr::select(
            Expr::binary(
                BinaryOp::Lt,
                Expr::input(f, Offset::ZERO),
                Expr::param(t),
            ),
            Expr::binary(
                BinaryOp::Max,
                Expr::input(g, Offset::d2(-1, 1)),
                Expr::input(f, Offset::d2(1, 1)),
            ),
            norm,
        );
        let update = Expr::binary(
            BinaryOp::Min,
            Expr::binary(BinaryOp::Mul, blend, Expr::constant(0.5)),
            Expr::constant(4.0),
        );
        p.set_update(f, update).unwrap();
        p
    }

    fn states(w: usize, h: usize) -> FrameSet {
        FrameSet::from_frames(vec![
            synthetic::noise(w, h, 11),
            synthetic::gaussian_spots(w, h, 5, 3),
        ])
        .unwrap()
    }

    #[test]
    fn compiled_step_matches_reference_bitwise() {
        let p = spiky();
        for border in [
            BorderMode::Clamp,
            BorderMode::Mirror,
            BorderMode::Wrap,
            BorderMode::Constant(0.25),
        ] {
            for (w, h) in [(17, 13), (3, 3), (1, 9), (9, 1), (40, 7)] {
                let sim = Simulator::new(&p).unwrap().with_border(border);
                let init = states(w, h);
                let a = sim.step(&init).unwrap();
                let b = sim.step_reference(&init).unwrap();
                for fi in 0..init.len() {
                    let (fa, fb) = (a.frame(fi).as_slice(), b.frame(fi).as_slice());
                    for (i, (x, y)) in fa.iter().zip(fb).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "border {border}, {w}x{h}, field {fi}, slot {i}: {x} vs {y}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_bits() {
        let p = spiky();
        let init = states(33, 29);
        let serial = Simulator::new(&p).unwrap().with_threads(1).run(&init, 3).unwrap();
        for t in [2, 4, 7, 0] {
            let par = Simulator::new(&p).unwrap().with_threads(t).run(&init, 3).unwrap();
            assert_eq!(serial, par, "{t} threads");
        }
    }

    #[test]
    fn static_frames_are_shared_not_copied() {
        let p = spiky();
        let sim = Simulator::new(&p).unwrap();
        let init = states(12, 12);
        let out = sim.step(&init).unwrap();
        assert!(Arc::ptr_eq(&init.frames()[1], &out.frames()[1]));
    }

    #[test]
    fn recycled_buffers_change_nothing() {
        // step-by-step vs double-buffered run: identical results.
        let p = spiky();
        let sim = Simulator::new(&p).unwrap();
        let init = states(21, 17);
        let mut by_step = init.clone();
        for _ in 0..6 {
            by_step = sim.step(&by_step).unwrap();
        }
        let run = sim.run(&init, 6).unwrap();
        assert_eq!(by_step, run);
    }
}
