//! The compiled execution engine, written once for both number domains.
//!
//! Every semantics the simulator offers runs in two number domains: exact
//! `f64` samples ([`Exact`]) and the raw words of a hardware fixed-point
//! format ([`FixedFormat`]). [`Domain`] names the few operations where the
//! two differ; the engines below are generic over it and monomorphised per
//! domain, so each runs with static dispatch and no per-element branch on
//! the domain:
//!
//! * [`step`] — one whole-frame step of SSA row programs (the per-field
//!   kernels of a folded [`CompiledPattern`] for `f64`, the fused fold-free
//!   [`QuantizedStep`] for fixed point) in **three planes**: an *interior
//!   plane* where every tap is statically in-frame, so reads are row-slice
//!   copies and the program runs instruction-at-a-time over whole row
//!   spans (span kernels that vectorise), and *border strips* that run the
//!   same span kernels with every read [`BorderMode`]-resolved;
//! * [`cone_level`] — one cone-DAG level of a slot-allocated
//!   [`CompiledCone`]: every window tile is one structure-of-arrays lane,
//!   interior tiles gather directly, edge tiles border-resolve at the cone
//!   base like [`isl_ir::Cone::eval`], and each output scatters the moment
//!   its defining instruction retires it. A quantised level can also
//!   record every firing.
//!
//! Both run on [`Planes`]: one plane of words per field, `Arc`-shared so
//! static fields pass through without a copy (for `f64` the planes are the
//! caller's [`Frame`]s themselves). Output buffers are recycled from the
//! state of two steps ago (double buffering), and work is split into
//! contiguous bands of whole rows or whole tile rows over the persistent
//! worker pool ([`crate::parallel`]); every band writes a disjoint region,
//! so results are bit-identical for any thread count.

use std::sync::{Arc, Mutex};

use isl_fpga::FixedFormat;
use isl_ir::{BinaryOp, Cone, Expr, FieldId, Offset, ParamId, Point, UnaryOp};

use crate::border::BorderMode;
use crate::compile::{CompiledCone, CompiledPattern, Halo, Instr, QuantizedStep, Reg};
use crate::frame::{Frame, FrameSet};
use crate::parallel::{effective_threads, for_each_task};

/// Row-span width of the structure-of-arrays scratch (bounds scratch memory
/// at `instructions × SPAN` words per worker).
const SPAN: usize = 512;

/// Cap on the structure-of-arrays scratch of the cone-lane evaluator, in
/// words (`live slots × lanes` must fit; at most 512 KiB per worker, sized
/// to stay L2-resident).
const LANE_SCRATCH: usize = 1 << 16;

/// Below this many element-instructions a pass runs serially even in auto
/// thread mode — even pool dispatch cost would dominate.
const PARALLEL_WORK_THRESHOLD: usize = 100_000;

// -- number domains ---------------------------------------------------------

/// A number domain: its word type and the operations where the `f64` and
/// the fixed-point simulations differ. The compiled engines use the
/// constant load, the truthiness, the span operations and the store hook;
/// the tree walks plug in the domain's own evaluator
/// ([`Domain::eval_expr`], [`Domain::eval_cone`]) and share nothing else
/// with the engines.
pub(crate) trait Domain: Copy + Send + Sync {
    /// One sample: an `f64`, or a raw fixed-point word.
    type Word: Copy + Default + PartialEq + Send + Sync;
    /// One field's row-major words: a [`Frame`] for `f64`, so frame sets
    /// enter and leave the engines without a copy; a word vector otherwise.
    type Plane: Clone + Send + Sync;
    /// Whether the words are fixed-point: selects the `engine.q.*` counters
    /// and `q` span names over the `engine.f64.*` and `f64` ones.
    const QUANTIZED: bool;

    /// Load a frame set into this domain.
    fn load(self, frames: &FrameSet) -> Planes<Self>;
    /// Convert a state back to `f64` frames.
    fn unload(self, planes: Planes<Self>) -> FrameSet;
    /// The words of a plane.
    fn words(plane: &Self::Plane) -> &[Self::Word];
    /// The words of a plane, mutably.
    fn words_mut(plane: &mut Self::Plane) -> &mut [Self::Word];
    /// A plane owning `words`, `width × height` row-major.
    fn plane(width: usize, height: usize, words: Vec<Self::Word>) -> Self::Plane;
    /// The storage of a plane, for reuse as an output buffer.
    fn into_words(plane: Self::Plane) -> Vec<Self::Word>;

    /// The word of a literal ([`Instr::Const`], a parameter, the border
    /// constant), loaded where it is read.
    fn constant(self, c: f64) -> Self::Word;
    /// `dst[i] = op(a[i])`.
    fn unary_span(self, op: UnaryOp, a: &[Self::Word], dst: &mut [Self::Word]);
    /// `dst[i] = op(a[i], b[i])`.
    fn binary_span(self, op: BinaryOp, a: &[Self::Word], b: &[Self::Word], dst: &mut [Self::Word]);

    /// Whether a `Select` condition takes the `then` branch.
    fn truthy(w: Self::Word) -> bool {
        w != Self::Word::default()
    }
    /// [`Domain::binary_span`] against the constant right operand `c`
    /// through a specialised kernel, returning `false` (having written
    /// nothing) where the domain has none for `(op, c)`; `f64` has none.
    fn binary_span_const(
        self,
        _: BinaryOp,
        _: &[Self::Word],
        _: Self::Word,
        _: &mut [Self::Word],
    ) -> bool {
        false
    }
    /// The word written wherever an engine or a tree walk stores a computed
    /// sample.
    fn store(w: Self::Word) -> Self::Word {
        w
    }

    /// The tree-walk evaluator of an update expression.
    fn eval_expr<R>(self, e: &Expr, read: &R, params: &[f64]) -> Self::Word
    where
        R: Fn(FieldId, Offset) -> Self::Word;
    /// The tree-walk evaluator of a cone graph: every output element.
    fn eval_cone<R>(
        self,
        cone: &Cone,
        read: R,
        params: &[f64],
    ) -> Vec<(FieldId, Point, Self::Word)>
    where
        R: Fn(FieldId, Point) -> Self::Word;

    /// The word substituted for out-of-frame reads under
    /// [`BorderMode::Constant`] (zero, and never read, otherwise).
    fn border(self, border: BorderMode) -> Self::Word {
        self.constant(border.constant_value().unwrap_or(0.0))
    }
}

/// The exact `f64` domain: IEEE double arithmetic, the golden semantics.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Exact;

/// The one NaN every `f64` store writes.
const CANONICAL_NAN: f64 = f64::from_bits(0x7ff8_0000_0000_0000);

impl Domain for Exact {
    type Word = f64;
    type Plane = Frame;
    const QUANTIZED: bool = false;

    fn load(self, frames: &FrameSet) -> Planes<Self> {
        Planes::new(frames.width(), frames.height(), frames.frames().to_vec())
    }

    fn unload(self, planes: Planes<Self>) -> FrameSet {
        FrameSet::from_shared(planes.planes).expect("shapes preserved")
    }

    fn words(plane: &Frame) -> &[f64] {
        plane.as_slice()
    }

    fn words_mut(plane: &mut Frame) -> &mut [f64] {
        plane.as_mut_slice()
    }

    fn plane(width: usize, height: usize, words: Vec<f64>) -> Frame {
        Frame::from_vec(width, height, words)
    }

    fn into_words(plane: Frame) -> Vec<f64> {
        plane.into_vec()
    }

    #[inline]
    fn constant(self, c: f64) -> f64 {
        c
    }

    fn unary_span(self, op: UnaryOp, a: &[f64], dst: &mut [f64]) {
        fn zip1(a: &[f64], dst: &mut [f64], f: impl Fn(f64) -> f64) {
            for (d, &x) in dst.iter_mut().zip(a) {
                *d = f(x);
            }
        }
        match op {
            UnaryOp::Neg => zip1(a, dst, |x| -x),
            UnaryOp::Abs => zip1(a, dst, f64::abs),
            UnaryOp::Sqrt => zip1(a, dst, f64::sqrt),
        }
    }

    fn binary_span(self, op: BinaryOp, a: &[f64], b: &[f64], dst: &mut [f64]) {
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

    /// Every stored NaN is one canonical quiet NaN. Rust leaves the sign
    /// and payload of an arithmetic NaN unspecified (an optimised build may
    /// swap the operands of a commutative operation, and with them which
    /// NaN propagates), while whether a result is NaN is fully determined;
    /// canonical stores keep the engines and the tree walks bit-identical
    /// in every build.
    #[inline]
    fn store(w: f64) -> f64 {
        if w.is_nan() {
            CANONICAL_NAN
        } else {
            w
        }
    }

    fn eval_expr<R>(self, e: &Expr, read: &R, params: &[f64]) -> f64
    where
        R: Fn(FieldId, Offset) -> f64,
    {
        e.eval(read, &|p: ParamId| params[p.index()])
    }

    fn eval_cone<R>(self, cone: &Cone, read: R, params: &[f64]) -> Vec<(FieldId, Point, f64)>
    where
        R: Fn(FieldId, Point) -> f64,
    {
        cone.eval(read, params)
    }
}

/// The fixed-point domain: raw words of one format, every operation the
/// format's saturating datapath (its scalar `apply_*` operations and the
/// span kernels built from them), every literal quantised where it is
/// read.
impl Domain for FixedFormat {
    type Word = i64;
    type Plane = Vec<i64>;
    const QUANTIZED: bool = true;

    /// Round-to-nearest with saturation per sample: the hardware's input
    /// conversion.
    fn load(self, frames: &FrameSet) -> Planes<Self> {
        let planes = frames
            .frames()
            .iter()
            .map(|f| {
                let mut words = vec![0; f.len()];
                self.quantize_span(f.as_slice(), &mut words);
                Arc::new(words)
            })
            .collect();
        Planes::new(frames.width(), frames.height(), planes)
    }

    /// Lossy above 53 significant bits, which is why the state itself stays
    /// in words.
    fn unload(self, planes: Planes<Self>) -> FrameSet {
        let frames = planes
            .planes
            .iter()
            .map(|words| {
                let mut samples = vec![0.0; words.len()];
                self.dequantize_span(words, &mut samples);
                Frame::from_vec(planes.width, planes.height, samples)
            })
            .collect();
        FrameSet::from_frames(frames).expect("shapes preserved")
    }

    fn words(plane: &Vec<i64>) -> &[i64] {
        plane
    }

    fn words_mut(plane: &mut Vec<i64>) -> &mut [i64] {
        plane
    }

    fn plane(_: usize, _: usize, words: Vec<i64>) -> Vec<i64> {
        words
    }

    fn into_words(plane: Vec<i64>) -> Vec<i64> {
        plane
    }

    #[inline]
    fn constant(self, c: f64) -> i64 {
        self.quantize(c)
    }

    #[inline]
    fn unary_span(self, op: UnaryOp, a: &[i64], dst: &mut [i64]) {
        FixedFormat::unary_span(&self, op, a, dst);
    }

    #[inline]
    fn binary_span(self, op: BinaryOp, a: &[i64], b: &[i64], dst: &mut [i64]) {
        FixedFormat::binary_span(&self, op, a, b, dst);
    }

    /// Power-of-two multiplies and divides run as shifts.
    #[inline]
    fn binary_span_const(self, op: BinaryOp, a: &[i64], c: i64, dst: &mut [i64]) -> bool {
        FixedFormat::binary_span_const(&self, op, a, c, dst)
    }

    fn eval_expr<R>(self, e: &Expr, read: &R, params: &[f64]) -> i64
    where
        R: Fn(FieldId, Offset) -> i64,
    {
        crate::fixed::eval_expr_raw(e, read, &|p: ParamId| params[p.index()], self)
    }

    fn eval_cone<R>(self, cone: &Cone, read: R, params: &[f64]) -> Vec<(FieldId, Point, i64)>
    where
        R: Fn(FieldId, Point) -> i64,
    {
        crate::fixed::eval_cone_graph_raw(cone, read, params, self)
    }
}

// -- state ------------------------------------------------------------------

/// A frame set in a domain's words: one row-major plane per field,
/// `Arc`-shared so static fields pass through steps and levels without a
/// copy and retiring planes can be recycled as output buffers.
pub(crate) struct Planes<D: Domain> {
    width: usize,
    height: usize,
    planes: Vec<Arc<D::Plane>>,
}

impl<D: Domain> Clone for Planes<D> {
    fn clone(&self) -> Self {
        Planes::new(self.width, self.height, self.planes.clone())
    }
}

impl<D: Domain> Planes<D> {
    fn new(width: usize, height: usize, planes: Vec<Arc<D::Plane>>) -> Self {
        debug_assert!(planes.iter().all(|p| D::words(p).len() == width * height));
        Planes {
            width,
            height,
            planes,
        }
    }

    pub(crate) fn width(&self) -> usize {
        self.width
    }

    pub(crate) fn height(&self) -> usize {
        self.height
    }

    /// The plane of field `i`.
    pub(crate) fn plane(&self, i: usize) -> &D::Plane {
        &self.planes[i]
    }

    /// The words of field `i`.
    pub(crate) fn words(&self, i: usize) -> &[D::Word] {
        D::words(&self.planes[i])
    }

    /// The words of field `i`, mutably (copy-on-write when shared).
    pub(crate) fn words_mut(&mut self, i: usize) -> &mut [D::Word] {
        D::words_mut(Arc::make_mut(&mut self.planes[i]))
    }

    /// Replace field `i` with the plane of `words`.
    pub(crate) fn set(&mut self, i: usize, words: Vec<D::Word>) {
        self.planes[i] = Arc::new(D::plane(self.width, self.height, words));
    }

    /// Border-resolved read of field `i` at `(x, y)`; `constant` is the
    /// domain's [`Domain::border`] word.
    pub(crate) fn sample(
        &self,
        i: usize,
        (x, y): (i64, i64),
        border: BorderMode,
        constant: D::Word,
    ) -> D::Word {
        sample(
            self.words(i),
            (self.width, self.height),
            (x, y),
            border,
            constant,
        )
    }

    fn sources(&self) -> Vec<&[D::Word]> {
        self.planes.iter().map(|p| D::words(p)).collect()
    }
}

/// Border-resolved read of a `w × h` row-major plane, like
/// [`Frame::sample`].
fn sample<W: Copy>(
    words: &[W],
    (w, h): (usize, usize),
    (x, y): (i64, i64),
    border: BorderMode,
    constant: W,
) -> W {
    match (border.resolve(x, w as i64), border.resolve(y, h as i64)) {
        (Some(rx), Some(ry)) => words[ry as usize * w + rx as usize],
        _ => constant,
    }
}

/// Reclaim the storage of every plane of `recycle` that is not shared with
/// anyone else (index-aligned; `None` where the plane is still shared).
fn reclaim<D: Domain>(recycle: Option<Planes<D>>, w: usize, h: usize) -> Vec<Option<Vec<D::Word>>> {
    recycle.map_or_else(Vec::new, |planes| {
        planes
            .planes
            .into_iter()
            .map(|p| {
                Arc::try_unwrap(p)
                    .ok()
                    .map(D::into_words)
                    .filter(|v| v.len() == w * h)
            })
            .collect()
    })
}

// -- banded execution -------------------------------------------------------

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
fn split_bands<T>(
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

/// Concurrency for a banded pass: contiguous bands of whole tile rows
/// (`th == 1` for whole-frame rows).
fn tile_banding(h: usize, th: usize, threads: usize, work: usize) -> usize {
    let threads = if threads == 0 && work < PARALLEL_WORK_THRESHOLD {
        1
    } else {
        threads
    };
    effective_threads(threads).min(h.div_ceil(th)).max(1)
}

/// The frame of every engine pass: take (or recycle) one output buffer per
/// dynamic field, split all of them into aligned bands of whole tile rows,
/// run `band_fn(first_row, band_slices)` per band on up to `t` workers,
/// and reassemble the next state (static fields shared).
fn banded_level<D: Domain, F>(
    state: &Planes<D>,
    dyn_fields: &[usize],
    th: usize,
    t: usize,
    recycle: Option<Planes<D>>,
    band_fn: F,
) -> Planes<D>
where
    F: Fn(usize, &mut [&mut [D::Word]]) + Sync,
{
    let (w, h) = (state.width, state.height);
    let mut recycled = reclaim(recycle, w, h);
    let mut outs: Vec<Vec<D::Word>> = dyn_fields
        .iter()
        .map(|&i| {
            recycled
                .get_mut(i)
                .and_then(Option::take)
                .unwrap_or_else(|| vec![D::Word::default(); w * h])
        })
        .collect();
    let rows_per_band = h.div_ceil(th).div_ceil(t) * th;
    let bands = split_bands(
        outs.iter_mut().map(Vec::as_mut_slice).collect(),
        w,
        rows_per_band,
    );
    for_each_task(bands, t, |(row0, mut slices)| band_fn(row0, &mut slices));
    let mut next = state.clone();
    for (&fi, words) in dyn_fields.iter().zip(outs) {
        next.set(fi, words);
    }
    next
}

// -- whole-frame stepping ---------------------------------------------------

/// One SSA program of a whole-frame step and the `(field, result register)`
/// pairs it writes: one per field kernel of a [`CompiledPattern`], or the
/// fused [`QuantizedStep`] writing every dynamic field at once (shared
/// subexpressions computed once per pixel).
pub(crate) struct RowProgram<'a> {
    code: &'a [Instr],
    halo: Halo,
    outputs: Vec<(u16, Reg)>,
}

impl<'a> RowProgram<'a> {
    /// The per-field kernels of a compiled pattern.
    pub(crate) fn kernels(cp: &'a CompiledPattern) -> Vec<Self> {
        (0..cp.field_count())
            .filter_map(|i| {
                cp.kernel(i).map(|k| RowProgram {
                    code: k.code(),
                    halo: k.halo(),
                    outputs: vec![(i as u16, k.result())],
                })
            })
            .collect()
    }

    /// The fused step program.
    pub(crate) fn fused(step: &'a QuantizedStep) -> Vec<Self> {
        vec![RowProgram {
            code: step.code(),
            halo: step.halo(),
            outputs: step.outputs().to_vec(),
        }]
    }
}

/// One compiled whole-frame step of `programs` in domain `d` — the engine
/// behind [`crate::Simulator::run`] and [`crate::Simulator::run_quantized`].
/// Uniquely owned planes of `recycle` become the output buffers.
pub(crate) fn step<D: Domain>(
    d: D,
    programs: &[RowProgram<'_>],
    state: &Planes<D>,
    border: BorderMode,
    threads: usize,
    recycle: Option<Planes<D>>,
) -> Planes<D> {
    let name = if D::QUANTIZED {
        "frame step q"
    } else {
        "frame step f64"
    };
    let _span = isl_telemetry::span("engine", name);
    let (w, h) = (state.width, state.height);
    let bc = (border, d.border(border));
    let srcs = state.sources();
    let dyn_fields: Vec<usize> = programs
        .iter()
        .flat_map(|p| &p.outputs)
        .map(|&(f, _)| f as usize)
        .collect();
    let longest = programs.iter().map(|p| p.code.len()).max().unwrap_or(0);
    let work = w * h * programs.iter().map(|p| p.code.len()).sum::<usize>();
    let t = tile_banding(h, 1, threads, work);
    banded_level(state, &dyn_fields, 1, t, recycle, |row0, slices| {
        let rows = (row0, row0 + slices[0].len() / w);
        let mut scratch = vec![D::Word::default(); longest.max(1) * SPAN];
        let mut first = 0;
        for p in programs {
            let outs = &mut slices[first..first + p.outputs.len()];
            first += p.outputs.len();
            eval_rows(d, p, &srcs, (w, h), bc, rows, outs, &mut scratch);
        }
    })
}

/// Evaluate `p` at every element of rows `y0..y1`, reading `srcs` with
/// `border` resolved at frame coordinates, writing `outs` (one band of
/// whole rows per output of `p`, starting at row `y0`). Each row runs as
/// spans: the interior run, where every tap is statically in-frame, and
/// the border pixels on either side of it (the whole row where there is no
/// interior run), whose reads border-resolve.
#[allow(clippy::too_many_arguments)]
fn eval_rows<D: Domain>(
    d: D,
    p: &RowProgram<'_>,
    srcs: &[&[D::Word]],
    (w, h): (usize, usize),
    bc: (BorderMode, D::Word),
    (y0, y1): (usize, usize),
    outs: &mut [&mut [D::Word]],
    scratch: &mut [D::Word],
) {
    if isl_telemetry::enabled() {
        crate::metrics::tally(p.code, (w * (y1 - y0)) as u64, D::QUANTIZED);
    }
    let Halo {
        left,
        right,
        up,
        down,
    } = p.halo;
    let (left, right, up, down) = (left as usize, right as usize, up as usize, down as usize);
    for y in y0..y1 {
        let row = (y - y0) * w;
        let (lo, hi) = if y >= up && y + down < h && left + right < w {
            (left, w - right)
        } else {
            (w, w)
        };
        for (x0, x1, interior) in [(0, lo, false), (lo, hi, true), (hi, w, false)] {
            let mut x = x0;
            while x < x1 {
                let len = (x1 - x).min(SPAN);
                let at = (x as i64, y as i64);
                eval_span(d, p.code, srcs, (w, h), bc, at, len, interior, scratch);
                for (out, &(_, res)) in outs.iter_mut().zip(&p.outputs) {
                    let lane = &scratch[res as usize * len..(res as usize + 1) * len];
                    for (o, &v) in out[row + x..row + x + len].iter_mut().zip(lane) {
                        *o = D::store(v);
                    }
                }
                x += len;
            }
        }
    }
}

/// Evaluate `code` over the span `[x0, x0 + len)` of row `y`, one span
/// kernel per instruction. Reads of an `interior` span are statically
/// in-frame and copy row slices; the others border-resolve per element,
/// like [`Frame::sample`]. `scratch` holds one `len`-wide lane per
/// instruction; callers read result lanes out of it.
#[allow(clippy::too_many_arguments)]
fn eval_span<D: Domain>(
    d: D,
    code: &[Instr],
    srcs: &[&[D::Word]],
    (w, h): (usize, usize),
    (border, constant): (BorderMode, D::Word),
    (x0, y): (i64, i64),
    len: usize,
    interior: bool,
    scratch: &mut [D::Word],
) {
    for (i, instr) in code.iter().enumerate() {
        let (prev, cur) = scratch.split_at_mut(i * len);
        let dst = &mut cur[..len];
        let lane = |r: u32| &prev[r as usize * len..(r as usize + 1) * len];
        match *instr {
            Instr::Const(v) => dst.fill(d.constant(v)),
            Instr::Input { field, dx, dy } => {
                let src = srcs[field as usize];
                let (x, y) = (x0 + i64::from(dx), y + i64::from(dy));
                if interior {
                    let base = usize::try_from(y * w as i64 + x).expect("interior read in bounds");
                    dst.copy_from_slice(&src[base..base + len]);
                } else {
                    for (v, x) in dst.iter_mut().zip(x..) {
                        *v = sample(src, (w, h), (x, y), border, constant);
                    }
                }
            }
            Instr::Unary { op, a } => d.unary_span(op, lane(a), dst),
            Instr::Binary { op, a, b } => {
                // Registers are instruction indices, so a constant right
                // operand is visible here: a domain with a kernel for it
                // (power-of-two fixed-point multiplies and divides) runs
                // that instead, bit-identically.
                let done = matches!(code[b as usize], Instr::Const(c)
                    if d.binary_span_const(op, lane(a), d.constant(c), dst));
                if !done {
                    d.binary_span(op, lane(a), lane(b), dst);
                }
            }
            Instr::Select { c, t, e } => {
                let (c, t, e) = (lane(c), lane(t), lane(e));
                for k in 0..len {
                    dst[k] = if D::truthy(c[k]) { t[k] } else { e[k] };
                }
            }
        }
    }
}

// -- cone-DAG level execution -----------------------------------------------

/// What a recording cone-DAG level captures: the level index and the
/// base-input taps `(field, dx, dy)` of the cone, in input-port order.
pub(crate) struct LevelRecord<'a> {
    pub(crate) level: u32,
    pub(crate) taps: &'a [(u16, i32, i32)],
}

/// One recorded cone firing, in a domain's words (see
/// [`crate::ConeFiring`]).
pub(crate) struct Firing<W> {
    pub(crate) level: u32,
    pub(crate) tile: (i64, i64),
    pub(crate) inputs: Vec<W>,
    pub(crate) outputs: Vec<W>,
}

/// The firings of one band of tile rows, in row-major tile order.
struct BandFirings<W> {
    firings: Vec<Firing<W>>,
    row0: i64,
    tiles_x: usize,
    tile: (i64, i64),
}

impl<W: Copy + Default> BandFirings<W> {
    /// Capture every tile's border-resolved base-input words up front; the
    /// output words fill in as the lanes retire them.
    fn new<D: Domain<Word = W>>(
        rec: &LevelRecord<'_>,
        state: &Planes<D>,
        (border, constant): (BorderMode, W),
        (row0, rows): (usize, usize),
        (tw, th): (i64, i64),
        outputs: usize,
    ) -> Self {
        let tiles_x = state.width.div_ceil(tw as usize);
        let mut firings = Vec::with_capacity(rows.div_ceil(th as usize) * tiles_x);
        for ty in (row0 as i64..(row0 + rows) as i64).step_by(th as usize) {
            for tx in (0..tiles_x as i64).map(|k| k * tw) {
                let inputs = rec
                    .taps
                    .iter()
                    .map(|&(f, dx, dy)| {
                        let at = (tx + i64::from(dx), ty + i64::from(dy));
                        state.sample(f as usize, at, border, constant)
                    })
                    .collect();
                firings.push(Firing {
                    level: rec.level,
                    tile: (tx, ty),
                    inputs,
                    outputs: vec![W::default(); outputs],
                });
            }
        }
        BandFirings {
            firings,
            row0: row0 as i64,
            tiles_x,
            tile: (tw, th),
        }
    }

    fn at(&mut self, (tx, ty): (i64, i64)) -> &mut Firing<W> {
        let row = ((ty - self.row0) / self.tile.1) as usize;
        &mut self.firings[row * self.tiles_x + (tx / self.tile.0) as usize]
    }
}

/// One compiled cone-DAG level of `cc` in domain `d` — the engine behind
/// [`crate::Simulator::run_cone_dag`] and
/// [`crate::Simulator::run_cone_dag_quantized`]. Interior tiles run as
/// structure-of-arrays lanes with direct gathers; tiles whose reach crosses
/// the frame edge run as lanes whose gathers border-resolve at the cone
/// base, exactly like [`isl_ir::Cone::eval`]. With `record`, every firing
/// is also returned, in row-major tile order whatever the thread count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn cone_level<D: Domain>(
    d: D,
    cc: &CompiledCone,
    state: &Planes<D>,
    border: BorderMode,
    threads: usize,
    (tw, th): (i64, i64),
    recycle: Option<Planes<D>>,
    record: Option<LevelRecord<'_>>,
) -> (Planes<D>, Vec<Firing<D::Word>>) {
    let name = if D::QUANTIZED {
        "cone level q"
    } else {
        "cone level f64"
    };
    let _span = isl_telemetry::span("engine", name);
    let (w, h) = (state.width, state.height);
    let bc = (border, d.border(border));
    let srcs = state.sources();
    let outputs = cc.outputs.iter().map(|s| s.field as usize);
    let (dyn_fields, dyn_slot) = dyn_slot_map(state.planes.len(), outputs);
    let tiles_x = w.div_ceil(tw as usize);
    let work = tiles_x * h.div_ceil(th as usize) * cc.len();
    let t = tile_banding(h, th as usize, threads, work);
    let reach = cc.reach();
    let lanes_cap = (LANE_SCRATCH / cc.slots().max(1)).clamp(1, 512);
    let bands: Mutex<Vec<BandFirings<D::Word>>> = Mutex::new(Vec::new());
    let band_fn = |row0: usize, slices: &mut [&mut [D::Word]]| {
        // Every tile of the band becomes one lane. Interior tiles (whole
        // reach in-frame) batch into chunks with direct strided gathers;
        // edge tiles batch into chunks whose gathers border-resolve — the
        // arithmetic instructions are amortised across the lanes of a chunk
        // either way.
        let rows = slices[0].len() / w;
        let mut interior: Vec<(i64, i64)> = Vec::new();
        let mut edge: Vec<(i64, i64)> = Vec::new();
        for ty in (row0 as i64..(row0 + rows) as i64).step_by(th as usize) {
            let y_in = ty + i64::from(reach.min_dy) >= 0 && ty + i64::from(reach.max_dy) < h as i64;
            for tx in (0..tiles_x as i64).map(|k| k * tw) {
                if y_in
                    && tx + i64::from(reach.min_dx) >= 0
                    && tx + i64::from(reach.max_dx) < w as i64
                {
                    interior.push((tx, ty));
                } else {
                    edge.push((tx, ty));
                }
            }
        }
        let mut band = record
            .as_ref()
            .map(|rec| BandFirings::new(rec, state, bc, (row0, rows), (tw, th), cc.output_count()));
        let mut scratch = vec![D::Word::default(); cc.slots() * lanes_cap];
        for (tiles, is_interior) in [(&interior, true), (&edge, false)] {
            for chunk in tiles.chunks(lanes_cap) {
                eval_cone_lanes(
                    d,
                    cc,
                    &srcs,
                    (w, h),
                    bc,
                    chunk,
                    is_interior,
                    &dyn_slot,
                    &mut scratch,
                    (slices, row0),
                    band.as_mut(),
                );
            }
        }
        if let Some(band) = band {
            bands.lock().expect("band firings").push(band);
        }
    };
    let next = banded_level(state, &dyn_fields, th as usize, t, recycle, band_fn);
    let mut bands = bands.into_inner().expect("band firings");
    bands.sort_by_key(|b| b.row0);
    (next, bands.into_iter().flat_map(|b| b.firings).collect())
}

/// Evaluate the cone program for every tile of a chunk at once: one
/// structure-of-arrays lane per tile. Interior chunks gather by direct
/// index and scatter without bounds checks; edge chunks gather
/// border-resolved at the cone base (exactly like [`isl_ir::Cone::eval`])
/// and scatter clipped to the frame. The arithmetic instructions are
/// identical — and amortised across the chunk — either way.
///
/// Outputs **stream to their destinations as they retire**: slot allocation
/// frees an output's slot right after its defining instruction (see
/// [`CompiledCone::retire`]), so each output lane is scattered the moment it
/// is produced, walking the capture-sorted retire list alongside the
/// instruction loop. That is what shrinks the live set — and the scratch —
/// below the output count, letting far more lanes fit in the L2-sized
/// scratch budget. A recording band also keeps every retired word,
/// out-of-frame outputs of edge tiles included. `interior` promises that
/// every tap and every output of every tile of `chunk` is statically
/// in-frame; `slices` is the band of output rows starting at frame row
/// `row0`.
#[allow(clippy::too_many_arguments)]
fn eval_cone_lanes<D: Domain>(
    d: D,
    cc: &CompiledCone,
    srcs: &[&[D::Word]],
    (w, h): (usize, usize),
    (border, constant): (BorderMode, D::Word),
    chunk: &[(i64, i64)],
    interior: bool,
    dyn_slot: &[Option<usize>],
    scratch: &mut [D::Word],
    (slices, row0): (&mut [&mut [D::Word]], usize),
    mut band: Option<&mut BandFirings<D::Word>>,
) {
    let n = chunk.len();
    if isl_telemetry::enabled() {
        crate::metrics::tally(&cc.code, n as u64, D::QUANTIZED);
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
        let to = cc.dst[i];
        match *instr {
            Instr::Const(v) => scratch[range(to)].fill(d.constant(v)),
            Instr::Input { field, dx, dy } => {
                let dst = &mut scratch[range(to)];
                let src = srcs[field as usize];
                if interior {
                    let off = i64::from(dy) * w as i64 + i64::from(dx);
                    for (v, &o) in dst.iter_mut().zip(&read_origin) {
                        *v = src[(o + off) as usize];
                    }
                } else {
                    for (v, &(tx, ty)) in dst.iter_mut().zip(chunk) {
                        let at = (tx + i64::from(dx), ty + i64::from(dy));
                        *v = sample(src, (w, h), at, border, constant);
                    }
                }
            }
            Instr::Unary { op, a } => {
                let [dst, a] = scratch
                    .get_disjoint_mut([range(to), range(a)])
                    .expect("dst slot distinct from operands");
                d.unary_span(op, a, dst);
            }
            Instr::Binary { op, a, b } => {
                if a == b {
                    let [dst, a] = scratch
                        .get_disjoint_mut([range(to), range(a)])
                        .expect("dst slot distinct from operands");
                    let a = &*a;
                    d.binary_span(op, a, a, dst);
                } else {
                    let [dst, a, b] = scratch
                        .get_disjoint_mut([range(to), range(a), range(b)])
                        .expect("dst slot distinct from operands");
                    d.binary_span(op, a, b, dst);
                }
            }
            Instr::Select { c, t, e } => {
                // Rare op: plain indexed loop sidesteps operand aliasing.
                let [c0, t0, e0, d0] = [c, t, e, to].map(|s| s as usize * n);
                for k in 0..n {
                    scratch[d0 + k] = if D::truthy(scratch[c0 + k]) {
                        scratch[t0 + k]
                    } else {
                        scratch[e0 + k]
                    };
                }
            }
        }
        // Stream every output defined by this instruction to its destination
        // before its slot can be reused.
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
            let out = &mut *slices[di];
            if interior {
                let off = i64::from(slot.py) * w as i64 + i64::from(slot.px);
                for (&v, &o) in src.iter().zip(&write_origin) {
                    out[(o + off) as usize] = D::store(v);
                }
            } else {
                for (&v, &(tx, ty)) in src.iter().zip(chunk) {
                    let (ax, ay) = (tx + i64::from(slot.px), ty + i64::from(slot.py));
                    if ax < w as i64 && ay < h as i64 {
                        out[(ay as usize - row0) * w + ax as usize] = D::store(v);
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
    use isl_ir::{FieldKind, StencilPattern};

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
            Expr::binary(BinaryOp::Lt, Expr::input(f, Offset::ZERO), Expr::param(t)),
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
        let serial = Simulator::new(&p)
            .unwrap()
            .with_threads(1)
            .run(&init, 3)
            .unwrap();
        for t in [2, 4, 7, 0] {
            let par = Simulator::new(&p)
                .unwrap()
                .with_threads(t)
                .run(&init, 3)
                .unwrap();
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
