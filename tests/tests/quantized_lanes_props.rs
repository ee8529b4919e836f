//! Property tests for the data-parallel quantised datapath.
//!
//! Two layers, both bit-for-bit:
//!
//! 1. the **lane kernels** (`FixedFormat::unary_span` / `binary_span` /
//!    `quantize_span` / `dequantize_span`) against their scalar
//!    definitions, at every hardware width up to 64 bits and on the raw
//!    rails (`i64::MIN` included) where saturation arithmetic is most
//!    likely to wrap;
//! 2. the two **compiled quantised engines** (whole-frame, cone-DAG lanes)
//!    against the tree-walking raw-word references, across the width
//!    ladder {8, 18, 31, 54, 63, 64}, every local border mode and the
//!    worker-thread matrix {1, 2, 4}; at the wide end, the tiled tree walk
//!    against the whole-frame one as well;
//! 3. the **two number domains** against each other: where fixed-point
//!    arithmetic is exact (integer values, no division or square root, a
//!    format wide enough that nothing rounds or saturates), every engine
//!    and tree walk computes the `f64` run's values.
//!
//! Together with `cosim_props.rs` (which pins the same engines to
//! `isl-cosim`'s integer VM and `isl_fpga::eval_fixed`), these make the
//! span kernels the single property-proven definition of the hardware
//! datapath.

use isl_tests::arb::{arb_local_border, arb_pattern, arb_window, assert_bitwise_eq, frames_for};
use isl_tests::prop::{check, Rng};

use isl_hls::fpga::FixedFormat;
use isl_hls::ir::{BinaryOp, Expr, FieldId, FieldKind, Offset, StencilPattern, UnaryOp};
use isl_hls::prelude::*;
use isl_hls::sim::harness::{run_f64, run_quantized, Engine, RunSpec, Semantics};
use isl_hls::sim::Frame;

const THREAD_MATRIX: [usize; 3] = [1, 2, 4];

/// The width ladder: the narrow end (8), the device default (18), both
/// sides of the f64-exact boundary (31, 54), and the wide rails where
/// `i64` arithmetic itself is the hazard (63, 64).
const WIDTHS: [u32; 6] = [8, 18, 31, 54, 63, 64];

const UNARY_OPS: [UnaryOp; 3] = [UnaryOp::Neg, UnaryOp::Abs, UnaryOp::Sqrt];
const BINARY_OPS: [BinaryOp; 10] = [
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::Min,
    BinaryOp::Max,
    BinaryOp::Lt,
    BinaryOp::Le,
    BinaryOp::Gt,
    BinaryOp::Ge,
];

fn fmt_for(rng: &mut Rng, width: u32) -> FixedFormat {
    FixedFormat::new(width, rng.u32_in(1, width - 1))
}

/// An **in-format** raw word (the span-kernel contract) biased towards
/// the places saturating arithmetic breaks: the format rails — which at
/// width 64 are `i64::MIN`/`i64::MAX` themselves — zero and its
/// neighbours, plus uniformly random words.
fn arb_word(rng: &mut Rng, fmt: FixedFormat) -> i64 {
    match rng.weighted(&[3, 2, 2, 1, 1, 5]) {
        0 => 0,
        1 => fmt.max_raw(),
        2 => fmt.min_raw(),
        3 => 1,
        4 => -1,
        _ => {
            // Uniform over the format's raw range (i128 avoids the
            // width-64 span overflow).
            let span = fmt.max_raw() as i128 - fmt.min_raw() as i128 + 1;
            (fmt.min_raw() as i128 + (rng.u64() as i128 % span)) as i64
        }
    }
}

/// Span kernels are the scalar datapath, vectorised: for every width of
/// the ladder, every operator and rail-heavy random words — including
/// `i64::MIN`, where two's-complement negation overflows — the span
/// output equals element-wise `apply_unary` / `apply_binary` exactly.
#[test]
fn span_kernels_match_scalar_datapath_bitwise() {
    check("span_kernels_match_scalar_datapath_bitwise", 48, |rng| {
        let width = WIDTHS[rng.usize_in(0, WIDTHS.len() - 1)];
        let fmt = fmt_for(rng, width);
        let n = rng.usize_in(1, 97);
        let a: Vec<i64> = (0..n).map(|_| arb_word(rng, fmt)).collect();
        let b: Vec<i64> = (0..n).map(|_| arb_word(rng, fmt)).collect();
        let mut dst = vec![0i64; n];
        for op in UNARY_OPS {
            fmt.unary_span(op, &a, &mut dst);
            for (i, (&x, &d)) in a.iter().zip(&dst).enumerate() {
                assert_eq!(d, fmt.apply_unary(op, x), "{fmt} {op:?} lane {i} word {x}");
            }
        }
        for op in BINARY_OPS {
            fmt.binary_span(op, &a, &b, &mut dst);
            for (i, ((&x, &y), &d)) in a.iter().zip(&b).zip(&dst).enumerate() {
                assert_eq!(
                    d,
                    fmt.apply_binary(op, x, y),
                    "{fmt} {op:?} lane {i} words ({x}, {y})"
                );
            }
            // Whenever the constant-operand kernel claims an (op, c) pair
            // it must equal the scalar datapath too — this is the path the
            // compiled engines take for folded parameters like ÷λ.
            let c = arb_word(rng, fmt);
            if fmt.binary_span_const(op, &a, c, &mut dst) {
                for (i, (&x, &d)) in a.iter().zip(&dst).enumerate() {
                    assert_eq!(
                        d,
                        fmt.apply_binary(op, x, c),
                        "{fmt} {op:?} lane {i} word {x} const {c}"
                    );
                }
            }
        }
    });
}

/// Conversion spans equal their scalar definitions: `quantize_span`
/// matches per-sample `quantize` on rail-heavy `f64` input (NaN and
/// infinities included), and `dequantize_span` matches per-word
/// `dequantize` bit-for-bit.
#[test]
fn conversion_spans_match_scalar_bitwise() {
    check("conversion_spans_match_scalar_bitwise", 48, |rng| {
        let width = WIDTHS[rng.usize_in(0, WIDTHS.len() - 1)];
        let fmt = fmt_for(rng, width);
        let n = rng.usize_in(1, 64);
        let reals: Vec<f64> = (0..n)
            .map(|_| match rng.weighted(&[1, 1, 1, 1, 6]) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => fmt.max_value() * rng.f64_in(-4.0, 4.0),
                _ => rng.f64_in(-8.0, 8.0),
            })
            .collect();
        let mut words = vec![0i64; n];
        fmt.quantize_span(&reals, &mut words);
        for (i, (&v, &w)) in reals.iter().zip(&words).enumerate() {
            assert_eq!(w, fmt.quantize(v), "{fmt} quantize lane {i} value {v}");
        }
        let raw: Vec<i64> = (0..n).map(|_| arb_word(rng, fmt)).collect();
        let mut back = vec![0.0f64; n];
        fmt.dequantize_span(&raw, &mut back);
        for (i, (&w, &v)) in raw.iter().zip(&back).enumerate() {
            assert_eq!(
                v.to_bits(),
                fmt.dequantize(w).to_bits(),
                "{fmt} dequantize lane {i} word {w}"
            );
        }
    });
}

/// The compiled quantised **whole-frame** engine equals the tree-walking
/// raw-word reference bit-for-bit across the width ladder, every local
/// border mode and every thread count of the matrix.
#[test]
fn quantized_whole_frame_matches_reference_across_width_ladder() {
    check(
        "quantized_whole_frame_matches_reference_across_width_ladder",
        30,
        |rng| {
            let pattern = arb_pattern(rng);
            let border = arb_local_border(rng);
            let (w, h) = (rng.usize_in(1, 20), rng.usize_in(1, 20));
            let iters = rng.u32_in(1, 5);
            let width = WIDTHS[rng.usize_in(0, WIDTHS.len() - 1)];
            let fmt = fmt_for(rng, width);
            let init = frames_for(&pattern, w, h, rng.u64());
            let reference = Simulator::new(&pattern)
                .expect("valid pattern")
                .with_border(border)
                .run_quantized_reference(&init, iters, fmt)
                .expect("reference runs");
            for threads in THREAD_MATRIX {
                let got = Simulator::new(&pattern)
                    .expect("valid pattern")
                    .with_border(border)
                    .with_threads(threads)
                    .run_quantized(&init, iters, fmt)
                    .expect("compiled quantised run");
                assert_bitwise_eq(
                    &got,
                    &reference,
                    &format!("{w}x{h} border {border} iters {iters} {fmt} threads {threads}"),
                );
            }
        },
    );
}

/// At the wide end of the ladder (54, 63 and 64 bits) — the formats whose
/// words no `f64` can carry, so nothing but the raw word domain could even
/// state the test — the **tiled** tree walk equals the whole-frame
/// raw-word reference (rounding commutes with the tiling), and the
/// compiled **cone-DAG** engine equals its raw-word reference, bit for
/// bit.
#[test]
fn quantized_tiled_and_cone_dag_match_reference_at_wide_widths() {
    check(
        "quantized_tiled_and_cone_dag_match_reference_at_wide_widths",
        24,
        |rng| {
            let pattern = arb_pattern(rng);
            let border = arb_local_border(rng);
            let (w, h) = (rng.usize_in(1, 16), rng.usize_in(1, 16));
            let window = arb_window(rng);
            let depth = rng.u32_in(1, 3);
            let iters = rng.u32_in(1, 4);
            let width = [54, 63, 64][rng.usize_in(0, 2)];
            let fmt = fmt_for(rng, width);
            let init = frames_for(&pattern, w, h, rng.u64());
            let sim = Simulator::new(&pattern)
                .expect("valid pattern")
                .with_border(border)
                .with_threads(THREAD_MATRIX[rng.usize_in(0, THREAD_MATRIX.len() - 1)]);
            let what =
                format!("{w}x{h} border {border} window {window} depth {depth} iters {iters} {fmt}");
            let whole_ref = sim
                .run_quantized_reference(&init, iters, fmt)
                .expect("whole-frame reference runs");
            let tiled = sim
                .run_tiled_quantized_reference(&init, iters, window, depth, fmt)
                .expect("tiled reference runs");
            assert_bitwise_eq(&tiled, &whole_ref, &format!("tiled {what}"));
            let dag_ref = sim
                .run_cone_dag_quantized_reference(&init, iters, window, depth, fmt)
                .expect("cone reference runs");
            let dag = sim
                .run_cone_dag_quantized(&init, iters, window, depth, fmt)
                .expect("compiled cone dag runs");
            assert_bitwise_eq(&dag, &dag_ref, &format!("cone-dag {what}"));
        },
    );
}

/// Saturation rails hold end to end: a pattern that doubles a frame of
/// maximal words pins to the format rails (never wraps), identically in
/// the compiled engine and the reference, at the widths where naive
/// `i64` arithmetic would overflow.
#[test]
fn saturating_runs_pin_to_rails_at_wide_widths() {
    for width in [31, 54, 63, 64] {
        let fmt = FixedFormat::new(width, 2);
        let mut p = StencilPattern::new(2).with_name("double");
        let f = p.add_field("f", FieldKind::Dynamic);
        p.set_update(
            f,
            Expr::binary(
                BinaryOp::Add,
                Expr::input(f, Offset::ZERO),
                Expr::input(f, Offset::ZERO),
            ),
        )
        .unwrap();
        let sim = Simulator::new(&p).expect("valid pattern");
        // Even width keeps flat index parity equal to column parity.
        let init = FrameSet::from_frames(vec![Frame::from_fn(8, 6, |x, _| {
            if x % 2 == 0 {
                fmt.max_value()
            } else {
                fmt.min_value()
            }
        })])
        .expect("frames build");
        let got = sim.run_quantized(&init, 3, fmt).expect("quantised run");
        let reference = sim
            .run_quantized_reference(&init, 3, fmt)
            .expect("reference run");
        assert_bitwise_eq(&got, &reference, &format!("width {width} rails"));
        for (i, &v) in got.frame(0).as_slice().iter().enumerate() {
            let rail = if i % 2 == 0 { fmt.max_value() } else { fmt.min_value() };
            assert_eq!(v, rail, "width {width} sample {i} left the rail: {v}");
        }
    }
}

/// An update over the operations that are exact in fixed point on integer
/// values: add, sub, neg, abs, min, max, the compares, select, and
/// multiplication by an integer constant of magnitude at most 4. Leaves
/// are taps of radius ≤ 2 and integer constants in `-4..=4`. No node
/// grows the largest magnitude below it more than fourfold.
fn arb_exact_expr(rng: &mut Rng, fields: &[FieldId], depth: u32) -> Expr {
    let small = |rng: &mut Rng| Expr::constant(f64::from(rng.i32_in(-4, 4)));
    if depth == 0 || rng.weighted(&[1, 4]) == 0 {
        if rng.weighted(&[3, 1]) == 1 {
            return small(rng);
        }
        let f = fields[rng.usize_in(0, fields.len() - 1)];
        return Expr::input(f, Offset::d2(rng.i32_in(-2, 2), rng.i32_in(-2, 2)));
    }
    let sub = |rng: &mut Rng| arb_exact_expr(rng, fields, depth - 1);
    match rng.weighted(&[4, 2, 2, 1]) {
        0 => {
            use BinaryOp::*;
            let op = [Add, Sub, Min, Max, Lt, Le, Gt, Ge][rng.usize_in(0, 7)];
            Expr::binary(op, sub(rng), sub(rng))
        }
        1 => Expr::unary([UnaryOp::Neg, UnaryOp::Abs][rng.usize_in(0, 1)], sub(rng)),
        2 => {
            let (x, c) = (sub(rng), small(rng));
            let (a, b) = if rng.bool() { (x, c) } else { (c, x) };
            Expr::binary(BinaryOp::Mul, a, b)
        }
        _ => Expr::select(sub(rng), sub(rng), sub(rng)),
    }
}

/// The two number domains agree wherever fixed point is exact. Frames and
/// the border constant hold integers in `-8..=8`, updates come from
/// [`arb_exact_expr`] with depth ≤ 3, and runs last ≤ 3 iterations, so
/// every value any engine computes stays below `8 · (4³)³ = 2²¹` in
/// magnitude (a cone level of depth `k` is `k` updates composed). Formats
/// keep at least 25 integer bits and at most 32 fractional ones, so no
/// word rounds or saturates and every word dequantises exactly. Then the
/// dequantised run equals the `f64` run bit for bit in whole-frame and
/// cone-DAG semantics, on the compiled engines and the tree walks, for
/// threads {1, 2, 4}. The one exception fixed point cannot express is the
/// sign of zero: IEEE gives `-0.0` for `neg(0)` or `0 × -3`, so the `f64`
/// side is compared as `x + 0.0`, which maps `-0.0` to `+0.0` and keeps
/// every other value's bits.
#[test]
fn number_domains_agree_where_fixed_point_is_exact() {
    check(
        "number_domains_agree_where_fixed_point_is_exact",
        24,
        |rng| {
            let mut pattern = StencilPattern::new(2).with_name("exact");
            let n_fields = rng.usize_in(1, 2);
            let fields: Vec<(FieldId, FieldKind)> = (0..n_fields)
                .map(|i| {
                    let kind = if i == 0 || rng.bool() {
                        FieldKind::Dynamic
                    } else {
                        FieldKind::Static
                    };
                    (pattern.add_field(format!("f{i}"), kind), kind)
                })
                .collect();
            let ids: Vec<FieldId> = fields.iter().map(|&(id, _)| id).collect();
            for &(id, kind) in &fields {
                if kind == FieldKind::Dynamic {
                    let depth = rng.u32_in(1, 3);
                    let e = arb_exact_expr(rng, &ids, depth);
                    pattern.set_update(id, e).expect("dynamic field");
                }
            }
            let border = match rng.weighted(&[1, 1, 1, 1]) {
                0 => BorderMode::Clamp,
                1 => BorderMode::Mirror,
                2 => BorderMode::Wrap,
                _ => BorderMode::Constant(f64::from(rng.i32_in(-8, 8))),
            };
            let (w, h) = (rng.usize_in(1, 12), rng.usize_in(1, 12));
            let frames = (0..n_fields)
                .map(|_| Frame::from_fn(w, h, |_, _| f64::from(rng.i32_in(-8, 8))))
                .collect();
            let init = FrameSet::from_frames(frames).expect("congruent frames");
            let width = [32, 40, 54, 63, 64][rng.usize_in(0, 4)];
            let fmt = FixedFormat::new(width, rng.u32_in(0, (width - 25).min(32)));
            for semantics in Semantics::ALL {
                let spec = RunSpec {
                    semantics,
                    iterations: rng.u32_in(1, 3),
                    window: arb_window(rng),
                    depth: rng.u32_in(1, 3),
                };
                for engine in Engine::ALL {
                    for threads in THREAD_MATRIX {
                        let sim = Simulator::new(&pattern)
                            .expect("valid pattern")
                            .with_border(border)
                            .with_threads(threads);
                        let exact = run_f64(&sim, spec, engine, &init).expect("f64 run");
                        let fixed =
                            run_quantized(&sim, spec, engine, &init, fmt).expect("fixed run");
                        let what = format!(
                            "{} {} {w}x{h} border {border} {spec:?} {fmt} threads {threads}",
                            semantics.name(),
                            engine.name()
                        );
                        for fi in 0..init.len() {
                            let pairs = exact.frame(fi).as_slice().iter();
                            let pairs = pairs.zip(fixed.frame(fi).as_slice());
                            for (i, (&x, &y)) in pairs.enumerate() {
                                assert_eq!(
                                    (x + 0.0).to_bits(),
                                    y.to_bits(),
                                    "{what}: field {fi} slot {i}: {x} vs {y}"
                                );
                            }
                        }
                    }
                }
            }
        },
    );
}
