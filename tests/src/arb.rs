//! Shared random-case generators for the engine property suites.
//!
//! Both the whole-frame engine suite (`compiled_engine_props.rs`) and the
//! cone-architecture suite (`tiled_engine_props.rs`) draw random stencil
//! patterns, borders and frames from here, so the two suites exercise the
//! same expression space.

use crate::prop::Rng;

use isl_hls::ir::{BinaryOp, Expr, FieldId, FieldKind, Offset, StencilPattern, UnaryOp};
use isl_hls::prelude::*;
use isl_hls::sim::synthetic;

/// Random expression over every op kind, any declared field, bounded depth
/// and radius ≤ 2, with rank-`rank` offsets (`dy == 0` at rank 1). Values
/// may blow up under iteration — irrelevant for the equivalence
/// properties, since Inf/NaN must propagate identically through both
/// engines.
pub fn arb_expr(
    rng: &mut Rng,
    fields: &[FieldId],
    n_params: usize,
    depth: u32,
    rank: usize,
) -> Expr {
    let leaf = |rng: &mut Rng| {
        match rng.weighted(&[4, 2, if n_params > 0 { 2 } else { 0 }]) {
            0 => {
                let f = fields[rng.usize_in(0, fields.len() - 1)];
                let dx = rng.i32_in(-2, 2);
                let offset = if rank == 1 {
                    Offset::d1(dx)
                } else {
                    Offset::d2(dx, rng.i32_in(-2, 2))
                };
                Expr::input(f, offset)
            }
            1 => Expr::constant((rng.f64_in(-2.0, 2.0) * 8.0).round() / 8.0),
            _ => Expr::param(isl_hls::ir::ParamId::new(
                rng.usize_in(0, n_params - 1) as u16
            )),
        }
    };
    if depth == 0 {
        return leaf(rng);
    }
    match rng.weighted(&[3, 5, 2, 2]) {
        0 => leaf(rng),
        1 => {
            let op = [
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
            ][rng.usize_in(0, 9)];
            let lhs = arb_expr(rng, fields, n_params, depth - 1, rank);
            let rhs = arb_expr(rng, fields, n_params, depth - 1, rank);
            Expr::binary(op, lhs, rhs)
        }
        2 => {
            let op = [UnaryOp::Neg, UnaryOp::Abs, UnaryOp::Sqrt][rng.usize_in(0, 2)];
            Expr::unary(op, arb_expr(rng, fields, n_params, depth - 1, rank))
        }
        _ => {
            let c = arb_expr(rng, fields, n_params, depth - 1, rank);
            let t = arb_expr(rng, fields, n_params, depth - 1, rank);
            let e = arb_expr(rng, fields, n_params, depth - 1, rank);
            Expr::select(c, t, e)
        }
    }
}

/// Random pattern: 1–3 fields (first dynamic, rest mixed), 0–2 parameters,
/// one random update per dynamic field.
pub fn arb_pattern(rng: &mut Rng) -> StencilPattern {
    arb_pattern_of_rank(rng, 2)
}

/// [`arb_pattern`] of rank 1 or 2.
pub fn arb_pattern_of_rank(rng: &mut Rng, rank: usize) -> StencilPattern {
    let mut p = StencilPattern::new(rank).with_name("vmrand");
    let n_fields = rng.usize_in(1, 3);
    let mut ids = Vec::new();
    for i in 0..n_fields {
        let kind = if i == 0 || rng.bool() {
            FieldKind::Dynamic
        } else {
            FieldKind::Static
        };
        ids.push((p.add_field(format!("f{i}"), kind), kind));
    }
    let n_params = rng.usize_in(0, 2);
    for j in 0..n_params {
        p.add_param(format!("p{j}"), (rng.f64_in(-1.0, 1.0) * 8.0).round() / 8.0);
    }
    let all_ids: Vec<FieldId> = ids.iter().map(|(id, _)| *id).collect();
    for (id, kind) in &ids {
        if *kind == FieldKind::Dynamic {
            let depth = rng.u32_in(1, 4);
            let e = arb_expr(rng, &all_ids, n_params, depth, rank);
            p.set_update(*id, e).expect("dynamic field");
        }
    }
    p
}

/// Any border mode (incl. wrap — golden-only).
pub fn arb_border(rng: &mut Rng) -> BorderMode {
    match rng.weighted(&[1, 1, 1, 1]) {
        0 => BorderMode::Clamp,
        1 => BorderMode::Mirror,
        2 => BorderMode::Wrap,
        _ => BorderMode::Constant(rng.f64_in(-1.0, 1.0)),
    }
}

/// A *local* border mode — what the tiled executor accepts (no wrap).
pub fn arb_local_border(rng: &mut Rng) -> BorderMode {
    match rng.weighted(&[1, 1, 1]) {
        0 => BorderMode::Clamp,
        1 => BorderMode::Mirror,
        _ => BorderMode::Constant(rng.f64_in(-1.0, 1.0)),
    }
}

/// A random output window: square, rectangular or a 1-element degenerate.
pub fn arb_window(rng: &mut Rng) -> Window {
    match rng.weighted(&[3, 3, 1]) {
        0 => Window::square(rng.u32_in(1, 6)),
        1 => Window::rect(rng.u32_in(1, 7), rng.u32_in(1, 5)),
        _ => Window::square(1),
    }
}

/// One noise frame per pattern field.
pub fn frames_for(p: &StencilPattern, w: usize, h: usize, seed: u64) -> FrameSet {
    FrameSet::from_frames(
        p.fields()
            .iter()
            .enumerate()
            .map(|(i, _)| synthetic::noise(w, h, seed ^ (i as u64) << 32))
            .collect(),
    )
    .expect("congruent")
}

/// Bit-for-bit frame-set equality with a diagnostic on the first mismatch.
pub fn assert_bitwise_eq(a: &FrameSet, b: &FrameSet, what: &str) {
    assert_eq!(a.len(), b.len());
    for fi in 0..a.len() {
        for (i, (x, y)) in a
            .frame(fi)
            .as_slice()
            .iter()
            .zip(b.frame(fi).as_slice())
            .enumerate()
        {
            assert!(
                x.to_bits() == y.to_bits(),
                "{what}: field {fi} slot {i}: {x} ({:#x}) vs {y} ({:#x})",
                x.to_bits(),
                y.to_bits()
            );
        }
    }
}
