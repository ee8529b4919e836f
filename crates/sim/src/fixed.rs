//! Quantised simulation: fixed-point error accumulation at the scale of a
//! full ISL run.
//!
//! The per-cone fixed-point evaluator in `isl-fpga` answers "how far is one
//! cone pass from `f64`?"; this module answers the system-level question —
//! after `N` iterations over a whole frame, how much error has the hardware
//! data path accumulated? The quantised runs are the simulator's generic
//! engines and tree walks instantiated with [`FixedFormat`] as the number
//! domain: state is raw words of the format, every operation is the
//! format's saturating fixed-point datapath (saturating add/sub, truncating
//! widened mul/div — the exact datapath the generated VHDL implements),
//! and every literal is quantised where it is read, so one fold-free
//! program serves every format. This module holds the whole-frame entry
//! points and the domain's tree-walk evaluators, the oracles of the
//! quantised engines.

use isl_fpga::FixedFormat;
use isl_ir::{Cone, Expr, FieldId, Offset, ParamId, Point};

use crate::engine::RowProgram;
use crate::error::SimError;
use crate::frame::FrameSet;
use crate::sim::Simulator;

/// The simulator's former name for [`FixedFormat`], kept only because the
/// repository benchmark (`perfbench/`) still imports it and calls
/// `Quantizer::from(fmt)`, which resolves to the reflexive `From` impl.
/// Every quantised entry point takes a [`FixedFormat`]; new code names it.
pub type Quantizer = FixedFormat;

impl Simulator<'_> {
    /// Run `iterations` whole-frame steps in fixed point — the frame-scale
    /// analogue of the generated hardware.
    ///
    /// Executes on the compiled engine in `fmt`'s word domain: the pattern
    /// is lowered fold-free into one fused program (every intermediate of
    /// the reference expression trees survives as one instruction), and
    /// every instruction runs as a saturating lane kernel of `fmt` over raw
    /// words — bit-identical to [`Simulator::run_quantized_reference`],
    /// which tests enforce.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::step`].
    pub fn run_quantized(
        &self,
        init: &FrameSet,
        iterations: u32,
        fmt: FixedFormat,
    ) -> Result<FrameSet, SimError> {
        self.check(init)?;
        let program = self
            .program_cache()
            .quantized_pattern_program(self.pattern(), self.params());
        Ok(self.run_steps(fmt, &RowProgram::fused(&program), init, iterations))
    }

    /// [`Simulator::run_quantized`] through the tree-walking interpreter in
    /// the raw word domain — the golden reference for the quantised engine.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::step`].
    pub fn run_quantized_reference(
        &self,
        init: &FrameSet,
        iterations: u32,
        fmt: FixedFormat,
    ) -> Result<FrameSet, SimError> {
        self.check(init)?;
        Ok(self.run_walk(fmt, init, iterations))
    }
}

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

/// Evaluate a cone's dataflow graph in the raw word domain: every node is
/// one saturating `FixedFormat` operation (selects forward words unrounded,
/// like the hardware mux) — the tree-walking golden reference of the
/// quantised cone engine.
pub(crate) fn eval_cone_graph_raw<R>(
    cone: &Cone,
    read: R,
    params: &[f64],
    fmt: FixedFormat,
) -> Vec<(FieldId, Point, i64)>
where
    R: Fn(FieldId, Point) -> i64,
{
    use isl_ir::{Leaf, Node};
    let graph = cone.graph();
    let mut vals: Vec<i64> = Vec::with_capacity(graph.len());
    for (_, node) in graph.nodes() {
        let v = match node {
            Node::Leaf(Leaf::Input { field, point })
            | Node::Leaf(Leaf::Static { field, point }) => read(*field, *point),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::border::BorderMode;
    use crate::frame::Frame;
    use crate::synthetic;
    use isl_ir::{BinaryOp, FieldKind, StencilPattern};

    fn blur() -> StencilPattern {
        let mut p = StencilPattern::new(2).with_name("blur");
        let f = p.add_field("f", FieldKind::Dynamic);
        let sum = Expr::sum([
            Expr::input(f, Offset::d2(0, -1)),
            Expr::input(f, Offset::d2(-1, 0)),
            Expr::input(f, Offset::d2(1, 0)),
            Expr::input(f, Offset::d2(0, 1)),
        ]);
        p.set_update(f, Expr::binary(BinaryOp::Div, sum, Expr::constant(4.0)))
            .unwrap();
        p
    }

    #[test]
    fn quantizer_rounds_and_saturates() {
        let q = FixedFormat::new(8, 4);
        assert_eq!(q.round_trip(0.5), 0.5);
        assert_eq!(q.round_trip(0.51), 0.5);
        assert_eq!(q.round_trip(1000.0), 7.9375); // (2^7 - 1) / 16
        assert_eq!(q.round_trip(-1000.0), -8.0);
        assert_eq!(q.resolution(), 0.0625);
    }

    #[test]
    fn quantized_run_tracks_f64() {
        let p = blur();
        let sim = Simulator::new(&p).unwrap();
        let init = FrameSet::from_frames(vec![synthetic::noise(16, 12, 5)]).unwrap();
        let exact = sim.run(&init, 8).unwrap();
        let fixed = sim.run_quantized(&init, 8, FixedFormat::default()).unwrap();
        // Averaging keeps per-iteration error near one LSB; 8 iterations of
        // a contraction accumulate only a small multiple of it.
        let diff = exact.max_abs_diff(&fixed);
        assert!(
            diff < 32.0 * FixedFormat::default().resolution(),
            "diff {diff}"
        );
    }

    #[test]
    fn error_shrinks_with_finer_formats() {
        let p = blur();
        let sim = Simulator::new(&p).unwrap().with_border(BorderMode::Mirror);
        let init = FrameSet::from_frames(vec![synthetic::noise(12, 12, 9)]).unwrap();
        let exact = sim.run(&init, 6).unwrap();
        let err = |q: FixedFormat| exact.max_abs_diff(&sim.run_quantized(&init, 6, q).unwrap());
        let coarse = err(FixedFormat::new(12, 4));
        let fine = err(FixedFormat::new(24, 16));
        assert!(fine < coarse, "{fine} !< {coarse}");
        assert!(fine < 1e-3);
    }

    #[test]
    fn compiled_quantized_engine_matches_reference_bitwise() {
        let p = blur();
        for border in [
            BorderMode::Clamp,
            BorderMode::Mirror,
            BorderMode::Constant(0.5),
        ] {
            let sim = Simulator::new(&p).unwrap().with_border(border);
            let init = FrameSet::from_frames(vec![synthetic::noise(19, 11, 3)]).unwrap();
            let q = FixedFormat::default();
            let a = sim.run_quantized(&init, 5, q).unwrap();
            let b = sim.run_quantized_reference(&init, 5, q).unwrap();
            for (x, y) in a.frame(0).as_slice().iter().zip(b.frame(0).as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "border {border}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn integer_valued_dynamics_are_exact() {
        // Sums of integers within range round-trip exactly.
        let mut p = StencilPattern::new(1).with_name("shift");
        let f = p.add_field("f", FieldKind::Dynamic);
        p.set_update(f, Expr::input(f, Offset::d1(-1))).unwrap();
        let sim = Simulator::new(&p).unwrap();
        let init = FrameSet::from_frames(vec![Frame::from_samples(&[1.0, 2.0, 3.0, 4.0])]).unwrap();
        let exact = sim.run(&init, 3).unwrap();
        let fixed = sim.run_quantized(&init, 3, FixedFormat::default()).unwrap();
        assert_eq!(exact.max_abs_diff(&fixed), 0.0);
    }
}
