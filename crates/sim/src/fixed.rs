//! Quantised whole-frame simulation: fixed-point error accumulation at the
//! scale of a full ISL run.
//!
//! The per-cone fixed-point evaluator in `isl-fpga` answers "how far is one
//! cone pass from `f64`?"; this module answers the system-level question —
//! after `N` iterations over a whole frame, how much error has the hardware
//! data path accumulated? Execution runs entirely in the **raw word
//! domain** on the fold-free [`crate::compile::QuantizedStep`] program,
//! with the format passed in at run time: every instruction is the
//! format's saturating fixed-point operation (saturating add/sub,
//! truncating widened mul/div — the exact `isl_fpga::FixedFormat`
//! datapath the generated VHDL implements), and constants are quantised
//! where they are read. One cached program serves every format.

use isl_fpga::FixedFormat;
use isl_ir::{FieldId, FieldKind};

use crate::error::SimError;
use crate::frame::FrameSet;
use crate::qvm::{self, WordSet};
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
    /// Executes on the compiled **quantised** bytecode engine: the pattern
    /// is lowered fold-free (every intermediate of the reference expression
    /// tree survives as one instruction), and every instruction runs as a
    /// saturating lane kernel of `fmt` over raw words — bit-identical to
    /// [`Simulator::run_quantized_reference`], which tests enforce.
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
        if init.len() != self.pattern().fields().len() {
            return Err(SimError::FieldCountMismatch {
                expected: self.pattern().fields().len(),
                got: init.len(),
            });
        }
        let program = self
            .program_cache()
            .quantized_pattern_program(self.pattern(), self.params());
        let mut state = WordSet::quantize(init, fmt);
        let mut spare: Option<WordSet> = None;
        for _ in 0..iterations {
            let next = qvm::step_quantized(
                &program,
                fmt,
                &state,
                self.border(),
                self.threads(),
                spare.take(),
            );
            spare = Some(std::mem::replace(&mut state, next));
        }
        Ok(state.dequantize(fmt))
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
        if init.len() != self.pattern().fields().len() {
            return Err(SimError::FieldCountMismatch {
                expected: self.pattern().fields().len(),
                got: init.len(),
            });
        }
        let mut state = WordSet::quantize(init, fmt);
        for _ in 0..iterations {
            state = self.step_quantized_raw(&state, fmt);
        }
        Ok(state.dequantize(fmt))
    }

    /// One tree-walking whole-frame step over raw words (mirrors
    /// [`Simulator::step_reference`] with `FixedFormat` node semantics).
    fn step_quantized_raw(&self, state: &WordSet, fmt: FixedFormat) -> WordSet {
        let (w, h) = (state.width(), state.height());
        let border = self.border();
        let braw = qvm::border_raw(border, fmt);
        let mut next = Vec::with_capacity(self.pattern().fields().len());
        for (i, decl) in self.pattern().fields().iter().enumerate() {
            let fid = FieldId::new(i as u16);
            match decl.kind {
                FieldKind::Static => next.push(state.words_arc(i)),
                FieldKind::Dynamic => {
                    let update = self.pattern().update(fid).expect("validated pattern");
                    let mut out = vec![0i64; w * h];
                    for y in 0..h {
                        for x in 0..w {
                            let read = |f: FieldId, o: isl_ir::Offset| {
                                state.sample(
                                    f.index(),
                                    x as i64 + o.dx as i64,
                                    y as i64 + o.dy as i64,
                                    border,
                                    braw,
                                )
                            };
                            let param = |p: isl_ir::ParamId| self.param_value(p);
                            out[y * w + x] = qvm::eval_expr_raw(update, &read, &param, fmt);
                        }
                    }
                    next.push(std::sync::Arc::new(out));
                }
            }
        }
        WordSet::from_shared(w, h, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::border::BorderMode;
    use crate::frame::Frame;
    use crate::synthetic;
    use isl_ir::{BinaryOp, Expr, Offset, StencilPattern};

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
        assert!(diff < 32.0 * FixedFormat::default().resolution(), "diff {diff}");
    }

    #[test]
    fn error_shrinks_with_finer_formats() {
        let p = blur();
        let sim = Simulator::new(&p).unwrap().with_border(BorderMode::Mirror);
        let init = FrameSet::from_frames(vec![synthetic::noise(12, 12, 9)]).unwrap();
        let exact = sim.run(&init, 6).unwrap();
        let err = |q: FixedFormat| {
            exact.max_abs_diff(&sim.run_quantized(&init, 6, q).unwrap())
        };
        let coarse = err(FixedFormat::new(12, 4));
        let fine = err(FixedFormat::new(24, 16));
        assert!(fine < coarse, "{fine} !< {coarse}");
        assert!(fine < 1e-3);
    }

    #[test]
    fn compiled_quantized_engine_matches_reference_bitwise() {
        let p = blur();
        for border in [BorderMode::Clamp, BorderMode::Mirror, BorderMode::Constant(0.5)] {
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
        let init = FrameSet::from_frames(vec![Frame::from_samples(&[1.0, 2.0, 3.0, 4.0])])
            .unwrap();
        let exact = sim.run(&init, 3).unwrap();
        let fixed = sim.run_quantized(&init, 3, FixedFormat::default()).unwrap();
        assert_eq!(exact.max_abs_diff(&fixed), 0.0);
    }
}
