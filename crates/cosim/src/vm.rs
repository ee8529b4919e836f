//! The integer-domain fixed-point VM.
//!
//! A scalar sibling of `isl_sim::vm` that executes the *same* compiled cone
//! bytecode ([`CompiledCone`] programs) on raw `i64` fixed-point words
//! instead of `f64` samples. Every instruction goes through the
//! integer datapath of [`FixedFormat::apply_unary`] /
//! [`FixedFormat::apply_binary`]: saturating adds, truncating widened
//! multiplies and divides, non-restoring square root — exactly the
//! `isl_fixed_pkg` operations the VHDL backend emits. Programs must be
//! lowered **without** constant folding (`compile_with(..., false)`) so
//! that every operation node of the reference graph exists as one
//! instruction and performs its own fixed-point arithmetic.
//!
//! The VM supports deliberate **fault injection** ([`Fault`]): corrupting a
//! chosen instruction's result word under one of the classic gate-level
//! [`FaultModel`]s (transient bit-flip, stuck-at-0, stuck-at-1) — the unit
//! of work the fault-campaign driver ([`crate::campaign`]) sweeps over
//! whole cone programs, and the whole-program reference its propagation
//! is checked against in debug builds.

use isl_fpga::FixedFormat;
use isl_sim::{CompiledCone, Instr};

/// How a faulted instruction's result word is corrupted — the three classic
/// gate-level fault models, each over an explicit bit mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultModel {
    /// Transient upset: the masked bits are inverted (`v ^ mask`).
    BitFlip {
        /// Bits to invert.
        mask: i64,
    },
    /// Permanent stuck-at-0: the masked bits are forced low (`v & !mask`).
    StuckAt0 {
        /// Bits forced to 0.
        mask: i64,
    },
    /// Permanent stuck-at-1: the masked bits are forced high (`v | mask`).
    StuckAt1 {
        /// Bits forced to 1.
        mask: i64,
    },
}

impl FaultModel {
    /// Apply the corruption to a result word.
    #[inline]
    pub fn apply(self, v: i64) -> i64 {
        match self {
            FaultModel::BitFlip { mask } => v ^ mask,
            FaultModel::StuckAt0 { mask } => v & !mask,
            FaultModel::StuckAt1 { mask } => v | mask,
        }
    }

    /// Short human-readable name of the model kind.
    pub fn name(self) -> &'static str {
        match self {
            FaultModel::BitFlip { .. } => "bit-flip",
            FaultModel::StuckAt0 { .. } => "stuck-at-0",
            FaultModel::StuckAt1 { .. } => "stuck-at-1",
        }
    }

    /// The bit mask the model operates on.
    pub fn mask(self) -> i64 {
        match self {
            FaultModel::BitFlip { mask }
            | FaultModel::StuckAt0 { mask }
            | FaultModel::StuckAt1 { mask } => mask,
        }
    }
}

impl std::fmt::Display for FaultModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}(mask {:#x})", self.name(), self.mask())
    }
}

/// A deliberate single-instruction fault: after instruction `instr`
/// executes, its result word is corrupted under `model`. Used to validate
/// that the golden-vector check catches datapath divergence, and as the
/// unit of work of a fault campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Index of the instruction to corrupt.
    pub instr: usize,
    /// Corruption applied to the instruction's result word.
    pub model: FaultModel,
}

impl Fault {
    /// A transient bit-flip of `mask` on instruction `instr` — the
    /// historical single-XOR fault.
    pub fn bit_flip(instr: usize, mask: i64) -> Self {
        Fault {
            instr,
            model: FaultModel::BitFlip { mask },
        }
    }

    /// A stuck-at-0 of `mask` on instruction `instr`.
    pub fn stuck_at_0(instr: usize, mask: i64) -> Self {
        Fault {
            instr,
            model: FaultModel::StuckAt0 { mask },
        }
    }

    /// A stuck-at-1 of `mask` on instruction `instr`.
    pub fn stuck_at_1(instr: usize, mask: i64) -> Self {
        Fault {
            instr,
            model: FaultModel::StuckAt1 { mask },
        }
    }
}

/// Execute one instruction on raw words. `value_of` resolves operands.
#[inline]
pub(crate) fn exec<F: Fn(u32) -> i64, R: Fn(u16, i32, i32) -> i64>(
    fmt: FixedFormat,
    instr: &Instr,
    value_of: F,
    read: &R,
) -> i64 {
    match *instr {
        Instr::Const(v) => fmt.quantize(v),
        Instr::Input { field, dx, dy } => read(field, dx, dy),
        Instr::Unary { op, a } => fmt.apply_unary(op, value_of(a)),
        Instr::Binary { op, a, b } => fmt.apply_binary(op, value_of(a), value_of(b)),
        Instr::Select { c, t, e } => {
            if value_of(c) != 0 {
                value_of(t)
            } else {
                value_of(e)
            }
        }
    }
}

/// Evaluate a compiled cone program on raw words: one forward pass over the
/// slot-allocated bytecode. Returns the raw response word of every output,
/// in [`CompiledCone::outputs`] order.
pub fn eval_cone_raw<R>(cc: &CompiledCone, fmt: FixedFormat, read: R) -> Vec<i64>
where
    R: Fn(u16, i32, i32) -> i64,
{
    eval_cone_raw_traced(cc, fmt, read, None).0
}

/// [`eval_cone_raw`] with an optional [`Fault`] and a full per-instruction
/// trace: element `i` of the trace is the (post-fault) result word of
/// instruction `i`. Comparing a clean and a faulty trace yields the first
/// diverging instruction.
pub fn eval_cone_raw_traced<R>(
    cc: &CompiledCone,
    fmt: FixedFormat,
    read: R,
    fault: Option<Fault>,
) -> (Vec<i64>, Vec<i64>)
where
    R: Fn(u16, i32, i32) -> i64,
{
    let code = cc.code();
    let dst = cc.dst();
    let capture = cc.capture();
    let retire = cc.retire();
    let mut slots = vec![0i64; cc.slots().max(1)];
    let mut trace = Vec::with_capacity(code.len());
    let mut outs = vec![0i64; cc.outputs().len()];
    let mut next_retire = 0usize;
    for (i, instr) in code.iter().enumerate() {
        let mut v = exec(fmt, instr, |r| slots[r as usize], &read);
        if let Some(f) = fault {
            if f.instr == i {
                v = f.model.apply(v);
            }
        }
        slots[dst[i] as usize] = v;
        trace.push(v);
        // Outputs retire at their defining instruction (their slot may be
        // reused afterwards); capture the post-fault word as it streams by.
        while next_retire < retire.len() && capture[retire[next_retire] as usize] as usize == i {
            let oi = retire[next_retire] as usize;
            outs[oi] = slots[cc.outputs()[oi].reg as usize];
            next_retire += 1;
        }
    }
    debug_assert_eq!(next_retire, outs.len(), "every output must retire");
    (outs, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use isl_fpga::eval_fixed;
    use isl_ir::{BinaryOp, Cone, Expr, FieldKind, Offset, StencilPattern, UnaryOp, Window};

    fn heavy() -> StencilPattern {
        // sqrt + divide + select: every datapath unit in one kernel.
        let mut p = StencilPattern::new(1).with_name("heavy");
        let f = p.add_field("f", FieldKind::Dynamic);
        let gx = Expr::binary(
            BinaryOp::Sub,
            Expr::input(f, Offset::d1(1)),
            Expr::input(f, Offset::d1(-1)),
        );
        let den = Expr::binary(
            BinaryOp::Add,
            Expr::constant(1.0),
            Expr::unary(UnaryOp::Sqrt, Expr::binary(BinaryOp::Mul, gx.clone(), gx)),
        );
        let v = Expr::binary(BinaryOp::Div, Expr::input(f, Offset::ZERO), den);
        p.set_update(
            f,
            Expr::select(
                Expr::binary(BinaryOp::Gt, v.clone(), Expr::constant(0.25)),
                v,
                Expr::constant(0.25),
            ),
        )
        .unwrap();
        p
    }

    fn stimulus(f: u16, x: i32, y: i32) -> f64 {
        ((x * 5 + y * 11 + f as i32 * 3).rem_euclid(17)) as f64 / 4.0 - 2.0
    }

    #[test]
    fn cone_vm_matches_graph_interpreter_bitwise() {
        let p = heavy();
        let fmt = FixedFormat::default();
        for (w, d) in [(1u32, 1u32), (3, 2), (4, 3)] {
            let cone = Cone::build(&p, Window::line(w), d).unwrap();
            let cc = CompiledCone::compile_with(&cone, &[], false);
            let read_raw = |f: u16, x: i32, y: i32| fmt.quantize(stimulus(f, x, y));
            let got = eval_cone_raw(&cc, fmt, read_raw);
            let want = eval_fixed(
                &cone,
                fmt,
                |f, pt| stimulus(f.index() as u16, pt.x, pt.y),
                &[],
            );
            assert_eq!(got.len(), want.len());
            for (g, (_, pt, wv)) in got.iter().zip(&want) {
                assert_eq!(fmt.dequantize(*g), *wv, "w{w} d{d} at ({}, {})", pt.x, pt.y);
            }
        }
    }

    #[test]
    fn fault_flips_exactly_from_its_instruction() {
        let p = heavy();
        let fmt = FixedFormat::default();
        let cone = Cone::build(&p, Window::line(2), 2).unwrap();
        let cc = CompiledCone::compile_with(&cone, &[], false);
        let read_raw = |f: u16, x: i32, y: i32| fmt.quantize(stimulus(f, x, y));
        let (_, clean) = eval_cone_raw_traced(&cc, fmt, read_raw, None);
        let k = cc.len() / 2;
        let fault = Fault::bit_flip(k, 1);
        let (_, faulty) = eval_cone_raw_traced(&cc, fmt, read_raw, Some(fault));
        let first = clean
            .iter()
            .zip(&faulty)
            .position(|(a, b)| a != b)
            .expect("fault must perturb the trace");
        assert_eq!(first, k);
        assert_eq!(clean[k] ^ 1, faulty[k]);
    }

    #[test]
    fn fault_models_corrupt_as_specified() {
        let p = heavy();
        let fmt = FixedFormat::default();
        let cone = Cone::build(&p, Window::line(2), 2).unwrap();
        let cc = CompiledCone::compile_with(&cone, &[], false);
        let read_raw = |f: u16, x: i32, y: i32| fmt.quantize(stimulus(f, x, y));
        let (_, clean) = eval_cone_raw_traced(&cc, fmt, read_raw, None);
        let k = cc.len() / 3;
        let mask = 0b101;
        for (fault, expect) in [
            (Fault::bit_flip(k, mask), clean[k] ^ mask),
            (Fault::stuck_at_0(k, mask), clean[k] & !mask),
            (Fault::stuck_at_1(k, mask), clean[k] | mask),
        ] {
            let (_, faulty) = eval_cone_raw_traced(&cc, fmt, read_raw, Some(fault));
            assert_eq!(faulty[k], expect, "{}", fault.model);
        }
    }

    #[test]
    fn stuck_at_matching_bits_is_silent_at_the_faulted_instruction() {
        // A stuck-at that agrees with the clean value leaves the result word
        // untouched — the "silent fault" class a campaign must distinguish.
        let p = heavy();
        let fmt = FixedFormat::default();
        let cone = Cone::build(&p, Window::line(1), 1).unwrap();
        let cc = CompiledCone::compile_with(&cone, &[], false);
        let read_raw = |f: u16, x: i32, y: i32| fmt.quantize(stimulus(f, x, y));
        let (_, clean) = eval_cone_raw_traced(&cc, fmt, read_raw, None);
        let k = cc.len() - 1;
        let fault = if clean[k] & 1 == 1 {
            Fault::stuck_at_1(k, 1)
        } else {
            Fault::stuck_at_0(k, 1)
        };
        let (_, faulty) = eval_cone_raw_traced(&cc, fmt, read_raw, Some(fault));
        assert_eq!(clean, faulty);
    }
}
