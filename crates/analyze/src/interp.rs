//! The abstract interpreter: one forward pass over a (possibly lifted)
//! SSA program, computing an [`AbstractValue`] per instruction for a given
//! [`FixedFormat`] and input assumption.
//!
//! # Soundness contract
//!
//! For any concrete execution of the analysed program under the same
//! format — via the `isl-cosim` VM (`eval_cone_raw`/`eval_cone_raw_traced`)
//! or the quantised lane engines of `isl-sim`, which run the same `Instr`
//! programs — whose every input read falls inside the declared input
//! interval, the word each instruction produces is contained in that
//! instruction's [`AbstractValue`] (interval **and** known bits). The
//! proof obligation per operation is discharged in [`crate::domain`]: each
//! transfer routes its endpoint arithmetic through
//! [`FixedFormat::saturate_wide`], the same clamp the datapath executes.
//!
//! An `Instr::Const(v)` is abstracted as the single word `fmt.quantize(v)`:
//! the VM and the lane engines both quantise a constant where they read it,
//! in the format of the run.

use isl_fpga::FixedFormat;

use isl_sim::{CompiledCone, CompiledKernel, Reg};

use crate::domain::{
    transfer_binary, transfer_select, transfer_unary, AbstractValue, WordRange,
};
use crate::program::{decode, reconstruct_ssa, Decoded, DecodedOp};
use crate::verify::VerifyError;

/// The result of abstractly interpreting one program: per-instruction
/// facts (indexed like the instruction stream) plus the saturation
/// verdict.
///
/// For the slot-allocated cone forms the facts are indexed by the
/// *scheduled* instruction order — the same order
/// `eval_cone_raw_traced` records its trace in, so `facts[i]` speaks
/// about `trace[i]`.
#[derive(Debug, Clone)]
pub struct Analysis {
    facts: Vec<AbstractValue>,
    first_overflow: Option<usize>,
}

impl Analysis {
    fn run(ssa: &[Decoded], fmt: FixedFormat, input: WordRange) -> Self {
        let mut facts: Vec<AbstractValue> = Vec::with_capacity(ssa.len());
        let mut first_overflow = None;
        for (i, d) in ssa.iter().enumerate() {
            let v = match d.op {
                DecodedOp::Const(bits) => {
                    AbstractValue::constant(fmt.quantize(f64::from_bits(bits)))
                }
                DecodedOp::Input(..) => AbstractValue::input(fmt, input),
                DecodedOp::Unary(op) => transfer_unary(fmt, op, &facts[d.args[0] as usize]),
                DecodedOp::Binary(op) => transfer_binary(
                    fmt,
                    op,
                    &facts[d.args[0] as usize],
                    &facts[d.args[1] as usize],
                ),
                DecodedOp::Select => transfer_select(
                    &facts[d.args[0] as usize],
                    &facts[d.args[1] as usize],
                    &facts[d.args[2] as usize],
                ),
            };
            if v.may_saturate && first_overflow.is_none() {
                first_overflow = Some(i);
            }
            facts.push(v);
        }
        Self {
            facts,
            first_overflow,
        }
    }

    /// Analyse a [`CompiledKernel`] (SSA `Instr` program) under `fmt`,
    /// every input read assumed inside `input`.
    pub fn of_kernel(k: &CompiledKernel, fmt: FixedFormat, input: WordRange) -> Self {
        let ssa: Vec<Decoded> = k.code().iter().map(decode).collect();
        Self::run(&ssa, fmt, input)
    }

    /// Analyse a [`CompiledCone`] (compiled with `fold == false`, the
    /// slot-allocated form the quantised engines, the co-simulation VM and
    /// the fault campaigns execute) under `fmt`. The slot
    /// program is first lifted back to SSA — which can fail (as
    /// [`VerifyError`]) only on bytecode the verifier would reject.
    pub fn of_cone(
        c: &CompiledCone,
        fmt: FixedFormat,
        input: WordRange,
    ) -> Result<Self, VerifyError> {
        let code: Vec<Decoded> = c.code().iter().map(decode).collect();
        let ssa = reconstruct_ssa(&code, c.dst(), c.slots())?;
        Ok(Self::run(&ssa, fmt, input))
    }

    /// The fact proven for instruction `i` (same indexing as the
    /// instruction stream / the fault-campaign trace).
    pub fn value(&self, i: usize) -> &AbstractValue {
        &self.facts[i]
    }

    /// Number of analysed instructions.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Is the analysis empty (zero-instruction program)?
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// The first instruction whose widened intermediate may leave the
    /// rails, when any. `None` is a **saturation-freedom certificate**:
    /// no instruction of this program can clamp under the declared input
    /// assumption.
    pub fn first_overflow(&self) -> Option<usize> {
        self.first_overflow
    }

    /// The proven interval of a result register of an SSA program (for
    /// kernels: `k.result()`).
    pub fn range_of(&self, reg: Reg) -> WordRange {
        self.facts[reg as usize].range
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isl_ir::{BinaryOp, Cone, Expr, FieldKind, Offset, StencilPattern, Window};
    use isl_sim::Instr;

    fn blur_pattern() -> StencilPattern {
        let mut p = StencilPattern::new(2);
        let f = p.add_field("f", FieldKind::Dynamic);
        let sum = Expr::sum([
            Expr::input(f, Offset::d2(0, -1)),
            Expr::input(f, Offset::d2(-1, 0)),
            Expr::input(f, Offset::d2(1, 0)),
            Expr::input(f, Offset::d2(0, 1)),
        ]);
        p.set_update(f, Expr::binary(BinaryOp::Mul, sum, Expr::constant(0.25)))
            .unwrap();
        p
    }

    #[test]
    fn blur_cone_is_saturation_free_on_small_inputs() {
        let p = blur_pattern();
        let cone = Cone::build(&p, Window::square(2), 1).unwrap();
        let cc = CompiledCone::compile_with(&cone, &[], false);
        let fmt = FixedFormat::new(18, 10);
        // Inputs in [-1, 1]: the 4-sum reaches 4.0, well inside Q8.10.
        let one = fmt.quantize(1.0);
        let a = Analysis::of_cone(&cc, fmt, WordRange::new(-one, one)).unwrap();
        assert_eq!(a.first_overflow(), None, "blur of |x|<=1 cannot clamp in Q8.10");
        // Full-rails inputs: the 4-sum may clamp somewhere.
        let full = Analysis::of_cone(&cc, fmt, WordRange::full(fmt)).unwrap();
        assert!(full.first_overflow().is_some());
    }

    #[test]
    fn kernel_facts_contain_concrete_evaluation() {
        let p = blur_pattern();
        let fmt = FixedFormat::new(16, 8);
        let kernels = isl_sim::CompiledPattern::compile(&p, &[], false);
        let k = kernels.kernel(0).unwrap();
        let a = Analysis::of_kernel(k, fmt, WordRange::new(fmt.quantize(-2.0), fmt.quantize(2.0)));
        // Concretely execute with every input at 1.5 and check containment.
        let w = fmt.quantize(1.5);
        let mut regs: Vec<i64> = Vec::new();
        for instr in k.code() {
            let v = match *instr {
                Instr::Const(c) => fmt.quantize(c),
                Instr::Input { .. } => w,
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
            regs.push(v);
        }
        for (i, &v) in regs.iter().enumerate() {
            assert!(a.value(i).contains(v), "instr {i}: {v} not in {:?}", a.value(i));
        }
    }
}
