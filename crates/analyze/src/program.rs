//! A decoded instruction representation, so the verifier and the abstract
//! interpreter work over `&[Decoded]`: a hashable structural key (an
//! [`Instr`] holds an `f64`) with uniform operand access.
//!
//! Two views exist: **SSA** programs, whose operands are instruction
//! indices (the compiler's pre-allocation form, and the form the cone
//! programs are reconstructed back into), and **slot** programs, whose
//! operands are linear-scan storage slots. [`reconstruct_ssa`] lifts a slot
//! program back to SSA while checking the allocator's contracts
//! (def-before-use, interference-freedom, slot-count tightness) — the
//! core of the bytecode verifier.

use isl_ir::{BinaryOp, UnaryOp};
use isl_sim::Instr;

use crate::verify::VerifyError;

/// The operation of one decoded instruction (operands live in
/// [`Decoded::args`]). A constant carries the f64 **bit pattern** (the CSE
/// key — `0.0`/`-0.0` and NaNs stay distinct).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum DecodedOp {
    /// An f64 constant, keyed by `to_bits()`.
    Const(u64),
    /// Read field `.0` at relative offset `(.1, .2)`.
    Input(u16, i32, i32),
    /// Unary operation on `args[0]`.
    Unary(UnaryOp),
    /// Binary operation on `args[0]`, `args[1]`.
    Binary(BinaryOp),
    /// `args[0] != 0 ? args[1] : args[2]`.
    Select,
}

/// One decoded instruction: operation plus up to three operands. Unused
/// operand lanes are zeroed, so `(op, args)` is a structural CSE key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Decoded {
    pub op: DecodedOp,
    pub args: [u32; 3],
    pub n: usize,
}

impl Decoded {
    fn new(op: DecodedOp, args: [u32; 3], n: usize) -> Self {
        Self { op, args, n }
    }

    /// The used operands.
    pub fn operands(&self) -> &[u32] {
        &self.args[..self.n]
    }
}

pub(crate) fn decode(i: &Instr) -> Decoded {
    match *i {
        Instr::Const(v) => Decoded::new(DecodedOp::Const(v.to_bits()), [0; 3], 0),
        Instr::Input { field, dx, dy } => {
            Decoded::new(DecodedOp::Input(field, dx, dy), [0; 3], 0)
        }
        Instr::Unary { op, a } => Decoded::new(DecodedOp::Unary(op), [a, 0, 0], 1),
        Instr::Binary { op, a, b } => Decoded::new(DecodedOp::Binary(op), [a, b, 0], 2),
        Instr::Select { c, t, e } => Decoded::new(DecodedOp::Select, [c, t, e], 3),
    }
}

/// Lift a slot program (operands are storage slots, `dst[i]` the slot
/// instruction `i` writes) back into SSA form (operands are instruction
/// indices), verifying the slot allocator's contracts along the way:
///
/// * `code.len() == dst.len()`, every slot index `< slots`;
/// * `dst[i]` never aliases an operand slot of `i` (the allocator's
///   documented read-before-write invariant);
/// * every operand slot was written before it is read (def-before-use);
/// * **interference-freedom**: when instruction `j` overwrites a slot, the
///   value previously held there has no use at or after `j` — reads always
///   observe the value their SSA operand named;
/// * **tightness**: exactly `slots` distinct slots are written (the
///   retiring linear scan never allocates an unused slot).
pub(crate) fn reconstruct_ssa(
    code: &[Decoded],
    dst: &[u32],
    slots: usize,
) -> Result<Vec<Decoded>, VerifyError> {
    if code.len() != dst.len() {
        return Err(VerifyError::new(
            None,
            format!("{} instructions but {} dst slots", code.len(), dst.len()),
        ));
    }
    let n = code.len();
    // owner[s] = SSA value currently stored in slot s.
    let mut owner: Vec<Option<usize>> = vec![None; slots];
    // last_use[v] = index of the last instruction reading SSA value v
    // (its own definition index when never read).
    let mut last_use: Vec<usize> = (0..n).collect();
    // (j, v): instruction j evicted SSA value v from its slot.
    let mut evictions: Vec<(usize, usize)> = Vec::new();
    let mut ssa = Vec::with_capacity(n);
    let mut slots_written = 0usize;

    for (i, d) in code.iter().enumerate() {
        let mut lifted = *d;
        for k in 0..d.n {
            let s = d.args[k] as usize;
            if s >= slots {
                return Err(VerifyError::new(
                    Some(i),
                    format!("operand slot {s} out of range (program claims {slots} slots)"),
                ));
            }
            if s == dst[i] as usize {
                return Err(VerifyError::new(
                    Some(i),
                    format!("destination slot {s} aliases an operand slot"),
                ));
            }
            let Some(v) = owner[s] else {
                return Err(VerifyError::new(
                    Some(i),
                    format!("slot {s} read before any write (def-before-use violation)"),
                ));
            };
            lifted.args[k] = v as u32;
            last_use[v] = i;
        }
        let ds = dst[i] as usize;
        if ds >= slots {
            return Err(VerifyError::new(
                Some(i),
                format!("destination slot {ds} out of range (program claims {slots} slots)"),
            ));
        }
        match owner[ds] {
            Some(prev) => evictions.push((i, prev)),
            None => slots_written += 1,
        }
        owner[ds] = Some(i);
        ssa.push(lifted);
    }

    // Interference check with the *final* liveness: an eviction at j of
    // value v is only legal once v is dead, i.e. last_use[v] < j.
    for (j, v) in evictions {
        if last_use[v] >= j {
            return Err(VerifyError::new(
                Some(j),
                format!(
                    "slot reuse clobbers live value: instruction {j} overwrites the slot \
                     holding value {v}, which is still read at instruction {}",
                    last_use[v]
                ),
            ));
        }
    }

    if slots_written != slots {
        return Err(VerifyError::new(
            None,
            format!("program claims {slots} slots but writes only {slots_written}"),
        ));
    }

    Ok(ssa)
}
