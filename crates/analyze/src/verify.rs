//! The **bytecode verifier**: structural soundness checks over every
//! program form the compiler emits, run as a debug assertion after each
//! compile (via [`crate::install_debug_verifier`]) and as a standing CI
//! gate over the fuzz corpus (`isl-fuzz analyze`).
//!
//! For **SSA programs** ([`Instr`] with instruction-index operands) the
//! verifier checks:
//!
//! * topological order — every operand names an earlier instruction;
//! * root validity — every root indexes into the program;
//! * **CSE congruence** — no two instructions are structurally identical
//!   (constants keyed by bit pattern: the compiler's value-numbering
//!   contract);
//! * **DCE soundness** — every instruction is reachable from some root
//!   (multi-root dead-code elimination left nothing dead, and removed
//!   nothing live, since operands resolve).
//!
//! For **slot programs** (the cone forms, post linear-scan allocation) the
//! verifier first lifts the program back to SSA while checking
//! def-before-use, destination/operand aliasing, interference-freedom of
//! slot reuse, and slot-count tightness (see
//! [`crate::program::reconstruct_ssa`]), then checks the capture/retire
//! plumbing (`outputs[k].reg == dst[capture[k]]`, retire a permutation in
//! non-decreasing capture order) and re-runs the SSA checks on the lifted
//! program with the capture points as roots.

use std::collections::HashSet;
use std::fmt;

use isl_sim::{CompiledCone, CompiledKernel, Instr, QuantizedStep, Reg};

use crate::program::{decode, reconstruct_ssa, Decoded};

/// A verifier finding: which instruction (when attributable) violated
/// which contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Offending instruction index, when the violation is per-instruction.
    pub instr: Option<usize>,
    /// Human-readable description of the violated contract.
    pub what: String,
}

impl VerifyError {
    pub(crate) fn new(instr: Option<usize>, what: String) -> Self {
        Self { instr, what }
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.instr {
            Some(i) => write!(f, "instruction {i}: {}", self.what),
            None => f.write_str(&self.what),
        }
    }
}

impl std::error::Error for VerifyError {}

/// SSA checks shared by every program form (see the module docs).
fn check_ssa(code: &[Decoded], roots: &[usize]) -> Result<(), VerifyError> {
    let n = code.len();
    for (i, d) in code.iter().enumerate() {
        for &a in d.operands() {
            if a as usize >= i {
                return Err(VerifyError::new(
                    Some(i),
                    format!("operand {a} does not precede its use (SSA order violation)"),
                ));
            }
        }
    }
    for &r in roots {
        if r >= n {
            return Err(VerifyError::new(
                None,
                format!("root {r} out of range (program has {n} instructions)"),
            ));
        }
    }
    // CSE congruence: structural value numbering must have interned every
    // (op, operands) pair exactly once.
    let mut seen: HashSet<Decoded> = HashSet::with_capacity(n);
    for (i, d) in code.iter().enumerate() {
        if !seen.insert(*d) {
            return Err(VerifyError::new(
                Some(i),
                format!("structural duplicate of an earlier instruction ({:?}) — CSE missed it", d.op),
            ));
        }
    }
    // DCE soundness: everything reachable from the roots (and nothing
    // else — unreachable instructions are dead code DCE failed to remove).
    let mut live = vec![false; n];
    let mut stack: Vec<usize> = roots.to_vec();
    while let Some(v) = stack.pop() {
        if std::mem::replace(&mut live[v], true) {
            continue;
        }
        stack.extend(code[v].operands().iter().map(|&a| a as usize));
    }
    if let Some(dead) = live.iter().position(|l| !l) {
        return Err(VerifyError::new(
            Some(dead),
            "unreachable from every root (dead code survived multi-root DCE)".into(),
        ));
    }
    Ok(())
}

/// Capture/retire checks for the cone forms, then the SSA checks on the
/// lifted program rooted at the capture points.
fn check_cone(
    code: &[Decoded],
    dst: &[Reg],
    slots: usize,
    output_regs: &[Reg],
    capture: &[Reg],
    retire: &[u32],
) -> Result<(), VerifyError> {
    let ssa = reconstruct_ssa(code, dst, slots)?;
    if output_regs.len() != capture.len() {
        return Err(VerifyError::new(
            None,
            format!("{} outputs but {} capture points", output_regs.len(), capture.len()),
        ));
    }
    for (k, (&reg, &cap)) in output_regs.iter().zip(capture).enumerate() {
        let cap = cap as usize;
        if cap >= code.len() {
            return Err(VerifyError::new(
                None,
                format!("output {k} captured at instruction {cap}, past the end"),
            ));
        }
        if dst[cap] != reg {
            return Err(VerifyError::new(
                Some(cap),
                format!(
                    "output {k} claims slot {reg} but its capture instruction writes slot {}",
                    dst[cap]
                ),
            ));
        }
    }
    // retire must be a permutation of the output indices, ordered by
    // non-decreasing capture point (the evaluator drains it in step).
    if retire.len() != output_regs.len() {
        return Err(VerifyError::new(
            None,
            format!("{} retire entries for {} outputs", retire.len(), output_regs.len()),
        ));
    }
    let mut seen = vec![false; output_regs.len()];
    for &r in retire {
        match seen.get_mut(r as usize) {
            Some(s) if !*s => *s = true,
            Some(_) => {
                return Err(VerifyError::new(
                    None,
                    format!("retire order names output {r} twice"),
                ))
            }
            None => {
                return Err(VerifyError::new(
                    None,
                    format!("retire order names unknown output {r}"),
                ))
            }
        }
    }
    for w in retire.windows(2) {
        if capture[w[0] as usize] > capture[w[1] as usize] {
            return Err(VerifyError::new(
                None,
                format!(
                    "retire order not sorted by capture point ({} before {})",
                    w[0], w[1]
                ),
            ));
        }
    }
    let roots: Vec<usize> = capture.iter().map(|&c| c as usize).collect();
    check_ssa(&ssa, &roots)
}

// -- public slice-level API (used by the negative tests and the fuzz gate) --

/// Verify an SSA program of [`Instr`] with the given roots.
pub fn verify_ssa(code: &[Instr], roots: &[Reg]) -> Result<(), VerifyError> {
    let d: Vec<Decoded> = code.iter().map(decode).collect();
    let roots: Vec<usize> = roots.iter().map(|&r| r as usize).collect();
    check_ssa(&d, &roots)
}

/// Verify a slot program of [`Instr`] (a cone form): `dst[i]` is the slot
/// instruction `i` writes, `output_regs[k]`/`capture[k]`/`retire` the
/// capture plumbing, `slots` the claimed storage bound.
pub fn verify_slot_program(
    code: &[Instr],
    dst: &[Reg],
    slots: usize,
    output_regs: &[Reg],
    capture: &[Reg],
    retire: &[u32],
) -> Result<(), VerifyError> {
    let d: Vec<Decoded> = code.iter().map(decode).collect();
    check_cone(&d, dst, slots, output_regs, capture, retire)
}

// -- typed wrappers over the compiled program forms ------------------------

/// Verify a [`CompiledKernel`] (SSA, single root).
pub fn verify_kernel(k: &CompiledKernel) -> Result<(), VerifyError> {
    verify_ssa(k.code(), &[k.result()])
}

/// Verify a [`QuantizedStep`] (SSA, one root per dynamic field).
pub fn verify_step(s: &QuantizedStep) -> Result<(), VerifyError> {
    let roots: Vec<Reg> = s.outputs().iter().map(|&(_, r)| r).collect();
    verify_ssa(s.code(), &roots)
}

/// Verify a [`CompiledCone`] (slot program + capture/retire plumbing).
pub fn verify_cone(c: &CompiledCone) -> Result<(), VerifyError> {
    let output_regs: Vec<Reg> = c.outputs().iter().map(|s| s.reg).collect();
    verify_slot_program(c.code(), c.dst(), c.slots(), &output_regs, c.capture(), c.retire())
}
