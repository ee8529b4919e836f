//! # isl-analyze — abstract-interpretation static analyzer for the compiled datapath
//!
//! The flow's fixed-point correctness story is otherwise *dynamic*: format
//! search measures value ranges from sample frames, and fault campaigns
//! discover masked/silent instructions by exhaustive injection. This crate
//! adds the static side — an abstract interpreter over the existing
//! bytecode ([`isl_sim::Instr`], SSA kernels and slot-allocated cones
//! alike) with two cooperating domains:
//!
//! * **intervals in the raw word domain** ([`WordRange`]) — endpoint
//!   arithmetic widened to `i128` and funnelled through
//!   [`isl_fpga::FixedFormat::saturate_wide`], the *same* clamp the
//!   datapath executes, so the abstraction mirrors
//!   `apply_unary`/`apply_binary` exactly rather than approximating them;
//! * **known bits** ([`KnownBits`]) — two's-complement bit facts
//!   (constants, comparison results, common high-prefixes of tight
//!   intervals), the domain that decides fault silence for stuck-at masks.
//!
//! Three analyses ride on the interpreter:
//!
//! 1. **Range & saturation certificates** ([`Analysis`]) — per-instruction
//!    bounds for a given format, either proving saturation-freedom
//!    ([`Analysis::first_overflow`]` == None`) or pinpointing the first
//!    statically-overflowing instruction: a saturation certificate over
//!    *every* input in a word range, not a sampled observation.
//! 2. **Bytecode verification** ([`verify_cone`] and friends) — def-before-use
//!    over allocated slots, interference-freedom of the linear-scan slot
//!    reuse, multi-root DCE soundness and CSE congruence, run as a debug
//!    assertion after every compile (see [`install_debug_verifier`]) and as
//!    a CI gate over the fuzz corpus (`isl-fuzz analyze`).
//! 3. **Fault-silence prediction** ([`AbstractValue::always_zero`] /
//!    [`AbstractValue::always_one`]) — a `StuckAt0 { mask }` fault on an
//!    instruction whose mask bits are *known zero* (resp. known one for
//!    `StuckAt1`) provably cannot change any produced word; the campaign
//!    classifies such injections silent without replaying them, and the
//!    property suite cross-validates predicted-silent ⊆ measured
//!    masked-or-silent.
//!
//! ## Soundness contract
//!
//! The concretisation of an [`AbstractValue`] is the set of raw `i64`
//! words inside its interval whose bits agree with its known-bits fact.
//! Every transfer function over-approximates the corresponding concrete
//! operation of [`isl_fpga::FixedFormat`] — see [`domain`](self) for the
//! per-operation argument (monotone endpoint mapping for add/sub/neg/
//! sqrt/shift-truncation, corner enumeration for the bilinear multiply
//! and the sign-split division, branch refinement or join for select).
//! Inputs are assumed in-format (they are produced by `quantize` or by
//! the datapath itself), and `Instr::Const(v)` abstracts to
//! `fmt.quantize(v)` — exactly what the co-simulation VM and the quantised
//! lane engines compute, since both run the same fold-free program and
//! quantise a constant where they read it.
//!
//! The verifier and interpreter never execute the program; both are one
//! `O(n)`/`O(n log n)` forward pass, cheap enough to run after every
//! compile in debug builds and over the whole fuzz corpus in CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod domain;
mod interp;
mod program;
mod verify;

pub use domain::{AbstractValue, KnownBits, WordRange};
pub use interp::Analysis;
pub use verify::{
    verify_cone, verify_kernel, verify_slot_program, verify_ssa, verify_step, VerifyError,
};

use isl_sim::compile::ProgramView;

/// The hook handed to [`isl_sim::compile::set_compile_verifier`]: route
/// every freshly compiled program form through the matching verifier.
fn verify_view(view: ProgramView<'_>) -> Result<(), String> {
    let r = match view {
        ProgramView::Kernel(k) => verify_kernel(k),
        ProgramView::Step(s) => verify_step(s),
        ProgramView::Cone(c) => verify_cone(c),
    };
    r.map_err(|e| e.to_string())
}

/// Install the bytecode verifier as the compiler's debug-assertion hook:
/// in debug builds every subsequent compile (kernels, steps, cones,
/// folded or not) is verified and panics on a finding. Idempotent and
/// cheap to call from every entry point (`IslSession::from_pattern`,
/// `CoSimulator::new`, the `isl-fuzz` binary); release builds keep the
/// hook installed but never invoke it.
pub fn install_debug_verifier() {
    isl_sim::compile::set_compile_verifier(verify_view);
}
