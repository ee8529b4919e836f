//! Engine op-class telemetry: per-instruction-class element tallies for the
//! compiled f64 engines ([`crate::vm`]) and the quantised engines
//! ([`crate::qvm`]).
//!
//! Call sites sit at rect/chunk granularity, where the element count is
//! known exactly (every element of a rect or lane chunk executes the whole
//! program), so the histogram is an exact dynamic operation count at
//! amortised cost: one counter add per instruction per *rect*, not per
//! element. Every counter name is a `&'static str`, so the enabled path
//! allocates nothing; the disabled path never reaches here (call sites
//! branch on [`isl_telemetry::enabled`]).

use crate::compile::Instr;
use isl_ir::{BinaryOp, UnaryOp};

/// The counter of one instruction's op class, under the `engine.f64.` or
/// `engine.q.` prefix.
fn class(instr: &Instr, quantized: bool) -> &'static str {
    let (f64_class, q_class) = match *instr {
        Instr::Const(_) => ("engine.f64.const", "engine.q.const"),
        Instr::Input { .. } => ("engine.f64.input", "engine.q.input"),
        Instr::Select { .. } => ("engine.f64.select", "engine.q.select"),
        Instr::Unary { op, .. } => match op {
            UnaryOp::Neg => ("engine.f64.neg", "engine.q.neg"),
            UnaryOp::Abs => ("engine.f64.abs", "engine.q.abs"),
            UnaryOp::Sqrt => ("engine.f64.sqrt", "engine.q.sqrt"),
        },
        Instr::Binary { op, .. } => match op {
            BinaryOp::Add => ("engine.f64.add", "engine.q.add"),
            BinaryOp::Sub => ("engine.f64.sub", "engine.q.sub"),
            BinaryOp::Mul => ("engine.f64.mul", "engine.q.mul"),
            BinaryOp::Div => ("engine.f64.div", "engine.q.div"),
            BinaryOp::Min => ("engine.f64.min", "engine.q.min"),
            BinaryOp::Max => ("engine.f64.max", "engine.q.max"),
            BinaryOp::Lt => ("engine.f64.lt", "engine.q.lt"),
            BinaryOp::Le => ("engine.f64.le", "engine.q.le"),
            BinaryOp::Gt => ("engine.f64.gt", "engine.q.gt"),
            BinaryOp::Ge => ("engine.f64.ge", "engine.q.ge"),
        },
    };
    if quantized {
        q_class
    } else {
        f64_class
    }
}

fn tally(code: &[Instr], elems: u64, quantized: bool) {
    if elems == 0 {
        return;
    }
    for instr in code {
        isl_telemetry::add(class(instr, quantized), elems);
    }
}

/// Tally `elems` executions of every instruction of a program on an `f64`
/// engine.
pub(crate) fn tally_instrs(code: &[Instr], elems: u64) {
    tally(code, elems, false);
}

/// Tally `elems` executions of every instruction of a program on a
/// quantised engine.
pub(crate) fn tally_qinstrs(code: &[Instr], elems: u64) {
    tally(code, elems, true);
}
