//! Uniform engine-harness hooks over the simulator's execution matrix.
//!
//! The simulator exposes twelve `run*` entry points: three decomposition
//! **semantics** (whole-frame, tiled cone architecture, cone-DAG level
//! schedule) × two **engines** (tree-walking reference, compiled bytecode)
//! × two **domains** (`f64`, quantised fixed point). Callers that sweep the
//! matrix — the differential fuzzer above all — need one dispatch point
//! instead of twelve method names; this module is that point.
//!
//! [`run_f64`] and [`run_quantized`] take a [`RunSpec`] naming the
//! decomposition and an [`Engine`] naming the evaluator, and forward to
//! the corresponding `Simulator` method. The bitwise contracts between the
//! cells (compiled == reference within every semantics; tiled == whole for
//! local borders) are the repo's standing equivalence properties — the
//! harness adds no semantics of its own.

use isl_fpga::FixedFormat;
use isl_ir::Window;

use crate::error::SimError;
use crate::frame::FrameSet;
use crate::sim::Simulator;

/// Which decomposition of the iteration space a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Semantics {
    /// Whole-frame stepping, one iteration at a time.
    Whole,
    /// The paper's tiled cone architecture: levels of depth-`d` cones,
    /// window by window, borders resolved at each level's base.
    Tiled,
    /// The cone-DAG schedule: the same levels executed through compiled
    /// whole-cone programs (interior-exact; borders differ from `Tiled`).
    ConeDag,
}

impl Semantics {
    /// All decomposition semantics, in sweep order.
    pub const ALL: [Semantics; 3] = [Semantics::Whole, Semantics::Tiled, Semantics::ConeDag];

    /// Short stable name (`whole` / `tiled` / `cone-dag`).
    pub fn name(self) -> &'static str {
        match self {
            Semantics::Whole => "whole",
            Semantics::Tiled => "tiled",
            Semantics::ConeDag => "cone-dag",
        }
    }
}

/// Which evaluator executes a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The tree-walking golden interpreter.
    Reference,
    /// The compiled bytecode / lane engines.
    Compiled,
}

impl Engine {
    /// Both engines, reference first.
    pub const ALL: [Engine; 2] = [Engine::Reference, Engine::Compiled];

    /// Short stable name (`reference` / `compiled`).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Reference => "reference",
            Engine::Compiled => "compiled",
        }
    }
}

/// One run of the execution matrix: a decomposition plus its parameters.
/// `window` and `depth` are ignored by [`Semantics::Whole`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// Decomposition semantics.
    pub semantics: Semantics,
    /// Iteration count.
    pub iterations: u32,
    /// Cone window (tiled / cone-DAG only).
    pub window: Window,
    /// Cone depth (tiled / cone-DAG only).
    pub depth: u32,
}

/// Execute `spec` on `engine` in the `f64` domain.
///
/// # Errors
///
/// Whatever the dispatched `Simulator` method reports.
pub fn run_f64(
    sim: &Simulator<'_>,
    spec: RunSpec,
    engine: Engine,
    init: &FrameSet,
) -> Result<FrameSet, SimError> {
    let RunSpec { iterations: n, window: w, depth: d, .. } = spec;
    match (spec.semantics, engine) {
        (Semantics::Whole, Engine::Reference) => sim.run_reference(init, n),
        (Semantics::Whole, Engine::Compiled) => sim.run(init, n),
        (Semantics::Tiled, Engine::Reference) => sim.run_tiled_reference(init, n, w, d),
        (Semantics::Tiled, Engine::Compiled) => sim.run_tiled(init, n, w, d),
        (Semantics::ConeDag, Engine::Reference) => sim.run_cone_dag_reference(init, n, w, d),
        (Semantics::ConeDag, Engine::Compiled) => sim.run_cone_dag(init, n, w, d),
    }
}

/// Execute `spec` on `engine` in the quantised fixed-point domain.
///
/// # Errors
///
/// Whatever the dispatched `Simulator` method reports.
pub fn run_quantized(
    sim: &Simulator<'_>,
    spec: RunSpec,
    engine: Engine,
    init: &FrameSet,
    fmt: FixedFormat,
) -> Result<FrameSet, SimError> {
    let RunSpec { iterations: n, window: w, depth: d, .. } = spec;
    match (spec.semantics, engine) {
        (Semantics::Whole, Engine::Reference) => sim.run_quantized_reference(init, n, fmt),
        (Semantics::Whole, Engine::Compiled) => sim.run_quantized(init, n, fmt),
        (Semantics::Tiled, Engine::Reference) => {
            sim.run_tiled_quantized_reference(init, n, w, d, fmt)
        }
        (Semantics::Tiled, Engine::Compiled) => sim.run_tiled_quantized(init, n, w, d, fmt),
        (Semantics::ConeDag, Engine::Reference) => {
            sim.run_cone_dag_quantized_reference(init, n, w, d, fmt)
        }
        (Semantics::ConeDag, Engine::Compiled) => sim.run_cone_dag_quantized(init, n, w, d, fmt),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use isl_ir::{BinaryOp, Expr, FieldKind, Offset, StencilPattern};

    fn cross() -> StencilPattern {
        let mut p = StencilPattern::new(2).with_name("cross");
        let f = p.add_field("f", FieldKind::Dynamic);
        let sum = Expr::sum([
            Expr::input(f, Offset::d2(0, 0)),
            Expr::input(f, Offset::d2(0, -1)),
            Expr::input(f, Offset::d2(1, 0)),
        ]);
        p.set_update(f, Expr::binary(BinaryOp::Div, sum, Expr::constant(4.0)))
            .unwrap();
        p
    }

    #[test]
    fn dispatch_matches_direct_calls_bitwise() {
        let p = cross();
        let sim = Simulator::new(&p).unwrap();
        let init = FrameSet::from_frames(vec![Frame::from_fn(9, 7, |x, y| {
            (x as f64).mul_add(0.25, y as f64 * -0.5)
        })])
        .unwrap();
        let spec = RunSpec {
            semantics: Semantics::Tiled,
            iterations: 3,
            window: Window::square(4),
            depth: 2,
        };
        let via_harness = run_f64(&sim, spec, Engine::Compiled, &init).unwrap();
        let direct = sim.run_tiled(&init, 3, Window::square(4), 2).unwrap();
        for (a, b) in via_harness.frames().iter().zip(direct.frames()) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        let q = FixedFormat::new(16, 8);
        let qa = run_quantized(&sim, spec, Engine::Reference, &init, q).unwrap();
        let qb = sim
            .run_tiled_quantized_reference(&init, 3, Window::square(4), 2, q)
            .unwrap();
        for (a, b) in qa.frames().iter().zip(qb.frames()) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }
}
