//! Property tests for the compiled bytecode engine: `Simulator::step`/`run`
//! (and the quantised variant) must match the tree-walking golden reference
//! **bit for bit** — on random expressions over every operator, every border
//! mode, random frame shapes, and every built-in algorithm.

use isl_tests::arb::{arb_border, arb_pattern, assert_bitwise_eq, frames_for};
use isl_tests::prop::check;

use isl_hls::ir::{BinaryOp, Expr, FieldKind, Offset, StencilPattern};
use isl_hls::prelude::*;
use isl_hls::sim::synthetic;

/// The compiled engine equals `Expr::eval` bit-for-bit on random patterns,
/// frames and borders, across an explicit worker-pool thread matrix.
#[test]
fn compiled_step_matches_tree_walk_bitwise() {
    check("compiled_step_matches_tree_walk_bitwise", 96, |rng| {
        let pattern = arb_pattern(rng);
        let border = arb_border(rng);
        let (w, h) = (rng.usize_in(1, 24), rng.usize_in(1, 24));
        let iters = rng.u32_in(1, 3);
        let init = frames_for(&pattern, w, h, rng.u64());
        let reference = Simulator::new(&pattern)
            .expect("valid pattern")
            .with_border(border)
            .run_reference(&init, iters)
            .expect("reference runs");
        for threads in [1, 2, 4] {
            let sim = Simulator::new(&pattern)
                .expect("valid pattern")
                .with_border(border)
                .with_threads(threads);
            let compiled = sim.run(&init, iters).expect("compiled runs");
            assert_bitwise_eq(
                &compiled,
                &reference,
                &format!("{w}x{h} border {border} threads {threads}"),
            );
        }
    });
}

/// Every built-in algorithm, every border mode: compiled == reference,
/// bit for bit, over several iterations.
#[test]
fn builtin_algorithms_match_bitwise() {
    for algo in isl_hls::algorithms::all() {
        let (pattern, _) = algo.compile().expect("builtin compiles");
        for border in [
            BorderMode::Clamp,
            BorderMode::Mirror,
            BorderMode::Wrap,
            BorderMode::Constant(0.5),
        ] {
            let sim = Simulator::new(&pattern)
                .expect("valid pattern")
                .with_border(border);
            let init = frames_for(&pattern, 23, 17, 0xA1C0 ^ algo.name.len() as u64);
            let compiled = sim.run(&init, 4).expect("compiled runs");
            let reference = sim.run_reference(&init, 4).expect("reference runs");
            assert_bitwise_eq(
                &compiled,
                &reference,
                &format!("{} border {border}", algo.name),
            );
        }
    }
}

/// The quantised compiled engine (per-operation rounding) equals the
/// quantised tree walk bit for bit — for random patterns and the builtins.
#[test]
fn quantized_engine_matches_reference_bitwise() {
    check("quantized_engine_matches_reference_bitwise", 48, |rng| {
        let pattern = arb_pattern(rng);
        let border = arb_border(rng);
        let (w, h) = (rng.usize_in(1, 16), rng.usize_in(1, 16));
        let fmt = FixedFormat::new(rng.u32_in(10, 30), rng.u32_in(4, 9));
        let sim = Simulator::new(&pattern)
            .expect("valid pattern")
            .with_border(border);
        let init = frames_for(&pattern, w, h, rng.u64());
        let compiled = sim.run_quantized(&init, 2, fmt).expect("compiled runs");
        let reference = sim
            .run_quantized_reference(&init, 2, fmt)
            .expect("reference runs");
        assert_bitwise_eq(&compiled, &reference, &format!("{w}x{h} border {border}"));
    });
    for algo in isl_hls::algorithms::all() {
        let (pattern, _) = algo.compile().expect("builtin compiles");
        let sim = Simulator::new(&pattern).expect("valid pattern");
        let init = frames_for(&pattern, 13, 11, 99);
        let fmt = FixedFormat::default();
        let compiled = sim.run_quantized(&init, 3, fmt).expect("compiled runs");
        let reference = sim
            .run_quantized_reference(&init, 3, fmt)
            .expect("reference runs");
        assert_bitwise_eq(&compiled, &reference, algo.name);
    }
}

/// `run_until_converged` (now on the compiled engine) still reaches the same
/// fixed point and report as stepping the reference engine by hand.
#[test]
fn convergence_on_compiled_engine_matches_reference() {
    let mut p = StencilPattern::new(2).with_name("damped");
    let f = p.add_field("f", FieldKind::Dynamic);
    let avg = Expr::binary(
        BinaryOp::Mul,
        Expr::sum([
            Expr::input(f, Offset::d2(0, -1)),
            Expr::input(f, Offset::d2(-1, 0)),
            Expr::input(f, Offset::d2(1, 0)),
            Expr::input(f, Offset::d2(0, 1)),
        ]),
        Expr::constant(0.125),
    );
    let update = Expr::binary(
        BinaryOp::Add,
        Expr::binary(
            BinaryOp::Mul,
            Expr::input(f, Offset::ZERO),
            Expr::constant(0.5),
        ),
        avg,
    );
    p.set_update(f, update).unwrap();
    let sim = Simulator::new(&p).unwrap();
    let init = FrameSet::from_frames(vec![synthetic::noise(12, 9, 3)]).unwrap();
    let (fixed, report) = sim.run_until_converged(&init, 1e-8, 10_000).unwrap();
    assert!(report.converged);
    let by_hand = sim.run_reference(&init, report.iterations).unwrap();
    for (x, y) in fixed
        .frame(0)
        .as_slice()
        .iter()
        .zip(by_hand.frame(0).as_slice())
    {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}
