//! Property tests: the architecture-template equivalence (Section 3.1's
//! central claim) holds for *randomly generated* stencils, windows, depths
//! and borders — not just the hand-picked algorithms.

use isl_tests::prop::{check, Rng};

use isl_hls::ir::{BinaryOp, Expr, FieldId, FieldKind, Offset, StencilPattern};
use isl_hls::prelude::*;
use isl_hls::sim::synthetic;

/// A random "safe" stencil expression: affine combinations plus min/max over
/// a 3x3 neighbourhood, so iteration stays numerically bounded.
fn arb_update(field: FieldId, rng: &mut Rng) -> Expr {
    let tap = |rng: &mut Rng| {
        let dx = rng.i32_in(-1, 1);
        let dy = rng.i32_in(-1, 1);
        let w = (rng.f64_in(0.05, 0.3) * 16.0).round() / 16.0;
        Expr::binary(
            BinaryOp::Mul,
            Expr::input(field, Offset::d2(dx, dy)),
            Expr::constant(w),
        )
    };
    match rng.weighted(&[3, 1, 1]) {
        0 => {
            // Linear combination of 2..6 weighted taps.
            let n = rng.usize_in(2, 5);
            Expr::sum((0..n).map(|_| tap(rng)).collect::<Vec<_>>())
        }
        1 => {
            // min/max over two taps.
            let (ax, ay) = (rng.i32_in(-1, 1), rng.i32_in(-1, 1));
            let (bx, by) = (rng.i32_in(-1, 1), rng.i32_in(-1, 1));
            Expr::binary(
                if rng.bool() { BinaryOp::Min } else { BinaryOp::Max },
                Expr::input(field, Offset::d2(ax, ay)),
                Expr::input(field, Offset::d2(bx, by)),
            )
        }
        _ => {
            // Mean of 2..4 unweighted taps.
            let n = rng.usize_in(2, 4);
            let taps: Vec<Expr> = (0..n)
                .map(|_| {
                    Expr::input(field, Offset::d2(rng.i32_in(-1, 1), rng.i32_in(-1, 1)))
                })
                .collect();
            Expr::binary(BinaryOp::Div, Expr::sum(taps), Expr::constant(n as f64))
        }
    }
}

fn arb_pattern(rng: &mut Rng) -> StencilPattern {
    if rng.bool() {
        // Two coupled dynamic fields: a reads b's update and vice versa.
        let mut p = StencilPattern::new(2).with_name("rand2");
        let a = p.add_field("a", FieldKind::Dynamic);
        let b = p.add_field("b", FieldKind::Dynamic);
        let ua = arb_update(a, rng);
        let ub = arb_update(b, rng);
        p.set_update(a, ub).expect("valid field");
        p.set_update(b, ua).expect("valid field");
        p
    } else {
        let mut p = StencilPattern::new(2).with_name("rand1");
        let f = p.add_field("f", FieldKind::Dynamic);
        let u = arb_update(f, rng);
        p.set_update(f, u).expect("valid field");
        p
    }
}

fn arb_border(rng: &mut Rng) -> BorderMode {
    match rng.weighted(&[1, 1, 1]) {
        0 => BorderMode::Clamp,
        1 => BorderMode::Mirror,
        _ => BorderMode::Constant(rng.f64_in(0.0, 1.0)),
    }
}

/// Window-by-window cone execution is bit-identical to the golden
/// whole-frame iteration for random stencils and tilings.
#[test]
fn tiled_equals_golden() {
    check("tiled_equals_golden", 48, |rng| {
        let pattern = arb_pattern(rng);
        let border = arb_border(rng);
        let seed = rng.u64() % 1000;
        let iters = rng.u32_in(1, 5);
        let depth = rng.u32_in(1, 3);
        let (tw, th) = (rng.u32_in(1, 5), rng.u32_in(1, 5));
        let (w, h) = (rng.usize_in(7, 19), rng.usize_in(7, 19));

        let sim = Simulator::new(&pattern).expect("valid pattern").with_border(border);
        let frames: Vec<Frame> = pattern
            .fields()
            .iter()
            .enumerate()
            .map(|(i, _)| synthetic::noise(w, h, seed + i as u64))
            .collect();
        let init = FrameSet::from_frames(frames).expect("congruent");
        let golden = sim.run(&init, iters).expect("golden runs");
        let tiled = sim
            .run_tiled_reference(&init, iters, Window::rect(tw, th), depth)
            .expect("tiled runs");
        assert!(
            golden.max_abs_diff(&tiled) < 1e-9,
            "diff {}",
            golden.max_abs_diff(&tiled)
        );
    });
}

/// The hash-consed cone DAG (what the VHDL implements) computes the same
/// values as the golden run on the frame interior.
#[test]
fn cone_dag_interior_equals_golden() {
    check("cone_dag_interior_equals_golden", 48, |rng| {
        let pattern = arb_pattern(rng);
        let seed = rng.u64() % 1000;
        let iters = rng.u32_in(1, 3);
        let depth = rng.u32_in(1, 3);

        let (w, h) = (20usize, 20usize);
        let sim = Simulator::new(&pattern).expect("valid pattern");
        let frames: Vec<Frame> = pattern
            .fields()
            .iter()
            .enumerate()
            .map(|(i, _)| synthetic::noise(w, h, seed + 77 * i as u64))
            .collect();
        let init = FrameSet::from_frames(frames).expect("congruent");
        let golden = sim.run(&init, iters).expect("golden runs");
        let dag = sim
            .run_cone_dag(&init, iters, Window::square(3), depth)
            .expect("dag runs");
        let margin = (iters * pattern.radius()) as usize;
        for fi in 0..init.len() {
            for y in margin..h - margin {
                for x in margin..w - margin {
                    let a = golden.frame(fi).get(x, y);
                    let b = dag.frame(fi).get(x, y);
                    assert!((a - b).abs() < 1e-9, "({x},{y}) field {fi}: {a} vs {b}");
                }
            }
        }
    });
}

/// Register reuse never changes semantics: evaluating the interned cone
/// graph equals evaluating the raw (unsimplified) one.
#[test]
fn simplification_preserves_cone_semantics() {
    check("simplification_preserves_cone_semantics", 48, |rng| {
        let pattern = arb_pattern(rng);
        let seed = rng.u64() % 1000;
        let depth = rng.u32_in(1, 3);

        let window = Window::square(2);
        let simplified = Cone::build(&pattern, window, depth).expect("builds");
        let raw = isl_hls::ir::Cone::build_with(&pattern, window, depth, false).expect("builds");
        let read = |_f: isl_hls::ir::FieldId, p: isl_hls::ir::Point| {
            let mut z = (seed ^ ((p.x as u64) << 20) ^ ((p.y as u64) << 40))
                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z ^= z >> 29;
            (z % 1000) as f64 / 1000.0
        };
        let a = simplified.eval(read, &[]);
        let b = raw.eval(read, &[]);
        assert_eq!(a.len(), b.len());
        for ((fa, pa, va), (fb, pb, vb)) in a.iter().zip(b.iter()) {
            assert_eq!(fa, fb);
            assert_eq!(pa, pb);
            assert!((va - vb).abs() < 1e-9, "{va} vs {vb}");
        }
        // And reuse does not inflate the design.
        assert!(simplified.registers() <= raw.registers());
    });
}
