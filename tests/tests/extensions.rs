//! Extension coverage: 3D stencils in the IR, pattern composition as an
//! independent oracle for cone construction, and fixed-point convergence
//! (the "potentially unbounded" ISL variant of Section 2).

use isl_tests::prop::{check, Rng};

use isl_hls::ir::{
    BinaryOp, Cone, Expr, FieldId, FieldKind, Offset, Point, StencilPattern, Window,
};
use isl_hls::prelude::*;
use isl_hls::sim::synthetic;

// -- 3D stencils -------------------------------------------------------------

fn heat_3d() -> StencilPattern {
    let mut p = StencilPattern::new(3).with_name("heat3d");
    let f = p.add_field("f", FieldKind::Dynamic);
    let sum = Expr::sum([
        Expr::input(f, Offset::d3(-1, 0, 0)),
        Expr::input(f, Offset::d3(1, 0, 0)),
        Expr::input(f, Offset::d3(0, -1, 0)),
        Expr::input(f, Offset::d3(0, 1, 0)),
        Expr::input(f, Offset::d3(0, 0, -1)),
        Expr::input(f, Offset::d3(0, 0, 1)),
    ]);
    p.set_update(
        f,
        Expr::binary(BinaryOp::Mul, sum, Expr::constant(1.0 / 6.0)),
    )
    .unwrap();
    p
}

#[test]
fn three_dimensional_cones_build_and_evaluate() {
    let p = heat_3d();
    p.validate().unwrap();
    let cone = Cone::build(&p, Window::cube3(2, 2, 2), 2).unwrap();
    assert_eq!(cone.outputs().len(), 8);
    // The input extent grows on all three axes.
    let ext = cone.input_extent();
    assert_eq!(ext.lo, Point::d3(-2, -2, -2));
    assert_eq!(ext.hi, Point::d3(3, 3, 3));
    // A linear field is a fixed point of the 6-neighbour average.
    let out = cone.eval(|_, pt| (pt.x + pt.y + pt.z) as f64, &[]);
    for (_, pt, v) in out {
        assert!(
            (v - (pt.x + pt.y + pt.z) as f64).abs() < 1e-12,
            "at {pt}: {v}"
        );
    }
}

#[test]
fn three_dimensional_cones_synthesize() {
    let p = heat_3d();
    let device = Device::virtex6_xc6vlx760();
    let synth = Synthesizer::new(&device);
    let small = synth.synthesize(&p, Window::cube3(1, 1, 1), 1, 1).unwrap();
    let large = synth.synthesize(&p, Window::cube3(2, 2, 2), 2, 1).unwrap();
    assert!(large.luts > small.luts);
    assert!(large.registers > small.registers);
}

// -- composition as a cone oracle ---------------------------------------------

fn arb_simple_pattern(rng: &mut Rng) -> StencilPattern {
    let mut p = StencilPattern::new(2).with_name("randc");
    let f = p.add_field("f", FieldKind::Dynamic);
    let n = rng.usize_in(2, 4);
    let terms: Vec<Expr> = (0..n)
        .map(|_| {
            let (dx, dy) = (rng.i32_in(-1, 1), rng.i32_in(-1, 1));
            let w = rng.u32_in(1, 7);
            Expr::binary(
                BinaryOp::Mul,
                Expr::input(f, Offset::d2(dx, dy)),
                Expr::constant(f64::from(w) / 16.0),
            )
        })
        .collect();
    p.set_update(f, Expr::sum(terms)).expect("valid field");
    p
}

/// `Cone(p, w, m)` and `Cone(p^m, w, 1)` compute the same function —
/// two completely different code paths (level-wise memoised expansion
/// vs. algebraic substitution) must agree.
#[test]
fn composed_pattern_matches_deep_cone() {
    check("composed_pattern_matches_deep_cone", 32, |rng| {
        let pattern = arb_simple_pattern(rng);
        let m = rng.u32_in(1, 3);
        let seed = rng.u64() % 500;
        let composed = pattern.composed(m).expect("composable");
        let deep = Cone::build(&pattern, Window::square(2), m).expect("builds");
        let flat = Cone::build(&composed, Window::square(2), 1).expect("builds");
        let read = move |_f: FieldId, pt: Point| {
            let mut z = (seed ^ ((pt.x as u64) << 17) ^ ((pt.y as u64) << 33))
                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z ^= z >> 31;
            (z % 997) as f64 / 997.0
        };
        let a = deep.eval(read, &[]);
        let b = flat.eval(read, &[]);
        assert_eq!(a.len(), b.len());
        for ((fa, pa, va), (fb, pb, vb)) in a.iter().zip(b.iter()) {
            assert_eq!((fa, pa), (fb, pb));
            assert!((va - vb).abs() < 1e-9, "{} vs {}", va, vb);
        }
    });
}

/// Composed radius: r(p^m) <= m · r(p), with equality for patterns whose
/// extremal taps survive (weights here are strictly positive).
#[test]
fn composed_radius_bound() {
    check("composed_radius_bound", 32, |rng| {
        let pattern = arb_simple_pattern(rng);
        let m = rng.u32_in(1, 4);
        let composed = pattern.composed(m).expect("composable");
        assert!(composed.radius() <= m * pattern.radius());
    });
}

// -- fixed-point iteration ----------------------------------------------------

#[test]
fn convergence_detection_matches_direct_iteration() {
    // Damped Jacobi (f' = f/2 + avg/2) converges for every mode — plain
    // Jacobi's checkerboard mode oscillates forever under mirror borders,
    // which is itself worth knowing when picking fixed-point kernels.
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
        Expr::binary(BinaryOp::Mul, Expr::input(f, Offset::ZERO), Expr::constant(0.5)),
        avg,
    );
    p.set_update(f, update).unwrap();
    let session = IslSession::from_pattern(p, 100).with_border(BorderMode::Mirror);
    let sim = session.simulator().unwrap();
    let init = FrameSet::from_frames(vec![synthetic::noise(10, 10, 77)]).unwrap();
    let eps = 1e-8;
    let (fixed, report) = sim.run_until_converged(&init, eps, 10_000).unwrap();
    assert!(report.converged);
    let once_more = sim.run(&fixed, 1).unwrap();
    assert!(fixed.max_abs_diff(&once_more) < eps);
    // And the tiled executor lands on the same fixed point.
    let tiled = sim
        .run_tiled_reference(&init, report.iterations, Window::square(3), 2)
        .unwrap();
    assert!(tiled.max_abs_diff(&fixed) < 1e-9);
}

#[test]
fn workload_accessors() {
    let w = Workload::image(1024, 768, 10);
    assert_eq!(w.frame_elements(), 786_432);
    assert_eq!(w.bytes_per_element, 2);
}
