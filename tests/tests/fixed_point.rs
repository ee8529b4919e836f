//! Fixed-point numerics: the VHDL data path (modeled bit-accurately by
//! `isl_fpga::eval_fixed`) must track the `f64` reference within the
//! tolerance the generated testbenches assert, for every built-in algorithm.

use isl_hls::algorithms::all;
use isl_hls::fpga::eval_fixed;
use isl_hls::ir::{FieldId, Point};
use isl_hls::prelude::*;

fn stimulus(f: FieldId, p: Point) -> f64 {
    let i = (p.x + 7 * p.y + 13 * f.index() as i32).rem_euclid(23);
    i as f64 / 16.0 // non-negative, well inside Q8.10 range
}

#[test]
fn fixed_point_tracks_f64_within_tb_tolerance() {
    let fmt = FixedFormat::default();
    for algo in all() {
        let session = IslSession::from_algorithm(&algo).unwrap();
        let depth = session.iterations().min(2);
        let cone = session.cone(Window::square(2), depth).unwrap();
        let params = algo.default_params();
        let fixed = eval_fixed(&cone, fmt, stimulus, &params);
        let float = cone.eval(stimulus, &params);
        for ((f1, p1, a), (f2, p2, b)) in fixed.iter().zip(float.iter()) {
            assert_eq!((f1, p1), (f2, p2));
            // The testbench tolerance is 16 LSBs; stay within it except for
            // steep nonlinearities (divide chains amplify one LSB of the
            // denominator), where we allow a small relative slack.
            let tol = 16.0 * fmt.resolution() + 0.01 * b.abs().max(1.0) * 0.5;
            assert!(
                (a - b).abs() <= tol,
                "{} at {p1}: fixed {a} vs f64 {b} (tol {tol})",
                algo.name
            );
        }
    }
}

#[test]
fn life_is_bit_exact_in_fixed_point() {
    // Integer-valued data and half-integer thresholds: quantisation must not
    // flip a single cell.
    let algo = isl_hls::algorithms::game_of_life();
    let session = IslSession::from_algorithm(&algo).unwrap();
    let cone = session.cone(Window::square(3), 2).unwrap();
    let board = |_f: FieldId, p: Point| f64::from((p.x * 3 + p.y * 5).rem_euclid(4) == 0);
    let fixed = eval_fixed(&cone, FixedFormat::default(), board, &[]);
    let float = cone.eval(board, &[]);
    for ((_, p, a), (_, _, b)) in fixed.iter().zip(float.iter()) {
        assert_eq!(a, b, "cell {p} differs");
    }
}

#[test]
fn narrower_formats_degrade_gracefully() {
    let session = IslSession::from_algorithm(&isl_hls::algorithms::gaussian_igf()).unwrap();
    let cone = session.cone(Window::square(3), 3).unwrap();
    let float = cone.eval(stimulus, &[]);
    let max_err = |fmt: FixedFormat| {
        eval_fixed(&cone, fmt, stimulus, &[])
            .iter()
            .zip(float.iter())
            .map(|((_, _, a), (_, _, b))| (a - b).abs())
            .fold(0.0f64, f64::max)
    };
    let q6 = max_err(FixedFormat::new(14, 6));
    let q10 = max_err(FixedFormat::default());
    let q16 = max_err(FixedFormat::new(26, 16));
    assert!(q16 <= q10 && q10 <= q6, "{q16} <= {q10} <= {q6} violated");
    assert!(q16 < 1e-3);
}
