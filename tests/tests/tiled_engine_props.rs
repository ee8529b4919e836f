//! Property tests for the cone-architecture paths.
//!
//! The tiled tree walk `Simulator::run_tiled_reference` — the oracle for the
//! paper's claim that applying cones window by window changes nothing —
//! must equal the golden whole-frame run **bit for bit** on random patterns
//! over every operator, every *local* border mode, random window shapes and
//! depths (including non-divisor remainders). `run_cone_dag` (lowered cone
//! bytecode) must match `run_cone_dag_reference` exactly for an explicit
//! worker-pool thread matrix `{1, 2, 4}`, and stay golden-equal on the
//! frame interior.

use isl_tests::arb::{
    arb_border, arb_local_border, arb_pattern, arb_window, assert_bitwise_eq, frames_for,
};
use isl_tests::prop::check;

use isl_hls::prelude::*;

const THREAD_MATRIX: [usize; 3] = [1, 2, 4];

/// Tiled execution stays bit-identical to the *golden whole-frame* run
/// (the architecture claim of the paper) for local borders.
#[test]
fn tiled_matches_golden_bitwise() {
    check("tiled_matches_golden_bitwise", 32, |rng| {
        let pattern = arb_pattern(rng);
        let border = arb_local_border(rng);
        let (w, h) = (rng.usize_in(1, 20), rng.usize_in(1, 20));
        let window = arb_window(rng);
        let depth = rng.u32_in(1, 3);
        let iters = rng.u32_in(1, 5);
        let init = frames_for(&pattern, w, h, rng.u64());
        let sim = Simulator::new(&pattern)
            .expect("valid pattern")
            .with_border(border);
        let golden = sim.run(&init, iters).expect("golden runs");
        let tiled = sim
            .run_tiled_reference(&init, iters, window, depth)
            .expect("tiled runs");
        assert_bitwise_eq(
            &tiled,
            &golden,
            &format!("{w}x{h} border {border} window {window} depth {depth} iters {iters}"),
        );
    });
}

/// The compiled cone-DAG engine equals the graph-walking cone reference
/// bit-for-bit — any border (cones resolve borders at the base only),
/// any window/depth, every thread count of the matrix.
#[test]
fn compiled_cone_dag_matches_reference_bitwise() {
    check("compiled_cone_dag_matches_reference_bitwise", 40, |rng| {
        let pattern = arb_pattern(rng);
        let border = arb_border(rng);
        let (w, h) = (rng.usize_in(1, 20), rng.usize_in(1, 20));
        let window = arb_window(rng);
        let depth = rng.u32_in(1, 3);
        let iters = rng.u32_in(1, 5);
        let init = frames_for(&pattern, w, h, rng.u64());
        let reference = Simulator::new(&pattern)
            .expect("valid pattern")
            .with_border(border)
            .run_cone_dag_reference(&init, iters, window, depth)
            .expect("reference runs");
        for threads in THREAD_MATRIX {
            let sim = Simulator::new(&pattern)
                .expect("valid pattern")
                .with_border(border)
                .with_threads(threads);
            let dag = sim
                .run_cone_dag(&init, iters, window, depth)
                .expect("compiled cone dag runs");
            assert_bitwise_eq(
                &dag,
                &reference,
                &format!(
                    "{w}x{h} border {border} window {window} depth {depth} iters {iters} threads {threads}"
                ),
            );
        }
    });
}

/// Every built-in algorithm through the tiled oracle equals the golden
/// whole-frame run, bit for bit, on all local borders and the thread
/// matrix of the golden engine.
#[test]
fn builtin_algorithms_tiled_bitwise() {
    for algo in isl_hls::algorithms::all() {
        let (pattern, _) = algo.compile().expect("builtin compiles");
        for border in [
            BorderMode::Clamp,
            BorderMode::Mirror,
            BorderMode::Constant(0.5),
        ] {
            let init = frames_for(&pattern, 21, 17, 0xC0DE ^ algo.name.len() as u64);
            let tiled = Simulator::new(&pattern)
                .expect("valid pattern")
                .with_border(border)
                .run_tiled_reference(&init, 5, Window::square(4), 2)
                .expect("tiled runs");
            for threads in THREAD_MATRIX {
                let golden = Simulator::new(&pattern)
                    .expect("valid pattern")
                    .with_border(border)
                    .with_threads(threads)
                    .run(&init, 5)
                    .expect("golden runs");
                assert_bitwise_eq(
                    &tiled,
                    &golden,
                    &format!("{} border {border} threads {threads}", algo.name),
                );
            }
        }
    }
}

/// `run_cone_dag` still matches the golden run on the frame interior
/// (distance ≥ radius × iterations from every edge) for the builtins —
/// the streaming-hardware contract.
#[test]
fn cone_dag_matches_golden_in_interior() {
    for algo in isl_hls::algorithms::all() {
        let (pattern, _) = algo.compile().expect("builtin compiles");
        let sim = Simulator::new(&pattern).expect("valid pattern");
        let (w, h, iters) = (28usize, 24usize, 3u32);
        let margin = (pattern.radius() * iters) as usize;
        if margin * 2 >= w.min(h) {
            continue; // no interior to compare at this radius
        }
        let init = frames_for(&pattern, w, h, 0xD46 ^ algo.name.len() as u64);
        let golden = sim.run(&init, iters).expect("golden runs");
        let dag = sim
            .run_cone_dag(&init, iters, Window::square(5), 2)
            .expect("cone dag runs");
        for fi in 0..init.len() {
            for y in margin..h - margin {
                for x in margin..w - margin {
                    let a = golden.frame(fi).get(x, y);
                    let b = dag.frame(fi).get(x, y);
                    assert!(
                        (a - b).abs() < 1e-9 || (a.is_nan() && b.is_nan()),
                        "{}: field {fi} ({x},{y}): {a} vs {b}",
                        algo.name
                    );
                }
            }
        }
    }
}
