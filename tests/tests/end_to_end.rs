//! End-to-end integration: every built-in algorithm through every phase of
//! the flow — C source → pattern → cones → VHDL → estimation → exploration
//! → functional equivalence.

use isl_hls::algorithms::{all, Algorithm};
use isl_hls::prelude::*;
use isl_hls::sim::synthetic;
use isl_hls::vhdl::check;

fn initial_frames(algo: &Algorithm, pattern: &StencilPattern, w: usize, h: usize) -> FrameSet {
    let frames: Vec<Frame> = pattern
        .fields()
        .iter()
        .enumerate()
        .map(|(i, decl)| match decl.kind {
            isl_hls::ir::FieldKind::Dynamic if algo.name == "life" => {
                Frame::from_fn(w, h, |x, y| f64::from((x * 7 + y * 3) % 5 == 0))
            }
            isl_hls::ir::FieldKind::Dynamic => synthetic::noise(w, h, 11 + i as u64),
            isl_hls::ir::FieldKind::Static => synthetic::gaussian_spots(w, h, 50 + i as u64, 2),
        })
        .collect();
    FrameSet::from_frames(frames).expect("congruent frames")
}

#[test]
fn every_algorithm_runs_the_whole_flow() {
    let device = Device::virtex6_xc6vlx760();
    for algo in all() {
        let session =
            IslSession::from_algorithm(&algo).unwrap_or_else(|e| panic!("{}: {e}", algo.name));

        // Cones build and expose sane geometry.
        let depth = session.iterations().min(2);
        let cone = session.cone(Window::square(3), depth).unwrap();
        assert!(!cone.inputs().is_empty(), "{}", algo.name);
        assert_eq!(
            cone.outputs().len(),
            9 * session.pattern().dynamic_fields().len(),
            "{}",
            algo.name
        );

        // VHDL generates and passes the structural checker.
        let bundle = session
            .synthesize(Window::square(3), depth)
            .unwrap()
            .into_bundle();
        check::validate(&bundle.entity).unwrap_or_else(|e| panic!("{}: {e}", algo.name));
        check::validate_package(&bundle.package).unwrap();

        // A small exploration finds feasible points.
        let space = DesignSpace::new(1..=3, 1..=depth.max(1), 2);
        let result = session
            .explore(&device, session.workload(96, 96), &space)
            .unwrap_or_else(|e| panic!("{}: {e}", algo.name));
        assert!(!result.pareto().is_empty(), "{}", algo.name);
    }
}

#[test]
fn tiled_execution_is_exact_for_every_algorithm() {
    for algo in all() {
        let session = IslSession::from_algorithm(&algo).unwrap();
        let sim = session.simulator().unwrap();
        let init = initial_frames(&algo, session.pattern(), 21, 17);
        let iters = session.iterations().min(6);
        let golden = sim.run(&init, iters).unwrap();
        for (window, depth) in [(Window::square(4), 2), (Window::square(5), 3)] {
            let depth = depth.min(iters.max(1));
            let tiled = sim.run_tiled(&init, iters, window, depth).unwrap();
            let diff = golden.max_abs_diff(&tiled);
            assert!(
                diff < 1e-9,
                "{}: tiled != golden (window {window}, depth {depth}, diff {diff})",
                algo.name
            );
        }
    }
}

#[test]
fn native_references_agree_with_extracted_patterns() {
    for algo in all() {
        let Some(native) = algo.native_step else {
            continue;
        };
        let session = IslSession::from_algorithm(&algo).unwrap();
        let sim = session.simulator().unwrap();
        let init = initial_frames(&algo, session.pattern(), 15, 12);
        let params = algo.default_params();
        let iters = session.iterations().min(4);
        let mut expect = init.clone();
        for _ in 0..iters {
            expect = native(&expect, session.border(), &params);
        }
        let got = sim.run(&init, iters).unwrap();
        assert!(
            got.max_abs_diff(&expect) < 1e-9,
            "{}: symexec pattern disagrees with the hand-written reference",
            algo.name
        );
    }
}

#[test]
fn exploration_estimates_match_synthesis_for_pareto_points() {
    // The flow's core promise: the Pareto set chosen on Eq. 1 estimates is
    // trustworthy against "real" synthesis.
    let device = Device::virtex6_xc6vlx760();
    let algo = isl_hls::algorithms::gaussian_igf();
    let session = IslSession::from_algorithm(&algo).unwrap();
    let space = DesignSpace::new(1..=6, 1..=3, 4);
    let result = session
        .explore(&device, session.workload(256, 192), &space)
        .unwrap();
    let synth = Synthesizer::new(&device);
    for p in result.pareto() {
        let actual = synth
            .synthesize(session.pattern(), p.arch.window, p.arch.depth, p.arch.cores)
            .unwrap();
        let rem = session.iterations() % p.arch.depth;
        let rem_luts = if rem > 0 {
            synth
                .synthesize(session.pattern(), p.arch.window, rem, 1)
                .unwrap()
                .luts
        } else {
            0
        };
        let actual_total = (actual.luts + rem_luts) as f64;
        let err = (p.estimated_luts - actual_total).abs() / actual_total;
        assert!(
            err < 0.20,
            "pareto point {} d{} x{}: estimate {:.0} vs actual {:.0} ({:.1}%)",
            p.arch.window,
            p.arch.depth,
            p.arch.cores,
            p.estimated_luts,
            actual_total,
            err * 100.0
        );
    }
}

#[test]
fn deeper_cones_trade_area_for_fewer_levels() {
    let session = IslSession::from_algorithm(&isl_hls::algorithms::jacobi4()).unwrap();
    let shallow = session.cone(Window::square(4), 1).unwrap();
    let deep = session.cone(Window::square(4), 6).unwrap();
    assert!(deep.registers() > shallow.registers());
    // Register reuse keeps the deep cone orders below the naive tree, whose
    // size grows exponentially in depth (~4^d for the 4-point stencil).
    assert!((deep.registers() as f64) < 0.05 * deep.tree_op_count());
}
