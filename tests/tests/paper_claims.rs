//! The paper's headline experimental claims, encoded as assertions against
//! this reproduction (quantities are summarised in `EXPERIMENTS.md`).

use isl_hls::algorithms::{chambolle, gaussian_igf};
use isl_hls::baselines::{CommercialHls, FrameBufferModel, HlsFailure};
use isl_hls::prelude::*;

/// Figures 5 & 8: the Eq. 1 area model, calibrated from two syntheses per
/// depth, stays within single-digit percent of actual synthesis.
#[test]
fn area_model_single_digit_errors() {
    let device = Device::virtex6_xc6vlx760();
    for (algo, paper_max, paper_avg) in
        [(gaussian_igf(), 6.58, 2.93), (chambolle(), 6.36, 2.19)]
    {
        let session = IslSession::from_algorithm(&algo).unwrap();
        let windows: Vec<Window> = (1..=6).map(Window::square).collect();
        let v = session
            .validate_area_model(&device, &windows, &[1, 2, 3], 2)
            .unwrap();
        assert!(
            v.max_error_pct < 2.0 * paper_max,
            "{}: max error {:.2}% (paper {paper_max}%)",
            algo.name,
            v.max_error_pct
        );
        assert!(
            v.avg_error_pct < 3.0 * paper_avg,
            "{}: avg error {:.2}% (paper {paper_avg}%)",
            algo.name,
            v.avg_error_pct
        );
    }
}

/// Section 3.3: estimating the space costs a tiny fraction of synthesising
/// it ("the synthesis may take days of CPU time").
#[test]
fn estimation_is_far_cheaper_than_synthesis() {
    let device = Device::virtex6_xc6vlx760();
    let session = IslSession::from_algorithm(&gaussian_igf()).unwrap();
    let windows: Vec<Window> = (1..=8).map(Window::square).collect();
    let v = session
        .validate_area_model(&device, &windows, &[1, 2, 3, 4, 5], 2)
        .unwrap();
    assert!(
        v.full_synthesis_cpu_s > 10.0 * v.calibration_cpu_s,
        "full {:.0}s vs calibration {:.0}s",
        v.full_synthesis_cpu_s,
        v.calibration_cpu_s
    );
    // The full grid is hours of modeled tool time.
    assert!(v.full_synthesis_cpu_s > 3600.0);
}

/// Figure 7: with N = 10, the shallow divisor depths beat the non-divisors,
/// which pay for an extra remainder core (at a representative window size).
#[test]
fn divisor_depths_beat_non_divisors() {
    let device = Device::virtex6_xc6vlx760();
    let session = IslSession::from_algorithm(&gaussian_igf()).unwrap();
    let w = session.workload(1024, 768);
    let fps = |d: u32| {
        session
            .best_on_device(&device, Window::square(7), d, w)
            .map(|r| r.fps)
            .unwrap_or(0.0)
    };
    let (f1, f2, f3, f4, f5) = (fps(1), fps(2), fps(3), fps(4), fps(5));
    assert!(f1 > f4 && f2 > f4, "divisors must beat depth 4: {f1:.1}/{f2:.1} vs {f4:.1}");
    assert!(f2 > f3, "depth 2 must beat depth 3: {f2:.1} vs {f3:.1}");
    assert!(f5 > f4, "divisor depth 5 must beat non-divisor 4: {f5:.1} vs {f4:.1}");
}

/// Section 4.1: the IGF architectures land in the paper's throughput range
/// (~110 fps at 1024x768 on the Virtex-6), within a small factor.
#[test]
fn igf_throughput_in_paper_range() {
    let device = Device::virtex6_xc6vlx760();
    let session = IslSession::from_algorithm(&gaussian_igf()).unwrap();
    let mut best = 0.0f64;
    for side in 4..=9 {
        for depth in [1, 2, 5] {
            if let Ok(r) = session.best_on_device(
                &device,
                Window::square(side),
                depth,
                session.workload(1024, 768),
            ) {
                best = best.max(r.fps);
            }
        }
    }
    assert!(
        (55.0..330.0).contains(&best),
        "IGF best fps {best:.1} should be within 2x of the paper's 110"
    );
}

/// Section 4.2: Chambolle is an order of magnitude heavier than the IGF —
/// deep/wide cones become infeasible and the best throughput drops to the
/// tens of fps.
#[test]
fn chambolle_is_the_heavy_case_study() {
    let device = Device::virtex6_xc6vlx760();
    let igf = IslSession::from_algorithm(&gaussian_igf()).unwrap();
    let cham = IslSession::from_algorithm(&chambolle()).unwrap();
    let w = |f: &IslSession| f.workload(1024, 768);

    // Same window/depth: Chambolle is far slower.
    let igf_fps = igf
        .best_on_device(&device, Window::square(6), 1, w(&igf))
        .unwrap()
        .fps;
    let cham_fps = cham
        .best_on_device(&device, Window::square(6), 1, w(&cham))
        .unwrap()
        .fps;
    assert!(igf_fps > 4.0 * cham_fps);

    // Deep, wide Chambolle cones stop fitting the device entirely —
    // the feasibility rule in action.
    assert!(cham
        .best_on_device(&device, Window::square(9), 4, w(&cham))
        .is_err());
}

/// Section 4.3: the commercial-HLS model reproduces the failure modes and
/// the orders-of-magnitude gap.
#[test]
fn commercial_hls_fails_and_crawls() {
    let device = Device::virtex6_xc6vlx760();
    let session = IslSession::from_algorithm(&gaussian_igf()).unwrap();
    let tool = CommercialHls::new(&device);
    let (best, failures, _) = tool.explore(session.pattern(), session.workload(1024, 768));
    let best = best.unwrap();

    // Sub-fps best (paper: 0.14 fps).
    assert!(best.fps < 1.0, "commercial best {:.2} fps", best.fps);
    // Both failure modes observed.
    assert!(failures.iter().any(|(_, e)| *e == HlsFailure::DataDependency));
    assert!(failures
        .iter()
        .any(|(_, e)| matches!(e, HlsFailure::OutOfMemory { .. })));

    // Orders of magnitude vs the cone flow.
    let cone_fps = session
        .best_on_device(&device, Window::square(8), 2, session.workload(1024, 768))
        .unwrap()
        .fps;
    assert!(
        cone_fps / best.fps > 100.0,
        "cone {cone_fps:.1} fps vs tool {:.2} fps",
        best.fps
    );
}

/// Section 2.2: the frame-buffer baseline's on-chip memory demand scales
/// with the frame while the cone architecture's does not.
#[test]
fn cone_memory_is_frame_size_independent() {
    let device = Device::virtex6_xc6vlx760();
    let session = IslSession::from_algorithm(&gaussian_igf()).unwrap();
    let model = FrameBufferModel::new(&device);

    let small = model
        .evaluate(session.pattern(), session.workload(256, 256))
        .unwrap();
    let large = model
        .evaluate(session.pattern(), session.workload(1920, 1080))
        .unwrap();
    assert!(large.buffer_bytes_required > 30 * small.buffer_bytes_required);
    assert!(!large.fits_on_chip, "Full-HD ping-pong buffers must spill");

    // The cone's window buffer is identical for any frame size.
    let cone = session.cone(Window::square(8), 2).unwrap();
    let window_elems = cone.inputs().len();
    assert!(window_elems < 400); // a few hundred elements, not megabytes
}
