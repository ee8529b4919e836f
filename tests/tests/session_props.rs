//! The staged session API: warm results bit-identical to cold recomputes,
//! zero redundant work on repeated pipelines (the acceptance criterion of
//! the artifact-store redesign), and a session hammered from threads.

use std::sync::Arc;

use isl_hls::prelude::*;
use isl_hls::sim::synthetic;
use isl_tests::arb::{arb_pattern, arb_window, frames_for};
use isl_tests::prop::{check, Rng};

/// The acceptance criterion of the staged-API redesign: a full
/// `explore → synthesize → certify` sequence on gaussian-IGF, run twice
/// through one session, performs **zero** redundant cone builds, pattern
/// compiles or calibration syntheses on the second pass — and the results
/// are bit-identical to the cold path.
#[test]
fn warm_pipeline_does_zero_redundant_work() {
    let algo = isl_hls::algorithms::gaussian_igf();
    let session = IslSession::from_algorithm(&algo).unwrap();
    let device = Device::virtex6_xc6vlx760();
    let space = DesignSpace::new(2..=5, 1..=3, 4);
    let workload = session.workload(32, 24);
    let init = FrameSet::from_frames(vec![synthetic::noise(32, 24, 7)]).unwrap();

    // Cold pass: everything is built.
    let explored1 = session.explore(&device, workload, &space).unwrap();
    let synth1 = explored1.synthesize_fastest().unwrap();
    let cert1 = explored1.certify_fastest(&init).unwrap();
    let cold = session.store_stats();
    assert!(cold.cones.misses > 0, "cold pass must build cones");
    assert!(cold.syntheses.misses > 0, "cold pass must run syntheses");
    assert!(cold.programs.misses > 0, "cold pass must compile programs");
    assert_eq!(cold.calibrations.misses, 1);
    assert_eq!(cold.certificates.misses, 1);

    // Warm pass: identical calls, zero new builds of any artifact kind.
    let explored2 = session.explore(&device, workload, &space).unwrap();
    let synth2 = explored2.synthesize_fastest().unwrap();
    let cert2 = explored2.certify_fastest(&init).unwrap();
    let warm = session.store_stats();
    assert_eq!(cold.cones.misses, warm.cones.misses, "redundant cone builds");
    assert_eq!(
        cold.programs.misses, warm.programs.misses,
        "redundant pattern/cone compiles"
    );
    assert_eq!(
        cold.syntheses.misses, warm.syntheses.misses,
        "redundant calibration syntheses"
    );
    assert_eq!(cold.calibrations.misses, warm.calibrations.misses);
    assert_eq!(cold.vectors.misses, warm.vectors.misses);
    assert_eq!(cold.certificates.misses, warm.certificates.misses);
    assert!(warm.total_hits() > cold.total_hits(), "warm pass must hit");

    // Bit-identical results (certificates carry every golden-vector word).
    assert_eq!(explored1.points(), explored2.points());
    assert_eq!(synth1.bundle(), synth2.bundle());
    assert_eq!(cert1.certificate(), cert2.certificate());
    // The warm certificate is literally the stored artifact.
    assert!(Arc::ptr_eq(cert1.certificate(), cert2.certificate()));
}

const BLUR: &str = r#"
#pragma isl iterations 6
#pragma isl border mirror
void blur(const float in[H][W], float out[H][W]) {
    for (int y = 0; y < H; y++)
        for (int x = 0; x < W; x++)
            out[y][x] = (in[y-1][x] + in[y+1][x] + in[y][x-1] + in[y][x+1]) * 0.25f;
}
"#;

/// The kernel's `#pragma isl iterations` and `border` lines reach the spec.
#[test]
fn source_to_flow() {
    let session = IslSession::from_source(BLUR).unwrap();
    assert_eq!(session.iterations(), 6);
    assert_eq!(session.border(), BorderMode::Mirror);
    assert_eq!(session.pattern().radius(), 1);
}

#[test]
fn bad_source_reports_analysis_error() {
    let err = IslSession::from_source("void f() {").unwrap_err();
    assert!(matches!(err, FlowError::Analysis(_)), "{err}");
}

#[test]
fn from_algorithm_wires_defaults() {
    let algo = isl_hls::algorithms::chambolle();
    let session = IslSession::from_algorithm(&algo).unwrap();
    assert_eq!(session.iterations(), algo.default_iterations);
    assert_eq!(session.pattern().dynamic_fields().len(), 2);
    assert_eq!(session.pattern().params().len(), 2);
}

/// Exploration calibrates for the workload's iteration count, not the
/// spec's: the pragma says 6, the workload says 4, so depth-3 cones need a
/// remainder level the spec's own run does not have.
#[test]
fn explore_follows_workload_iterations() {
    let session = IslSession::from_source(BLUR).unwrap();
    let device = Device::virtex6_xc6vlx760();
    let space = DesignSpace::new(2..=3, 3..=3, 2);
    let workload = Workload::image(64, 48, 4);
    let explored = session.explore(&device, workload, &space).unwrap();
    assert!(!explored.points().is_empty());
    let four = session.clone().with_iterations(4);
    assert_eq!(
        explored.points(),
        four.explore(&device, workload, &space).unwrap().points()
    );
}

/// The DSE → simulation loop: the fastest explored instance's window/depth
/// decomposition, run on the tiled oracle (borders resolved at every
/// level), equals the golden whole-frame run.
#[test]
fn explored_architecture_simulates_to_golden() {
    let session = IslSession::from_source(BLUR).unwrap();
    let device = Device::virtex6_xc6vlx760();
    let space = DesignSpace::new(2..=4, 1..=3, 2);
    let explored = session
        .explore(&device, session.workload(64, 48), &space)
        .unwrap();
    let best = explored.fastest().unwrap();
    let init = FrameSet::from_frames(vec![synthetic::noise(64, 48, 11)]).unwrap();
    let sim = session.simulator().unwrap();
    let iterations = session.iterations();
    let by_arch = sim
        .run_tiled_reference(&init, iterations, best.arch.window, best.arch.depth)
        .unwrap();
    let golden = sim.run(&init, iterations).unwrap();
    assert_eq!(by_arch, golden);
}

/// Packing the device with as many cores as fit is never slower than a
/// fixed core count.
#[test]
fn throughput_through_flow() {
    let session = IslSession::from_source(BLUR).unwrap();
    let device = Device::virtex6_xc6vlx760();
    let workload = session.workload(256, 192);
    let arch = Architecture::new(Window::square(3), 2, 2);
    let r = session.throughput(&device, arch, workload).unwrap();
    assert!(r.fps > 0.0);
    let best = session
        .best_on_device(&device, Window::square(3), 2, workload)
        .unwrap();
    assert!(best.fps >= r.fps);
}

/// Certified bundles ship the golden vectors: the vector files of the
/// certificate appear verbatim in the bundle, each with a replay testbench
/// and (for foreign shapes) its entity, plus the one-command GHDL script.
#[test]
fn certified_bundle_ships_vectors() {
    let algo = isl_hls::algorithms::gaussian_igf();
    // 2 does not divide 5 iterations → a remainder cone shape exists.
    let session = IslSession::from_algorithm(&algo).unwrap().with_iterations(5);
    let device = Device::virtex6_xc6vlx760();
    let space = DesignSpace::new(2..=4, 2..=2, 2);
    let explored = session
        .explore(&device, session.workload(20, 12), &space)
        .unwrap();
    let init = FrameSet::from_frames(vec![synthetic::noise(20, 12, 3)]).unwrap();
    let certified = explored.certify_fastest(&init).unwrap();
    let cert = certified.certificate();
    assert!(cert.vector_files.len() >= 2, "main + remainder shapes");

    let bundle = certified.synthesize().unwrap().into_bundle();
    assert_eq!(bundle.vectors.len(), cert.vector_files.len());
    for (set, file) in bundle.vectors.iter().zip(&cert.vector_files) {
        assert_eq!(set.vectors, file.to_text());
        assert!(set.testbench.contains(&format!("tb_{}_vec", set.entity_name)));
        // Foreign shapes carry their own entity; the main shape reuses the
        // bundle's.
        if set.entity_name == bundle.entity_name {
            assert!(set.entity.is_none());
        } else {
            assert!(set.entity.as_deref().unwrap().contains("entity"));
        }
    }
    let script = bundle.ghdl_script();
    assert!(script.contains("ghdl -a"));
    for set in &bundle.vectors {
        assert!(script.contains(&format!("tb_{}_vec", set.entity_name)));
    }
    // files() covers every referenced source exactly once.
    let files = bundle.files();
    let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
    assert!(names.contains(&"run_ghdl.sh"));
    assert!(names.contains(&"isl_fixed_pkg.vhd"));
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "duplicate bundle file names");
}

/// Property: any stage result served from the artifact store is
/// bit-identical to a cold recompute in a fresh session — cones, compiled
/// engine outputs, and certificates, over random patterns and shapes.
#[test]
fn stored_artifacts_equal_cold_recompute() {
    check("stored_artifacts_equal_cold_recompute", 12, |rng: &mut Rng| {
        let pattern = arb_pattern(rng);
        let window = arb_window(rng);
        let depth = rng.u32_in(1, 3);
        let iterations = rng.u32_in(1, 5);
        let init = frames_for(&pattern, 13, 9, rng.u64());

        let warm_session = IslSession::from_pattern(pattern.clone(), iterations);
        // Populate the store, then ask again (served from the store).
        let _ = warm_session.decompose(window, depth).unwrap();
        let warm = warm_session.decompose(window, depth).unwrap();
        let cold = IslSession::from_pattern(pattern.clone(), iterations)
            .decompose(window, depth)
            .unwrap();
        assert!(warm_session.store_stats().cones.hits > 0);
        assert_eq!(warm.levels(), cold.levels());
        let (w, c) = (warm.main_cone(), cold.main_cone());
        assert_eq!(w.registers(), c.registers());
        assert_eq!(w.inputs(), c.inputs());
        assert_eq!(w.outputs().len(), c.outputs().len());

        // Compiled-engine outputs: second run (cached programs + cones)
        // bitwise equals a fresh session's first run.
        let cone_dag = |session: &IslSession| {
            let sim = session.simulator().unwrap();
            sim.run_cone_dag(&init, iterations, window, depth).unwrap()
        };
        let a1 = cone_dag(&warm_session);
        let programs = warm_session.store_stats().programs.hits;
        let a2 = cone_dag(&warm_session);
        assert!(
            warm_session.store_stats().programs.hits > programs,
            "warm rerun must be served cached programs"
        );
        let b = cone_dag(&IslSession::from_pattern(pattern.clone(), iterations));
        isl_tests::arb::assert_bitwise_eq(&a1, &a2, "warm rerun");
        isl_tests::arb::assert_bitwise_eq(&a1, &b, "warm vs cold session");

        // Certificates: stored vs fresh-session recompute.
        let arch = Architecture::new(window, depth, 1);
        let warm_cert = warm_session.certify(&init, arch).unwrap();
        let warm_cert2 = warm_session.certify(&init, arch).unwrap();
        let cold_cert = IslSession::from_pattern(pattern, iterations)
            .certify(&init, arch)
            .unwrap();
        assert_eq!(warm_cert.certificate(), warm_cert2.certificate());
        assert_eq!(warm_cert.certificate(), cold_cert.certificate());
    });
}

/// Cache-path and recompute-path failures report identically: the stage
/// context wraps the error the same way whether the store had the artifact
/// or not.
#[test]
fn stage_errors_report_identically_on_both_paths() {
    let algo = isl_hls::algorithms::gaussian_igf();
    let session = IslSession::from_algorithm(&algo).unwrap();
    // Depth 0 fails in cone construction; ask twice (both are recompute
    // paths — errors are never cached) and once through a warmed store.
    let e1 = session.decompose(Window::square(3), 0).unwrap_err();
    let e2 = session.decompose(Window::square(3), 0).unwrap_err();
    assert_eq!(e1, e2);
    let msg = e1.to_string();
    assert!(msg.contains("[decompose"), "stage tag missing: {msg}");
    assert!(msg.contains("w3x3_d0"), "artifact key missing: {msg}");

    // A feasibility failure in explore carries the explore stage.
    let device = Device::small_multimedia();
    let space = DesignSpace::new(9..=9, 5..=5, 1);
    let heavy = IslSession::from_algorithm(&isl_hls::algorithms::chambolle()).unwrap();
    let err = heavy
        .explore(&device, heavy.workload(256, 192), &space)
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("[explore"), "stage tag missing: {msg}");
    // Same failure again — now the calibration is served from the store,
    // so the error surfaces through the cache path; it must read the same.
    let err2 = heavy
        .explore(&device, heavy.workload(256, 192), &space)
        .unwrap_err();
    assert_eq!(err, err2);
}

/// Wrap borders break tile locality, which the cone architecture cannot
/// honour: certify refuses them before recording anything, and so does the
/// certification that ends a format search.
#[test]
fn wrap_border_is_refused_by_certify_and_search() {
    let algo = isl_hls::algorithms::gaussian_igf();
    let session = IslSession::from_algorithm(&algo)
        .unwrap()
        .with_border(BorderMode::Wrap);
    let device = Device::virtex6_xc6vlx760();
    let arch = Architecture::new(Window::square(3), 2, 1);
    let init = FrameSet::from_frames(vec![synthetic::noise(12, 9, 5)]).unwrap();
    let refused = isl_hls::sim::SimError::NonLocalBorder.to_string();
    let errors = [
        session.certify(&init, arch).map(|_| ()).unwrap_err(),
        session
            .search_format(&device, &init, arch, ErrorBudget::max_abs(1e-2))
            .map(|_| ())
            .unwrap_err(),
    ];
    for err in errors {
        assert!(
            matches!(&err, FlowError::Simulation(m) if m.contains(&refused)),
            "{err:?}"
        );
    }
    assert_eq!(session.store_stats().vectors.misses, 0, "vectors recorded");
}

/// Hammer one session from {2, 4} threads: concurrent explores, simulations
/// and certifications against the shared store must all equal the serial
/// results, and every artifact kind must have been built at most the serial
/// number of times *plus races* (never more than thread-count times).
#[test]
fn concurrent_session_is_consistent() {
    let algo = isl_hls::algorithms::gaussian_igf();
    let device = Device::virtex6_xc6vlx760();
    let space = DesignSpace::new(2..=4, 1..=2, 3);

    // Serial reference.
    let serial = IslSession::from_algorithm(&algo).unwrap().with_threads(1);
    let workload = serial.workload(24, 18);
    let init = FrameSet::from_frames(vec![synthetic::noise(24, 18, 5)]).unwrap();
    let serial_explored = serial.explore(&device, workload, &space).unwrap();
    let best = serial_explored.fastest().unwrap().arch;
    let serial_cert = serial.certify(&init, best).unwrap();
    let serial_misses = serial.store_stats().total_misses();

    for threads in [2usize, 4] {
        let session = IslSession::from_algorithm(&algo).unwrap().with_threads(1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let session = session.clone();
                    let init = &init;
                    let device = &device;
                    let space = &space;
                    scope.spawn(move || {
                        let explored = session.explore(device, workload, space).unwrap();
                        let best = explored.fastest().unwrap().arch;
                        let cert = session.certify(init, best).unwrap();
                        (explored, cert)
                    })
                })
                .collect();
            let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for (explored, cert) in &results {
                assert_eq!(explored.points(), serial_explored.points());
                assert_eq!(&**cert.certificate(), &**serial_cert.certificate());
            }
        });
        // Racing builders may duplicate work, but never more than one build
        // per thread per artifact — and the store must show real sharing.
        let misses = session.store_stats().total_misses();
        assert!(
            misses <= serial_misses * threads,
            "{threads} threads built {misses} artifacts (serial needs {serial_misses})"
        );
        assert!(session.store_stats().total_hits() > 0);
    }
}

/// The batch surface: `explore_many` over several workloads and devices
/// shares one-shape cones and calibration syntheses across the batch, and
/// each result equals its individually-computed counterpart.
#[test]
fn explore_many_shares_the_store() {
    let algo = isl_hls::algorithms::gaussian_igf();
    // Serial fan (threads = 1) so the miss counts are deterministic:
    // concurrent requests racing on a not-yet-built artifact may each
    // build it (by design — first insertion wins), which would make exact
    // miss assertions flaky on multicore machines. The concurrency test
    // above covers the racing behaviour.
    let session = IslSession::from_algorithm(&algo).unwrap().with_threads(1);
    let v6 = Device::virtex6_xc6vlx760();
    let mm = Device::small_multimedia();
    let space = DesignSpace::new(2..=4, 1..=2, 3);
    let requests = [
        ExploreRequest { device: &v6, workload: session.workload(64, 48), space: &space },
        ExploreRequest { device: &v6, workload: session.workload(128, 96), space: &space },
        ExploreRequest { device: &mm, workload: session.workload(64, 48), space: &space },
    ];
    let batch = session.explore_many(&requests);
    assert_eq!(batch.len(), 3);
    let batch: Vec<_> = batch.into_iter().map(|r| r.unwrap()).collect();

    // Cones are per-shape, not per-device/workload: the whole batch builds
    // each shape once (same iteration count everywhere).
    let after_batch = session.store_stats();
    let solo = IslSession::from_algorithm(&algo).unwrap();
    let solo_explored = solo.explore(&v6, session.workload(64, 48), &space).unwrap();
    assert_eq!(batch[0].points(), solo_explored.points());
    assert_eq!(
        after_batch.cones.misses,
        solo.store_stats().cones.misses,
        "batch across devices/workloads must not rebuild shared cone shapes"
    );

    // verify_many over two frame sets of the fastest instance.
    let init_a = FrameSet::from_frames(vec![synthetic::noise(24, 18, 1)]).unwrap();
    let init_b = FrameSet::from_frames(vec![synthetic::noise(24, 18, 2)]).unwrap();
    let arch = {
        let small = session
            .explore(&v6, session.workload(24, 18), &space)
            .unwrap();
        small.fastest().unwrap().arch
    };
    let verified = session.verify_many(&[
        VerifyRequest { init: &init_a, arch },
        VerifyRequest { init: &init_b, arch },
    ]);
    assert_eq!(verified.len(), 2);
    let certs: Vec<_> = verified.into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(certs[0].arch(), arch);
    assert_ne!(
        certs[0].certificate().vector_files,
        certs[1].certificate().vector_files,
        "different frames, different vectors"
    );
}
