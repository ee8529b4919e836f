//! Certify an explored architecture against the hardware datapath, end to
//! end, through the staged API: DSE picks a (window, depth, cores)
//! instance, `certify` records golden vectors from one quantised cone-DAG
//! run and proves them mismatch-free against an independent oracle, and
//! `Certified::synthesize` packages vectors + replay testbenches + VHDL
//! into one directory where an external simulator run is one command.

#![forbid(unsafe_code)]

use isl_hls::prelude::*;
use isl_hls::sim::synthetic;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let algo = isl_hls::algorithms::gaussian_igf();
    let session = IslSession::from_algorithm(&algo)?;
    let device = Device::virtex6_xc6vlx760();
    let space = DesignSpace::new(2..=6, 1..=3, 8);

    // Stages 3+4: estimate once, explore, pick the fastest instance.
    let explored = session.explore(&device, session.workload(48, 36), &space)?;
    let best = explored.fastest().expect("feasible points exist");
    println!(
        "== DSE picked: window {}, depth {}, {} cores",
        best.arch.window, best.arch.depth, best.arch.cores
    );

    // Stage 6: certify — one quantised cone-DAG run, its golden vectors
    // verified word-for-word. The certificate (vectors included) lands in
    // the session store.
    let init = FrameSet::from_frames(vec![synthetic::noise(48, 36, 7)])?;
    let certified = explored.certify_fastest(&init)?;
    let cert = certified.certificate();
    println!(
        "== certified: {} quantised elements, {} cone firings / {} words mismatch-free",
        cert.quantized_elements, cert.vector_records, cert.vector_words
    );
    println!(
        "   fixed-point vs f64 drift after {} iterations: {:.3e} ({})",
        cert.iterations, cert.max_fixed_error, cert.format
    );

    // Stage 5, vectors included: the bundle consumes the stored vectors.
    let out = std::path::Path::new("target/cosim_verify");
    let synthesized = certified.synthesize()?;
    let paths = synthesized.write_to(out)?;
    for path in &paths {
        println!("   wrote {}", path.display());
    }
    println!(
        "Replay everything in one command: cd {} && sh run_ghdl.sh",
        out.display()
    );

    // Certifying the same instance again is a pure store hit.
    let again = explored.certify_fastest(&init)?;
    assert_eq!(again.certificate(), certified.certificate());
    let stats = session.store_stats();
    println!(
        "(store: {} hits / {} builds across cones, programs, syntheses, vectors, certificates)",
        stats.total_hits(),
        stats.total_misses()
    );
    Ok(())
}
