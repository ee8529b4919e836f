//! Figure 6 — IGF Pareto curve: time-per-frame vs kLUTs for 1024x768
//! frames, from the exhaustive exploration of the architecture space.
//!
//! Paper: the space holds a few hundreds of solutions; the Pareto knee sits
//! in the tens-of-milliseconds region.

#![forbid(unsafe_code)]

use isl_bench::rule;
use isl_hls::algorithms::gaussian_igf;
use isl_hls::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    rule("Figure 6: IGF Pareto curve, 1024x768 (Virtex-6)");
    let device = Device::virtex6_xc6vlx760();
    let session = IslSession::from_algorithm(&gaussian_igf())?;
    let result = session.explore(&device, session.workload(1024, 768), &DesignSpace::paper())?;

    println!(
        "evaluated {} feasible architectures ({} skipped as infeasible), {} calibration syntheses",
        result.points().len(),
        result.exploration().skipped_infeasible(),
        result.exploration().calibration_syntheses()
    );
    println!("\nPareto set (area ascending, time descending):");
    println!("  kLUTs      time/frame      fps   window depth cores  bound");
    for p in result.pareto() {
        println!(
            "  {:>8.1}  {:>9.2} ms  {:>7.1}   {:>6} {:>5} {:>5}  {}",
            p.estimated_luts / 1e3,
            p.time_per_frame_s * 1e3,
            p.fps,
            p.arch.window.to_string(),
            p.arch.depth,
            p.arch.cores,
            if p.transfer_bound { "mem" } else { "cpu" }
        );
    }

    let fastest = result.fastest().expect("feasible space");
    let smallest = result.smallest().expect("feasible space");
    println!(
        "\nextremes: fastest {:.1} fps @ {:.0} kLUTs | smallest {:.0} kLUTs @ {:.2} s/frame",
        fastest.fps,
        fastest.estimated_luts / 1e3,
        smallest.estimated_luts / 1e3,
        smallest.time_per_frame_s
    );
    println!("paper reference: \"a few hundreds of solutions\" evaluated exhaustively");
    Ok(())
}
