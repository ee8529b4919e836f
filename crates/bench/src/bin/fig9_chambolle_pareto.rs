//! Figure 9 — Chambolle Pareto curve: time-per-frame vs kLUTs, 1024x768.

#![forbid(unsafe_code)]

use isl_bench::rule;
use isl_hls::algorithms::chambolle;
use isl_hls::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    rule("Figure 9: Chambolle Pareto curve, 1024x768 (Virtex-6)");
    let device = Device::virtex6_xc6vlx760();
    let session = IslSession::from_algorithm(&chambolle())?;
    // Chambolle cones are an order of magnitude heavier than IGF cones, so
    // the feasible windows/depths are smaller — exactly the paper's point.
    let space = DesignSpace::new(1..=9, 1..=5, 16);
    let result = session.explore(&device, session.workload(1024, 768), &space)?;

    println!(
        "evaluated {} feasible architectures ({} skipped as infeasible)",
        result.points().len(),
        result.exploration().skipped_infeasible()
    );
    println!("\nPareto set:");
    println!("  kLUTs      time/frame      fps   window depth cores");
    for p in result.pareto() {
        println!(
            "  {:>8.1}  {:>9.1} ms  {:>7.1}   {:>6} {:>5} {:>5}",
            p.estimated_luts / 1e3,
            p.time_per_frame_s * 1e3,
            p.fps,
            p.arch.window.to_string(),
            p.arch.depth,
            p.arch.cores
        );
    }
    Ok(())
}
