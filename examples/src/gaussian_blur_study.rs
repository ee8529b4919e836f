//! The paper's Section 4.1 case study: the iterative Gaussian filter.
//!
//! Reproduces the three IGF experiments — area-estimation accuracy
//! (Figure 5), the Pareto curve (Figure 6) and device-constrained throughput
//! (Figure 7) — and additionally demonstrates the filter functionally on a
//! synthetic image.
//!
//! Run with `cargo run -p isl-examples --bin gaussian_blur_study --release`.

#![forbid(unsafe_code)]

use isl_hls::algorithms::gaussian_igf;
use isl_hls::prelude::*;
use isl_hls::sim::synthetic;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let algo = gaussian_igf();
    let session = IslSession::from_algorithm(&algo)?;
    let device = Device::virtex6_xc6vlx760();

    // -- functional demonstration -----------------------------------------
    let sim = session.simulator()?;
    let image = synthetic::checkerboard(64, 48, 4);
    let init = FrameSet::from_frames(vec![image.clone()])?;
    let blurred = sim.run(&init, session.iterations())?;
    let var = |f: &Frame| {
        let m = f.mean();
        f.as_slice().iter().map(|v| (v - m) * (v - m)).sum::<f64>() / f.len() as f64
    };
    println!("== functional check: 10-iteration blur on a 64x48 checkerboard ==");
    println!("  variance before: {:.4}", var(&image));
    println!("  variance after:  {:.4}", var(blurred.frame(0)));

    // -- Figure 5: area estimation accuracy ---------------------------------
    let windows: Vec<Window> = (1..=9).map(Window::square).collect();
    let depths = [1u32, 2, 3, 4, 5];
    let v = session.validate_area_model(&device, &windows, &depths, 2)?;
    println!("\n== Figure 5: IGF area estimation (actual vs Eq.1) ==");
    println!("  paper: max error 6.58 %, avg 2.93 %");
    println!(
        "  ours:  max error {:.2} %, avg {:.2} % over {} points",
        v.max_error_pct,
        v.avg_error_pct,
        v.rows.len()
    );
    println!(
        "  estimation cost: {:.0} s of modeled synthesis vs {:.0} s for the full grid",
        v.calibration_cpu_s, v.full_synthesis_cpu_s
    );

    // -- Figure 6: Pareto curve ----------------------------------------------
    let result = session.explore(&device, session.workload(1024, 768), &DesignSpace::paper())?;
    println!("\n== Figure 6: IGF Pareto curve (1024x768) ==");
    println!("  {} points evaluated, Pareto set:", result.points().len());
    println!("  kLUTs      time/frame   window depth cores");
    for p in result.pareto() {
        println!(
            "  {:>8.1}  {:>9.2} ms   {:>6} {:>5} {:>5}",
            p.estimated_luts / 1e3,
            p.time_per_frame_s * 1e3,
            p.arch.window.to_string(),
            p.arch.depth,
            p.arch.cores
        );
    }

    // -- Figure 7: throughput vs window on the packed device ------------------
    println!("\n== Figure 7: IGF throughput on Virtex-6 XC6VLX760 (1024x768) ==");
    println!("  paper: divisor depths (1, 2, 5) win; peak ~110 fps");
    println!("  window-area   d=1      d=2      d=3      d=4      d=5");
    for side in 2..=9u32 {
        print!("  {:>11}", side * side);
        for depth in 1..=5u32 {
            match session.best_on_device(
                &device,
                Window::square(side),
                depth,
                session.workload(1024, 768),
            ) {
                Ok(r) => print!("  {:>7.1}", r.fps),
                Err(_) => print!("   (infeasible)"),
            }
        }
        println!();
    }
    Ok(())
}
