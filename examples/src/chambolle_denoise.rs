//! The paper's Section 4.2 case study: the Chambolle total-variation
//! algorithm — functionally (denoising a synthetic image) and
//! architecturally (area validation + throughput, Figures 8-10).
//!
//! Run with `cargo run -p isl-examples --bin chambolle_denoise --release`.

#![forbid(unsafe_code)]

use isl_hls::algorithms::chambolle;
use isl_hls::prelude::*;
use isl_hls::sim::synthetic;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let algo = chambolle();
    let session = IslSession::from_algorithm(&algo)?;
    let device = Device::virtex6_xc6vlx760();

    // -- functional demonstration: denoise ---------------------------------
    let (w, h) = (48, 48);
    let clean = synthetic::gaussian_spots(w, h, 21, 4);
    let noisy = synthetic::add_noise(&clean, 22, 0.4);
    let init = FrameSet::from_frames(vec![
        Frame::new(w, h), // px
        Frame::new(w, h), // py
        noisy.clone(),    // observed image g (static field)
    ])?;
    let lambda = 0.3;
    let sim = isl_hls::sim::Simulator::new(session.pattern())?.with_params(vec![0.25, lambda])?;
    let out = sim.run(&init, 40)?;
    let denoised =
        isl_hls::algorithms::chambolle::recover_image(&out, BorderMode::Clamp, lambda);
    println!("== functional check: TV denoising of a 48x48 synthetic scene ==");
    println!("  RMS error before: {:.4}", noisy.rms_diff(&clean));
    println!("  RMS error after:  {:.4}", denoised.rms_diff(&clean));

    // -- Figure 8: area estimation ------------------------------------------
    let windows: Vec<Window> = (1..=6).map(Window::square).collect();
    let v = session.validate_area_model(&device, &windows, &[1, 2, 3], 2)?;
    println!("\n== Figure 8: Chambolle area estimation ==");
    println!("  paper: max error 6.36 %, avg 2.19 %");
    println!(
        "  ours:  max error {:.2} %, avg {:.2} % over {} points",
        v.max_error_pct,
        v.avg_error_pct,
        v.rows.len()
    );

    // -- Figure 9: Pareto curve ------------------------------------------------
    let space = DesignSpace::new(1..=8, 1..=3, 4);
    let result = session.explore(&device, session.workload(1024, 768), &space)?;
    println!("\n== Figure 9: Chambolle Pareto curve (1024x768) ==");
    println!("  kLUTs      time/frame   window depth cores");
    for p in result.pareto() {
        println!(
            "  {:>8.1}  {:>9.1} ms   {:>6} {:>5} {:>5}",
            p.estimated_luts / 1e3,
            p.time_per_frame_s * 1e3,
            p.arch.window.to_string(),
            p.arch.depth,
            p.arch.cores
        );
    }

    // -- Figure 10: throughput vs window -----------------------------------
    println!("\n== Figure 10: Chambolle throughput on Virtex-6 (1024x768) ==");
    println!("  paper: best is 8x8 (two cones fit), not 9x9; ~24 fps at 1024x768");
    println!("  window   fps     cores");
    for side in 4..=9u32 {
        match session.best_on_device(
            &device,
            Window::square(side),
            1,
            session.workload(1024, 768),
        ) {
            Ok(r) => println!(
                "  {:>4}x{:<4} {:>6.1}  {:>5}",
                side, side, r.fps, r.arch.cores
            ),
            Err(e) => println!("  {side:>4}x{side:<4} infeasible ({e})"),
        }
    }

    // Comparison with the hand-made design [19].
    println!("\n== vs the hand-made design [19] (months of work) ==");
    for (res, paper_manual, paper_auto) in [((1024, 768), 38.0, 24.0), ((512, 512), 99.0, 72.0)] {
        let ours = session
            .best_on_device(
                &device,
                Window::square(8),
                1,
                session.workload(res.0, res.1),
            )
            .map(|r| r.fps)
            .unwrap_or(0.0);
        println!(
            "  {}x{}: manual {paper_manual} fps | paper's flow {paper_auto} fps | this repro {ours:.1} fps",
            res.0, res.1
        );
    }
    Ok(())
}
