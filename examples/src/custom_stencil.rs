//! Bring your own stencil: write a kernel, verify the cone architecture is
//! exact, and explore implementations — the full user journey.
//!
//! Run with `cargo run -p isl-examples --bin custom_stencil --release`.

#![forbid(unsafe_code)]

use isl_hls::prelude::*;
use isl_hls::sim::synthetic;

/// An anisotropic-smoothing kernel: diffuse, but clamp the per-step change
/// (a data-dependent select the flow turns into hardware multiplexers).
const KERNEL: &str = r#"
#pragma isl iterations 12
#pragma isl border clamp
#pragma isl param limit 0.05
void aniso(const float u[H][W], float u_out[H][W], float limit) {
    for (int y = 0; y < H; y++) {
        for (int x = 0; x < W; x++) {
            float lap = (u[y-1][x] + u[y+1][x] + u[y][x-1] + u[y][x+1]) * 0.25f - u[y][x];
            float step = 0.5f * lap;
            float clamped = step > limit ? limit : (step < -limit ? -limit : step);
            u_out[y][x] = u[y][x] + clamped;
        }
    }
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let session = IslSession::from_source(KERNEL)?;
    println!("== pattern extracted from the custom kernel ==");
    println!("{}", session.pattern());

    // Prove the cone architecture computes exactly the golden iteration.
    let sim = session.simulator()?;
    let init = FrameSet::from_frames(vec![synthetic::add_noise(
        &synthetic::gradient(40, 30),
        13,
        0.5,
    )])?;
    let golden = sim.run(&init, session.iterations())?;
    let mut worst: f64 = 0.0;
    for (window, depth) in [
        (Window::square(4), 3),
        (Window::square(5), 4),
        (Window::rect(6, 3), 2),
    ] {
        let tiled = sim.run_tiled(&init, session.iterations(), window, depth)?;
        let diff = golden.max_abs_diff(&tiled);
        worst = worst.max(diff);
        println!("  tiled {window} depth {depth}: max |diff| vs golden = {diff:.2e}");
    }
    assert!(worst < 1e-12, "cone execution must be exact");

    // Explore on two devices to see the cost of a smaller part.
    for device in [Device::virtex6_xc6vlx760(), Device::small_multimedia()] {
        let space = DesignSpace::new(1..=5, 1..=4, 8);
        match session.explore(&device, session.workload(640, 480), &space) {
            Ok(result) => {
                let fastest = result.fastest().expect("feasible");
                println!(
                    "\n== {}: {} feasible points, fastest = {:.1} fps (window {}, depth {}, {} cores, {:.0} kLUTs)",
                    device.name,
                    result.points().len(),
                    fastest.fps,
                    fastest.arch.window,
                    fastest.arch.depth,
                    fastest.arch.cores,
                    fastest.estimated_luts / 1e3,
                );
            }
            Err(e) => println!("\n== {}: {e}", device.name),
        }
    }
    Ok(())
}
