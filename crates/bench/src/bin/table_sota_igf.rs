//! Section 4.1 prose comparison — IGF / iterative convolution vs the manual
//! implementation of \[16\] (Cope 2006):
//!
//! * \[16\] on a Virtex-II Pro: 13.5 fps at 1024x768, < 5 fps at Full-HD
//!   (20-iteration 3x3 convolution);
//! * the paper's flow on the *same* Virtex-II Pro: up to 35 fps at Full-HD;
//! * the paper's flow on a Virtex-6: 110 fps at 1024x768.

#![forbid(unsafe_code)]

use isl_bench::{best_fps, compare, rule};
use isl_hls::algorithms::gaussian_igf;
use isl_hls::baselines::published_references;
use isl_hls::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    rule("Table A (Sec. 4.1): IGF vs manual convolution [16]");
    // Sweep the paper's grid for the Virtex-6 headline; the Virtex-II Pro
    // point gets a wider window sweep (deep cones on N=20 amortise their
    // halo only at larger windows).
    let sides: Vec<u32> = (2..=9).collect();
    let wide_sides: Vec<u32> = (2..=16).collect();
    let depths: Vec<u32> = vec![1, 2, 4, 5, 10];

    for r in published_references()
        .iter()
        .filter(|r| r.citation.contains("[16]"))
    {
        println!(
            "  literature: {} — {} on {} at {}x{}: {}{} fps",
            r.citation,
            r.algorithm,
            r.device,
            r.resolution.0,
            r.resolution.1,
            if r.at_most { "<" } else { "" },
            r.fps
        );
    }
    println!();

    // Our flow on the Virtex-II Pro, Full-HD, 20 iterations: [16] runs 20.
    let v2 = Device::virtex2_pro_xc2vp30();
    let session20 = IslSession::from_algorithm(&gaussian_igf())?.with_iterations(20);
    let mut best_v2 = 0.0f64;
    for &side in &wide_sides {
        for &d in &depths {
            if let Ok(r) = session20.best_on_device(
                &v2,
                Window::square(side),
                d,
                session20.workload(1920, 1080),
            ) {
                best_v2 = best_v2.max(r.fps);
            }
        }
    }
    compare("flow on Virtex-II Pro, Full-HD, N=20", 35.0, best_v2, "fps");

    // Our flow on the Virtex-6, 1024x768, N=10 (the paper's headline).
    let v6 = Device::virtex6_xc6vlx760();
    let (fps_v6, arch) = best_fps(&gaussian_igf(), &v6, (1024, 768), &sides, &[1, 2, 5])?;
    compare("flow on Virtex-6, 1024x768, N=10", 110.0, fps_v6, "fps");
    println!(
        "  best architecture: window {}, depth {}, {} cores",
        arch.window, arch.depth, arch.cores
    );
    println!("\n  verdict: the Virtex-6 headline reproduces within ~1.4x.");
    println!("  NOT reproduced: the paper's 35 fps Full-HD figure on the 27k-LUT Virtex-II Pro.");
    println!("  Our technology mapping prices an IGF cone at ~190 LUTs per output element, so");
    println!("  only small cones fit that part; the 2006-era hand design packs far denser");
    println!("  arithmetic. Recorded as a model deviation in EXPERIMENTS.md.");
    Ok(())
}
