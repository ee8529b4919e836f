//! Extra experiment E1 — the memory/performance conflict of the classic
//! two-frame-buffer architecture (Section 2.2), quantified over frame sizes.
//!
//! The paper's argument: either the on-chip memory holds whole frames
//! ("several MBs... expensive and power-consuming") or the performance is
//! "bound by the memory transfers between the off-chip and the on-chip
//! memories at each iteration". The cone architecture's on-chip requirement
//! is frame-size independent.

#![forbid(unsafe_code)]

use isl_bench::rule;
use isl_hls::algorithms::gaussian_igf;
use isl_hls::baselines::FrameBufferModel;
use isl_hls::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    rule("Extra E1: frame-buffer memory/performance conflict (IGF, N=10)");
    let session = IslSession::from_algorithm(&gaussian_igf())?;

    for device in [Device::small_multimedia(), Device::virtex6_xc6vlx760()] {
        println!(
            "\ndevice {} ({} kb BRAM):",
            device.name, device.bram_kbits
        );
        println!("  frame        buffers-needed  fits?  bound     fps");
        let model = FrameBufferModel::new(&device);
        for (w, h) in [(128, 128), (256, 256), (512, 512), (1024, 768), (1920, 1080)] {
            let r = model.evaluate(session.pattern(), session.workload(w, h))?;
            println!(
                "  {:>4}x{:<5}  {:>11.2} MB  {:>5}  {:>8}  {:>7.1}",
                w,
                h,
                r.buffer_bytes_required as f64 / 1e6,
                if r.fits_on_chip { "yes" } else { "no" },
                if r.transfer_bound { "memory" } else { "compute" },
                r.fps
            );
        }

        // The cone architecture's on-chip need at the same workloads is a
        // single input window, independent of the frame size.
        let cone = session.cone(Window::square(8), 2)?;
        let window_bytes =
            (cone.inputs().len() + cone.static_inputs().len()) * 3; // Q8.10 in 3 bytes
        println!(
            "  (cone architecture on-chip requirement: {} bytes per cone, frame-size independent)",
            window_bytes
        );
    }
    println!("\n  claim preserved: the frame-buffer design needs MBs on chip or goes memory-bound;");
    println!("  the cone template needs a fixed few-hundred-byte window either way.");
    Ok(())
}
