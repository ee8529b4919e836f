//! Ablations of the flow's design decisions — what each mechanism buys.
//!
//! Four switches, each corresponding to a claim in the paper:
//!
//! 1. **register reuse** (Section 3.2): interned DAG registers vs the naive
//!    per-output expression tree — "the exponential explosion of the number
//!    of symbols is avoided by enforcing data reuse";
//! 2. **algebraic simplification**: the "slim VHDL" effect of folding
//!    constants and pruning identities during cone construction;
//! 3. **inter-cone logic sharing** (Section 3.3): why area grows
//!    non-linearly in the number of cones — the thing α models;
//! 4. **calibration depth**: accuracy of Eq. 1 with 2 vs 4 syntheses
//!    ("the higher the number, the more accurate the estimation").

#![forbid(unsafe_code)]

use isl_bench::rule;
use isl_hls::algorithms::{chambolle, gaussian_igf};
use isl_hls::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = Device::virtex6_xc6vlx760();

    rule("Ablation 1: register reuse vs naive expression trees (IGF, window 6x6)");
    let session = IslSession::from_algorithm(&gaussian_igf())?;
    println!("  depth  registers(DAG)  tree-ops(no reuse)   reuse factor");
    for depth in 1..=5u32 {
        let cone = session.cone(Window::square(6), depth)?;
        println!(
            "  {:>5}  {:>14}  {:>18.0}  {:>12.1}x",
            depth,
            cone.registers(),
            cone.tree_op_count(),
            cone.tree_op_count() / cone.registers() as f64
        );
    }
    println!("  (the tree grows ~13^d for the 3x3 kernel; the DAG grows with the cone volume)");

    rule("Ablation 2: algebraic simplification (constant folding, identities)");
    println!("  algorithm   simplified-regs  raw-regs   saved");
    for algo in [gaussian_igf(), chambolle()] {
        let session = IslSession::from_algorithm(&algo)?;
        let simplified = session.cone(Window::square(4), 2)?;
        let raw = isl_hls::ir::Cone::build_with(session.pattern(), Window::square(4), 2, false)?;
        println!(
            "  {:<10}  {:>15}  {:>8}  {:>5.1}%",
            algo.name,
            simplified.registers(),
            raw.registers(),
            100.0 * (1.0 - simplified.registers() as f64 / raw.registers() as f64)
        );
    }

    rule("Ablation 3: inter-cone logic sharing (IGF, window 4x4, depth 2)");
    let session = IslSession::from_algorithm(&gaussian_igf())?;
    let with = Synthesizer::with_options(
        &device,
        SynthOptions { jitter: false, ..SynthOptions::default() },
    );
    let without = Synthesizer::with_options(
        &device,
        SynthOptions { jitter: false, inter_cone_sharing: false, ..SynthOptions::default() },
    );
    println!("  cones   LUTs(shared)  LUTs(no sharing)  saved");
    for n in [1u32, 2, 4, 8, 16] {
        let a = with.synthesize(session.pattern(), Window::square(4), 2, n)?;
        let b = without.synthesize(session.pattern(), Window::square(4), 2, n)?;
        println!(
            "  {:>5}  {:>12}  {:>16}  {:>5.1}%",
            n,
            a.luts,
            b.luts,
            100.0 * (1.0 - a.luts as f64 / b.luts as f64)
        );
    }
    println!("  (this sub-linearity is exactly what Eq. 1's alpha absorbs)");

    rule("Ablation 4: calibration syntheses vs estimation accuracy (IGF)");
    let windows: Vec<Window> = (1..=8).map(Window::square).collect();
    println!("  calibration-points  max-err  avg-err");
    for points in [2usize, 3, 4] {
        let v = session.validate_area_model(&device, &windows, &[1, 2, 3], points)?;
        println!(
            "  {:>18}  {:>6.2}%  {:>6.2}%",
            points, v.max_error_pct, v.avg_error_pct
        );
    }
    println!("  (the paper: \"if a higher accuracy is needed, more initial synthesis need to be performed\")");
    Ok(())
}
