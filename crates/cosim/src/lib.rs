//! # isl-cosim — bit-true hardware co-simulation
//!
//! The DAC 2013 flow's value proposition is that the *simulated* ISL and
//! the *generated hardware* compute the same thing. This crate closes that
//! loop executably, without an FPGA or a VHDL simulator in the container:
//!
//! * an **integer-domain fixed-point VM** ([`vm`]) — a scalar sibling of
//!   `isl_sim::vm` that executes the same [`isl_sim::CompiledCone`]
//!   bytecode on raw `i64` words through the hardware datapath
//!   ([`isl_fpga::FixedFormat::apply_unary`] /
//!   [`apply_binary`](isl_fpga::FixedFormat::apply_binary)): saturating
//!   adds, truncating widened multiplies and divides, non-restoring square
//!   root — exactly the `isl_fixed_pkg` operations the VHDL backend emits.
//!   Property tests pin it bit-identical to the independent fixed-point
//!   graph interpreter ([`isl_fpga::eval_fixed`]);
//! * a **co-simulator** ([`CoSimulator`]) that runs full cone-architecture
//!   decompositions (levels of depth-`d` cones, window by window, borders
//!   resolved at each level's base — what the generated hardware actually
//!   computes) one firing at a time on that VM;
//! * **golden-vector exchange** — [`CoSimulator::golden_vectors`] records
//!   every cone firing of a run as raw stimulus/response words in the
//!   [`isl_vhdl::vectors`] format (laid out by [`isl_vhdl::VectorLayout`]);
//!   `isl_vhdl` replays them in a vector-file testbench and certifies them
//!   word-for-word with [`isl_vhdl::check::verify_vectors`];
//! * **error metrics** — [`error_metrics`] measures the max-abs / RMS
//!   drift of a dequantised fixed-point run from its `f64` reference; the
//!   flow-level *format search* evaluates one [`ErrorMetrics`] per probed
//!   format against its error budget;
//! * **fault-injection campaigns** — [`Fault`] carries a [`FaultModel`]
//!   (transient bit-flip, stuck-at-0, stuck-at-1 on any instruction's
//!   result word), and [`CoSimulator::fault_campaign`] sweeps every
//!   instruction × a [`MaskSchedule`] over whole cone programs
//!   ([`CoSimulator::fault_sweep`] does so over given vector files): it
//!   verifies each golden-vector file once, keeps the clean trace of each
//!   record, propagates each fault through its instruction's fan-out on
//!   the records it changes, and classifies it as detected (triaged to its
//!   instruction) / masked / silent into a [`FaultCoverageReport`] — the
//!   quantified answer to "would certification notice a broken bit?".
//!
//! ## Who runs the scalar VM
//!
//! Certification does not: `IslSession::certify` makes one run of the
//! quantised cone-DAG lane engine of `isl-sim`
//! (`Simulator::record_cone_dag_quantized`), which executes the same
//! datapath on structure-of-arrays lanes, takes its golden vectors and
//! error metrics from that run, and certifies every vector word with
//! [`isl_vhdl::check::verify_vectors`]. The scalar VM serves the jobs
//! that need one firing at a time: fault campaigns, which run it once per
//! record for the clean per-instruction traces and never once per fault,
//! and the independent leg of the differential fuzzer, which compares its
//! vectors with the engine's raw words at every width up to 64.
//!
//! ## The integer datapath contract
//!
//! One rule ties the layers together: **a value is a raw `i64` word of the
//! design's [`FixedFormat`](isl_fpga::FixedFormat), and every operation is
//! performed by the same function the synthesis model and the VHDL support
//! package define** — quantise on load (round-to-nearest, saturate),
//! saturate adds, truncate multiplies/divides after widening, comparisons
//! produce fixed-point `1.0`, selects forward words untouched. The VM and
//! the quantised cone-DAG lane engine of `isl-sim`
//! (`run_cone_dag_quantized`) run **one program**: the fold-free
//! [`isl_sim::CompiledCone`] of each cone shape (compilation is
//! deterministic, so the VM's copy is bit-for-bit the engine's cached
//! one), with the [`FixedFormat`](isl_fpga::FixedFormat) passed in at run
//! time and each constant quantised where it is read. The lane engine runs
//! it over lanes of raw words and this crate runs it scalar-wise, so each
//! side checks the other's execution bit for bit; the whole-frame engine
//! (`run_quantized`) runs the same contract over the fused step program.
//!
//! ```
//! use isl_cosim::CoSimulator;
//! use isl_fpga::FixedFormat;
//! use isl_ir::{BinaryOp, Expr, FieldKind, Offset, StencilPattern, Window};
//! use isl_sim::{Frame, FrameSet};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut p = StencilPattern::new(2).with_name("blur");
//! let f = p.add_field("f", FieldKind::Dynamic);
//! let sum = Expr::sum([
//!     Expr::input(f, Offset::d2(0, -1)),
//!     Expr::input(f, Offset::d2(-1, 0)),
//!     Expr::input(f, Offset::d2(1, 0)),
//!     Expr::input(f, Offset::d2(0, 1)),
//! ]);
//! p.set_update(f, Expr::binary(BinaryOp::Div, sum, Expr::constant(4.0)))?;
//!
//! let cosim = CoSimulator::new(&p, FixedFormat::default())?;
//! let init = FrameSet::from_frames(vec![Frame::from_fn(12, 12, |x, y| (x + y) as f64 / 8.0)])?;
//! // Golden vectors for a window-4, depth-2 architecture over 4 iterations.
//! let files = cosim.golden_vectors(&init, 4, Window::square(4), 2)?;
//! for file in &files {
//!     let cone = isl_ir::Cone::build(&p, file.window, file.depth)?;
//!     let report = isl_vhdl::check::verify_vectors(&cone, FixedFormat::default(), file)?;
//!     assert!(report.words > 0);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
mod cosim;
mod error;
pub mod vm;

pub use campaign::{
    DetectedFault, FaultCoverageReport, LevelDetections, MaskSchedule, ModelCoverage,
};
pub use cosim::{error_metrics, CoSimulator, ErrorMetrics, IntFrameSet};
pub use error::CosimError;
pub use vm::{eval_cone_raw, eval_cone_raw_traced, Fault, FaultModel};
