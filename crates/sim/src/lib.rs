//! # isl-sim — functional simulation of iterative stencil loops
//!
//! The architecture template of the DAC 2013 paper rests on a claim
//! (Section 3.1): *the desired processing can be performed by repeatedly
//! applying a cone to portions of the input matrix*. This crate provides the
//! machinery to state and check that claim executably:
//!
//! * [`Frame`] / [`FrameSet`] — 1D and 2D grids of `f64` samples with
//!   explicit [`BorderMode`] resolution;
//! * [`Simulator::run`] — the *golden* semantics: one whole frame per
//!   iteration, exactly Algorithm 1 of the paper;
//! * [`Simulator::run_cone_dag`] — the *architecture* semantics: evaluates
//!   the actual hash-consed cone DAGs (the thing the VHDL implements) per
//!   window, borders resolved at each cone's base only; identical to golden
//!   on the frame interior, and the hardware-faithful data path;
//! * [`Simulator::run_tiled_reference`] — the *tiled* oracle: the frame is
//!   processed window by window through levels of depth-`d` cones, with
//!   border handling applied at every level at absolute frame coordinates,
//!   on the tree-walking interpreter. For clamp/mirror/constant borders this
//!   is **bit-identical** to the golden run (tests enforce it), which is the
//!   paper's exactness claim. Neither the emitted VHDL nor certification
//!   computes it, so it has no compiled engine;
//! * [`Simulator::run_until_converged`] — fixed-point iteration for the
//!   "potentially unbounded" ISL variant mentioned in Section 2;
//! * [`synthetic`] — deterministic frame generators standing in for the
//!   paper's camera images.
//!
//! ## The compiled execution engine
//!
//! The whole-frame and cone-DAG paths — [`Simulator::step`],
//! [`Simulator::run`], [`Simulator::run_until_converged`],
//! [`Simulator::run_quantized`], [`Simulator::run_cone_dag`] and
//! [`Simulator::run_cone_dag_quantized`] — execute on a **compiled bytecode
//! engine** rather than walking the [`isl_ir::Expr`] tree (or the cone
//! graph) per element:
//!
//! * [`compile`] lowers each dynamic field's update expression once into a
//!   flat, register-indexed instruction buffer ([`CompiledPattern`]) — no
//!   `Box` chasing, parameters bound up front, constants folded and common
//!   subexpressions shared. The program is built lazily on first step and
//!   cached on the simulator.
//! * For the cone-DAG path, [`compile`] additionally lowers a whole cone
//!   level — the hash-consed multi-iteration graph the VHDL backend emits —
//!   into one multi-output program ([`CompiledCone`]) with CSE across the
//!   entire cone and **slot-allocated registers** (linear scan, freed after
//!   last use), so the evaluator's scratch holds only the peak live set, an
//!   order of magnitude below the instruction count. A **kill-first
//!   scheduling pre-pass** (greedy consumer clustering: always emit the
//!   ready instruction that retires the most operand slots) reorders the
//!   program before allocation whenever that shrinks the peak further —
//!   15–45 % fewer slots on the wide IGF/Chambolle cones, never more
//!   (the compiler keeps whichever order allocates smaller).
//! * The VM evaluates each frame in **three planes**: an *interior plane*
//!   where every stencil tap is statically in-bounds (reads become raw
//!   row-slice copies and the program runs instruction-at-a-time over whole
//!   row spans, which vectorises), plus *border strips* that fall back to
//!   per-pixel evaluation with full [`BorderMode`] resolution. Cone-DAG
//!   window tiles run as structure-of-arrays *lanes* — one lane per tile,
//!   arithmetic amortised across a whole band of tiles.
//! * Steps are **double-buffered**: run loops recycle the retiring frame
//!   set's uniquely-owned allocations as the next step's output buffers, so
//!   long runs stop paying the allocator per iteration.
//! * Work is distributed over a **persistent worker pool** ([`parallel`]):
//!   threads are spawned once per process and parked between calls, cutting
//!   the per-step spawn overhead that used to eat the engine's gains on
//!   small frames. Interior rows parallelise in contiguous row bands, cone
//!   levels in bands of whole tile rows; tune with
//!   [`Simulator::with_threads`] (default: one per core, automatically
//!   serial for tiny frames).
//!
//! ## The quantised datapath
//!
//! Each compiled semantics also has a **quantised** variant —
//! [`Simulator::run_quantized`] and [`Simulator::run_cone_dag_quantized`] —
//! that runs entirely in the **raw word domain** of a hardware fixed-point
//! format ([`isl_fpga::FixedFormat`], which every quantised entry point
//! takes): frames are quantised once on entry, every instruction is a
//! saturating integer operation (`i128`-widened truncating multiply/divide,
//! saturating add/sub — exactly the datapath the generated VHDL
//! implements), and words dequantise once on exit.
//! [`Simulator::record_cone_dag_quantized`] is the cone-DAG run that also
//! records every cone firing: the one engine run `IslSession::certify`
//! makes, whose golden vectors it verifies against an independent oracle.
//! Three design decisions make this both fast and trustworthy:
//!
//! * **One program for every format.** The quantised engines run the same
//!   [`Instr`] bytecode as the `f64` engines, lowered fold-free so every
//!   node of the reference expression tree or cone graph survives as one
//!   instruction ([`QuantizedStep`] for the fused whole-frame step, a
//!   [`CompiledCone`] compiled with `fold == false` per cone shape). The
//!   [`isl_fpga::FixedFormat`] is an argument of the run, not of the
//!   program: each instruction is that format's saturating operation, and
//!   each [`Instr::Const`] is quantised where it is read, as the
//!   `isl-cosim` VM does. The program cache therefore holds one program per
//!   shape for every format, so a format search compiles nothing after its
//!   first probe.
//! * **Lane kernels are shared with the hardware model.** The span-wise
//!   saturating kernels (`FixedFormat::unary_span` / `binary_span` in
//!   `isl-fpga`) are the *single* bit-true definition of the datapath:
//!   this crate's two quantised engines (whole-frame row evaluator and cone
//!   SoA lanes — mirroring the `f64` planes above) and the `isl-cosim`
//!   integer VM all execute them, so a property test of any engine against
//!   the tree-walking raw-word references transitively pins the others.
//! * **Cone outputs retire as they stream.** Slot allocation lets an
//!   output's register die at its defining instruction; evaluators scatter
//!   each output to its destination frame the moment it is produced, so the
//!   live set of a wide cone stays below its output count and SoA lane
//!   scratch shrinks accordingly.
//!
//! The tree-walking interpreters survive as [`Simulator::step_reference`] /
//! [`Simulator::run_reference`] / [`Simulator::run_quantized_reference`] /
//! [`Simulator::run_cone_dag_reference`] /
//! [`Simulator::run_cone_dag_quantized_reference`]: the golden semantics
//! the engine is property-tested against — results are **bit-identical**
//! for every pattern, border mode, window shape, depth, fixed-point format
//! and thread count (see `tests/tests/compiled_engine_props.rs`,
//! `tests/tests/tiled_engine_props.rs` and `tests/tests/cosim_props.rs`).
//! The tiled tree walks [`Simulator::run_tiled_reference`] and
//! [`Simulator::run_tiled_quantized_reference`] are the oracles for the
//! paper's two exactness claims: tiled equals whole-frame for local
//! borders, and rounding commutes with the tiling. These suites and the
//! differential fuzzer own engine equivalence; certification does not
//! re-prove it. The repository benchmark (`perfbench/`, see
//! `perfbench/METRICS.md`) measures the engines' throughput.
//!
//! ```
//! use isl_sim::{Frame, FrameSet, Simulator, BorderMode};
//! use isl_ir::{StencilPattern, FieldKind, Expr, BinaryOp, Offset};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut p = StencilPattern::new(2);
//! let f = p.add_field("f", FieldKind::Dynamic);
//! let avg = Expr::binary(
//!     BinaryOp::Mul,
//!     Expr::sum([
//!         Expr::input(f, Offset::d2(0, -1)),
//!         Expr::input(f, Offset::d2(-1, 0)),
//!         Expr::input(f, Offset::d2(1, 0)),
//!         Expr::input(f, Offset::d2(0, 1)),
//!     ]),
//!     Expr::constant(0.25),
//! );
//! p.set_update(f, avg)?;
//!
//! let sim = Simulator::new(&p)?.with_border(BorderMode::Clamp);
//! let init = FrameSet::from_frames(vec![Frame::from_fn(16, 16, |x, y| (x + y) as f64)])?;
//! let golden = sim.run(&init, 4)?;
//! let tiled = sim.run_tiled_reference(&init, 4, isl_ir::Window::square(4), 2)?;
//! assert!(golden.max_abs_diff(&tiled) < 1e-12);
//! # Ok(())
//! # }
//! ```

// Unsafe is denied crate-wide; the single audited exception is the
// lifetime-erasure choke point of the persistent worker pool in `parallel`
// (see `parallel::erase` for the safety argument).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod border;
pub mod compile;
mod error;
mod fixed;
mod frame;
pub mod harness;
mod metrics;
pub mod parallel;
mod qvm;
mod sim;
pub mod synthetic;
mod vm;

pub use border::BorderMode;
pub use compile::{
    set_compile_verifier, CompileVerifier, CompiledCone, CompiledKernel, CompiledPattern, ConeSlot,
    Halo, Instr, ProgramCache, ProgramView, QuantizedStep, Reach, Reg,
};
pub use error::SimError;
pub use fixed::Quantizer;
pub use frame::{Frame, FrameSet};
pub use sim::{level_depths, ConeDagRecording, ConeFiring, ConvergenceReport, Simulator};
