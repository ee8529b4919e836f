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
//! * [`Simulator::run_tiled`] — the *cone architecture* semantics: the frame
//!   is processed window by window through levels of depth-`d` cones, with
//!   border handling applied at every level at absolute frame coordinates.
//!   For clamp/mirror/constant borders this is **bit-identical** to the
//!   golden run (tests enforce it);
//! * [`Simulator::run_cone_dag`] — evaluates the actual hash-consed cone
//!   DAGs (the thing the VHDL implements) per window; identical to golden on
//!   the frame interior, and the hardware-faithful data path;
//! * [`Simulator::run_until_converged`] — fixed-point iteration for the
//!   "potentially unbounded" ISL variant mentioned in Section 2;
//! * [`synthetic`] — deterministic frame generators standing in for the
//!   paper's camera images.
//!
//! ## The compiled execution engine
//!
//! **Every** execution path — [`Simulator::step`], [`Simulator::run`],
//! [`Simulator::run_until_converged`], [`Simulator::run_quantized`],
//! [`Simulator::run_tiled`] and [`Simulator::run_cone_dag`] — executes on a
//! **compiled bytecode engine** rather than walking the [`isl_ir::Expr`]
//! tree (or the cone graph) per element:
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
//!   per-pixel evaluation with full [`BorderMode`] resolution. The same
//!   machinery runs [`Simulator::run_tiled`]'s levels over reusable tile
//!   halo buffers (frames and halo buffers are one source-view type), and
//!   [`Simulator::run_cone_dag`]'s window tiles as structure-of-arrays
//!   *lanes* — one lane per tile, arithmetic amortised across a whole band
//!   of tiles.
//! * Steps are **double-buffered**: run loops recycle the retiring frame
//!   set's uniquely-owned allocations as the next step's output buffers, so
//!   long runs stop paying the allocator per iteration.
//! * Work is distributed over a **persistent worker pool** ([`parallel`]):
//!   threads are spawned once per process and parked between calls, cutting
//!   the per-step spawn overhead that used to eat the engine's gains on
//!   small frames. Interior rows parallelise in contiguous row bands, tiled
//!   and cone levels in bands of whole tile rows; tune with
//!   [`Simulator::with_threads`] (default: one per core, automatically
//!   serial for tiny frames).
//!
//! ## The quantised datapath
//!
//! Every execution semantics also has a **quantised** variant —
//! [`Simulator::run_quantized`], [`Simulator::run_tiled_quantized`],
//! [`Simulator::run_cone_dag_quantized`] — that runs entirely in the **raw
//! word domain** of a hardware fixed-point format
//! ([`Quantizer`] / [`isl_fpga::FixedFormat`]): frames are quantised once
//! on entry, every instruction is a saturating integer operation
//! (`i128`-widened truncating multiply/divide, saturating add/sub — exactly
//! the datapath the generated VHDL implements), and words dequantise once
//! on exit. Three design decisions make this both fast and trustworthy:
//!
//! * **Rounding is fused at compile time.** [`compile`] lowers the pattern
//!   (fold-free, so every node of the reference expression tree survives)
//!   into a dedicated quantised program ([`QuantizedPattern`] /
//!   [`QuantizedCone`]) whose instructions *are* the rounding rule — there
//!   is no per-op `Option<Quantizer>` hook, so running a program with a
//!   mismatched quantiser is unrepresentable, and the inner loops carry no
//!   rounding branches.
//! * **Lane kernels are shared with the hardware model.** The span-wise
//!   saturating kernels (`FixedFormat::unary_span` / `binary_span` in
//!   `isl-fpga`) are the *single* bit-true definition of the datapath:
//!   this crate's three quantised engines (whole-frame rect evaluator,
//!   tiled halo-buffer path, cone SoA lanes — mirroring the `f64` planes
//!   above) and the `isl-cosim` integer VM all execute them, so a property
//!   test of any engine against the tree-walking raw-word references
//!   transitively pins the others.
//! * **Cone outputs retire as they stream.** Slot allocation lets an
//!   output's register die at its defining instruction; evaluators scatter
//!   each output to its destination frame the moment it is produced, so the
//!   live set of a wide cone stays below its output count and SoA lane
//!   scratch shrinks accordingly.
//!
//! The tree-walking interpreters survive as [`Simulator::step_reference`] /
//! [`Simulator::run_reference`] / [`Simulator::run_quantized_reference`] /
//! [`Simulator::run_tiled_reference`] /
//! [`Simulator::run_cone_dag_reference`] (and the quantised
//! `*_quantized_reference` pair): the golden semantics the engine is
//! property-tested against — results are **bit-identical** for every
//! pattern, border mode, window shape, depth, fixed-point format and
//! thread count (see `tests/tests/compiled_engine_props.rs`,
//! `tests/tests/tiled_engine_props.rs` and `tests/tests/cosim_props.rs`).
//!
//! Measure the difference with `cargo bench -p isl-bench --bench sim_engine`,
//! which compares interpreted vs compiled runs of all three semantics
//! (gaussian IGF and Chambolle at 256×256) and writes `BENCH_sim.json`; on
//! one core the compiled engine is ~13×/~29× (whole-frame), ~10×/~26×
//! (tiled) and ~6×/~7× (cone-DAG) faster for IGF/Chambolle respectively
//! (run to run the exact ratios wander with machine load; the committed
//! `BENCH_sim.json` holds the last measured trajectory point).
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
//! let tiled = sim.run_tiled(&init, 4, isl_ir::Window::square(4), 2)?;
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
    set_compile_verifier, CompileVerifier, CompiledCone, CompiledKernel, CompiledPattern,
    ConeSlot, Halo, Instr, ProgramCache, ProgramView, QInstr, QuantizedCone, QuantizedKernel,
    QuantizedPattern, QuantizedStep, Reach, Reg,
};
pub use error::SimError;
pub use fixed::Quantizer;
pub use frame::{Frame, FrameSet};
pub use sim::{level_depths, ConeDagRecording, ConeFiring, ConvergenceReport, Simulator};
