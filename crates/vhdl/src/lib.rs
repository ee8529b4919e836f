//! # isl-vhdl — synthesizable VHDL backend for stencil cones
//!
//! The DAC 2013 flow "generates synthesizable VHDL descriptions of all the
//! cones", relying on register reuse to keep the code "slim" (Section 3.2).
//! This crate renders a hash-consed [`isl_ir::Cone`] into:
//!
//! * a **fixed-point support package** (`isl_fixed_pkg`) with the arithmetic
//!   helpers the data path uses;
//! * one **entity per cone**: every operation node becomes one registered
//!   signal (one pipeline stage), operands crossing more than one stage get
//!   explicit balancing delay registers, and a `valid` chain tracks the
//!   pipeline latency;
//! * a **testbench** that drives a stimulus window and asserts the outputs
//!   against expected values computed by the IR evaluator in the same
//!   fixed-point format — so the generated hardware is checkable in any
//!   VHDL simulator without this library;
//! * a **golden-vector exchange** ([`vectors`]): per-firing
//!   stimulus/response files produced by the bit-true co-simulator
//!   (`isl-cosim`), replayed by the vector-file testbench mode
//!   ([`generate_vector_testbench`]) and certified word-for-word by
//!   [`check::verify_vectors`] against the independent fixed-point graph
//!   interpreter;
//! * a **structural checker** ([`check`]) used by the test suite: balanced
//!   `begin`/`end`, every referenced signal declared, every signal driven
//!   exactly once, and pipeline stages consistent.
//!
//! Division and square root are emitted as calls into the support package
//! (behaviourally specified, single stage); production users would swap in
//! vendor pipelined IP — the area/timing models in `isl-fpga` already
//! account for the iterative-array cost.
//!
//! ```
//! use isl_ir::{StencilPattern, FieldKind, Expr, BinaryOp, Offset, Window, Cone};
//! use isl_vhdl::{generate_cone, VhdlOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut p = StencilPattern::new(1).with_name("avg");
//! let f = p.add_field("f", FieldKind::Dynamic);
//! let sum = Expr::binary(
//!     BinaryOp::Add,
//!     Expr::input(f, Offset::d1(-1)),
//!     Expr::input(f, Offset::d1(1)),
//! );
//! p.set_update(f, Expr::binary(BinaryOp::Mul, sum, Expr::constant(0.5)))?;
//! let cone = Cone::build(&p, Window::line(2), 2)?;
//! let module = generate_cone(&cone, &VhdlOptions::default());
//! assert!(module.code.contains("entity avg_w2x1_d2 is"));
//! isl_vhdl::check::validate(&module.code)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod codegen;
mod package;
mod testbench;
pub mod vectors;
mod wrapper;

pub use check::{verify_vectors, VectorCheckError, VectorCheckReport, VectorMismatch};
pub use codegen::{
    generate_cone, PortDirection, PortInfo, VectorLayout, VhdlModule, VhdlOptions,
};
pub use package::fixed_package;
pub use testbench::{generate_testbench, generate_vector_testbench};
pub use vectors::{VectorError, VectorFile, VectorRecord};
pub use wrapper::{generate_wrapper, validate_wrapper, VhdlWrapper};
