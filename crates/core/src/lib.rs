//! # isl-hls — an automatic HLS flow for iterative stencil loops on FPGAs
//!
//! A from-scratch Rust reproduction of *"A High-Level Synthesis Flow for the
//! Implementation of Iterative Stencil Loop Algorithms on FPGA Devices"*
//! (Nacci, Rana, Bruschi, Sciuto, Beretta, Atienza — DAC 2013).
//!
//! The flow (paper, Figure 2) takes a C kernel describing **one iteration**
//! of an ISL and produces Pareto-optimal FPGA architectures. Since the
//! staged-API redesign it is exposed as an explicit typed pipeline over an
//! [`IslSession`]:
//!
//! ```text
//! Spec (IslSession) → Decomposed → Estimated → Explored → Synthesized
//!                                                       ↘ Certified → FormatSearched
//! ```
//!
//! 1. **Spec** — symbolic execution of the kernel extracts the stencil
//!    pattern, verifying *domain narrowness* and *translational invariance*
//!    (`isl-frontend`, `isl-symexec`); [`IslSession::with_persistent_store`]
//!    puts the session's store on disk and [`IslSession::checkpoint`]
//!    flushes it durably;
//! 2. **Decomposed** — multi-iteration compute modules ("cones") are built
//!    by unrolling the dependencies with full register reuse (`isl-ir`);
//! 3. **Estimated** — the incremental register-based area model (Eq. 1,
//!    α calibrated from two syntheses per depth) and the analytic schedule
//!    (`isl-estimate`, over the `isl-fpga` synthesis simulator);
//! 4. **Explored** — exhaustive enumeration of (window × depth × cores)
//!    instances and Pareto extraction (`isl-dse`);
//! 5. **Synthesized** — synthesizable VHDL, packaged with testbenches (and,
//!    after certification, golden-vector replays) into a [`VhdlBundle`];
//! 6. **Certified** — bit-true hardware evidence
//!    ([`ArchitectureCertificate`]): golden vectors recorded by the
//!    quantised cone-DAG engine and certified word for word by `isl-vhdl`;
//!    [`Certified::synthesize`] ships them in the bundle with a `run_ghdl.sh`
//!    replay script;
//! 7. **FormatSearched** — precision design-space exploration
//!    ([`IslSession::search_format`]): binary-search the narrowest
//!    fixed-point format within an [`ErrorBudget`], each probe measured on
//!    the quantised cone-DAG engine, then certify only the chosen format,
//!    with the area saving measured through the width-parameterised
//!    technology mapper.
//!
//! Every stage output is an immutable, `Arc`-shared handle backed by the
//! session's concurrency-safe **artifact store** ([`ArtifactStore`]): built
//! cones, compiled bytecode programs, calibration syntheses, golden vectors
//! and certificates are keyed by content hashes, so later stages — and
//! repeated or concurrent calls with the same inputs — reuse them instead
//! of recomputing ([`IslSession::store_stats`] proves it). The batch
//! surface ([`IslSession::explore_many`], [`IslSession::verify_many`]) fans
//! request sets over the persistent worker pool against the same store.
//!
//! ## Quickstart
//!
//! ```
//! use isl_hls::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let session = IslSession::from_source(r#"
//! #pragma isl iterations 10
//! #pragma isl border clamp
//! void blur(const float in[H][W], float out[H][W]) {
//!     for (int y = 0; y < H; y++)
//!         for (int x = 0; x < W; x++)
//!             out[y][x] = (in[y-1][x] + in[y+1][x] + in[y][x-1] + in[y][x+1]) * 0.25f;
//! }
//! "#)?;
//!
//! // Explore architectures for 256x192 frames on a Virtex-6.
//! let device = Device::virtex6_xc6vlx760();
//! let space = DesignSpace::new(1..=4, 1..=2, 4);
//! let explored = session.explore(&device, session.workload(256, 192), &space)?;
//! let best = explored.fastest().expect("feasible points exist");
//! assert!(best.fps > 0.0);
//!
//! // Generate the VHDL for the fastest point.
//! let synthesized = explored.synthesize_fastest()?;
//! assert!(synthesized.bundle().entity.contains("entity"));
//!
//! // A second explore with the same inputs is served from the store.
//! let again = session.explore(&device, session.workload(256, 192), &space)?;
//! assert_eq!(explored.points(), again.points());
//! assert!(session.store_stats().calibrations.hits > 0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Choosing an error budget
//!
//! [`IslSession::search_format`] needs an [`ErrorBudget`] — how much may
//! the fixed-point hardware deviate from the exact (`f64`) run of the same
//! cone decomposition? Guidance:
//!
//! * **Anchor on the default format.** Certify once at the session's
//!   format (Q8.10/18-bit by default) and read
//!   [`ArchitectureCertificate::max_quant_error`]: a budget equal to that
//!   value asks the search for "the narrowest format at least as accurate
//!   as the hand-chosen one" — for gaussian-IGF that already narrows 18
//!   bits to 15 (and the searched format is *certified*, which the
//!   hand-chosen one's accuracy never was).
//! * **Or anchor on the workload.** For 8-bit imagery, half an output
//!   grey level is `0.5 / 255 ≈ 2e-3` — max-abs budgets coarser than that
//!   are invisible in the output; budget RMS an order of magnitude lower
//!   ([`ErrorBudget::with_rms`]) to bound the average, not just the worst
//!   pixel.
//! * **Don't budget below the decomposition floor.** The budget bounds the
//!   *quantisation* error (same-decomposition reference), which more
//!   fractional bits always shrink. The gap between the decomposition and
//!   the whole-frame golden run
//!   ([`ArchitectureCertificate::max_fixed_error`], cone-base border
//!   resolution at frame edges) is format-independent — no budget spent on
//!   width buys it back.
//! * **Tight budgets cost integer bits too.** When the widest probe misses
//!   the budget, the search trades fractional for integer bits
//!   (intermediate saturation — e.g. a squared gradient overflowing the
//!   range — is also unfixable by resolution alone). Expect a `1e-9`
//!   budget on Chambolle to come back ~Q9.34 rather than Q8.x.
//!
//! Functional correctness of the whole architecture template is provable in
//! simulation: window-by-window cone execution is bit-identical to the
//! golden whole-frame iteration (`isl-sim`), and stage results served from
//! the artifact store are property-tested bit-identical to cold recomputes
//! (`tests/tests/session_props.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod persist;
mod session;
mod store;
mod telemetry;

pub use error::{FlowError, Stage};
pub use session::{
    ArchitectureCertificate, Certified, Decomposed, ErrorBudget, Estimated, Explored,
    ExploreRequest, FormatProbe, FormatSearchOutcome, FormatSearched, IslSession, Synthesized,
    VectorSet, VerifyRequest, VhdlBundle,
};
pub use store::{ArtifactStore, StoreStats};
pub use telemetry::TelemetryReport;

/// Convenient single-import surface for flow users.
pub mod prelude {
    pub use crate::{
        ArchitectureCertificate, ArtifactStore, Certified, Decomposed, ErrorBudget, Estimated,
        ExploreRequest, Explored, FlowError, FormatProbe, FormatSearchOutcome, FormatSearched,
        IslSession, Stage, StoreStats, Synthesized, TelemetryReport, VectorSet, VerifyRequest,
        VhdlBundle,
    };
    pub use isl_dse::{Calibration, DesignPoint, DesignSpace, Exploration, Explorer};
    pub use isl_estimate::{
        Architecture, AreaEstimator, AreaValidation, ScheduleModel, ThroughputEstimator,
        Workload,
    };
    pub use isl_fpga::{Device, FixedFormat, SynthOptions, Synthesizer};
    pub use isl_ir::{Cone, Expr, StencilPattern, Window};
    pub use isl_sim::{BorderMode, Frame, FrameSet, Simulator};
}

// Re-export the component crates for power users.
pub use isl_algorithms as algorithms;
pub use isl_analyze as analyze;
pub use isl_baselines as baselines;
pub use isl_cosim as cosim;
pub use isl_dse as dse;
pub use isl_estimate as estimate;
pub use isl_fpga as fpga;
pub use isl_frontend as frontend;
pub use isl_ir as ir;
pub use isl_sim as sim;
pub use isl_symexec as symexec;
pub use isl_telemetry;
pub use isl_vhdl as vhdl;
