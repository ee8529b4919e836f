//! The pre-redesign flat flow object, kept as thin shims over the staged
//! session API.
//!
//! **Deprecated in favour of [`IslSession`]** (see the
//! [migration table](crate#migrating-from-islflow)): every method below
//! delegates to one shared session, so existing callers keep compiling —
//! and silently gain the artifact store (repeated calls stop rebuilding
//! cones, recompiling programs and rerunning calibration syntheses).

use isl_algorithms::Algorithm;
use isl_dse::{DesignSpace, Exploration};
use isl_estimate::{
    Architecture, AreaValidation, ScheduleModel, ThroughputReport, Workload,
};
use isl_fpga::{Device, SynthOptions};
use isl_ir::{Cone, StencilPattern, Window};
use isl_sim::{BorderMode, FrameSet, Simulator};

use crate::error::FlowError;
use crate::session::{ArchitectureCertificate, IslSession, VhdlBundle};

/// The automatic HLS flow of the paper, end to end — the flat façade over
/// one shared [`IslSession`].
///
/// **Deprecated**: prefer the staged session API ([`IslSession`]); this
/// type remains so downstream code keeps compiling unchanged. Each shim is
/// one delegation — consult the
/// [migration table](crate#migrating-from-islflow) for the staged
/// equivalent of every method.
#[derive(Debug, Clone)]
pub struct IslFlow {
    session: IslSession,
}

impl IslFlow {
    /// Phase 1: parse, analyse and symbolically execute a C kernel.
    ///
    /// *Staged equivalent:* [`IslSession::from_source`].
    ///
    /// # Errors
    ///
    /// [`FlowError::Analysis`] with the frontend/symexec diagnostic.
    pub fn from_source(source: &str) -> Result<Self, FlowError> {
        Ok(IslFlow {
            session: IslSession::from_source(source)?,
        })
    }

    /// Build the flow from a built-in algorithm.
    ///
    /// *Staged equivalent:* [`IslSession::from_algorithm`].
    ///
    /// # Errors
    ///
    /// Same as [`IslFlow::from_source`].
    pub fn from_algorithm(algorithm: &Algorithm) -> Result<Self, FlowError> {
        Ok(IslFlow {
            session: IslSession::from_algorithm(algorithm)?,
        })
    }

    /// Build the flow from an already-extracted pattern.
    ///
    /// *Staged equivalent:* [`IslSession::from_pattern`].
    pub fn from_pattern(pattern: StencilPattern, iterations: u32) -> Self {
        IslFlow {
            session: IslSession::from_pattern(pattern, iterations),
        }
    }

    /// The session this flow delegates to — the bridge for incremental
    /// migration (all artifacts accumulated through the flat API are
    /// visible to staged calls and vice versa).
    pub fn session(&self) -> &IslSession {
        &self.session
    }

    /// Override the border mode.
    pub fn with_border(mut self, border: BorderMode) -> Self {
        self.session = self.session.with_border(border);
        self
    }

    /// Override the iteration count.
    pub fn with_iterations(mut self, iterations: u32) -> Self {
        self.session = self.session.with_iterations(iterations);
        self
    }

    /// Override synthesis options (fixed-point format, sharing, jitter).
    pub fn with_synth_options(mut self, options: SynthOptions) -> Self {
        self.session = self.session.with_synth_options(options);
        self
    }

    /// Override the schedule model.
    pub fn with_schedule(mut self, schedule: ScheduleModel) -> Self {
        self.session = self.session.with_schedule(schedule);
        self
    }

    /// The extracted stencil pattern.
    pub fn pattern(&self) -> &StencilPattern {
        self.session.pattern()
    }

    /// Iterations per frame (the paper's `N`).
    pub fn iterations(&self) -> u32 {
        self.session.iterations()
    }

    /// Border mode used for simulation.
    pub fn border(&self) -> BorderMode {
        self.session.border()
    }

    /// A workload for this ISL over `width`×`height` frames.
    pub fn workload(&self, width: u32, height: u32) -> Workload {
        self.session.workload(width, height)
    }

    // -- phase 2: cones and VHDL -------------------------------------------

    /// Build the cone of one output window and depth.
    ///
    /// *Staged equivalent:* [`IslSession::decompose`] (or
    /// [`IslSession::cone`] for the `Arc`-shared handle — this shim clones
    /// the stored cone for signature compatibility).
    ///
    /// # Errors
    ///
    /// [`FlowError::Cone`] on invalid depth/pattern.
    pub fn build_cone(&self, window: Window, depth: u32) -> Result<Cone, FlowError> {
        Ok((*self.session.cone(window, depth)?).clone())
    }

    /// Generate the complete VHDL bundle for one cone.
    ///
    /// *Staged equivalent:* [`IslSession::synthesize`] (and
    /// [`crate::Certified::synthesize`] for a bundle that ships certified
    /// golden vectors).
    ///
    /// # Errors
    ///
    /// [`FlowError::Cone`] on invalid depth/pattern.
    pub fn generate_vhdl(&self, window: Window, depth: u32) -> Result<VhdlBundle, FlowError> {
        Ok(self.session.synthesize(window, depth)?.into_bundle())
    }

    // -- phase 3: estimation -------------------------------------------------

    /// Validate the Eq. 1 area model over a window/depth grid on `device`
    /// (the Figure 5 / Figure 8 experiment).
    ///
    /// *Staged equivalent:* [`IslSession::validate_area_model`].
    ///
    /// # Errors
    ///
    /// [`FlowError::Estimation`] on calibration/synthesis failures.
    pub fn validate_area_model(
        &self,
        device: &Device,
        windows: &[Window],
        depths: &[u32],
        calibration_points: usize,
    ) -> Result<AreaValidation, FlowError> {
        self.session
            .validate_area_model(device, windows, depths, calibration_points)
    }

    /// Estimate one architecture's throughput on `device`.
    ///
    /// *Staged equivalent:* [`IslSession::throughput`].
    ///
    /// # Errors
    ///
    /// [`FlowError::Estimation`] on infeasibility or bad parameters.
    pub fn throughput(
        &self,
        device: &Device,
        arch: Architecture,
        workload: Workload,
    ) -> Result<ThroughputReport, FlowError> {
        self.session.throughput(device, arch, workload)
    }

    /// Best throughput for a window/depth when the device is packed with as
    /// many cores as fit (the Figure 7 / Figure 10 experiment).
    ///
    /// *Staged equivalent:* [`IslSession::best_on_device`].
    ///
    /// # Errors
    ///
    /// [`FlowError::Estimation`] on infeasibility.
    pub fn best_on_device(
        &self,
        device: &Device,
        window: Window,
        depth: u32,
        workload: Workload,
    ) -> Result<ThroughputReport, FlowError> {
        self.session.best_on_device(device, window, depth, workload)
    }

    // -- phase 4: exploration -------------------------------------------------

    /// Explore the design space and extract the Pareto set (the Figure 6 /
    /// Figure 9 experiment).
    ///
    /// *Staged equivalent:* [`IslSession::explore`] (which keeps the result
    /// `Arc`-shared; this shim clones it out for signature compatibility).
    /// For several workloads or devices, see [`IslSession::explore_many`].
    ///
    /// # Errors
    ///
    /// [`FlowError::Exploration`] when nothing is feasible.
    pub fn explore(
        &self,
        device: &Device,
        workload: Workload,
        space: &DesignSpace,
    ) -> Result<Exploration, FlowError> {
        Ok((**self.session.explore(device, workload, space)?.exploration()).clone())
    }

    // -- simulation -------------------------------------------------------------

    /// A functional simulator for this ISL (golden / tiled / cone-DAG).
    ///
    /// *Staged equivalent:* [`IslSession::simulator`].
    ///
    /// # Errors
    ///
    /// [`FlowError::Simulation`] for unsupported ranks.
    pub fn simulator(&self) -> Result<Simulator<'_>, FlowError> {
        self.session.simulator()
    }

    /// Run this ISL's full iteration count on `init` through the compiled
    /// tiled engine with the exact window/depth decomposition of `arch`.
    ///
    /// *Staged equivalent:* [`IslSession::run_architecture`].
    ///
    /// # Errors
    ///
    /// [`FlowError::Simulation`] for unsupported ranks, non-local borders,
    /// or mismatched frame sets.
    pub fn run_architecture(
        &self,
        init: &FrameSet,
        arch: Architecture,
    ) -> Result<FrameSet, FlowError> {
        self.session.run_architecture(init, arch)
    }

    // -- hardware co-simulation --------------------------------------------

    /// Certify an explored architecture instance end to end on `init` (see
    /// [`IslSession::certify`] for the evidence it gathers).
    ///
    /// *Staged equivalent:* [`IslSession::certify`] (which keeps the
    /// certificate `Arc`-shared and stored; this shim clones it out for
    /// signature compatibility). For batches, see
    /// [`IslSession::verify_many`].
    ///
    /// # Errors
    ///
    /// [`FlowError::Verification`] on any divergence;
    /// [`FlowError::Simulation`] for unsupported ranks, non-local borders or
    /// mismatched frame sets.
    pub fn verify_architecture(
        &self,
        init: &FrameSet,
        arch: Architecture,
    ) -> Result<ArchitectureCertificate, FlowError> {
        Ok((**self.session.certify(init, arch)?.certificate()).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isl_sim::{synthetic, FrameSet};

    const BLUR: &str = r#"
#pragma isl iterations 6
#pragma isl border mirror
void blur(const float in[H][W], float out[H][W]) {
    for (int y = 0; y < H; y++)
        for (int x = 0; x < W; x++)
            out[y][x] = (in[y-1][x] + in[y+1][x] + in[y][x-1] + in[y][x+1]) * 0.25f;
}
"#;

    #[test]
    fn source_to_flow() {
        let flow = IslFlow::from_source(BLUR).unwrap();
        assert_eq!(flow.iterations(), 6);
        assert_eq!(flow.border(), BorderMode::Mirror);
        assert_eq!(flow.pattern().radius(), 1);
    }

    #[test]
    fn bad_source_reports_analysis_error() {
        let err = IslFlow::from_source("void f() {").unwrap_err();
        assert!(matches!(err, FlowError::Analysis(_)));
    }

    #[test]
    fn end_to_end_explore_and_vhdl() {
        let flow = IslFlow::from_source(BLUR).unwrap();
        let device = Device::virtex6_xc6vlx760();
        let space = DesignSpace::new(1..=3, 1..=2, 2);
        let result = flow.explore(&device, flow.workload(128, 96), &space).unwrap();
        assert!(!result.pareto().is_empty());
        let best = result.fastest().unwrap();
        let bundle = flow.generate_vhdl(best.arch.window, best.arch.depth).unwrap();
        isl_vhdl::check::validate(&bundle.entity).unwrap();
        isl_vhdl::check::validate_package(&bundle.package).unwrap();
        assert!(bundle.testbench.contains(&bundle.entity_name));
    }

    #[test]
    fn simulator_tiled_equals_golden_through_flow() {
        let flow = IslFlow::from_source(BLUR).unwrap();
        let sim = flow.simulator().unwrap();
        let init = FrameSet::from_frames(vec![synthetic::noise(20, 14, 5)]).unwrap();
        let golden = sim.run(&init, flow.iterations()).unwrap();
        let tiled = sim
            .run_tiled(&init, flow.iterations(), Window::square(4), 3)
            .unwrap();
        assert!(golden.max_abs_diff(&tiled) < 1e-12);
    }

    #[test]
    fn explored_architecture_simulates_to_golden() {
        // The DSE → simulation loop: pick the fastest explored instance and
        // execute exactly its window/depth decomposition on frames.
        let flow = IslFlow::from_source(BLUR).unwrap();
        let device = Device::virtex6_xc6vlx760();
        let space = DesignSpace::new(2..=4, 1..=3, 2);
        let result = flow.explore(&device, flow.workload(64, 48), &space).unwrap();
        let best = result.fastest().unwrap();
        let init = FrameSet::from_frames(vec![synthetic::noise(64, 48, 11)]).unwrap();
        let by_arch = flow.run_architecture(&init, best.arch).unwrap();
        let golden = flow
            .simulator()
            .unwrap()
            .run(&init, flow.iterations())
            .unwrap();
        assert_eq!(by_arch, golden);
    }

    #[test]
    fn verify_architecture_certifies_explored_point() {
        let flow = IslFlow::from_source(BLUR).unwrap();
        let device = Device::virtex6_xc6vlx760();
        let space = DesignSpace::new(2..=4, 1..=3, 2);
        let result = flow.explore(&device, flow.workload(24, 18), &space).unwrap();
        let best = result.fastest().unwrap();
        let init = FrameSet::from_frames(vec![synthetic::noise(24, 18, 3)]).unwrap();
        let cert = flow.verify_architecture(&init, best.arch).unwrap();
        assert_eq!(cert.arch, best.arch);
        assert!(cert.quantized_elements > 0);
        assert!(cert.vector_records > 0);
        assert!(cert.vector_words > 0);
        assert!(!cert.vector_files.is_empty());
        // A 6-iteration blur in Q8.10 stays within a small multiple of the
        // quantisation step.
        assert!(cert.max_fixed_error < 0.25, "{}", cert.max_fixed_error);
    }

    #[test]
    fn from_algorithm_wires_defaults() {
        let algo = isl_algorithms::chambolle();
        let flow = IslFlow::from_algorithm(&algo).unwrap();
        assert_eq!(flow.iterations(), algo.default_iterations);
        assert_eq!(flow.pattern().dynamic_fields().len(), 2);
        assert_eq!(flow.pattern().params().len(), 2);
    }

    #[test]
    fn area_model_validation_through_flow() {
        let flow = IslFlow::from_source(BLUR).unwrap();
        let device = Device::virtex6_xc6vlx760();
        let windows: Vec<Window> = (1..=4).map(Window::square).collect();
        let v = flow
            .validate_area_model(&device, &windows, &[1, 2], 2)
            .unwrap();
        assert_eq!(v.rows.len(), 8);
        assert!(v.max_error_pct < 12.0);
    }

    #[test]
    fn throughput_through_flow() {
        let flow = IslFlow::from_source(BLUR).unwrap();
        let device = Device::virtex6_xc6vlx760();
        let r = flow
            .throughput(
                &device,
                Architecture::new(Window::square(3), 2, 2),
                flow.workload(256, 192),
            )
            .unwrap();
        assert!(r.fps > 0.0);
        let best = flow
            .best_on_device(&device, Window::square(3), 2, flow.workload(256, 192))
            .unwrap();
        assert!(best.fps >= r.fps);
    }

    #[test]
    fn explore_follows_workload_iterations() {
        // The pre-redesign contract: the workload's iteration count wins
        // over the spec's (the pragma says 6; the workload says 4 — the
        // remainder depths of the calibration must follow the workload).
        let flow = IslFlow::from_source(BLUR).unwrap();
        let device = Device::virtex6_xc6vlx760();
        let space = DesignSpace::new(2..=3, 3..=3, 2);
        let result = flow
            .explore(&device, Workload::image(64, 48, 4), &space)
            .unwrap();
        assert!(!result.points().is_empty());
    }

    #[test]
    fn shim_calls_share_the_session_store() {
        // The deprecated façade delegates to one session: a second explore
        // with identical inputs must do zero new cone builds or syntheses.
        let flow = IslFlow::from_source(BLUR).unwrap();
        let device = Device::virtex6_xc6vlx760();
        let space = DesignSpace::new(1..=3, 1..=2, 2);
        let a = flow.explore(&device, flow.workload(64, 48), &space).unwrap();
        let warm = flow.session().store_stats();
        let b = flow.explore(&device, flow.workload(64, 48), &space).unwrap();
        assert_eq!(a.points(), b.points());
        let hot = flow.session().store_stats();
        assert_eq!(warm.cones.misses, hot.cones.misses);
        assert_eq!(warm.syntheses.misses, hot.syntheses.misses);
        assert_eq!(warm.calibrations.misses, hot.calibrations.misses);
        assert!(hot.calibrations.hits > warm.calibrations.hits);
    }
}
