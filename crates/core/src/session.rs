//! The staged pipeline API: typed [`IslSession`] stages over a shared
//! [`ArtifactStore`].
//!
//! The paper's flow is a pipeline — stencil spec → cone decomposition →
//! area/latency estimation → design-space exploration → VHDL → hardware
//! certification — and this module makes the stages explicit:
//!
//! ```text
//! Spec (IslSession) → Decomposed → Estimated → Explored → Synthesized
//!                                                       ↘ Certified
//! ```
//!
//! An [`IslSession`] owns one stencil spec plus one concurrency-safe
//! [`ArtifactStore`]; every stage method returns an immutable, `Arc`-shared
//! handle whose expensive contents (cones, compiled programs, calibration
//! syntheses, golden vectors, certificates) live in the store. Later stages
//! — and repeated calls with the same inputs, from any thread — reuse the
//! stored artifacts instead of recomputing; [`IslSession::store_stats`]
//! exposes the hit/miss counters that prove it.
//!
//! The batch surface ([`IslSession::explore_many`],
//! [`IslSession::verify_many`]) fans independent requests over the
//! persistent worker pool while all of them share one store, so a sweep
//! over devices or workloads builds each cone shape once.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use isl_algorithms::Algorithm;
use isl_cosim::CoSimulator;
use isl_dse::{Calibration, DesignSpace, Exploration};
use isl_estimate::{
    Architecture, AreaValidation, ScheduleModel, ThroughputEstimator, ThroughputReport, Workload,
};
use isl_fpga::{Device, FixedFormat, SynthOptions, Synthesizer};
use isl_ir::{Cone, StencilPattern, Window};
use isl_sim::parallel::par_map;
use isl_sim::{level_depths, BorderMode, FrameSet, SimError, Simulator};
use isl_symexec::compile_str;
use isl_vhdl::check::{balance_only, verify_vectors};
use isl_vhdl::{
    fixed_package, generate_cone, generate_testbench, generate_vector_testbench, generate_wrapper,
    VectorFile, VectorLayout, VhdlOptions,
};

use crate::error::{FlowError, Stage};
use crate::store::{ArtifactStore, CalibrationKey, RefKey, RunKey, SearchKey, StoreStats};
use crate::telemetry::TelemetryReport;

// ---------------------------------------------------------------------------
// Bundles: what synthesize/certify hand to the outside world.
// ---------------------------------------------------------------------------

/// A golden-vector replay set shipped inside a [`VhdlBundle`]: the vector
/// file and the matching vector-mode testbench (plus the entity code when
/// the set drives a cone other than the bundle's main one — the remainder
/// cone of a non-divisor decomposition).
#[derive(Debug, Clone, PartialEq)]
pub struct VectorSet {
    /// Entity the vectors drive.
    pub entity_name: String,
    /// Entity code, when this is not the bundle's main entity.
    pub entity: Option<String>,
    /// File name of the vector file (`<entity>.vectors`).
    pub vectors_name: String,
    /// Vector-file text (the line-oriented exchange format).
    pub vectors: String,
    /// File name of the vector testbench (`tb_<entity>_vec.vhd`).
    pub testbench_name: String,
    /// The self-checking vector-replay testbench.
    pub testbench: String,
}

/// Everything needed to drop a cone into a VHDL project.
///
/// A bundle from [`IslSession::synthesize`] carries the support package,
/// entity, wrapper and the classic single-window testbench; a bundle from
/// [`Certified::synthesize`] additionally ships the certified golden-vector
/// files and their replay testbenches ([`VhdlBundle::vectors`]), so an
/// external GHDL/ModelSim run is one command: [`VhdlBundle::write_to`] a
/// directory and execute the generated `run_ghdl.sh`.
#[derive(Debug, Clone, PartialEq)]
pub struct VhdlBundle {
    /// The fixed-point support package (`isl_fixed_pkg`).
    pub package: String,
    /// The cone entity + architecture.
    pub entity: String,
    /// The tile wrapper (serial window loader + fire/collect control).
    pub wrapper: String,
    /// A self-checking testbench (drives the bare cone).
    pub testbench: String,
    /// The entity name.
    pub entity_name: String,
    /// Pipeline depth, cycles.
    pub pipeline_stages: u32,
    /// Certified golden-vector replay sets (empty unless the bundle came
    /// through [`Certified::synthesize`]; certified shapes without stimulus
    /// ports — constant-only cones — have nothing to replay and are
    /// omitted).
    pub vectors: Vec<VectorSet>,
}

impl VhdlBundle {
    /// Every file of the bundle as `(file name, contents)`, in compile
    /// order: package, entities, wrapper, testbenches, vector files, and
    /// the `run_ghdl.sh` driver script.
    pub fn files(&self) -> Vec<(String, String)> {
        let mut files = vec![
            ("isl_fixed_pkg.vhd".to_string(), self.package.clone()),
            (format!("{}.vhd", self.entity_name), self.entity.clone()),
        ];
        for set in &self.vectors {
            if let Some(entity) = &set.entity {
                files.push((format!("{}.vhd", set.entity_name), entity.clone()));
            }
        }
        files.push((format!("{}_tile.vhd", self.entity_name), self.wrapper.clone()));
        files.push((format!("tb_{}.vhd", self.entity_name), self.testbench.clone()));
        for set in &self.vectors {
            files.push((set.vectors_name.clone(), set.vectors.clone()));
            files.push((set.testbench_name.clone(), set.testbench.clone()));
        }
        files.push(("run_ghdl.sh".to_string(), self.ghdl_script()));
        files
    }

    /// A shell script that analyses, elaborates and runs every shipped
    /// testbench in GHDL (any VHDL-93 simulator accepts the same file
    /// list) — the promised one-command external replay.
    pub fn ghdl_script(&self) -> String {
        let mut sources = vec![
            "isl_fixed_pkg.vhd".to_string(),
            format!("{}.vhd", self.entity_name),
        ];
        for set in &self.vectors {
            if set.entity.is_some() {
                sources.push(format!("{}.vhd", set.entity_name));
            }
        }
        sources.push(format!("{}_tile.vhd", self.entity_name));
        sources.push(format!("tb_{}.vhd", self.entity_name));
        let mut benches = vec![format!("tb_{}", self.entity_name)];
        for set in &self.vectors {
            sources.push(set.testbench_name.clone());
            benches.push(format!("tb_{}_vec", set.entity_name));
        }
        let mut script = String::from(
            "#!/bin/sh\n# Replay every shipped testbench (self-checking: any assertion\n# failure stops the run with a non-zero exit).\nset -e\n",
        );
        script.push_str(&format!("ghdl -a --std=93 {}\n", sources.join(" ")));
        for tb in &benches {
            script.push_str(&format!("ghdl -e --std=93 {tb}\nghdl -r --std=93 {tb}\n"));
        }
        script.push_str("echo \"all testbenches passed\"\n");
        script
    }

    /// Write every bundle file (and `run_ghdl.sh`) into `dir`, creating it
    /// if needed. Returns the written paths.
    ///
    /// # Errors
    ///
    /// [`FlowError::Io`] on filesystem failures.
    pub fn write_to(&self, dir: &Path) -> Result<Vec<PathBuf>, FlowError> {
        std::fs::create_dir_all(dir)?;
        let mut paths = Vec::new();
        for (name, contents) in self.files() {
            let path = dir.join(name);
            std::fs::write(&path, contents)?;
            paths.push(path);
        }
        Ok(paths)
    }
}

/// Evidence that one architecture instance computes what the hardware will:
/// returned by [`IslSession::certify`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArchitectureCertificate {
    /// The certified instance.
    pub arch: Architecture,
    /// Iterations of the certified run.
    pub iterations: u32,
    /// Fixed-point format of the datapath.
    pub format: FixedFormat,
    /// Frame elements of the certified quantised cone-DAG run (fields ×
    /// width × height), whose error metrics the certificate reports.
    pub quantized_elements: usize,
    /// Golden-vector files, one per distinct cone shape of the
    /// decomposition — every firing of the run, certified mismatch-free.
    pub vector_files: Vec<VectorFile>,
    /// Cone firings certified across all vector files.
    pub vector_records: usize,
    /// Response words certified bit-for-bit.
    pub vector_words: usize,
    /// Largest |fixed-point − f64| deviation from the **whole-frame golden
    /// run** (the end-to-end numeric cost of the hardware, measured — not
    /// assumed). Includes the decomposition's cone-base border semantics,
    /// so it has a format-independent floor at frame edges.
    pub max_fixed_error: f64,
    /// Root-mean-square counterpart of
    /// [`ArchitectureCertificate::max_fixed_error`].
    pub rms_fixed_error: f64,
    /// Largest |fixed-point − f64| deviation from the **exact-arithmetic
    /// run of the same cone decomposition** — the pure cost of the
    /// fixed-point format, with the decomposition's (format-independent)
    /// border semantics factored out. Monotone non-increasing in the
    /// fractional width, which is the axis [`crate::ErrorBudget`] bounds
    /// and the format search binary-searches.
    pub max_quant_error: f64,
    /// Root-mean-square counterpart of
    /// [`ArchitectureCertificate::max_quant_error`] (the second budget
    /// axis).
    pub rms_quant_error: f64,
}

// ---------------------------------------------------------------------------
// The session (the `Spec` stage).
// ---------------------------------------------------------------------------

/// The immutable stencil spec a session is anchored on.
#[derive(Debug, Clone)]
struct Spec {
    pattern: StencilPattern,
    fingerprint: u64,
    iterations: u32,
    border: BorderMode,
    synth_options: SynthOptions,
    schedule: ScheduleModel,
    threads: usize,
}

/// A staged-pipeline session: one stencil spec, one shared
/// [`ArtifactStore`].
///
/// Cloning a session is cheap and shares the store — hand clones to threads
/// (all stage methods take `&self`) or keep one session per process and let
/// every request reuse each other's artifacts. Builder-style `with_*`
/// methods refine the spec without touching the store; store keys embed the
/// options, so artifacts cached under previous settings are simply not
/// matched.
///
/// See the [crate-level documentation](crate) for the full staged example.
#[derive(Debug, Clone)]
pub struct IslSession {
    spec: Arc<Spec>,
    store: Arc<ArtifactStore>,
}

impl IslSession {
    /// Stage 1 (**Spec**): parse, analyse and symbolically execute a C
    /// kernel.
    ///
    /// # Errors
    ///
    /// [`FlowError::Analysis`] with the frontend/symexec diagnostic.
    pub fn from_source(source: &str) -> Result<Self, FlowError> {
        let _span = isl_telemetry::span("stage", "Spec");
        let (pattern, info) = compile_str(source).map_err(|e| FlowError::from(e).at(Stage::Spec, None))?;
        let border = info
            .border
            .as_deref()
            .and_then(BorderMode::parse)
            .unwrap_or_default();
        Ok(Self::from_pattern(pattern, info.iterations.unwrap_or(1)).with_border(border))
    }

    /// Build the session from a built-in algorithm.
    ///
    /// # Errors
    ///
    /// Same as [`IslSession::from_source`].
    pub fn from_algorithm(algorithm: &Algorithm) -> Result<Self, FlowError> {
        Self::from_source(algorithm.source)
    }

    /// [`IslSession::from_source`] under observation: start a fresh global
    /// telemetry run ([`isl_telemetry::start`]) *before* parsing, so the
    /// Spec stage itself is on the record, then pull the evidence any time
    /// with [`IslSession::telemetry_report`].
    ///
    /// Telemetry is **process-global** (one collector, like the `log`
    /// crate): this resets whatever a previous run recorded, every session
    /// in the process contributes to the same record, and collection stays
    /// enabled until [`isl_telemetry::set_enabled`]`(false)`. Disabled-mode
    /// probes cost one relaxed atomic load, so leaving instrumented code
    /// paths compiled in is free in production.
    ///
    /// # Errors
    ///
    /// Same as [`IslSession::from_source`].
    pub fn with_telemetry(source: &str) -> Result<Self, FlowError> {
        isl_telemetry::start();
        Self::from_source(source)
    }

    /// The observability evidence recorded since telemetry started: the
    /// global span/counter/gauge snapshot fused with this session's store
    /// counters. See [`TelemetryReport`] for the three sink formats (JSON
    /// run report, Chrome trace event file, human summary).
    pub fn telemetry_report(&self) -> TelemetryReport {
        TelemetryReport::new(isl_telemetry::snapshot(), self.store.stats())
    }

    /// Build the session from an already-extracted pattern.
    pub fn from_pattern(pattern: StencilPattern, iterations: u32) -> Self {
        // Every compile this session triggers is bytecode-verified in
        // debug builds (first install wins; cheap when already set).
        isl_analyze::install_debug_verifier();
        let fingerprint = pattern.fingerprint();
        IslSession {
            spec: Arc::new(Spec {
                pattern,
                fingerprint,
                iterations: iterations.max(1),
                border: BorderMode::default(),
                synth_options: SynthOptions::default(),
                schedule: ScheduleModel::default(),
                threads: 0,
            }),
            store: Arc::new(ArtifactStore::new()),
        }
    }

    /// Override the border mode.
    pub fn with_border(mut self, border: BorderMode) -> Self {
        Arc::make_mut(&mut self.spec).border = border;
        self
    }

    /// Override the iteration count.
    pub fn with_iterations(mut self, iterations: u32) -> Self {
        Arc::make_mut(&mut self.spec).iterations = iterations.max(1);
        self
    }

    /// Override synthesis options (fixed-point format, sharing, jitter).
    pub fn with_synth_options(mut self, options: SynthOptions) -> Self {
        Arc::make_mut(&mut self.spec).synth_options = options;
        self
    }

    /// Override only the fixed-point format of the synthesis options — the
    /// knob the format search turns. The returned session shares this
    /// session's store, so artifacts probed under one format (cones are
    /// format-independent; certificates and syntheses key on the format)
    /// stay shared.
    pub fn with_format(mut self, format: FixedFormat) -> Self {
        Arc::make_mut(&mut self.spec).synth_options.format = format;
        self
    }

    /// Override the schedule model.
    pub fn with_schedule(mut self, schedule: ScheduleModel) -> Self {
        Arc::make_mut(&mut self.spec).schedule = schedule;
        self
    }

    /// Cap the worker threads of engines and batch fans (0 = one per core).
    pub fn with_threads(mut self, threads: usize) -> Self {
        Arc::make_mut(&mut self.spec).threads = threads;
        self
    }

    /// Back this session's artifact store with the on-disk record file at
    /// `path` (creating it when absent): persisted calibrations, synthesis
    /// reports, golden vectors, certificates, reference runs and
    /// format-search outcomes are served warm across process restarts —
    /// bit-identical to cold recomputes, with the reuse observable as
    /// [`StoreStats`] disk hits instead of fresh builds. Artifacts already
    /// cached in memory by this session are kept.
    ///
    /// Corrupt or version-mismatched files are not errors: bad records
    /// degrade to cold builds and are counted in
    /// [`StoreStats::load_skipped_corrupt`]. The store flushes on drop;
    /// call [`IslSession::checkpoint`] to flush durably at a known point.
    ///
    /// # Errors
    ///
    /// [`FlowError::Io`] when the file exists but cannot be read.
    pub fn with_persistent_store(mut self, path: impl AsRef<Path>) -> Result<Self, FlowError> {
        self.store = Arc::new(ArtifactStore::open_persistent(path.as_ref())?);
        Ok(self)
    }

    /// Cap the persistent store file size in bytes; the flush path evicts
    /// least-recently-used records down to the budget. No-op without
    /// [`IslSession::with_persistent_store`], or when the store is already
    /// shared with clones of this session (set the budget at build time,
    /// right after [`IslSession::with_persistent_store`]).
    pub fn with_store_byte_budget(mut self, byte_budget: u64) -> Self {
        if let Some(store) = Arc::get_mut(&mut self.store) {
            *store = std::mem::take(store).with_byte_budget(byte_budget);
        }
        self
    }

    /// Durably flush the persistent store now (atomic write-then-rename;
    /// readers of the file never observe a partial write). Returns the
    /// bytes written — 0 when the store is clean or purely in-memory.
    ///
    /// # Errors
    ///
    /// [`FlowError::Io`] from the underlying write or rename; the previous
    /// file is untouched on failure.
    pub fn checkpoint(&self) -> Result<u64, FlowError> {
        self.store.checkpoint()
    }

    // -- spec accessors -----------------------------------------------------

    /// The extracted stencil pattern.
    pub fn pattern(&self) -> &StencilPattern {
        &self.spec.pattern
    }

    /// Iterations per frame (the paper's `N`).
    pub fn iterations(&self) -> u32 {
        self.spec.iterations
    }

    /// Border mode used for simulation.
    pub fn border(&self) -> BorderMode {
        self.spec.border
    }

    /// Active synthesis options.
    pub fn synth_options(&self) -> SynthOptions {
        self.spec.synth_options
    }

    /// Active schedule model.
    pub fn schedule(&self) -> ScheduleModel {
        self.spec.schedule
    }

    /// A workload for this ISL over `width`×`height` frames.
    pub fn workload(&self, width: u32, height: u32) -> Workload {
        Workload::image(width, height, self.spec.iterations)
    }

    /// The shared artifact store.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// Snapshot of the store's per-kind hit/miss counters.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    // -- shared infrastructure ---------------------------------------------

    /// The cone of one shape, through the store (stage context applied
    /// uniformly whether served or built).
    fn cone_at(&self, stage: Stage, window: Window, depth: u32) -> Result<Arc<Cone>, FlowError> {
        let _span = isl_telemetry::span!("artifact", "cone w{} d{}", window, depth);
        let key = format!("cone {}_w{window}_d{depth}", self.spec.pattern.name());
        self.store
            .cone(&self.spec.pattern, window, depth, true)
            .map_err(|e| FlowError::from(e).at(stage, Some(&key)))
    }

    /// Stage 2 helper: the shared cone of `(window, depth)`.
    ///
    /// # Errors
    ///
    /// [`FlowError::Cone`] on invalid depth/pattern, tagged with the
    /// decompose stage and the cone's key.
    pub fn cone(&self, window: Window, depth: u32) -> Result<Arc<Cone>, FlowError> {
        self.cone_at(Stage::Decompose, window, depth)
    }

    /// A synthesiser wired to the store's cone and report caches.
    fn synthesizer<'d>(&self, device: &'d Device) -> Synthesizer<'d> {
        Synthesizer::with_options(device, self.spec.synth_options)
            .with_caches(self.store.cones().clone(), self.store.syntheses().clone())
    }

    /// An explorer wired to the store's caches.
    fn explorer<'d>(&self, device: &'d Device) -> isl_dse::Explorer<'d> {
        isl_dse::Explorer::new(device)
            .with_synth_options(self.spec.synth_options)
            .with_schedule(self.spec.schedule)
            .with_threads(self.spec.threads)
            .with_caches(self.store.cones().clone(), self.store.syntheses().clone())
    }

    /// A functional simulator wired to the store's compile caches (golden /
    /// tiled / cone-DAG semantics).
    ///
    /// # Errors
    ///
    /// [`FlowError::Simulation`] for unsupported ranks.
    pub fn simulator(&self) -> Result<Simulator<'_>, FlowError> {
        Ok(Simulator::new(&self.spec.pattern)
            .map_err(|e| FlowError::from(e).at(Stage::Simulate, None))?
            .with_border(self.spec.border)
            .with_threads(self.spec.threads)
            .with_program_cache(self.store.programs().clone())
            .with_cone_cache(self.store.cones().clone()))
    }

    // -- stage 2: Decomposed -------------------------------------------------

    /// Stage 2 (**Decomposed**): decompose this spec's iteration count into
    /// levels of depth-`depth` cones over `window` and build (or fetch) the
    /// cone of every distinct level depth.
    ///
    /// # Errors
    ///
    /// [`FlowError::Cone`] on invalid depth/pattern.
    pub fn decompose(&self, window: Window, depth: u32) -> Result<Decomposed, FlowError> {
        let _span = isl_telemetry::span("stage", "Decomposed");
        let levels = if depth == 0 {
            // Surface the error through the same path a cone build would.
            return Err(self.cone_at(Stage::Decompose, window, depth).unwrap_err());
        } else {
            level_depths(self.spec.iterations, depth)
        };
        let mut cones: Vec<(u32, Arc<Cone>)> = Vec::new();
        for &d in &levels {
            if !cones.iter().any(|(cd, _)| *cd == d) {
                cones.push((d, self.cone_at(Stage::Decompose, window, d)?));
            }
        }
        Ok(Decomposed {
            session: self.clone(),
            window,
            depth,
            levels,
            cones,
        })
    }

    // -- stage 3: Estimated --------------------------------------------------

    /// Stage 3 (**Estimated**): α-calibrate the area model and derive the
    /// cone facts of every shape `space` can touch on `device` — the
    /// expensive half of an exploration, stored and reused across repeated
    /// calls, other workloads of the same iteration count, and threads.
    ///
    /// # Errors
    ///
    /// [`FlowError::Exploration`] on calibration failures.
    pub fn estimate(&self, device: &Device, space: &DesignSpace) -> Result<Estimated, FlowError> {
        self.estimate_for(device, space, self.spec.iterations)
    }

    /// [`IslSession::estimate`] for an explicit iteration count (the
    /// remainder depths a calibration covers depend on it). Calibrations of
    /// different iteration counts are distinct store entries.
    fn estimate_for(
        &self,
        device: &Device,
        space: &DesignSpace,
        iterations: u32,
    ) -> Result<Estimated, FlowError> {
        let _span = isl_telemetry::span("stage", "Estimated");
        let key = CalibrationKey::new(
            self.spec.fingerprint,
            device,
            &self.spec.synth_options,
            iterations,
            space,
        );
        let artifact = key.describe();
        let explorer = self.explorer(device);
        let calibration = self
            .store
            .calibration(key, || {
                explorer
                    .calibrate(&self.spec.pattern, iterations, space)
                    .map_err(FlowError::from)
            })
            .map_err(|e| e.at(Stage::Estimate, Some(&artifact)))?;
        Ok(Estimated {
            session: self.clone(),
            device: device.clone(),
            space: space.clone(),
            calibration,
        })
    }

    // -- stage 4: Explored ---------------------------------------------------

    /// Stage 4 (**Explored**): explore the design space and extract the
    /// Pareto set — an estimation stage followed by [`Estimated::explore`].
    /// The calibration follows `workload`'s iteration count, not the
    /// session's: it covers the remainder depths of a
    /// `workload.iterations`-long run.
    ///
    /// # Errors
    ///
    /// [`FlowError::Exploration`] when nothing is feasible.
    pub fn explore(
        &self,
        device: &Device,
        workload: Workload,
        space: &DesignSpace,
    ) -> Result<Explored, FlowError> {
        self.estimate_for(device, space, workload.iterations)?
            .explore(workload)
    }

    /// Fan a batch of exploration requests over the worker pool, all
    /// sharing this session's store — cones and calibration syntheses of
    /// one shape are shared across the whole batch (e.g. one workload on
    /// many devices, or many frame sizes on one device). Requests that
    /// race on an artifact nobody has built yet build it exactly once:
    /// the first claims the build and the rest block for the result
    /// (single-flight — the waiters count as hits). Results are in request
    /// order, each independently `Ok` or `Err`.
    pub fn explore_many(&self, requests: &[ExploreRequest<'_>]) -> Vec<Result<Explored, FlowError>> {
        par_map(requests.to_vec(), self.spec.threads, |req| {
            self.explore(req.device, req.workload, req.space)
        })
    }

    // -- stage 5: Synthesized ------------------------------------------------

    /// Stage 5 (**Synthesized**): generate the complete VHDL bundle for one
    /// cone shape (no golden vectors — certify first and use
    /// [`Certified::synthesize`] for a bundle that ships them).
    ///
    /// # Errors
    ///
    /// [`FlowError::Cone`] on invalid depth/pattern.
    pub fn synthesize(&self, window: Window, depth: u32) -> Result<Synthesized, FlowError> {
        let _span = isl_telemetry::span("stage", "Synthesized");
        let cone = self.cone_at(Stage::Synthesize, window, depth)?;
        Ok(Synthesized {
            session: self.clone(),
            bundle: self.bundle_of(&cone, &[])?,
        })
    }

    /// Assemble a bundle for `cone`, shipping `vectors` (entity code is
    /// generated for vector shapes that differ from the main cone), each
    /// with a vector testbench that must pass the block-balance check.
    /// Vector files without stimulus ports (constant-only cones — certified
    /// word-for-word but with nothing for a testbench to drive) are the
    /// only ones skipped; every other failure propagates.
    fn bundle_of(&self, cone: &Cone, vectors: &[VectorFile]) -> Result<VhdlBundle, FlowError> {
        let fmt = self.spec.synth_options.format;
        let module = generate_cone(cone, &VhdlOptions { format: fmt });
        let testbench = generate_testbench(cone, &module, fmt);
        let wrapper = generate_wrapper(cone, &module);
        let invalid = |e: &dyn std::fmt::Display| {
            FlowError::Verification(e.to_string()).at(Stage::Synthesize, None)
        };
        let mut sets = Vec::new();
        for file in vectors {
            if file.ports_in.is_empty() {
                continue;
            }
            // Vector files of foreign shapes need their own entity; the
            // cones come from the store (already built by certify).
            let vcone = self.cone_at(Stage::Synthesize, file.window, file.depth)?;
            let vmodule = generate_cone(&vcone, &VhdlOptions { format: fmt });
            let tb = generate_vector_testbench(&vmodule, file).map_err(|e| invalid(&e))?;
            balance_only(&tb).map_err(|e| invalid(&e))?;
            sets.push(VectorSet {
                entity: (vmodule.entity_name != module.entity_name).then_some(vmodule.code),
                entity_name: vmodule.entity_name,
                vectors_name: format!("{}.vectors", file.entity),
                vectors: file.to_text(),
                testbench_name: format!("tb_{}_vec.vhd", file.entity),
                testbench: tb,
            });
        }
        Ok(VhdlBundle {
            package: fixed_package(fmt),
            entity_name: module.entity_name.clone(),
            pipeline_stages: module.pipeline_stages,
            entity: module.code,
            wrapper: wrapper.code,
            testbench,
            vectors: sets,
        })
    }

    // -- estimation passthroughs ---------------------------------------------

    /// Validate the Eq. 1 area model over a window/depth grid on `device`
    /// (the Figure 5 / Figure 8 experiment).
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
        let synth = self.synthesizer(device);
        AreaValidation::run(&synth, &self.spec.pattern, windows, depths, calibration_points)
            .map_err(|e| FlowError::from(e).at(Stage::Estimate, None))
    }

    /// Estimate one architecture's throughput on `device`.
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
        let synth = self.synthesizer(device);
        let est = ThroughputEstimator::with_schedule(&synth, self.spec.schedule);
        est.estimate(&self.spec.pattern, arch, workload)
            .map_err(|e| FlowError::from(e).at(Stage::Estimate, None))
    }

    /// Best throughput for a window/depth when the device is packed with as
    /// many cores as fit (the Figure 7 / Figure 10 experiment).
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
        let synth = self.synthesizer(device);
        let est = ThroughputEstimator::with_schedule(&synth, self.spec.schedule);
        est.best_on_device(&self.spec.pattern, window, depth, workload)
            .map_err(|e| FlowError::from(e).at(Stage::Estimate, None))
    }

    // -- stage 6: Certified ----------------------------------------------------

    /// Stage 6 (**Certified**): certify an explored architecture instance
    /// end to end on `init`:
    ///
    /// 1. one **compiled quantised cone-DAG** run — the hardware's actual
    ///    multi-level datapath semantics at `arch`'s exact window/depth
    ///    decomposition, on raw fixed-point words — records every cone
    ///    firing (the border-resolved base-input words and every output
    ///    word) as golden vectors;
    /// 2. every golden vector must pass
    ///    [`isl_vhdl::check::verify_vectors`] (independent re-derivation of
    ///    every response word by the raw-word graph interpreter) with zero
    ///    mismatches;
    /// 3. the error metrics of the certificate are measured on that same
    ///    run, against the whole-frame `f64` golden run and the
    ///    exact-arithmetic run of the same decomposition.
    ///
    /// Engine equivalence (compiled engines against their tree walks) is
    /// the property suites' and the differential fuzzer's contract, not
    /// re-proved here; the vector testbenches are generated and checked
    /// once, by [`Certified::synthesize`].
    ///
    /// The certificate (golden vectors included) is stored: repeating the
    /// call — from any thread, any clone of this session — serves the
    /// stored evidence, and [`Certified::synthesize`] packages the vectors
    /// into a replayable [`VhdlBundle`].
    ///
    /// # Errors
    ///
    /// [`FlowError::Verification`] on any divergence;
    /// [`FlowError::Simulation`] for unsupported ranks, non-local (wrap)
    /// borders, which the emitted hardware does not implement, or
    /// mismatched frame sets.
    pub fn certify(&self, init: &FrameSet, arch: Architecture) -> Result<Certified, FlowError> {
        let _span = isl_telemetry::span("stage", "Certified");
        let key = self.run_key(init, arch.window, arch.depth);
        let artifact = key.describe();
        let vector_key = key.clone();
        let certificate = self
            .store
            .certificate(key, arch.cores, || self.certify_cold(init, arch, vector_key))
            .map_err(|e| e.at(Stage::Certify, Some(&artifact)))?;
        Ok(Certified {
            session: self.clone(),
            certificate,
        })
    }

    /// Fan a batch of certification requests over the worker pool, sharing
    /// the store (and therefore cones, compiled programs and golden-vector
    /// sets) across all of them. Results are in request order.
    pub fn verify_many(&self, requests: &[VerifyRequest<'_>]) -> Vec<Result<Certified, FlowError>> {
        par_map(requests.to_vec(), self.spec.threads, |req| {
            self.certify(req.init, req.arch)
        })
    }

    /// The cold path of [`IslSession::certify`] — always recomputes; the
    /// store guarantees a cached certificate came from exactly this code on
    /// the same key. `vector_key` is the caller's run key (same content,
    /// core count excluded by construction), reused so the frame set is
    /// fingerprinted once.
    fn certify_cold(
        &self,
        init: &FrameSet,
        arch: Architecture,
        vector_key: RunKey,
    ) -> Result<ArchitectureCertificate, FlowError> {
        let fmt = self.spec.synth_options.format;
        let sim = self.simulator()?;
        // Wrap borders break tile locality (an edge tile reads the opposite
        // edge), which the cone architecture cannot honour; the cone-DAG
        // engine alone would run them, so the refusal is explicit.
        if !self.spec.border.is_local() {
            return Err(SimError::NonLocalBorder.into());
        }
        let (window, depth) = (arch.window, arch.depth);

        // 1) The compiled quantised cone-DAG run — the hardware's actual
        // datapath — recording every cone firing as golden vectors. The
        // vector set is itself a stored artifact (keyed without the core
        // count — vectors are per-decomposition), so certifying the same
        // decomposition at another core count serves the stored firings
        // and runs the engine without recording.
        let span_g = isl_telemetry::span("certify", "golden vectors");
        let (vector_files, recorded) = self.golden_vectors(&sim, init, vector_key)?;
        let dag = match recorded {
            Some(frames) => frames,
            None => sim.run_cone_dag_quantized(init, self.spec.iterations, window, depth, fmt)?,
        };
        drop(span_g);

        // 2) Golden-vector certification: every response word re-derived
        // from its stimulus by the independent raw-word graph interpreter
        // (`verify_vectors` → `eval_fixed_raw`).
        let span_v = isl_telemetry::span("certify", "vector verify");
        let mut vector_records = 0;
        let mut vector_words = 0;
        for file in vector_files.iter() {
            let cone = self.cone_at(Stage::Certify, file.window, file.depth)?;
            let report = verify_vectors(&cone, fmt, file)
                .map_err(|e| FlowError::Verification(e.to_string()))?;
            vector_records += report.records;
            vector_words += report.words;
        }
        drop(span_v);

        // 3) Measured accuracy of the hardware datapath — the certified
        // cone-DAG run above — on two references: the whole-frame golden
        // run (end-to-end, includes the cone-base border semantics of the
        // decomposition) and the exact-arithmetic run of the *same*
        // decomposition (pure format cost — the monotone axis the format
        // search budgets). Both are format-independent, so they are stored
        // once per decomposition and shared by every format the search
        // probes.
        let refs = self.reference_runs(init, window, depth)?;
        let metrics = isl_cosim::error_metrics(&refs.0, &dag);
        let quant = isl_cosim::error_metrics(&refs.1, &dag);

        Ok(ArchitectureCertificate {
            arch,
            iterations: self.spec.iterations,
            format: fmt,
            quantized_elements: dag.len() * dag.width() * dag.height(),
            vector_files: (*vector_files).clone(),
            vector_records,
            vector_words,
            max_fixed_error: metrics.max_abs,
            rms_fixed_error: metrics.rms,
            max_quant_error: quant.max_abs,
            rms_quant_error: quant.rms,
        })
    }

    /// The store key of this spec's run of the decomposition `(window,
    /// depth)` over `init`.
    fn run_key(&self, init: &FrameSet, window: Window, depth: u32) -> RunKey {
        RunKey::new(
            self.spec.fingerprint,
            init,
            self.spec.synth_options.format,
            self.spec.border,
            self.spec.iterations,
            window,
            depth,
        )
    }

    /// The golden vectors of the run `key` names, through the store. On a
    /// miss the quantised cone-DAG engine records every cone firing, laid
    /// out as one [`VectorFile`] per distinct cone depth, and the run's
    /// final frames come back with the files.
    fn golden_vectors(
        &self,
        sim: &Simulator<'_>,
        init: &FrameSet,
        key: RunKey,
    ) -> Result<(Arc<Vec<VectorFile>>, Option<FrameSet>), FlowError> {
        let (fmt, iters, window, depth) = (key.format, key.iterations, key.window, key.depth);
        let mut recorded = None;
        let files = self.store.golden_vectors(key, || {
            let run = sim.record_cone_dag_quantized(init, iters, window, depth, fmt)?;
            let mut files = Vec::with_capacity(run.shapes.len());
            for (d, firings) in run.shapes {
                let cone = self.cone_at(Stage::Certify, window, d)?;
                let mut layout = VectorLayout::new(&cone, fmt, sim.params());
                for f in firings {
                    layout.push(f.level, f.tile, &f.inputs, f.outputs);
                }
                files.push(layout.into_file());
            }
            recorded = Some(run.frames);
            Ok::<_, FlowError>(files)
        })?;
        Ok((files, recorded))
    }

    /// The `(whole-frame golden, exact cone-DAG)` `f64` reference pair of
    /// one decomposition over `init`, through the store — computed once
    /// and shared by every format certified against it.
    fn reference_runs(
        &self,
        init: &FrameSet,
        window: Window,
        depth: u32,
    ) -> Result<Arc<(FrameSet, FrameSet)>, FlowError> {
        let key = RefKey::new(
            self.spec.fingerprint,
            init,
            self.spec.border,
            self.spec.iterations,
            window,
            depth,
        );
        self.store.reference_runs(key, || {
            let sim = self.simulator()?;
            let golden = sim.run(init, self.spec.iterations)?;
            let exact = sim.run_cone_dag(init, self.spec.iterations, window, depth)?;
            Ok::<_, FlowError>((golden, exact))
        })
    }

    // -- stage 7: FormatSearched ---------------------------------------------

    /// Stage 7 (**FormatSearched**): precision design-space exploration —
    /// find the narrowest certified [`FixedFormat`] whose measured error
    /// against the exact-arithmetic (`f64`) run of the *same* cone
    /// decomposition stays within `budget`, for `arch`'s decomposition
    /// over `init`.
    ///
    /// The search fixes the integer bits from the measured dynamic range of
    /// the reference run (plus one headroom bit, escalated when
    /// intermediate saturation shows up in the widest probe) and
    /// **binary-searches the fractional bits**: the quantisation error is
    /// monotone non-increasing in `frac` at fixed integer width (up to
    /// per-pixel rounding noise — saturation residue is frac-independent
    /// and handled by the integer-bit escalation), which
    /// `tests/tests/format_search_props.rs` property-tests.
    /// Every probe runs the compiled quantised cone-DAG engine at that
    /// format and measures its error against the stored exact reference —
    /// bit-identically the `max/rms_quant_error` a full
    /// [`IslSession::certify`] records, since certification measures the
    /// same engine run. Only the chosen format is then certified in full
    /// (its golden vectors recorded and verified word-for-word against the
    /// independent oracle), so a cold search adds one certificate to
    /// the artifact store, or none when that format was already certified.
    /// Re-running the search warm (same budget) serves the stored outcome;
    /// re-running with a *different* budget re-runs the probes and
    /// certifies one format (observable in [`IslSession::store_stats`]).
    ///
    /// `device` anchors the area axis: the outcome reports the synthesised
    /// LUT area of `arch` at the chosen format vs. the session's default
    /// format, both through the width-parameterised technology mapper, so
    /// the saving feeds straight back into DSE
    /// ([`FormatSearched::session`] + [`IslSession::explore`]).
    ///
    /// # Errors
    ///
    /// [`FlowError::Format`] when the budget is malformed or no format up
    /// to `budget.max_width` bits meets it; [`FlowError::Simulation`] when
    /// a probe's engine run fails; [`FlowError::Verification`] /
    /// [`FlowError::Simulation`] when the chosen format fails to certify.
    pub fn search_format(
        &self,
        device: &Device,
        init: &FrameSet,
        arch: Architecture,
        budget: ErrorBudget,
    ) -> Result<FormatSearched, FlowError> {
        let _span = isl_telemetry::span("stage", "FormatSearched");
        budget
            .validate()
            .map_err(|e| e.at(Stage::FormatSearch, None))?;
        let run_key = self.run_key(init, arch.window, arch.depth);
        let key = SearchKey::new(run_key, arch.cores, device, &self.spec.synth_options, &budget);
        let artifact = key.describe();
        let outcome = self
            .store
            .format_search(key, || self.search_format_cold(device, init, arch, budget))
            .map_err(|e| e.at(Stage::FormatSearch, Some(&artifact)))?;
        Ok(FormatSearched {
            session: self.clone(),
            outcome,
        })
    }

    /// The cold path of [`IslSession::search_format`] — runs the actual
    /// probes. The reference runs, compiled programs, the chosen format's
    /// certificate and the synthesis reports come from (and land in) the
    /// shared store, which is what makes a re-search with a different
    /// budget incremental.
    fn search_format_cold(
        &self,
        device: &Device,
        init: &FrameSet,
        arch: Architecture,
        budget: ErrorBudget,
    ) -> Result<FormatSearchOutcome, FlowError> {
        // Dynamic range of the exact run fixes the starting integer bits:
        // the smallest signed integer field covering every input and output
        // sample, plus one headroom bit for intermediate growth inside a
        // cone. The reference pair lands in the store, where every probe
        // and the chosen format's certification reuse it.
        let refs = self.reference_runs(init, arch.window, arch.depth)?;
        let golden = &refs.0;
        let mut maxabs = 0.0f64;
        for fs in [init, golden] {
            for frame in fs.frames().iter() {
                for &v in frame.as_slice() {
                    if v.is_finite() {
                        maxabs = maxabs.max(v.abs());
                    }
                }
            }
        }
        let mut int_bits = 2u32;
        while int_bits < budget.max_width && (1u128 << (int_bits - 1)) as f64 <= maxabs {
            int_bits += 1;
        }
        int_bits = (int_bits + 1).clamp(2, budget.max_width.saturating_sub(1).max(1));

        // A probe measures only what it reports: the quantisation error of
        // the compiled quantised cone-DAG run on the session's store-backed
        // simulator — the same engine run `certify` records and measures,
        // so the numbers are bit-identical to the certificate's. Engine
        // equivalence is the property suites' and the fuzzer's contract;
        // only the chosen format is certified in full, below.
        let sim = self.simulator()?;
        let mut probes: Vec<FormatProbe> = Vec::new();
        let probe = |fmt: FixedFormat| -> Result<FormatProbe, FlowError> {
            let _span = isl_telemetry::span!("search", "probe {}", fmt);
            let fixed = sim.run_cone_dag_quantized(
                init,
                self.spec.iterations,
                arch.window,
                arch.depth,
                fmt,
            )?;
            let quant = isl_cosim::error_metrics(&refs.1, &fixed);
            Ok(FormatProbe {
                format: fmt,
                max_abs_error: quant.max_abs,
                rms_error: quant.rms,
                within_budget: budget.admits(quant.max_abs, quant.rms),
            })
        };

        // Widest candidate at the current integer width. When even the
        // widest word misses the budget the error may be dominated by
        // *intermediate saturation* (frame values fit, but e.g. a squared
        // gradient overflows the integer range — a residual the fractional
        // bits cannot buy back) — trade fractional for integer bits and
        // retry while that keeps helping. A failure that escalation does
        // not improve is quantisation-limited: the budget is unreachable
        // at this width cap, and further escalations would only probe
        // strictly worse formats.
        let mut escalations = 0;
        let unreachable_budget = |probes: &[FormatProbe]| -> FlowError {
            let best = probes
                .iter()
                .min_by(|a, b| {
                    a.max_abs_error
                        .partial_cmp(&b.max_abs_error)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("at least one probe ran");
            FlowError::Format(format!(
                "no certifiable format up to {} bits meets the budget \
                 (best probe {}: max-abs {:.3e}, rms {:.3e}; \
                 budget max-abs {:.3e}, rms {:.3e})",
                budget.max_width,
                best.format,
                best.max_abs_error,
                best.rms_error,
                budget.max_abs,
                budget.rms
            ))
        };
        loop {
            let p = probe(FixedFormat::new(budget.max_width, budget.max_width - int_bits))?;
            // Strictly worse than the previous widest probe: the lost
            // fractional bit cost more than the gained integer bit bought —
            // quantisation-limited, stop. (Saturation-limited escalations
            // plateau or improve: a fully saturated region can hold the
            // max error exactly flat until the range clears it.)
            let stalled = probes
                .last()
                .is_some_and(|prev| p.max_abs_error > prev.max_abs_error);
            probes.push(p);
            if p.within_budget {
                break;
            }
            escalations += 1;
            if stalled || int_bits + 1 >= budget.max_width || escalations > 16 {
                return Err(unreachable_budget(&probes));
            }
            int_bits += 1;
        }

        // Binary-search the smallest fractional width that still meets the
        // budget (the widest probe above is the known-pass upper bound).
        let mut lo = 0u32;
        let mut hi = budget.max_width - int_bits;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let p = probe(FixedFormat::new(int_bits + mid, mid))?;
            probes.push(p);
            if p.within_budget {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let chosen = FixedFormat::new(int_bits + hi, hi);
        // The search's one full certification: the chosen format's
        // certificate (and golden vectors) land in the store, where the
        // bundle stage reads them.
        let certificate = Arc::clone(
            self.clone()
                .with_format(chosen)
                .certify(init, arch)?
                .certificate(),
        );

        // The area axis: synthesise `arch` at the chosen and the default
        // format through the width-parameterised techmap (reports come
        // from / land in the shared synthesis cache).
        let area_of = |fmt: FixedFormat| -> Result<u64, FlowError> {
            let opts = SynthOptions { format: fmt, ..self.spec.synth_options };
            Synthesizer::with_options(device, opts)
                .with_caches(self.store.cones().clone(), self.store.syntheses().clone())
                .synthesize(&self.spec.pattern, arch.window, arch.depth, arch.cores)
                .map(|r| r.luts)
                .map_err(FlowError::from)
        };
        let default_format = self.spec.synth_options.format;
        Ok(FormatSearchOutcome {
            budget,
            chosen,
            default_format,
            default_area_luts: area_of(default_format)?,
            chosen_area_luts: area_of(chosen)?,
            probes,
            certificate,
        })
    }
}

// ---------------------------------------------------------------------------
// Batch requests.
// ---------------------------------------------------------------------------

/// One request of an [`IslSession::explore_many`] batch.
#[derive(Debug, Clone, Copy)]
pub struct ExploreRequest<'a> {
    /// Target device.
    pub device: &'a Device,
    /// Frame workload (its iteration count must match the session's).
    pub workload: Workload,
    /// The design space to enumerate.
    pub space: &'a DesignSpace,
}

/// One request of an [`IslSession::verify_many`] batch.
#[derive(Debug, Clone, Copy)]
pub struct VerifyRequest<'a> {
    /// Initial frames to certify on.
    pub init: &'a FrameSet,
    /// The architecture instance to certify.
    pub arch: Architecture,
}

// ---------------------------------------------------------------------------
// Stage handles.
// ---------------------------------------------------------------------------

/// Stage 2 output: one architecture shape decomposed into cone levels, with
/// every distinct cone `Arc`-shared out of the session store.
#[derive(Debug, Clone)]
pub struct Decomposed {
    session: IslSession,
    window: Window,
    depth: u32,
    levels: Vec<u32>,
    cones: Vec<(u32, Arc<Cone>)>,
}

impl Decomposed {
    /// The output window.
    pub fn window(&self) -> Window {
        self.window
    }

    /// The requested (main) depth.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The level plan: the depth of every level, main levels first, the
    /// remainder level (if any) last.
    pub fn levels(&self) -> &[u32] {
        &self.levels
    }

    /// The cone of one level depth, when that depth occurs in the plan.
    pub fn cone(&self, depth: u32) -> Option<&Arc<Cone>> {
        self.cones.iter().find(|(d, _)| *d == depth).map(|(_, c)| c)
    }

    /// The cone of the first level (the main cone of the decomposition).
    pub fn main_cone(&self) -> &Arc<Cone> {
        &self.cones[0].1
    }

    /// Total operation registers across the distinct cone shapes (the area
    /// model's `Reg` inputs).
    pub fn registers(&self) -> usize {
        self.cones.iter().map(|(_, c)| c.registers()).sum()
    }

    /// Chain to stage 5: the VHDL bundle of the main cone.
    ///
    /// # Errors
    ///
    /// Same as [`IslSession::synthesize`].
    pub fn synthesize(&self) -> Result<Synthesized, FlowError> {
        self.session.synthesize(self.window, self.levels[0])
    }
}

/// Stage 3 output: the calibrated estimation of one `(device, space)`
/// combination, `Arc`-shared out of the session store.
#[derive(Debug, Clone)]
pub struct Estimated {
    session: IslSession,
    device: Device,
    space: DesignSpace,
    calibration: Arc<Calibration>,
}

impl Estimated {
    /// The calibration handle (per-depth estimators + cone facts).
    pub fn calibration(&self) -> &Arc<Calibration> {
        &self.calibration
    }

    /// The device this estimation targets.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Nominal synthesis cost of this calibration (two per distinct depth,
    /// the paper's "as low as two" per estimation curve). Actual runs may
    /// be fewer: a store-served calibration reports its original cold-path
    /// count, and the synthesis cache may have served individual reports —
    /// see [`IslSession::store_stats`] for what really ran.
    pub fn syntheses(&self) -> usize {
        self.calibration.syntheses()
    }

    /// Chain to stage 4: enumerate `workload` against this calibration —
    /// pure arithmetic, no cone builds, no syntheses.
    ///
    /// # Errors
    ///
    /// [`FlowError::Exploration`] when nothing is feasible or the
    /// workload's iteration count differs from the session's.
    pub fn explore(&self, workload: Workload) -> Result<Explored, FlowError> {
        let _span = isl_telemetry::span("stage", "Explored");
        let exploration = self
            .session
            .explorer(&self.device)
            .enumerate(&self.session.spec.pattern, workload, &self.space, &self.calibration)
            .map_err(|e| {
                FlowError::from(e).at(Stage::Explore, Some(&format!("on {}", self.device.name)))
            })?;
        Ok(Explored {
            session: self.session.clone(),
            device: self.device.clone(),
            workload,
            exploration: Arc::new(exploration),
        })
    }
}

/// Stage 4 output: an explored design space with its Pareto set.
#[derive(Debug, Clone)]
pub struct Explored {
    session: IslSession,
    device: Device,
    workload: Workload,
    exploration: Arc<Exploration>,
}

impl Explored {
    /// The full exploration (points, Pareto front, counters).
    pub fn exploration(&self) -> &Arc<Exploration> {
        &self.exploration
    }

    /// Every feasible evaluated point.
    pub fn points(&self) -> &[isl_dse::DesignPoint] {
        self.exploration.points()
    }

    /// The Pareto-optimal points, ascending by area.
    pub fn pareto(&self) -> Vec<&isl_dse::DesignPoint> {
        self.exploration.pareto()
    }

    /// The point with the highest frames-per-second.
    pub fn fastest(&self) -> Option<&isl_dse::DesignPoint> {
        self.exploration.fastest()
    }

    /// The feasible point with the smallest estimated area.
    pub fn smallest(&self) -> Option<&isl_dse::DesignPoint> {
        self.exploration.smallest()
    }

    /// The device this exploration targeted.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The workload this exploration costed.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Chain to stage 5: the VHDL bundle of the fastest explored point.
    ///
    /// # Errors
    ///
    /// Same as [`IslSession::synthesize`].
    pub fn synthesize_fastest(&self) -> Result<Synthesized, FlowError> {
        let best = self.fastest().expect("explorations are non-empty");
        self.session.synthesize(best.arch.window, best.arch.depth)
    }

    /// Chain to stage 6: certify the fastest explored point on `init`.
    ///
    /// # Errors
    ///
    /// Same as [`IslSession::certify`].
    pub fn certify_fastest(&self, init: &FrameSet) -> Result<Certified, FlowError> {
        let best = self.fastest().expect("explorations are non-empty");
        self.session.certify(init, best.arch)
    }
}

/// Stage 5 output: a complete VHDL bundle.
#[derive(Debug, Clone)]
pub struct Synthesized {
    #[allow(dead_code)]
    session: IslSession,
    bundle: VhdlBundle,
}

impl Synthesized {
    /// The assembled bundle.
    pub fn bundle(&self) -> &VhdlBundle {
        &self.bundle
    }

    /// Take the bundle out of the stage handle.
    pub fn into_bundle(self) -> VhdlBundle {
        self.bundle
    }

    /// Write the bundle (and its `run_ghdl.sh`) into `dir`.
    ///
    /// # Errors
    ///
    /// [`FlowError::Io`] on filesystem failures.
    pub fn write_to(&self, dir: &Path) -> Result<Vec<PathBuf>, FlowError> {
        self.bundle.write_to(dir)
    }
}

/// Stage 6 output: a certified architecture instance, `Arc`-shared out of
/// the session store.
#[derive(Debug, Clone)]
pub struct Certified {
    session: IslSession,
    certificate: Arc<ArchitectureCertificate>,
}

impl Certified {
    /// The certification evidence.
    pub fn certificate(&self) -> &Arc<ArchitectureCertificate> {
        &self.certificate
    }

    /// The certified instance.
    pub fn arch(&self) -> Architecture {
        self.certificate.arch
    }

    /// Chain back to stage 5, consuming the stored vectors: the VHDL bundle
    /// of the certified decomposition **with** the golden-vector files and
    /// their replay testbenches — ready for a one-command external
    /// GHDL/ModelSim run ([`VhdlBundle::write_to`] + `run_ghdl.sh`).
    ///
    /// # Errors
    ///
    /// Same as [`IslSession::synthesize`].
    pub fn synthesize(&self) -> Result<Synthesized, FlowError> {
        let _span = isl_telemetry::span("stage", "Synthesized");
        let cert = &self.certificate;
        let main_depth = level_depths(cert.iterations, cert.arch.depth)[0];
        let cone = self
            .session
            .cone_at(Stage::Synthesize, cert.arch.window, main_depth)?;
        Ok(Synthesized {
            session: self.session.clone(),
            bundle: self.session.bundle_of(&cone, &cert.vector_files)?,
        })
    }

    /// Quantify the certificate's *detection power*: sweep every
    /// instruction of the certified decomposition's cone programs against
    /// `schedule`'s fault models (bit-flips, stuck-ats) over the golden
    /// vectors of the run on `init` ([`CoSimulator::fault_sweep`]), and
    /// report how many injected faults the golden-vector check would
    /// catch — detected / masked / silent counts, per-level breakdown and
    /// detection latency, each detection triaged to instruction
    /// granularity ([`isl_cosim::FaultCoverageReport`]).
    ///
    /// The vectors come from the store: on the certified frames they are
    /// the certificate's own; other frames are recorded by the quantised
    /// cone-DAG engine, the way `certify` records them, and stored.
    ///
    /// Certification proves the clean datapath computes the right words;
    /// the campaign measures how loudly that proof fails when a bit
    /// breaks — the reliability number to quote next to the certificate.
    ///
    /// # Errors
    ///
    /// [`FlowError::Simulation`] when `init` does not match the pattern's
    /// fields; [`FlowError::Verification`] from the sweep (a vector file
    /// that fails its oracle check, cone construction).
    pub fn fault_campaign(
        &self,
        init: &FrameSet,
        schedule: &isl_cosim::MaskSchedule,
    ) -> Result<isl_cosim::FaultCoverageReport, FlowError> {
        let (session, cert) = (&self.session, &self.certificate);
        let (window, depth) = (cert.arch.window, cert.arch.depth);
        let sweep = || -> Result<_, FlowError> {
            let sim = session.simulator()?;
            let key = session.run_key(init, window, depth);
            let (files, _) = session.golden_vectors(&sim, init, key)?;
            let cosim = CoSimulator::new(&session.spec.pattern, cert.format)?
                .with_border(session.spec.border);
            Ok(cosim.fault_sweep(&files, cert.iterations, window, depth, schedule)?)
        };
        sweep().map_err(|e| e.at(Stage::Certify, None))
    }
}

// ---------------------------------------------------------------------------
// Stage 7: precision design-space exploration.
// ---------------------------------------------------------------------------

/// The accuracy contract a format search optimises against: bounds on the
/// measured deviation of the certified fixed-point run from the
/// **exact-arithmetic (`f64`) run of the same cone decomposition**
/// ([`ArchitectureCertificate::max_quant_error`] /
/// [`ArchitectureCertificate::rms_quant_error`]), plus the widest word the
/// search may probe. Budgeting against the same-decomposition reference
/// isolates the precision axis: the decomposition's cone-base border
/// semantics is format-independent, so its contribution (visible in
/// [`ArchitectureCertificate::max_fixed_error`]) cannot be bought back
/// with more bits.
///
/// See the crate-level [choosing an error budget](crate#choosing-an-error-budget)
/// notes for how to pick the bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorBudget {
    /// Bound on the largest `|fixed − exact|` deviation over the full run.
    pub max_abs: f64,
    /// Bound on the RMS deviation (`f64::INFINITY` leaves it unbounded).
    pub rms: f64,
    /// Widest total word the search may probe, `4..=54` — see
    /// [`ErrorBudget::MAX_WIDTH`].
    pub max_width: u32,
}

impl ErrorBudget {
    /// The widest word a search may probe. A signed 54-bit raw word has at
    /// most 53 significant bits, so it dequantises to `f64` exactly; beyond
    /// that, distinct words can round to one `f64`. The error metrics of
    /// [`IslSession::certify`] and of every probe are measured on
    /// dequantised `f64` frames, so past 54 bits they would be measured on
    /// rounded values; the cap also keeps the search outcomes of existing
    /// budgets where they are. Golden-vector verification is not the
    /// limit: [`isl_vhdl::check::verify_vectors`] compares raw words
    /// through `eval_fixed_raw`, exact at every width up to 64.
    pub const MAX_WIDTH: u32 = 54;

    /// A budget bounding only the max-abs error, probing up to the full
    /// certifiable width range.
    pub fn max_abs(bound: f64) -> Self {
        ErrorBudget {
            max_abs: bound,
            rms: f64::INFINITY,
            max_width: Self::MAX_WIDTH,
        }
    }

    /// Additionally bound the RMS error.
    pub fn with_rms(mut self, rms: f64) -> Self {
        self.rms = rms;
        self
    }

    /// Cap the widest word the search may probe (e.g. the DSP granularity
    /// of the target part).
    pub fn with_max_width(mut self, max_width: u32) -> Self {
        self.max_width = max_width;
        self
    }

    /// Whether a measured `(max_abs, rms)` error pair meets the budget.
    /// NaN errors never do.
    pub fn admits(&self, max_abs: f64, rms: f64) -> bool {
        max_abs <= self.max_abs && rms <= self.rms
    }

    pub(crate) fn validate(&self) -> Result<(), FlowError> {
        if self.max_abs.is_nan() || self.max_abs <= 0.0 {
            return Err(FlowError::Format(format!(
                "max-abs budget must be positive, got {}",
                self.max_abs
            )));
        }
        if self.rms.is_nan() || self.rms <= 0.0 {
            return Err(FlowError::Format(format!(
                "rms budget must be positive (or infinite), got {}",
                self.rms
            )));
        }
        if !(4..=Self::MAX_WIDTH).contains(&self.max_width) {
            return Err(FlowError::Format(format!(
                "max width must be in 4..={}, got {}",
                Self::MAX_WIDTH,
                self.max_width
            )));
        }
        Ok(())
    }
}

/// One probed format of a search: the measured error of its quantised
/// cone-DAG run (bit-identical to the `max/rms_quant_error` a certificate
/// at that format records) and the budget verdict. Probes are recorded in
/// probe order (widest first, then the binary-search sequence).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FormatProbe {
    /// The probed format.
    pub format: FixedFormat,
    /// Measured max-abs error of the quantised cone-DAG run at this format.
    pub max_abs_error: f64,
    /// Measured RMS error of the quantised cone-DAG run at this format.
    pub rms_error: f64,
    /// Whether this format meets the budget.
    pub within_budget: bool,
}

/// The stored result of one format search (an [`crate::ArtifactStore`]
/// artifact kind with its own hit/miss counters).
#[derive(Debug, Clone, PartialEq)]
pub struct FormatSearchOutcome {
    /// The budget the search ran against.
    pub budget: ErrorBudget,
    /// The narrowest certified format meeting the budget.
    pub chosen: FixedFormat,
    /// The session's format before the search (the comparison baseline).
    pub default_format: FixedFormat,
    /// Synthesised LUT area of the architecture at the default format.
    pub default_area_luts: u64,
    /// Synthesised LUT area at the chosen format — strictly lower than
    /// [`FormatSearchOutcome::default_area_luts`] whenever the chosen word
    /// is strictly narrower (the width-parameterised techmap scales every
    /// operator with the operand width).
    pub chosen_area_luts: u64,
    /// Every probed format with its measured errors, in probe order.
    pub probes: Vec<FormatProbe>,
    /// The certificate of the chosen format (golden vectors verified word
    /// for word and error metrics of its cone-DAG run, like any
    /// [`IslSession::certify`]).
    pub certificate: Arc<ArchitectureCertificate>,
}

/// Stage 7 output: a completed precision search, `Arc`-shared out of the
/// session store.
#[derive(Debug, Clone)]
pub struct FormatSearched {
    session: IslSession,
    outcome: Arc<FormatSearchOutcome>,
}

impl FormatSearched {
    /// The full stored outcome (probes, areas, certificate).
    pub fn outcome(&self) -> &Arc<FormatSearchOutcome> {
        &self.outcome
    }

    /// The narrowest certified format meeting the budget.
    pub fn format(&self) -> FixedFormat {
        self.outcome.chosen
    }

    /// Every probed format with its measured errors.
    pub fn probes(&self) -> &[FormatProbe] {
        &self.outcome.probes
    }

    /// The certificate of the chosen format.
    pub fn certificate(&self) -> &Arc<ArchitectureCertificate> {
        &self.outcome.certificate
    }

    /// The certified architecture instance the search probed.
    pub fn arch(&self) -> Architecture {
        self.outcome.certificate.arch
    }

    /// Fraction of the default format's LUT area the searched format saves
    /// (`0.0` when the search could not narrow the word).
    pub fn area_saving(&self) -> f64 {
        if self.outcome.default_area_luts == 0 {
            return 0.0;
        }
        1.0 - self.outcome.chosen_area_luts as f64 / self.outcome.default_area_luts as f64
    }

    /// Chain back into the pipeline: a session whose synthesis options
    /// carry the **chosen format**, sharing this session's store — explore
    /// with it and the Pareto front is costed at the searched width; its
    /// [`IslSession::synthesize`] emits an `isl_fixed_pkg` declaring the
    /// searched word.
    pub fn session(&self) -> IslSession {
        self.session.clone().with_format(self.outcome.chosen)
    }
}
