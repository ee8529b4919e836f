//! The co-simulator: integer-domain execution of whole architecture runs
//! and golden-vector generation.

use isl_fpga::FixedFormat;
use isl_ir::{Cone, StencilPattern, Window};
use isl_sim::{BorderMode, CompiledCone, Frame, FrameSet};
use isl_vhdl::vectors::VectorFile;
use isl_vhdl::VectorLayout;

use crate::error::CosimError;
use crate::vm::{eval_cone_raw_traced, Fault};

/// Frames of raw fixed-point words — the integer-domain mirror of
/// [`isl_sim::FrameSet`]. One buffer per pattern field, row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntFrameSet {
    width: usize,
    height: usize,
    frames: Vec<Vec<i64>>,
}

impl IntFrameSet {
    /// Load an `f64` frame set into the integer domain (round-to-nearest
    /// with saturation per sample — the window-buffer load of the hardware).
    pub fn quantize(fs: &FrameSet, fmt: FixedFormat) -> Self {
        IntFrameSet {
            width: fs.width(),
            height: fs.height(),
            frames: fs
                .frames()
                .iter()
                .map(|f| f.as_slice().iter().map(|&v| fmt.quantize(v)).collect())
                .collect(),
        }
    }

    /// Convert back to real-unit frames.
    pub fn dequantize(&self, fmt: FixedFormat) -> FrameSet {
        FrameSet::from_frames(
            self.frames
                .iter()
                .map(|data| {
                    Frame::from_vec(
                        self.width,
                        self.height,
                        data.iter().map(|&r| fmt.dequantize(r)).collect(),
                    )
                })
                .collect(),
        )
        .expect("congruent frames")
    }

    /// Frame width in samples.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in samples.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the set has no fields.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Raw word of field `field` at in-bounds `(x, y)`.
    pub fn word(&self, field: usize, x: usize, y: usize) -> i64 {
        self.frames[field][y * self.width + x]
    }

    /// Border-resolved raw read at possibly-out-of-frame coordinates. The
    /// border constant is quantised on entry, like any other loaded sample.
    pub fn sample(&self, field: usize, x: i64, y: i64, border: BorderMode, fmt: FixedFormat) -> i64 {
        let rx = border.resolve(x, self.width as i64);
        let ry = border.resolve(y, self.height as i64);
        match (rx, ry) {
            (Some(rx), Some(ry)) => self.frames[field][ry as usize * self.width + rx as usize],
            _ => fmt.quantize(
                border
                    .constant_value()
                    .expect("resolve returns None only for Constant"),
            ),
        }
    }
}

/// Numeric deviation of a fixed-point run from its `f64` reference — the
/// per-probe measurement of the precision design-space exploration (one
/// [`ErrorMetrics`] per probed [`FixedFormat`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorMetrics {
    /// Largest `|fixed − reference|` over every sample of every field.
    pub max_abs: f64,
    /// Root-mean-square error over every sample of every field.
    pub rms: f64,
    /// Samples compared.
    pub samples: usize,
}

/// Measure how far a (dequantised) fixed-point run drifted from its `f64`
/// reference: the max-abs and RMS error over every sample of every field.
///
/// A non-finite deviation (the `f64` reference diverged to NaN/∞ — the
/// integer domain itself cannot) reports as `f64::INFINITY` on both
/// metrics: deterministic, equal across runs (`NaN` would poison the
/// stored certificate's equality), and inadmissible under every budget.
///
/// # Panics
///
/// Panics when the two sets differ in field count or frame shape (they are
/// two runs of one workload by construction).
pub fn error_metrics(reference: &FrameSet, fixed: &FrameSet) -> ErrorMetrics {
    assert_eq!(reference.len(), fixed.len(), "field count mismatch");
    let mut max_abs = 0.0f64;
    let mut sum_sq = 0.0f64;
    let mut samples = 0usize;
    for (a, b) in reference.frames().iter().zip(fixed.frames()) {
        assert!(
            a.width() == b.width() && a.height() == b.height(),
            "frame shape mismatch"
        );
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            let d = (x - y).abs();
            let d = if d.is_nan() { f64::INFINITY } else { d };
            max_abs = max_abs.max(d);
            sum_sq += d * d;
            samples += 1;
        }
    }
    let rms = if samples == 0 {
        0.0
    } else {
        (sum_sq / samples as f64).sqrt()
    };
    ErrorMetrics { max_abs, rms, samples }
}

/// Bit-true co-simulator of one stencil pattern on one hardware format.
///
/// Runs cone-architecture decompositions ([`CoSimulator::run_cone_levels`])
/// entirely on raw `i64` words through the scalar integer VM and records
/// per-firing golden-vector files ([`CoSimulator::golden_vectors`]) — the
/// independent twin of the quantised cone-DAG engine's recording that
/// `certify` uses. Fault campaigns ([`CoSimulator::fault_campaign`],
/// [`CoSimulator::fault_sweep`]) replay each record once on the same VM
/// and propagate every fault through those clean traces.
#[derive(Debug, Clone)]
pub struct CoSimulator<'p> {
    pattern: &'p StencilPattern,
    fmt: FixedFormat,
    border: BorderMode,
    pub(crate) params: Vec<f64>,
    pub(crate) fault: Option<Fault>,
}

impl<'p> CoSimulator<'p> {
    /// Wrap a validated pattern with default border (clamp) and default
    /// parameter values.
    ///
    /// # Errors
    ///
    /// [`CosimError::Sim`] for invalid or rank-3 patterns.
    pub fn new(pattern: &'p StencilPattern, fmt: FixedFormat) -> Result<Self, CosimError> {
        // Every cone/kernel this co-simulator compiles is bytecode-verified
        // in debug builds (idempotent; first install wins).
        isl_analyze::install_debug_verifier();
        pattern
            .validate()
            .map_err(|e| CosimError::Sim(e.to_string()))?;
        if pattern.rank() > 2 {
            return Err(CosimError::Sim(format!(
                "cannot co-simulate rank-{} patterns (supported: 1, 2)",
                pattern.rank()
            )));
        }
        Ok(CoSimulator {
            pattern,
            fmt,
            border: BorderMode::default(),
            params: pattern.params().iter().map(|p| p.default).collect(),
            fault: None,
        })
    }

    /// Select the border mode.
    pub fn with_border(mut self, border: BorderMode) -> Self {
        self.border = border;
        self
    }

    /// Override parameter values (by [`isl_ir::ParamId`] index).
    ///
    /// # Errors
    ///
    /// [`CosimError::Sim`] when the length differs from the pattern's
    /// parameter list.
    pub fn with_params(mut self, params: Vec<f64>) -> Result<Self, CosimError> {
        if params.len() != self.pattern.params().len() {
            return Err(CosimError::Sim(format!(
                "parameter vector has {} values but the pattern declares {}",
                params.len(),
                self.pattern.params().len()
            )));
        }
        self.params = params;
        Ok(self)
    }

    /// Inject a deliberate datapath fault (see [`Fault`]) into every cone
    /// firing — the self-test hook that proves the golden-vector check
    /// catches real divergence.
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// The hardware format.
    pub fn format(&self) -> FixedFormat {
        self.fmt
    }

    /// The pattern being co-simulated.
    pub fn pattern(&self) -> &StencilPattern {
        self.pattern
    }

    fn check(&self, init: &FrameSet) -> Result<(), CosimError> {
        if init.len() != self.pattern.fields().len() {
            return Err(CosimError::Sim(format!(
                "frame set has {} frames but the pattern declares {} fields",
                init.len(),
                self.pattern.fields().len()
            )));
        }
        Ok(())
    }

    /// Execute the cone-architecture decomposition (`iterations` split into
    /// depth-`depth` levels plus a remainder level) entirely in the integer
    /// domain: every window tile of every level runs through the integer
    /// VM, borders resolved at each level's base inputs — exactly what the
    /// generated hardware computes.
    ///
    /// # Errors
    ///
    /// [`CosimError::Cone`] for `depth == 0` or cone-construction failures;
    /// [`CosimError::Sim`] on a frame-set mismatch.
    pub fn run_cone_levels(
        &self,
        init: &FrameSet,
        iterations: u32,
        window: Window,
        depth: u32,
    ) -> Result<IntFrameSet, CosimError> {
        let (state, _) = self.cone_levels_impl(init, iterations, window, depth, false)?;
        Ok(state)
    }

    /// Run the cone-architecture decomposition and record every cone firing
    /// as a golden vector: the raw stimulus word of each data input port
    /// and the raw response word of each output port, per window tile per
    /// level. Returns one [`VectorFile`] per *distinct* cone shape (the
    /// main depth, plus the remainder depth when `depth` does not divide
    /// `iterations`), ready for [`isl_vhdl::check::verify_vectors`] and the
    /// vector-file testbench mode.
    ///
    /// # Errors
    ///
    /// Same as [`CoSimulator::run_cone_levels`].
    pub fn golden_vectors(
        &self,
        init: &FrameSet,
        iterations: u32,
        window: Window,
        depth: u32,
    ) -> Result<Vec<VectorFile>, CosimError> {
        let shapes = self.record(init, iterations, window, depth)?;
        Ok(shapes.into_iter().map(|s| s.file).collect())
    }

    /// [`CoSimulator::golden_vectors`] with the cone and the program that
    /// recorded each file, for a fault campaign to sweep without building
    /// them again.
    pub(crate) fn record(
        &self,
        init: &FrameSet,
        iterations: u32,
        window: Window,
        depth: u32,
    ) -> Result<Vec<RecordedShape>, CosimError> {
        let _span = isl_telemetry::span("cosim", "golden vectors");
        let (_, shapes) = self.cone_levels_impl(init, iterations, window, depth, true)?;
        Ok(shapes)
    }

    fn cone_levels_impl(
        &self,
        init: &FrameSet,
        iterations: u32,
        window: Window,
        depth: u32,
        record: bool,
    ) -> Result<(IntFrameSet, Vec<RecordedShape>), CosimError> {
        self.check(init)?;
        if depth == 0 {
            return Err(CosimError::Cone("cone depth must be at least 1".into()));
        }
        // The paper's decomposition — shared with the quantised engines so
        // co-simulated levels correspond to simulated levels exactly.
        let level_plan = isl_sim::level_depths(iterations, depth);
        struct Shape {
            cone: Cone,
            cc: CompiledCone,
            layout: VectorLayout,
        }
        let mut shapes: Vec<(u32, Shape)> = Vec::new();
        let mut state = IntFrameSet::quantize(init, self.fmt);
        let (w, h) = (state.width as i64, state.height as i64);
        let (tw, th) = (window.w as i64, window.h as i64);
        for (li, &d) in level_plan.iter().enumerate() {
            if !shapes.iter().any(|(sd, _)| *sd == d) {
                let cone = Cone::build(self.pattern, window, d)?;
                let cc = CompiledCone::compile_with(&cone, &self.params, false);
                let layout = VectorLayout::new(&cone, self.fmt, &self.params);
                shapes.push((d, Shape { cone, cc, layout }));
            }
            let shape = &mut shapes
                .iter_mut()
                .find(|(sd, _)| *sd == d)
                .expect("shape built above")
                .1;
            let mut next = state.clone();
            let mut ty = 0;
            while ty < h {
                let mut tx = 0;
                while tx < w {
                    let read = |f: u16, dx: i32, dy: i32| {
                        state.sample(
                            f as usize,
                            tx + i64::from(dx),
                            ty + i64::from(dy),
                            self.border,
                            self.fmt,
                        )
                    };
                    let (outs, _) = eval_cone_raw_traced(&shape.cc, self.fmt, read, self.fault);
                    if record {
                        let inputs: Vec<i64> = shape
                            .cone
                            .inputs()
                            .iter()
                            .chain(shape.cone.static_inputs())
                            .map(|i| read(i.field.index() as u16, i.point.x, i.point.y))
                            .collect();
                        shape.layout.push(li as u32, (tx, ty), &inputs, outs.clone());
                    }
                    for (slot, v) in shape.cc.outputs().iter().zip(&outs) {
                        let (ax, ay) = (tx + i64::from(slot.px), ty + i64::from(slot.py));
                        if ax < w && ay < h {
                            next.frames[slot.field as usize][(ay * w + ax) as usize] = *v;
                        }
                    }
                    tx += tw;
                }
                ty += th;
            }
            state = next;
        }
        let shapes = shapes
            .into_iter()
            .map(|(_, s)| RecordedShape {
                cone: s.cone,
                cc: s.cc,
                file: s.layout.into_file(),
            })
            .collect();
        Ok((state, shapes))
    }
}

/// One cone shape of a recorded run: the cone, its fold-free program and
/// the golden vectors of its firings.
pub(crate) struct RecordedShape {
    pub(crate) cone: Cone,
    pub(crate) cc: CompiledCone,
    pub(crate) file: VectorFile,
}
