//! Fault-injection campaigns over whole cone programs.
//!
//! A campaign answers the reliability question certification cannot: *if a
//! datapath bit breaks, does the golden-vector check notice?* The driver
//! sweeps **every instruction** of an architecture's compiled cone programs
//! against a [`MaskSchedule`] of [`FaultModel`]s (transient bit-flips,
//! stuck-at-0, stuck-at-1) over the golden vectors of a real run, and
//! classifies every injected fault:
//!
//! * **detected** — some firing's output word diverges from the clean
//!   golden response; the firing index is the *detection latency in
//!   windows*, and the firing's level localises it in the architecture
//!   decomposition. Each detection is triaged to its instruction: the
//!   detecting firing's faulty trace first diverges at the injected one;
//! * **masked** — the fault corrupts the instruction's result word in at
//!   least one firing, but the corruption never reaches an output (logical
//!   masking in the cone DAG);
//! * **silent** — the fault never changes the instruction's result on the
//!   campaign's stimuli (a stuck-at that agrees with the value it would
//!   force), so no test could observe it.
//!
//! The sweep propagates faults over the clean run instead of replaying it.
//! Each cone shape's vector file is verified once against the independent
//! oracle ([`isl_vhdl::check::verify_vectors`]), and the scalar VM
//! ([`eval_cone_raw_traced`]) runs once per record to keep the clean word
//! of every instruction. A fault then visits only the records where it
//! changes its instruction's word, and on each re-evaluates only that
//! instruction's fan-out: an instruction runs again when one of its
//! operands changed, and counts as changed only when its word differs from
//! the clean word, so reconvergence ends the propagation. The first record
//! whose propagation changes an output word is the detection.

use std::collections::HashMap;

use isl_fpga::FixedFormat;
use isl_ir::{Cone, FieldId, FieldKind, Point, Window};
use isl_sim::{CompiledCone, FrameSet, Instr};
use isl_vhdl::check::{verify_vectors, VectorCheckError};
use isl_vhdl::codegen;
use isl_vhdl::vectors::VectorFile;

use crate::cosim::CoSimulator;
use crate::error::CosimError;
use crate::vm::{eval_cone_raw_traced, exec, Fault, FaultModel};

/// Which corruptions a campaign injects at every instruction: a set of bit
/// masks crossed with the enabled fault-model kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskSchedule {
    masks: Vec<i64>,
    bit_flip: bool,
    stuck_at: bool,
}

impl MaskSchedule {
    /// The standard schedule for a format: single-bit masks at the LSB, the
    /// lowest integer bit and the sign bit (deduplicated for narrow words),
    /// all three fault models.
    pub fn standard(fmt: FixedFormat) -> Self {
        let mut bits = vec![0u32, fmt.frac.min(fmt.width - 1), fmt.width - 1];
        bits.sort_unstable();
        bits.dedup();
        MaskSchedule {
            masks: bits.into_iter().map(|b| 1i64 << b).collect(),
            bit_flip: true,
            stuck_at: true,
        }
    }

    /// A minimal schedule: a single-LSB mask, all three fault models — the
    /// cheapest sweep that still exercises every instruction and every
    /// model kind (used by the CI smoke shard).
    pub fn lsb() -> Self {
        MaskSchedule {
            masks: vec![1],
            bit_flip: true,
            stuck_at: true,
        }
    }

    /// An explicit mask list, all three fault models.
    ///
    /// # Errors
    ///
    /// [`CosimError::Sim`] when `masks` is empty or contains a zero mask
    /// (a zero mask corrupts nothing under any model).
    pub fn with_masks(masks: Vec<i64>) -> Result<Self, CosimError> {
        if masks.is_empty() || masks.contains(&0) {
            return Err(CosimError::Sim(
                "mask schedule needs at least one non-zero mask".into(),
            ));
        }
        Ok(MaskSchedule {
            masks,
            bit_flip: true,
            stuck_at: true,
        })
    }

    /// Restrict to transient bit-flips only.
    pub fn bit_flip_only(mut self) -> Self {
        self.bit_flip = true;
        self.stuck_at = false;
        self
    }

    /// Restrict to stuck-at models only.
    pub fn stuck_at_only(mut self) -> Self {
        self.bit_flip = false;
        self.stuck_at = true;
        self
    }

    /// Every fault model of the schedule (mask × kind cross product).
    pub fn models(&self) -> Vec<FaultModel> {
        let mut out = Vec::new();
        for &mask in &self.masks {
            if self.bit_flip {
                out.push(FaultModel::BitFlip { mask });
            }
            if self.stuck_at {
                out.push(FaultModel::StuckAt0 { mask });
                out.push(FaultModel::StuckAt1 { mask });
            }
        }
        out
    }
}

/// Per-model-kind classification counts of a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelCoverage {
    /// Model kind name (`bit-flip`, `stuck-at-0`, `stuck-at-1`).
    pub model: String,
    /// Faults injected under this kind.
    pub faults: usize,
    /// Faults whose corruption reached an output word.
    pub detected: usize,
    /// Faults that perturbed an instruction result but never an output.
    pub masked: usize,
    /// Faults that never perturbed any instruction result.
    pub silent: usize,
}

/// Detections whose *first* diverging firing belongs to one decomposition
/// level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelDetections {
    /// Level index of the architecture decomposition.
    pub level: u32,
    /// Faults first detected at this level.
    pub detected: usize,
}

/// One detected fault of the report's sample: where it was injected, where
/// it was first observed, and whether triage traced it to its instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectedFault {
    /// The injected fault.
    pub fault: Fault,
    /// Cone depth of the program the fault lives in (the main shape, or
    /// the remainder shape of a non-divisor decomposition).
    pub shape_depth: u32,
    /// Opcode mnemonic of the faulted instruction.
    pub opcode: String,
    /// Firing (vector-record) index of the first diverging output word —
    /// the detection latency in windows.
    pub latency: usize,
    /// Decomposition level of the first diverging firing.
    pub level: u32,
    /// Whether the faulty trace of the detecting record first diverges
    /// from the clean trace at exactly this instruction (the oracle-verified
    /// clean file makes the oracle disagree with the faulty response).
    pub triaged: bool,
}

/// Coverage evidence of one fault campaign: classification counts, the
/// per-model and per-level breakdowns, and detection-latency statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCoverageReport {
    /// Entity name of the main cone shape.
    pub entity: String,
    /// Architecture window.
    pub window: Window,
    /// Architecture cone depth.
    pub depth: u32,
    /// Iterations of the campaign run.
    pub iterations: u32,
    /// Hardware format.
    pub format: FixedFormat,
    /// Instructions swept, summed over the distinct cone shapes.
    pub instructions: usize,
    /// Faults injected (instructions × schedule models).
    pub faults: usize,
    /// Faults whose corruption reached an output word.
    pub detected: usize,
    /// Faults that perturbed a result word but never an output.
    pub masked: usize,
    /// Faults that never perturbed any result word on these stimuli.
    pub silent: usize,
    /// Of the silent faults, how many the `isl-analyze` known-bits
    /// abstraction **predicted** silent — and therefore classified without
    /// scanning or replaying a single stimulus. Statically predicted
    /// silence is a proof over *all* in-format stimuli, so
    /// `predicted_silent <= silent` always (the property suite asserts
    /// the subset relation against the measured outcomes).
    pub predicted_silent: usize,
    /// Detections triaged to their instruction: the detecting record's
    /// faulty trace first diverges from its clean trace at the injected
    /// instruction (see [`DetectedFault::triaged`]).
    pub triaged: usize,
    /// Classification split by fault-model kind.
    pub by_model: Vec<ModelCoverage>,
    /// First-detection counts per decomposition level.
    pub by_level: Vec<LevelDetections>,
    /// Mean detection latency over detected faults, in windows.
    pub mean_latency: f64,
    /// Largest detection latency, in windows.
    pub max_latency: usize,
    /// A bounded sample of detected faults (first
    /// [`FaultCoverageReport::SAMPLE_CAP`], in sweep order).
    pub sample: Vec<DetectedFault>,
}

impl FaultCoverageReport {
    /// Cap on the detected-fault sample kept in the report.
    pub const SAMPLE_CAP: usize = 32;

    /// Detected fraction of all injected faults, `0..=1`.
    pub fn detection_rate(&self) -> f64 {
        if self.faults == 0 {
            return 0.0;
        }
        self.detected as f64 / self.faults as f64
    }

    /// Detected fraction of the faults that actually perturbed a result
    /// word (silent faults excluded — no observer could catch them).
    pub fn active_detection_rate(&self) -> f64 {
        let active = self.faults - self.silent;
        if active == 0 {
            return 0.0;
        }
        self.detected as f64 / active as f64
    }
}

impl std::fmt::Display for FaultCoverageReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fault campaign `{}` w{} d{} x{} iters, {}: {} instructions, {} faults",
            self.entity,
            self.window,
            self.depth,
            self.iterations,
            self.format,
            self.instructions,
            self.faults,
        )?;
        writeln!(
            f,
            "  detected {} ({:.1}% of all, {:.1}% of active) | masked {} | silent {} \
             ({} proven statically) | triaged {}/{}",
            self.detected,
            100.0 * self.detection_rate(),
            100.0 * self.active_detection_rate(),
            self.masked,
            self.silent,
            self.predicted_silent,
            self.triaged,
            self.detected,
        )?;
        for m in &self.by_model {
            writeln!(
                f,
                "  {:<11} {} faults: {} detected / {} masked / {} silent",
                m.model, m.faults, m.detected, m.masked, m.silent
            )?;
        }
        write!(
            f,
            "  latency: mean {:.2} windows, max {} windows",
            self.mean_latency, self.max_latency
        )
    }
}

/// One cone shape of a sweep: its program, the fan-out of every
/// instruction and the clean trace of every record of its verified vector
/// file.
struct Shape<'f> {
    file: &'f VectorFile,
    cc: CompiledCone,
    /// `cc`'s code with every operand naming the instruction that defines
    /// it instead of a slot, so that a trace serves as the register file.
    code: Vec<Instr>,
    /// The instructions reading each instruction's word, ascending.
    users: Vec<Vec<u32>>,
    /// Whether each instruction is the capture point of an output.
    captured: Vec<bool>,
    /// Stimulus column of every input tap `(field, dx, dy)` the program
    /// reads.
    taps: HashMap<(u16, i32, i32), usize>,
    /// Clean traces, record after record: word `i` of record `r` is
    /// `traces[r * len + i]`.
    traces: Vec<i64>,
    /// Static per-instruction facts (when the slot program lifts cleanly —
    /// it always does for compiler-produced programs; `None` merely
    /// disables prediction).
    analysis: Option<isl_analyze::Analysis>,
}

impl<'f> Shape<'f> {
    fn new(cosim: &CoSimulator<'_>, file: &'f VectorFile) -> Result<Self, CosimError> {
        let fmt = cosim.format();
        let cone = Cone::build(cosim.pattern(), file.window, file.depth)?;
        verify_vectors(&cone, fmt, file).map_err(|e| match e {
            VectorCheckError::Incompatible(m) => CosimError::Incompatible(m),
            mismatch @ VectorCheckError::Mismatch(_) => CosimError::Sim(format!(
                "golden vectors of `{}` fail verification: {mismatch}",
                file.entity
            )),
        })?;
        let cc = CompiledCone::compile_with(&cone, &cosim.params, false);
        let len = cc.len();

        let mut def = vec![0u32; cc.slots().max(1)];
        let mut code = Vec::with_capacity(len);
        let mut users = vec![Vec::new(); len];
        let mut taps = HashMap::new();
        for (i, instr) in cc.code().iter().enumerate() {
            // Rename slot operand `r` to the instruction that defines it,
            // whose users `i` joins.
            let mut d = |r: &mut u32| {
                *r = def[*r as usize];
                users[*r as usize].push(i as u32);
            };
            let mut ssa = *instr;
            match &mut ssa {
                Instr::Unary { a, .. } => d(a),
                Instr::Binary { a, b, .. } => [a, b].into_iter().for_each(d),
                Instr::Select { c, t, e } => [c, t, e].into_iter().for_each(d),
                Instr::Input { field, dx, dy } => {
                    let (fid, point) = (FieldId::new(*field), Point::d2(*dx, *dy));
                    let port = if cosim.pattern().field(fid).kind == FieldKind::Static {
                        codegen::static_port_name(fid, point)
                    } else {
                        codegen::input_port_name(fid, point)
                    };
                    let column = file.input_column(&port).ok_or_else(|| {
                        CosimError::Incompatible(format!("missing input port `{port}`"))
                    })?;
                    taps.insert((*field, *dx, *dy), column);
                }
                Instr::Const(_) => {}
            }
            code.push(ssa);
            def[cc.dst()[i] as usize] = i as u32;
        }
        let mut captured = vec![false; len];
        cc.capture()
            .iter()
            .for_each(|&c| captured[c as usize] = true);

        let mut shape = Shape {
            file,
            cc,
            code,
            users,
            captured,
            taps,
            traces: Vec::with_capacity(file.records.len() * len),
            analysis: None,
        };
        // The clean replay must reproduce the recorded responses exactly —
        // anything else means the file and the program drifted apart.
        for (r, record) in file.records.iter().enumerate() {
            let (outs, trace) = eval_cone_raw_traced(&shape.cc, fmt, shape.read(r), None);
            if outs != record.response {
                return Err(CosimError::Sim(format!(
                    "clean replay of `{}` record {r} disagrees with its recorded response",
                    file.entity
                )));
            }
            shape.traces.extend(trace);
        }
        // Static facts over the full in-format input range: every stimulus
        // word in a vector file was produced by `quantize` or by the
        // datapath itself, so `[min_raw, max_raw]` is a sound input
        // assumption and the per-instruction known bits hold for *every*
        // record this campaign sweeps.
        shape.analysis =
            isl_analyze::Analysis::of_cone(&shape.cc, fmt, isl_analyze::WordRange::full(fmt)).ok();
        Ok(shape)
    }

    fn len(&self) -> usize {
        self.code.len()
    }

    /// The input reads of record `r`.
    fn read(&self, r: usize) -> impl Fn(u16, i32, i32) -> i64 + '_ {
        let stimulus = &self.file.records[r].stimulus;
        move |f, dx, dy| stimulus[self.taps[&(f, dx, dy)]]
    }

    /// The clean trace of record `r`.
    fn trace(&self, r: usize) -> &[i64] {
        &self.traces[r * self.len()..(r + 1) * self.len()]
    }

    /// Does `fault` change its instruction's word on record `r`?
    fn active(&self, r: usize, fault: Fault) -> bool {
        let clean = self.traces[r * self.len() + fault.instr];
        fault.model.apply(clean) != clean
    }

    /// Propagate `fault` through record `r`'s fan-out, leaving the changed
    /// words in `s`; returns whether an output word changed.
    fn propagate(&self, fmt: FixedFormat, r: usize, fault: Fault, s: &mut Scratch) -> bool {
        let clean = self.trace(r);
        for &i in &s.order {
            s.word[i as usize] = None;
        }
        s.order.clear();
        s.change(self, fault.instr, fault.model.apply(clean[fault.instr]));
        let mut cursor = fault.instr / 64;
        while let Some(j) = s.next_pending(&mut cursor) {
            let word = |k: u32| s.word[k as usize].unwrap_or(clean[k as usize]);
            let v = exec(fmt, &self.code[j], word, &|_, _, _| {
                unreachable!("inputs have no operands, so they are never pending")
            });
            if v != clean[j] {
                s.change(self, j, v);
            }
        }
        s.order.iter().any(|&i| self.captured[i as usize])
    }
}

/// Opcode mnemonic of an instruction (`const`, `input`, `add`, `sqrt`,
/// `select`, ...).
fn mnemonic(instr: &Instr) -> String {
    match instr {
        Instr::Const(_) => "const".to_string(),
        Instr::Input { .. } => "input".to_string(),
        Instr::Unary { op, .. } => format!("{op:?}").to_ascii_lowercase(),
        Instr::Binary { op, .. } => format!("{op:?}").to_ascii_lowercase(),
        Instr::Select { .. } => "select".to_string(),
    }
}

/// Propagation buffers, sized once per sweep and reused by every record of
/// every fault.
struct Scratch {
    /// Faulty word of each changed instruction.
    word: Vec<Option<i64>>,
    /// The changed instructions, ascending (users have larger indices than
    /// their operands, and pending instructions are taken lowest first).
    order: Vec<u32>,
    /// Bit set of the instructions waiting for re-evaluation.
    pending: Vec<u64>,
}

impl Scratch {
    /// Record instruction `i`'s faulty word and schedule its users.
    fn change(&mut self, shape: &Shape<'_>, i: usize, v: i64) {
        self.word[i] = Some(v);
        self.order.push(i as u32);
        for &u in &shape.users[i] {
            self.pending[u as usize / 64] |= 1 << (u % 64);
        }
    }

    /// Take the lowest pending instruction at or past bit-set word
    /// `cursor`.
    fn next_pending(&mut self, cursor: &mut usize) -> Option<usize> {
        while let Some(&bits) = self.pending.get(*cursor) {
            if bits != 0 {
                self.pending[*cursor] = bits & (bits - 1);
                return Some(*cursor * 64 + bits.trailing_zeros() as usize);
            }
            *cursor += 1;
        }
        None
    }
}

/// Is `fault` provably silent on every in-format stimulus, by the static
/// facts alone? A stuck-at on bits the abstraction knows to already hold
/// the stuck value cannot change any produced word; a bit flip always
/// changes the word, so it is never statically silent (it may still be
/// dynamically silent on stimuli that never exercise the instruction —
/// that remains the trace scan's job).
fn predicted_silent(analysis: Option<&isl_analyze::Analysis>, fault: &Fault) -> bool {
    let Some(a) = analysis else { return false };
    let v = a.value(fault.instr);
    match fault.model {
        FaultModel::BitFlip { .. } => false,
        FaultModel::StuckAt0 { mask } => v.always_zero(mask),
        FaultModel::StuckAt1 { mask } => v.always_one(mask),
    }
}

impl CoSimulator<'_> {
    /// Run a full fault-injection campaign over the cone-architecture
    /// decomposition `(window, depth)` on `init`: record the clean run's
    /// [golden vectors](CoSimulator::golden_vectors), then
    /// [sweep](CoSimulator::fault_sweep) them.
    ///
    /// # Errors
    ///
    /// Those of [`CoSimulator::golden_vectors`] and
    /// [`CoSimulator::fault_sweep`].
    pub fn fault_campaign(
        &self,
        init: &FrameSet,
        iterations: u32,
        window: Window,
        depth: u32,
        schedule: &MaskSchedule,
    ) -> Result<FaultCoverageReport, CosimError> {
        let files = self.golden_vectors(init, iterations, window, depth)?;
        self.fault_sweep(&files, iterations, window, depth, schedule)
    }

    /// Inject every model of `schedule` at **every instruction** of the
    /// cone shape of each golden-vector file of one `iterations`-long run
    /// of the decomposition `(window, depth)`, and classify each fault (see
    /// the [module docs](crate::campaign)). Each file is verified once
    /// against the independent oracle and replayed once, clean, on the
    /// scalar VM; each fault then propagates through the clean traces of
    /// the records it changes, along its instruction's fan-out only. Each
    /// detection is triaged in place: the first diverging instruction of
    /// the detecting record's faulty trace must be the injected one.
    ///
    /// # Errors
    ///
    /// [`CosimError::Sim`] when this co-simulator already carries a fault
    /// hypothesis (the sweep owns fault injection), when a file fails
    /// [`verify_vectors`] or when the clean replay of a record disagrees
    /// with its response; [`CosimError::Incompatible`] when a file does not
    /// describe a cone of this pattern; [`CosimError::Cone`] on
    /// cone-construction failures.
    pub fn fault_sweep(
        &self,
        files: &[VectorFile],
        iterations: u32,
        window: Window,
        depth: u32,
        schedule: &MaskSchedule,
    ) -> Result<FaultCoverageReport, CosimError> {
        let _span = isl_telemetry::span("cosim", "fault campaign");
        if self.fault.is_some() {
            return Err(CosimError::Sim(
                "fault campaign requires a clean co-simulator (drop with_fault)".into(),
            ));
        }
        let models = schedule.models();
        if models.is_empty() {
            return Err(CosimError::Sim("mask schedule has no models".into()));
        }
        let fmt = self.format();
        let shapes = files
            .iter()
            .map(|file| Shape::new(self, file))
            .collect::<Result<Vec<_>, _>>()?;

        let mut report = FaultCoverageReport {
            entity: files
                .iter()
                .max_by_key(|f| f.depth)
                .map(|f| f.entity.clone())
                .unwrap_or_default(),
            window,
            depth,
            iterations,
            format: fmt,
            instructions: shapes.iter().map(Shape::len).sum(),
            faults: 0,
            detected: 0,
            masked: 0,
            silent: 0,
            predicted_silent: 0,
            triaged: 0,
            by_model: models
                .iter()
                .map(|m| m.name())
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .map(|name| ModelCoverage {
                    model: name.to_string(),
                    faults: 0,
                    detected: 0,
                    masked: 0,
                    silent: 0,
                })
                .collect(),
            by_level: Vec::new(),
            mean_latency: 0.0,
            max_latency: 0,
            sample: Vec::new(),
        };
        let mut latency_sum = 0usize;
        let len = shapes.iter().map(Shape::len).max().unwrap_or(0);
        let mut scratch = Scratch {
            word: vec![None; len],
            order: Vec::with_capacity(len),
            pending: vec![0; len.div_ceil(64)],
        };

        for shape in &shapes {
            let records = shape.file.records.len();
            for instr in 0..shape.len() {
                for model in &models {
                    let fault = Fault {
                        instr,
                        model: *model,
                    };
                    report.faults += 1;
                    let mc = report
                        .by_model
                        .iter_mut()
                        .find(|m| m.model == model.name())
                        .expect("model row built above");
                    mc.faults += 1;

                    // Statically proven silence: the known-bits facts show
                    // the stuck-at mask cannot change this instruction's
                    // word on any in-format stimulus — classify without
                    // touching a single trace. (In debug builds the scan
                    // re-runs anyway and must agree: the prediction is a
                    // proof, the measurement its cross-validation.)
                    if predicted_silent(shape.analysis.as_ref(), &fault) {
                        debug_assert!(
                            (0..records).all(|r| !shape.active(r, fault)),
                            "statically predicted-silent fault was active: {} at instr {instr}",
                            model.name()
                        );
                        report.silent += 1;
                        report.predicted_silent += 1;
                        mc.silent += 1;
                        isl_telemetry::add("campaign.predicted_silent", 1);
                        continue;
                    }

                    let mut active = (0..records).filter(|&r| shape.active(r, fault)).peekable();
                    if active.peek().is_none() {
                        report.silent += 1;
                        mc.silent += 1;
                        continue;
                    }
                    let Some(latency) =
                        active.find(|&r| shape.propagate(fmt, r, fault, &mut scratch))
                    else {
                        report.masked += 1;
                        mc.masked += 1;
                        continue;
                    };
                    debug_assert_eq!(
                        (shape.trace(latency).iter().zip(&scratch.word))
                            .map(|(&clean, faulty)| faulty.unwrap_or(clean))
                            .collect::<Vec<_>>(),
                        eval_cone_raw_traced(&shape.cc, fmt, shape.read(latency), Some(fault)).1,
                        "propagated trace of {} at instr {instr}, record {latency}",
                        model.name()
                    );
                    report.detected += 1;
                    mc.detected += 1;
                    latency_sum += latency;
                    report.max_latency = report.max_latency.max(latency);
                    let level = shape.file.records[latency].level;
                    match report.by_level.iter_mut().find(|l| l.level == level) {
                        Some(l) => l.detected += 1,
                        None => report.by_level.push(LevelDetections { level, detected: 1 }),
                    }
                    // The clean file agrees with the oracle, so the oracle
                    // disagrees with this record's faulty response; the
                    // triage question left is where the trace first
                    // diverges.
                    let triaged = scratch.order.first() == Some(&(instr as u32));
                    if triaged {
                        report.triaged += 1;
                    }
                    if report.sample.len() < FaultCoverageReport::SAMPLE_CAP {
                        report.sample.push(DetectedFault {
                            fault,
                            shape_depth: shape.file.depth,
                            opcode: mnemonic(&shape.code[instr]),
                            latency,
                            level,
                            triaged,
                        });
                    }
                }
            }
        }
        report.by_level.sort_by_key(|l| l.level);
        report.mean_latency = if report.detected == 0 {
            0.0
        } else {
            latency_sum as f64 / report.detected as f64
        };
        if isl_telemetry::enabled() {
            isl_telemetry::add("campaign.faults", report.faults as u64);
            isl_telemetry::add("campaign.detected", report.detected as u64);
            isl_telemetry::add("campaign.masked", report.masked as u64);
            isl_telemetry::add("campaign.silent", report.silent as u64);
            isl_telemetry::add("campaign.triaged", report.triaged as u64);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isl_ir::{BinaryOp, Expr, FieldKind, Offset, StencilPattern};
    use isl_sim::{Frame, FrameSet};

    fn blur() -> StencilPattern {
        let mut p = StencilPattern::new(2).with_name("blur");
        let f = p.add_field("f", FieldKind::Dynamic);
        let sum = Expr::sum([
            Expr::input(f, Offset::d2(0, -1)),
            Expr::input(f, Offset::d2(-1, 0)),
            Expr::input(f, Offset::d2(1, 0)),
            Expr::input(f, Offset::d2(0, 1)),
        ]);
        p.set_update(f, Expr::binary(BinaryOp::Div, sum, Expr::constant(4.0)))
            .unwrap();
        p
    }

    #[test]
    fn campaign_classifies_every_fault() {
        let p = blur();
        let fmt = FixedFormat::default();
        let cosim = CoSimulator::new(&p, fmt).unwrap();
        let init = FrameSet::from_frames(vec![Frame::from_fn(8, 6, |x, y| {
            ((x * 3 + y * 5) % 13) as f64 / 4.0 - 1.5
        })])
        .unwrap();
        let schedule = MaskSchedule::lsb();
        let report = cosim
            .fault_campaign(&init, 3, Window::square(3), 2, &schedule)
            .unwrap();
        assert_eq!(
            report.faults,
            report.detected + report.masked + report.silent
        );
        assert_eq!(report.faults, report.instructions * 3);
        assert!(report.detected > 0, "{report}");
        // Every detection is pinned back to its instruction.
        assert_eq!(report.triaged, report.detected, "{report}");
        assert!(!report.by_level.is_empty());
        assert_eq!(
            report.by_level.iter().map(|l| l.detected).sum::<usize>(),
            report.detected
        );
        let by_model: usize = report.by_model.iter().map(|m| m.faults).sum();
        assert_eq!(by_model, report.faults);
    }

    #[test]
    fn bit_flips_are_never_silent() {
        let p = blur();
        let fmt = FixedFormat::default();
        let cosim = CoSimulator::new(&p, fmt).unwrap();
        let init = FrameSet::from_frames(vec![Frame::from_fn(6, 5, |x, y| {
            (x as f64 - y as f64) / 3.0
        })])
        .unwrap();
        let schedule = MaskSchedule::lsb().bit_flip_only();
        let report = cosim
            .fault_campaign(&init, 2, Window::square(2), 1, &schedule)
            .unwrap();
        assert_eq!(report.silent, 0, "{report}");
        assert_eq!(report.faults, report.instructions);
    }

    #[test]
    fn campaign_rejects_faulty_cosim() {
        let p = blur();
        let cosim = CoSimulator::new(&p, FixedFormat::default())
            .unwrap()
            .with_fault(Fault::bit_flip(0, 1));
        let init = FrameSet::from_frames(vec![Frame::new(4, 4)]).unwrap();
        let err = cosim
            .fault_campaign(&init, 1, Window::square(2), 1, &MaskSchedule::lsb())
            .unwrap_err();
        assert!(matches!(err, CosimError::Sim(_)));
    }
}
