//! The differential check: one kernel, one adversarial configuration, all
//! execution semantics cross-checked bitwise.
//!
//! For a program that survives the frontend, the driver runs the full
//! equivalence lattice the repo pins in its property tests, at a *single*
//! randomly sampled configuration:
//!
//! * `f64` domain — compiled vs tree-walking reference for the whole-frame
//!   and cone-DAG decompositions, plus a serial-vs-parallel sweep, plus the
//!   tiled tree walk == whole frame for local borders;
//! * quantised domain — the same lattice at an adversarial fixed-point
//!   width (the ladder includes 8, 18, 31, 54, 63 and 64 bits), the tiled
//!   leg checking that rounding commutes with the tiling;
//! * integer co-simulation — golden vectors recorded by the scalar VM and
//!   re-verified with [`isl_vhdl::check::verify_vectors`] (integer-exact at
//!   any width); the vectors the quantised cone-DAG engine records
//!   ([`engine_vectors`], what `IslSession::certify` stores) compared with
//!   them **word for word** at every width of the ladder; and, for formats
//!   whose raw words round-trip through `f64` (width ≤ 54), the whole
//!   integer cone-level run compared bit-for-bit with the engine's
//!   dequantised frames.
//!
//! Every comparison is `f64::to_bits` equality — "close" is not a verdict.
//! A run that errors is only consistent if its reference twin errors with
//! the same message.

use isl_cosim::CoSimulator;
use isl_fpga::FixedFormat;
use isl_ir::{Cone, Window};
use isl_sim::harness::{run_f64, run_quantized, Engine, RunSpec, Semantics};
use isl_sim::{synthetic, BorderMode, FrameSet, SimError, Simulator};
use isl_vhdl::check::verify_vectors;
use isl_vhdl::{VectorFile, VectorLayout};

use crate::rng::Rng;

/// Fixed-point widths the sampler draws from: the byte boundary, the
/// DSP-friendly default, odd widths straddling `i32`, the largest width
/// whose raw words survive an `f64` round trip, and the `i64` rails.
pub const WIDTH_LADDER: [u32; 6] = [8, 18, 31, 54, 63, 64];

/// One adversarial execution configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffConfig {
    /// Fixed-point word width in bits.
    pub width: u32,
    /// Fractional bits.
    pub frac: u32,
    /// Border resolution mode.
    pub border: BorderMode,
    /// Cone output window.
    pub window: Window,
    /// Cone depth (deliberately often a non-divisor of `iterations`).
    pub depth: u32,
    /// Worker-thread cap for the compiled engines.
    pub threads: usize,
    /// Frame width in elements.
    pub frame_w: usize,
    /// Frame height in elements (forced to 1 for rank-1 kernels).
    pub frame_h: usize,
    /// Iteration count.
    pub iterations: u32,
    /// Seed for the synthetic input frames.
    pub frame_seed: u64,
}

impl DiffConfig {
    /// Sample an adversarial configuration.
    pub fn sample(rng: &mut Rng) -> Self {
        let width = WIDTH_LADDER[rng.below(WIDTH_LADDER.len())];
        // Leave integer headroom; wide words get a deep fraction.
        let frac = (width / 2 + rng.below(1 + width as usize / 4) as u32).min(width - 1);
        let border = match rng.below(4) {
            0 => BorderMode::Clamp,
            1 => BorderMode::Mirror,
            2 => BorderMode::Wrap,
            _ => BorderMode::Constant(0.25),
        };
        let iterations = rng.range_i64(2, 6) as u32;
        DiffConfig {
            width,
            frac,
            border,
            window: Window::rect(
                rng.range_i64(2, 5) as u32,
                rng.range_i64(2, 5) as u32,
            ),
            // 1..=4 with no divisibility relation to `iterations` enforced:
            // remainder levels are exactly the schedule we want to stress.
            depth: rng.range_i64(1, 4) as u32,
            threads: *rng.pick(&[1usize, 2, 4]),
            frame_w: rng.range_i64(6, 12) as usize,
            frame_h: rng.range_i64(5, 10) as usize,
            iterations,
            frame_seed: rng.u64(),
        }
    }

    /// A fixed, cheap configuration for smoke tests.
    pub fn small() -> Self {
        DiffConfig {
            width: 18,
            frac: 10,
            border: BorderMode::Clamp,
            window: Window::square(3),
            depth: 2,
            threads: 1,
            frame_w: 7,
            frame_h: 5,
            iterations: 3,
            frame_seed: 0x5EED,
        }
    }

    /// The fixed-point format of this configuration.
    pub fn format(&self) -> FixedFormat {
        FixedFormat::new(self.width, self.frac)
    }
}

/// A single failed cross-check.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// Which equivalence broke (e.g. `quantized cone-dag compiled vs
    /// reference`).
    pub check: String,
    /// First divergence, with both values as bit patterns.
    pub detail: String,
}

/// The verdict of one differential iteration.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffOutcome {
    /// Every applicable cross-check held bitwise.
    Agree {
        /// Number of cross-checks that ran.
        checks: usize,
    },
    /// The frontend or symbolic executor rejected the program — a
    /// structured rejection, not a failure.
    CompileError(String),
    /// Two semantics disagreed: a bug in at least one of them.
    Mismatch(Mismatch),
}

/// Synthetic input frames for `pattern`: one noise frame per field.
pub fn frames_for(
    pattern: &isl_ir::StencilPattern,
    w: usize,
    h: usize,
    seed: u64,
) -> FrameSet {
    FrameSet::from_frames(
        pattern
            .fields()
            .iter()
            .enumerate()
            .map(|(i, _)| synthetic::noise(w, h, seed ^ ((i as u64) << 32)))
            .collect(),
    )
    .expect("congruent noise frames")
}

fn first_diff(a: &FrameSet, b: &FrameSet) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("frame counts differ: {} vs {}", a.len(), b.len()));
    }
    for fi in 0..a.len() {
        let (fa, fb) = (a.frame(fi), b.frame(fi));
        for (i, (x, y)) in fa.as_slice().iter().zip(fb.as_slice()).enumerate() {
            if x.to_bits() != y.to_bits() {
                return Some(format!(
                    "frame {fi} element {i}: {x:?} ({:#018x}) vs {y:?} ({:#018x})",
                    x.to_bits(),
                    y.to_bits()
                ));
            }
        }
    }
    None
}

/// Compare two runs that may each have failed: bitwise-equal successes or
/// identically-worded errors are consistent, anything else is a mismatch.
fn cross_check(
    check: &str,
    a: Result<FrameSet, SimError>,
    b: Result<FrameSet, SimError>,
    mismatches: &mut Vec<Mismatch>,
) -> usize {
    match (a, b) {
        (Ok(fa), Ok(fb)) => {
            if let Some(detail) = first_diff(&fa, &fb) {
                mismatches.push(Mismatch { check: check.into(), detail });
            }
            1
        }
        (Err(ea), Err(eb)) => {
            if ea.to_string() != eb.to_string() {
                mismatches.push(Mismatch {
                    check: check.into(),
                    detail: format!("errors disagree: `{ea}` vs `{eb}`"),
                });
            }
            1
        }
        (Ok(_), Err(e)) => {
            mismatches.push(Mismatch {
                check: check.into(),
                detail: format!("left ran, right failed: {e}"),
            });
            1
        }
        (Err(e), Ok(_)) => {
            mismatches.push(Mismatch {
                check: check.into(),
                detail: format!("left failed, right ran: {e}"),
            });
            1
        }
    }
}

/// The golden vectors the quantised cone-DAG engine records for one run
/// ([`Simulator::record_cone_dag_quantized`]), one file per distinct cone
/// depth, laid out by [`VectorLayout`] — the files `IslSession::certify`
/// stores, built the same way.
///
/// # Errors
///
/// The engine's [`SimError`]s, and cone-construction failures as
/// [`SimError::Cone`].
pub fn engine_vectors(
    sim: &Simulator<'_>,
    init: &FrameSet,
    iterations: u32,
    window: Window,
    depth: u32,
    fmt: FixedFormat,
) -> Result<Vec<VectorFile>, SimError> {
    let run = sim.record_cone_dag_quantized(init, iterations, window, depth, fmt)?;
    run.shapes
        .into_iter()
        .map(|(d, firings)| {
            let cone = Cone::build(sim.pattern(), window, d)
                .map_err(|e| SimError::Cone(e.to_string()))?;
            let mut layout = VectorLayout::new(&cone, fmt, sim.params());
            for f in firings {
                layout.push(f.level, f.tile, &f.inputs, f.outputs);
            }
            Ok(layout.into_file())
        })
        .collect()
}

/// The first difference between two vector-file sets, if any.
fn first_vector_diff(a: &[VectorFile], b: &[VectorFile]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("file counts differ: {} vs {}", a.len(), b.len()));
    }
    let (fa, fb) = a.iter().zip(b).find(|(x, y)| x != y)?;
    let Some(ri) = fa.records.iter().zip(&fb.records).position(|(x, y)| x != y) else {
        return Some(format!("`{}`: headers or record counts differ", fa.entity));
    };
    let (ra, rb) = (&fa.records[ri], &fb.records[ri]);
    let first = |x: &[i64], y: &[i64]| {
        x.iter()
            .zip(y)
            .position(|(p, q)| p != q)
            .map(|c| (c, x[c], y[c]))
    };
    Some(format!(
        "`{}` record {ri}: level/tile {:?} vs {:?}; first stimulus (column, words) {:?}; \
         first response {:?}",
        fa.entity,
        (ra.level, ra.tile),
        (rb.level, rb.tile),
        first(&ra.stimulus, &rb.stimulus),
        first(&ra.response, &rb.response)
    ))
}

/// Compile `source` through the real frontend and run the full
/// differential matrix at `cfg`.
pub fn run_differential(source: &str, cfg: &DiffConfig) -> DiffOutcome {
    let (pattern, _info) = match isl_symexec::compile_str(source) {
        Ok(p) => p,
        Err(e) => return DiffOutcome::CompileError(e.to_string()),
    };
    let rank1 = pattern.rank() == 1;
    let frame_h = if rank1 { 1 } else { cfg.frame_h };
    let window = if rank1 { Window::line(cfg.window.w) } else { cfg.window };

    let sim = match Simulator::new(&pattern) {
        Ok(s) => s,
        Err(e) => return DiffOutcome::CompileError(format!("simulator rejected pattern: {e}")),
    };
    let sim = sim.with_border(cfg.border).with_threads(cfg.threads);
    let serial = Simulator::new(&pattern)
        .expect("already validated")
        .with_border(cfg.border)
        .with_threads(1);

    let init = frames_for(&pattern, cfg.frame_w, frame_h, cfg.frame_seed);
    let fmt = cfg.format();
    let local = cfg.border.is_local();

    let mut checks = 0usize;
    let mut mismatches = Vec::new();

    // -- f64 and quantised lattices ------------------------------------
    for semantics in Semantics::ALL {
        let spec = RunSpec { semantics, iterations: cfg.iterations, window, depth: cfg.depth };
        checks += cross_check(
            &format!("f64 {} compiled vs reference", semantics.name()),
            run_f64(&sim, spec, Engine::Compiled, &init),
            run_f64(&sim, spec, Engine::Reference, &init),
            &mut mismatches,
        );
        checks += cross_check(
            &format!("quantized {} compiled vs reference", semantics.name()),
            run_quantized(&sim, spec, Engine::Compiled, &init, fmt),
            run_quantized(&sim, spec, Engine::Reference, &init, fmt),
            &mut mismatches,
        );
        checks += cross_check(
            &format!("f64 {} parallel vs serial", semantics.name()),
            run_f64(&sim, spec, Engine::Compiled, &init),
            run_f64(&serial, spec, Engine::Compiled, &init),
            &mut mismatches,
        );
    }
    // The tiled oracle rejects non-local borders by contract.
    if local {
        let (n, d) = (cfg.iterations, cfg.depth);
        checks += cross_check(
            "f64 tiled vs whole-frame",
            sim.run_tiled_reference(&init, n, window, d),
            sim.run(&init, n),
            &mut mismatches,
        );
        checks += cross_check(
            "quantized tiled vs whole-frame",
            sim.run_tiled_quantized_reference(&init, n, window, d, fmt),
            sim.run_quantized(&init, n, fmt),
            &mut mismatches,
        );
    }

    // -- integer co-simulation leg -------------------------------------
    let cosim = match CoSimulator::new(&pattern, fmt) {
        Ok(cosim) => cosim.with_border(cfg.border),
        Err(e) => return DiffOutcome::CompileError(format!("cosim rejected pattern: {e}")),
    };
    let engine = engine_vectors(&sim, &init, cfg.iterations, window, cfg.depth, fmt);
    match cosim.golden_vectors(&init, cfg.iterations, window, cfg.depth) {
        Ok(files) => {
            for file in &files {
                checks += 1;
                match Cone::build(&pattern, file.window, file.depth) {
                    Ok(cone) => {
                        if let Err(e) = verify_vectors(&cone, fmt, file) {
                            mismatches.push(Mismatch {
                                check: format!(
                                    "golden vectors (w{} d{}) self-verify",
                                    file.window, file.depth
                                ),
                                detail: e.to_string(),
                            });
                        }
                    }
                    Err(e) => mismatches.push(Mismatch {
                        check: "cone build for recorded vectors".into(),
                        detail: e.to_string(),
                    }),
                }
            }
            // Raw-word leg: the engine's recorded firings equal the scalar
            // VM's word for word — no `f64` in between, so it binds at
            // every width up to 64.
            checks += 1;
            let detail = match &engine {
                Ok(engine) => first_vector_diff(&files, engine),
                Err(e) => Some(format!("cosim ran, engine failed: {e}")),
            };
            if let Some(detail) = detail {
                mismatches.push(Mismatch {
                    check: "engine vectors vs cosim golden vectors".into(),
                    detail,
                });
            }
        }
        Err(e) => {
            // The engine must agree with the co-simulator even about
            // rejection.
            checks += 1;
            if engine.is_ok() {
                mismatches.push(Mismatch {
                    check: "cosim golden vectors vs quantized cone-DAG".into(),
                    detail: format!("cosim failed where the engine ran: {e}"),
                });
            }
        }
    }
    // Raw words round-trip exactly through f64 only up to 54 bits; beyond
    // that the frame-level comparison cannot be stated through a
    // dequantise (the raw-word leg above covers those widths).
    if cfg.width <= 54 {
        checks += cross_check(
            "integer cone levels vs quantized cone-DAG",
            cosim
                .run_cone_levels(&init, cfg.iterations, window, cfg.depth)
                .map(|int| int.dequantize(fmt))
                .map_err(|e| SimError::Cone(e.to_string())),
            sim.run_cone_dag_quantized(&init, cfg.iterations, window, cfg.depth, fmt)
                .map_err(|e| SimError::Cone(e.to_string())),
            &mut mismatches,
        );
    }

    match mismatches.into_iter().next() {
        Some(m) => DiffOutcome::Mismatch(m),
        None => DiffOutcome::Agree { checks },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLUR: &str = r#"
#pragma isl iterations 3
void blur(const float a[H][W], float a_out[H][W]) {
    for (int y = 0; y < H; y++) {
        for (int x = 0; x < W; x++) {
            a_out[y][x] = (a[y][x] + a[y][x-1] + a[y-1][x] + a[y][x+1] + a[y+1][x]) / 8.0f;
        }
    }
}
"#;

    #[test]
    fn known_good_kernel_agrees_everywhere() {
        let out = run_differential(BLUR, &DiffConfig::small());
        match out {
            DiffOutcome::Agree { checks } => assert!(checks >= 10, "only {checks} checks ran"),
            other => panic!("expected agreement, got {other:?}"),
        }
    }

    #[test]
    fn wrap_border_skips_tiled_but_still_checks() {
        let cfg = DiffConfig { border: BorderMode::Wrap, ..DiffConfig::small() };
        match run_differential(BLUR, &cfg) {
            DiffOutcome::Agree { checks } => assert!(checks >= 6),
            other => panic!("expected agreement, got {other:?}"),
        }
    }

    #[test]
    fn wide_words_stay_integer_exact() {
        let cfg = DiffConfig { width: 64, frac: 32, ..DiffConfig::small() };
        match run_differential(BLUR, &cfg) {
            DiffOutcome::Agree { .. } => {}
            other => panic!("expected agreement at width 64, got {other:?}"),
        }
    }

    #[test]
    fn raw_word_leg_runs_and_binds_at_63_and_64_bits() {
        let (pattern, _) = isl_symexec::compile_str(BLUR).expect("compiles");
        for width in [63, 64] {
            let cfg = DiffConfig { width, frac: width / 2, ..DiffConfig::small() };
            let fmt = cfg.format();
            let init = frames_for(&pattern, cfg.frame_w, cfg.frame_h, cfg.frame_seed);
            let sim = Simulator::new(&pattern).expect("valid").with_border(cfg.border);
            let (iters, window, depth) = (cfg.iterations, cfg.window, cfg.depth);
            let engine = engine_vectors(&sim, &init, iters, window, depth, fmt).expect("engine");
            let golden = CoSimulator::new(&pattern, fmt)
                .expect("cosim")
                .with_border(cfg.border)
                .golden_vectors(&init, iters, window, depth)
                .expect("vectors");
            assert_eq!(first_vector_diff(&golden, &engine), None, "width {width}");
            // One flipped bit in one response word is a mismatch.
            let mut bent = engine.clone();
            bent[0].records[0].response[0] ^= 1;
            assert!(first_vector_diff(&golden, &bent).is_some(), "width {width}");
            // The wide-word iteration skips only the f64 frame leg.
            let narrow = DiffConfig { width: 54, frac: 27, ..cfg };
            match (run_differential(BLUR, &cfg), run_differential(BLUR, &narrow)) {
                (DiffOutcome::Agree { checks: wide }, DiffOutcome::Agree { checks: n54 }) => {
                    assert_eq!(wide + 1, n54, "width {width}");
                }
                other => panic!("expected agreement, got {other:?}"),
            }
        }
    }

    #[test]
    fn broken_source_reports_compile_error() {
        match run_differential("void broken(", &DiffConfig::small()) {
            DiffOutcome::CompileError(_) => {}
            other => panic!("expected compile error, got {other:?}"),
        }
    }

    #[test]
    fn sampled_configs_are_plausible() {
        let mut rng = Rng::new(3);
        for _ in 0..200 {
            let c = DiffConfig::sample(&mut rng);
            assert!(c.frac < c.width);
            assert!(c.depth >= 1 && c.iterations >= 2);
            assert!(c.frame_w >= c.window.w as usize);
        }
    }
}
