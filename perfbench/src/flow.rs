//! The cold compile path a designer pays per kernel: C source → explore →
//! synthesize → certify → format search → certified bundle, each op in a
//! fresh `IslSession` (no store sharing between ops).

use std::collections::BTreeMap;
use std::time::Instant;

use isl_hls::algorithms::Algorithm;
use isl_hls::analyze::{Analysis, WordRange};
use isl_hls::cosim::CoSimulator;
use isl_hls::dse::Explorer;
use isl_hls::fpga::SynthCache;
use isl_hls::ir::ConeCache;
use isl_hls::prelude::*;
use isl_hls::sim::{level_depths, CompiledCone, Quantizer};
use isl_hls::vhdl::{
    generate_cone, generate_testbench, generate_vector_testbench, generate_wrapper, verify_vectors,
    VectorFile, VhdlOptions,
};

use crate::trace::Tracer;
use crate::util::{noise_frames, secs, Rng, Samples};

/// Frame size of the certified run (the paper's flow certifies on a small
/// frame; exploration targets the same size).
pub const WIDTH: u32 = 24;
pub const HEIGHT: u32 = 18;

/// What one workload feeds every flow op.
pub struct FlowInputs {
    pub algo: Algorithm,
    pub init: FrameSet,
    pub device: Device,
    pub space: DesignSpace,
}

impl FlowInputs {
    pub fn new(algo: Algorithm, fields: usize, seed: u64) -> Self {
        let mut rng = Rng::stream(seed, "flow-frames");
        FlowInputs {
            algo,
            init: noise_frames(&mut rng, fields, WIDTH as usize, HEIGHT as usize),
            device: Device::virtex6_xc6vlx760(),
            space: DesignSpace::new(2..=5, 1..=3, 4),
        }
    }
}

/// The user-visible result of one flow op, compared against the
/// checked-in values and across ops.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowResult {
    /// Chosen architecture: window side, depth, cores.
    pub arch: (u32, u32, u32),
    /// Default format (width, frac).
    pub default_format: (u32, u32),
    /// Searched format (width, frac).
    pub chosen_format: (u32, u32),
    pub default_luts: u64,
    pub chosen_luts: u64,
    /// Response words certified at the default format.
    pub vector_words: usize,
    /// The search budget (the default certificate's max quantisation error).
    pub budget: f64,
    /// Max quantisation error of the searched format's certificate.
    pub chosen_error: f64,
    /// Golden-vector sets shipped in the searched format's bundle.
    pub bundle_vector_sets: usize,
    /// The chosen format is a passing probe, and no passing probe with the
    /// same integer bits has fewer fractional bits (the search's contract).
    pub narrowest_passing: bool,
}

/// One completed flow op.
pub struct FlowOp {
    pub ms: f64,
    pub result: FlowResult,
    pub stats: StoreStats,
    pub probes: usize,
    /// Probes of the search that ran at the widest word (one static
    /// saturation analysis each).
    pub wide_probes: usize,
    /// The default-format certificate's vector files.
    pub vector_files: Vec<VectorFile>,
}

/// Run one cold flow op, spanning each stage call.
pub fn run(inp: &FlowInputs, tr: &mut Tracer) -> Result<FlowOp, String> {
    let e = |e: FlowError| e.to_string();
    let t0 = Instant::now();
    let session = tr
        .time("stage.spec", || IslSession::from_source(inp.algo.source))
        .map_err(e)?
        .with_threads(crate::THREADS);
    let explored = tr
        .time("stage.explore", || {
            session.explore(&inp.device, session.workload(WIDTH, HEIGHT), &inp.space)
        })
        .map_err(e)?;
    let arch = explored
        .fastest()
        .ok_or("exploration found nothing feasible")?
        .arch;
    tr.time("stage.synthesize", || explored.synthesize_fastest())
        .map_err(e)?;
    let certified = tr
        .time("stage.certify", || explored.certify_fastest(&inp.init))
        .map_err(e)?;
    let budget = ErrorBudget::max_abs(certified.certificate().max_quant_error);
    let searched = tr
        .time("stage.search_format", || {
            session.search_format(&inp.device, &inp.init, arch, budget)
        })
        .map_err(e)?;
    let bundle = tr
        .time("stage.bundle", || {
            searched
                .session()
                .certify(&inp.init, arch)
                .and_then(|c| c.synthesize())
        })
        .map_err(e)?;
    let ms = secs(t0) * 1e3;
    let cert = certified.certificate();
    let outcome = searched.outcome();
    Ok(FlowOp {
        ms,
        result: FlowResult {
            arch: (arch.window.w, arch.depth, arch.cores),
            default_format: (outcome.default_format.width, outcome.default_format.frac),
            chosen_format: (outcome.chosen.width, outcome.chosen.frac),
            default_luts: outcome.default_area_luts,
            chosen_luts: outcome.chosen_area_luts,
            vector_words: cert.vector_words,
            budget: budget.max_abs,
            chosen_error: outcome.certificate.max_quant_error,
            bundle_vector_sets: bundle.bundle().vectors.len(),
            narrowest_passing: outcome
                .probes
                .iter()
                .any(|p| p.format == outcome.chosen && p.within_budget)
                && !outcome.probes.iter().any(|p| {
                    p.within_budget
                        && p.format.int_bits() == outcome.chosen.int_bits()
                        && p.format.frac < outcome.chosen.frac
                }),
        },
        stats: session.store_stats(),
        probes: outcome.probes.len(),
        wide_probes: outcome
            .probes
            .iter()
            .filter(|p| p.format.width == budget.max_width)
            .count(),
        vector_files: cert.vector_files.clone(),
    })
}

/// Values that do not depend on the frame contents (exploration sees only
/// the frame size), plus the content-dependent ones for the default seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowExpected {
    pub arch: (u32, u32, u32),
    pub default_format: (u32, u32),
    pub default_luts: u64,
    pub vector_words: usize,
    /// `(chosen format, chosen LUTs)` at the default seed.
    pub default_seed: ((u32, u32), u64),
}

/// Check one op's result. `first` is the first passing result of the run:
/// every op sees identical inputs, so every result must equal it.
pub fn check(
    r: &FlowResult,
    expected: &FlowExpected,
    default_seed: bool,
    first: Option<&FlowResult>,
) -> Result<(), String> {
    if r.arch != expected.arch {
        return Err(format!("arch {:?}, expected {:?}", r.arch, expected.arch));
    }
    if r.default_format != expected.default_format || r.default_luts != expected.default_luts {
        return Err(format!(
            "default format {:?} / {} LUTs, expected {:?} / {}",
            r.default_format, r.default_luts, expected.default_format, expected.default_luts
        ));
    }
    if r.vector_words != expected.vector_words {
        return Err(format!(
            "{} vector words, expected {}",
            r.vector_words, expected.vector_words
        ));
    }
    if !r.narrowest_passing {
        return Err(format!(
            "searched format {:?} is not the narrowest passing probe at its integer width",
            r.chosen_format
        ));
    }
    if r.chosen_error.is_nan() || r.chosen_error > r.budget {
        return Err(format!(
            "searched error {} exceeds budget {}",
            r.chosen_error, r.budget
        ));
    }
    if r.bundle_vector_sets == 0 {
        return Err("certified bundle ships no golden vectors".into());
    }
    if default_seed && (r.chosen_format, r.chosen_luts) != expected.default_seed {
        return Err(format!(
            "searched {:?} / {} LUTs, expected {:?} at the default seed",
            r.chosen_format, r.chosen_luts, expected.default_seed
        ));
    }
    if let Some(f) = first {
        if r != f {
            return Err(format!(
                "result {r:?} differs from the run's first op {f:?}"
            ));
        }
    }
    Ok(())
}

/// Per-layer times (ms) and counts of one flow op, from replaying its
/// layer calls on its own inputs, scaled by the call counts the program
/// exports.
pub type Layers = BTreeMap<&'static str, f64>;

/// Replay the layer calls of `op` directly, each in its own span, and
/// scale each by how often the op made it.
pub fn replay(inp: &FlowInputs, op: &FlowOp, tr: &mut Tracer) -> Result<Layers, String> {
    let s = |e: &dyn std::fmt::Display| e.to_string();
    let mut l = Layers::new();
    let (side, depth, _) = op.result.arch;
    let window = Window::square(side);
    let fmt = FixedFormat::new(op.result.default_format.0, op.result.default_format.1);
    let iterations = inp.algo.default_iterations;

    // isl-frontend + isl-symexec.
    let (compiled, ms) = tr.timed("frontend.compile", || inp.algo.compile());
    let (pattern, _info) = compiled.map_err(|e| s(&e))?;
    l.insert("frontend.compile_ms", ms);
    let params: Vec<f64> = pattern.params().iter().map(|p| p.default).collect();
    let border = BorderMode::Clamp;

    // isl-ir: every shape the exploration touches, into one cone cache.
    let cones = ConeCache::new();
    let mut build = Samples::default();
    for side in inp.space.window_sides.clone() {
        for &d in &inp.space.depths {
            let (cone, ms) = tr.timed("ir.cone_build", || {
                cones.get_or_build(&pattern, Window::square(side), d, true)
            });
            cone.map_err(|e| s(&e))?;
            build.push(ms);
        }
    }
    let shapes: Vec<u32> = {
        let mut v = level_depths(iterations, depth);
        v.sort_unstable();
        v.dedup();
        v
    };
    // Co-simulator calls build and compile their own cones per shape.
    let cosim_calls =
        op.stats.vectors.misses + op.stats.certificates.misses + op.stats.analysis_pruned_probes;
    let cone_builds = op.stats.cones.misses + cosim_calls * shapes.len();
    l.insert("ir.cone_builds", cone_builds as f64);
    l.insert("ir.cone_build_ms", build.mean() * cone_builds as f64);

    // isl-dse + isl-fpga: calibration syntheses over the prebuilt cones,
    // then enumeration.
    let explorer = Explorer::new(&inp.device)
        .with_threads(crate::THREADS)
        .with_caches(cones.clone(), SynthCache::new());
    let (calibration, ms) = tr.timed("dse.calibrate", || {
        explorer.calibrate(&pattern, iterations, &inp.space)
    });
    let calibration = calibration.map_err(|e| s(&e))?;
    l.insert("dse.calibrate_ms", ms * op.stats.calibrations.misses as f64);
    let workload = Workload::image(WIDTH, HEIGHT, iterations);
    let (enumerated, ms) = tr.timed("dse.enumerate", || {
        explorer.enumerate(&pattern, workload, &inp.space, &calibration)
    });
    enumerated.map_err(|e| s(&e))?;
    l.insert("dse.enumerate_ms", ms);
    l.insert("fpga.syntheses", op.stats.syntheses.misses as f64);

    // isl-sim compile: the fold-free cone program of each shape of the
    // certified decomposition (the main one, deepest, is kept).
    let mut compile = Samples::default();
    let mut main = None;
    for &d in &shapes {
        let cone = cones
            .get_or_build(&pattern, window, d, true)
            .map_err(|e| s(&e))?;
        let (cc, ms) = tr.timed("sim.compile", || {
            CompiledCone::compile_with(&cone, &params, false)
        });
        compile.push(ms);
        main = Some((cone, cc));
    }
    let (cone, cc) = main.ok_or("decomposition without levels")?;
    let compiles = op.stats.programs.misses + cosim_calls * shapes.len() + 1;
    l.insert("sim.compile_ms", compile.mean() * compiles as f64);
    l.insert("sim.cone_instrs", cc.len() as f64);
    l.insert("sim.cone_slots", cc.slots() as f64);

    // isl-sim engines on the op's frames, warm (compiles counted above).
    let sim = Simulator::new(&pattern)
        .map_err(|e| s(&e))?
        .with_border(border)
        .with_threads(crate::THREADS);
    let q = Quantizer::from(fmt);
    let init = &inp.init;
    let certs = op.stats.certificates.misses as f64;
    let mut engine = |name: &'static str,
                      key: &'static str,
                      times: f64,
                      tr: &mut Tracer,
                      f: &dyn Fn() -> Result<FrameSet, isl_hls::sim::SimError>|
     -> Result<f64, String> {
        f().map_err(|e| s(&e))?;
        let (out, ms) = tr.timed(name, f);
        out.map_err(|e| s(&e))?;
        l.insert(key, ms * times);
        Ok(ms)
    };
    let mut explained = 0.0;
    explained += engine("sim.tiled_q", "sim.tiled_q_ms", certs, tr, &|| {
        sim.run_tiled_quantized(init, iterations, window, depth, q)
    })?;
    explained += engine("sim.tiled_q_ref", "sim.tiled_q_ref_ms", certs, tr, &|| {
        sim.run_tiled_quantized_reference(init, iterations, window, depth, q)
    })?;
    explained += engine("sim.dag_q", "sim.dag_q_ms", certs, tr, &|| {
        sim.run_cone_dag_quantized(init, iterations, window, depth, q)
    })?;
    explained += engine("sim.dag_q_ref", "sim.dag_q_ref_ms", certs, tr, &|| {
        sim.run_cone_dag_quantized_reference(init, iterations, window, depth, q)
    })?;
    explained += engine(
        "sim.ref_f64",
        "sim.ref_f64_ms",
        op.stats.references.misses as f64,
        tr,
        &|| {
            sim.run(init, iterations)?;
            sim.run_cone_dag(init, iterations, window, depth)
        },
    )?;

    // isl-cosim: golden vectors, then the error-metric run.
    let cosim = CoSimulator::new(&pattern, fmt)
        .map_err(|e| s(&e))?
        .with_border(border);
    let (files, ms) = tr.timed("cosim.golden_vectors", || {
        cosim.golden_vectors(init, iterations, window, depth)
    });
    let files = files.map_err(|e| s(&e))?;
    explained += ms;
    l.insert(
        "cosim.golden_vectors_ms",
        ms * op.stats.vectors.misses as f64,
    );
    let (levels, ms) = tr.timed("cosim.cone_levels", || {
        cosim.run_cone_levels(init, iterations, window, depth)
    });
    levels.map_err(|e| s(&e))?;
    explained += ms;
    l.insert(
        "cosim.cone_levels_ms",
        ms * (certs + op.stats.analysis_pruned_probes as f64),
    );

    // isl-vhdl: verify every vector file, its text round trip, and the
    // generated code (bundle entities plus vector testbenches).
    let vopts = VhdlOptions { format: fmt };
    let (mut verify_ms, mut text_ms, mut vec_codegen_ms, mut words) = (0.0, 0.0, 0.0, 0usize);
    for file in &files {
        let fcone = cones
            .get_or_build(&pattern, file.window, file.depth, true)
            .map_err(|e| s(&e))?;
        let (report, ms) = tr.timed("vhdl.verify_vectors", || verify_vectors(&fcone, fmt, file));
        verify_ms += ms;
        words += report.map_err(|e| s(&e))?.words;
        let (parsed, ms) = tr.timed("vhdl.vector_text", || VectorFile::parse(&file.to_text()));
        parsed.map_err(|e| s(&e))?;
        text_ms += ms;
        if !file.ports_in.is_empty() {
            let (bench, ms) = tr.timed("vhdl.codegen", || {
                generate_vector_testbench(&generate_cone(&fcone, &vopts), file)
            });
            bench.map_err(|e| s(&e))?;
            vec_codegen_ms += ms;
        }
    }
    if files != op.vector_files || words != op.result.vector_words {
        return Err("replayed golden vectors differ from the op's certificate".into());
    }
    explained += verify_ms + text_ms + vec_codegen_ms;
    let (_, bundle_ms) = tr.timed("vhdl.codegen", || {
        let module = generate_cone(&cone, &vopts);
        let _ = generate_testbench(&cone, &module, fmt);
        generate_wrapper(&cone, &module)
    });
    l.insert("vhdl.verify_vectors_ms", verify_ms * certs);
    l.insert("vhdl.vector_text_ms", text_ms * (certs + 1.0));
    l.insert(
        "vhdl.codegen_ms",
        bundle_ms * 2.0 + vec_codegen_ms * (certs + 1.0),
    );
    l.insert("cert.vector_words", op.result.vector_words as f64);

    // isl-analyze: one saturation analysis per widest-word probe.
    let maxabs = init
        .frames()
        .iter()
        .flat_map(|f| f.as_slice().iter().copied())
        .fold(0.0f64, |m, v| m.max(v.abs()));
    let (analysis, ms) = tr.timed("analyze.of_cone", || {
        Analysis::of_cone(
            &cc,
            fmt,
            WordRange::new(fmt.quantize(-maxabs), fmt.quantize(maxabs)),
        )
    });
    analysis.map_err(|e| s(&e))?;
    l.insert("analyze.of_cone_ms", ms * op.wide_probes as f64);
    l.insert("search.probes", op.probes as f64);
    l.insert("search.pruned", op.stats.analysis_pruned_probes as f64);
    l.insert(
        "search.pruned_share",
        op.stats.analysis_pruned_probes as f64 / op.probes.max(1) as f64,
    );

    // isl-hls store reuse inside one cold op.
    for (name, cs) in op.stats.rows() {
        let total = cs.hits + cs.misses;
        let ratio = if total == 0 {
            0.0
        } else {
            cs.hits as f64 / total as f64
        };
        l.insert(store_key(name), ratio);
    }
    l.insert("certify.explained_ms", explained);
    Ok(l)
}

/// The per-layer metric name of one store cache's hit ratio.
pub fn store_key(cache: &str) -> &'static str {
    match cache {
        "cones" => "store.cones.hit_ratio",
        "programs" => "store.programs.hit_ratio",
        "syntheses" => "store.syntheses.hit_ratio",
        "calibrations" => "store.calibrations.hit_ratio",
        "vectors" => "store.vectors.hit_ratio",
        "certificates" => "store.certificates.hit_ratio",
        "references" => "store.references.hit_ratio",
        "searches" => "store.searches.hit_ratio",
        _ => "store.other.hit_ratio",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> (FlowResult, FlowExpected) {
        let r = FlowResult {
            arch: (5, 3, 4),
            default_format: (18, 10),
            chosen_format: (15, 10),
            default_luts: 100,
            chosen_luts: 80,
            vector_words: 2000,
            budget: 1e-3,
            chosen_error: 9e-4,
            bundle_vector_sets: 2,
            narrowest_passing: true,
        };
        let e = FlowExpected {
            arch: (5, 3, 4),
            default_format: (18, 10),
            default_luts: 100,
            vector_words: 2000,
            default_seed: ((15, 10), 80),
        };
        (r, e)
    }

    #[test]
    fn accepts_the_expected_result() {
        let (r, e) = good();
        assert!(check(&r, &e, true, Some(&r.clone())).is_ok());
    }

    #[test]
    fn rejects_each_corruption() {
        let (r, e) = good();
        let corrupt: [fn(&mut FlowResult); 7] = [
            |r| r.arch.1 = 2,
            |r| r.default_luts += 1,
            |r| r.vector_words -= 1,
            |r| r.narrowest_passing = false,
            |r| r.chosen_error = 2e-3,
            |r| r.bundle_vector_sets = 0,
            |r| {
                r.chosen_format = (16, 11);
                r.chosen_luts = 85;
            },
        ];
        for (i, c) in corrupt.iter().enumerate() {
            let mut bad = r.clone();
            c(&mut bad);
            assert!(
                check(&bad, &e, true, None).is_err(),
                "corruption {i} accepted"
            );
        }
        // A content-dependent difference passes on another seed, but not
        // against the run's first op.
        let mut other = r.clone();
        other.chosen_format = (16, 11);
        assert!(check(&other, &e, false, None).is_ok());
        assert!(check(&other, &e, false, Some(&r)).is_err());
    }
}
