//! Property tests for the `isl-analyze` static analyzer.
//!
//! Three soundness contracts, each checked against the *executing*
//! implementations rather than against the analyzer's own claims:
//!
//! 1. **Interval containment** — the abstract fact proven for every
//!    instruction of a lowered cone contains the concrete result word the
//!    bit-true integer VM computes for it, across random patterns, cone
//!    shapes, fixed-point formats and stimuli (and across the checked-in
//!    fuzz corpus at each entry's recorded configuration);
//! 2. **Verifier completeness and soundness** — the bytecode verifier
//!    accepts every program the compiler emits (random and corpus), and
//!    rejects hand-built programs that violate each checked invariant
//!    (CSE congruence, DCE, def-before-use, slot interference, retire
//!    permutations);
//! 3. **Predicted fault silence** — on both paper case studies, the
//!    known-bits prediction feeding the fault campaigns is a *non-empty
//!    subset* of the measured masked-or-silent outcomes, and on inputs
//!    whose escalation widths the analysis flags as saturating,
//!    `search_format` certifies only its chosen format while every probe
//!    stays bit-identical to a full certify.

use std::path::Path;

use isl_tests::arb::{arb_pattern, arb_window};
use isl_tests::prop::check;

use isl_hls::analyze::{self, Analysis, WordRange};
use isl_hls::cosim::{eval_cone_raw_traced, CoSimulator, MaskSchedule};
use isl_hls::prelude::*;
use isl_hls::sim::{synthetic, CompiledCone, CompiledPattern, Instr, QuantizedCone, QuantizedPattern};

fn corpus_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"))
}

/// Deterministic pseudo-random stimulus in `[-3, 3]`, pure in the
/// coordinates (CSE may merge reads, so the read closure must be a
/// function of the coordinates alone).
fn stim(seed: u64) -> impl Fn(u16, i32, i32) -> f64 {
    move |f: u16, x: i32, y: i32| {
        let k = (x as i64 * 31 + y as i64 * 57 + f as i64 * 13) as u64 ^ seed;
        ((k % 97) as f64) / 16.0 - 3.0
    }
}

/// Every abstract fact contains the concrete word the integer VM computes
/// for its instruction, over random patterns, cone shapes and formats.
/// This is the soundness theorem of the transfer functions, tested against
/// the real datapath instead of a model of it.
#[test]
fn abstract_facts_contain_concrete_cone_execution() {
    check("abstract_facts_contain_concrete_cone_execution", 48, |rng| {
        let pattern = arb_pattern(rng);
        let window = arb_window(rng);
        let depth = rng.u32_in(1, 3);
        let width = rng.u32_in(10, 30);
        let fmt = FixedFormat::new(width, rng.u32_in(2, width - 4));
        let params: Vec<f64> = pattern.params().iter().map(|p| p.default).collect();
        let cone = Cone::build(&pattern, window, depth).expect("cone builds");
        let cc = CompiledCone::compile_with(&cone, &params, false);

        let input = WordRange::new(fmt.quantize(-3.0), fmt.quantize(3.0));
        let analysis = Analysis::of_cone(&cc, fmt, input).expect("compiler output verifies");

        let s = stim(rng.u64());
        let (_outs, trace) =
            eval_cone_raw_traced(&cc, fmt, |f, x, y| fmt.quantize(s(f, x, y)), None);
        assert_eq!(analysis.len(), trace.len());
        for (i, word) in trace.iter().enumerate() {
            assert!(
                analysis.value(i).contains(*word),
                "instr {i}: concrete word {word} escapes the abstract fact \
                 (range [{}, {}]) at {fmt}",
                analysis.value(i).range.lo,
                analysis.value(i).range.hi,
            );
        }
    });
}

/// The verifier accepts every program form the compiler emits for every
/// checked-in corpus entry at its recorded configuration, and the facts of
/// the corpus cones contain real executions under full-rail stimuli.
#[test]
fn corpus_compiles_verify_and_facts_contain_replay() {
    let entries = isl_fuzz::load_dir(corpus_dir()).expect("corpus loads");
    assert!(!entries.is_empty(), "checked-in corpus must not be empty");
    for entry in &entries {
        let (pattern, _info) =
            isl_hls::symexec::compile_str(&entry.source).expect("corpus entry compiles");
        let cfg = &entry.config;
        let fmt = cfg.format();
        let params: Vec<f64> = pattern.params().iter().map(|p| p.default).collect();
        let window = if pattern.rank() == 1 {
            Window::line(cfg.window.w)
        } else {
            cfg.window
        };

        let compiled = CompiledPattern::compile(&pattern, &params, true);
        let quantized = QuantizedPattern::compile(&pattern, &params, fmt);
        for i in 0..pattern.fields().len() {
            if let Some(k) = compiled.kernel(i) {
                analyze::verify_kernel(k).unwrap_or_else(|e| {
                    panic!("{}: f64 kernel {i}: {e}", entry.name)
                });
            }
            if let Some(k) = quantized.kernel(i) {
                analyze::verify_quantized_kernel(k).unwrap_or_else(|e| {
                    panic!("{}: quantized kernel {i}: {e}", entry.name)
                });
            }
        }
        analyze::verify_step(quantized.fused())
            .unwrap_or_else(|e| panic!("{}: fused step: {e}", entry.name));

        let Ok(cone) = Cone::build(&pattern, window, cfg.depth) else {
            continue; // window/depth rejected by cone reach constraints
        };
        let cc = CompiledCone::compile_with(&cone, &params, true);
        analyze::verify_cone(&cc).unwrap_or_else(|e| panic!("{}: cone: {e}", entry.name));
        let qc = QuantizedCone::compile(&cone, &params, fmt);
        analyze::verify_quantized_cone(&qc)
            .unwrap_or_else(|e| panic!("{}: quantized cone: {e}", entry.name));

        // Full-rail facts contain a real bit-true replay.
        let analysis = Analysis::of_cone(&cc, fmt, WordRange::full(fmt))
            .unwrap_or_else(|e| panic!("{}: analysis: {e}", entry.name));
        let s = stim(cfg.frame_seed);
        let (_outs, trace) =
            eval_cone_raw_traced(&cc, fmt, |f, x, y| fmt.quantize(s(f, x, y)), None);
        for (i, word) in trace.iter().enumerate() {
            assert!(
                analysis.value(i).contains(*word),
                "{}: instr {i}: word {word} escapes its fact",
                entry.name
            );
        }
    }
}

/// The verifier rejects hand-built programs violating each invariant it
/// checks. These are the regression fixtures for the verifier itself: the
/// corpus gate (`isl-fuzz analyze`) proves it accepts real compiler
/// output, this proves it is not vacuously accepting everything.
#[test]
fn verifier_rejects_broken_programs() {
    use isl_hls::sim::Instr::*;

    // Structural CSE duplicate: two identical constants.
    let dup = [Const(1.0), Const(1.0)];
    assert!(analyze::verify_ssa(&dup, &[0, 1]).is_err(), "CSE duplicate accepted");

    // Dead instruction: instr 0 unreachable from the roots.
    let dead = [Const(1.0), Const(2.0)];
    assert!(analyze::verify_ssa(&dead, &[1]).is_err(), "dead code accepted");

    // Def-before-use violation: operand does not precede its user.
    let fwd = [Instr::Unary { op: isl_hls::ir::UnaryOp::Neg, a: 0 }];
    assert!(analyze::verify_ssa(&fwd, &[0]).is_err(), "forward reference accepted");

    // Root out of range.
    let oob = [Const(1.0)];
    assert!(analyze::verify_ssa(&oob, &[1]).is_err(), "out-of-range root accepted");

    // A well-formed slot program is accepted...
    let code = [Const(1.0), Instr::Unary { op: isl_hls::ir::UnaryOp::Neg, a: 0 }];
    let dst = [0u32, 1u32];
    assert!(analyze::verify_slot_program(&code, &dst, 2, &[1], &[1], &[0]).is_ok());

    // ...but clobbering a live slot is not: instr 1 evicts instr 0's value
    // from slot 0 while instr 2 still reads it.
    let clobber = [
        Const(1.0),
        Const(2.0),
        Instr::Binary { op: isl_hls::ir::BinaryOp::Add, a: 0, b: 0 },
    ];
    let cdst = [0u32, 0, 1];
    assert!(
        analyze::verify_slot_program(&clobber, &cdst, 2, &[1], &[2], &[0]).is_err(),
        "live-slot clobber accepted"
    );

    // Broken retire permutation.
    assert!(
        analyze::verify_slot_program(&code, &dst, 2, &[1], &[1], &[1]).is_err(),
        "out-of-range retire accepted"
    );
}

/// On both paper case studies, the known-bits fault-silence prediction is
/// a non-empty subset of the measured masked-or-silent outcomes. (The
/// campaign itself debug-asserts, for every predicted fault, that the
/// recorded traces agree the fault never perturbed a result word — this
/// test pins the aggregate subset relation and that the proof actually
/// fires on real kernels.)
#[test]
fn predicted_silence_is_nonempty_subset_of_measured() {
    for algo in [
        isl_hls::algorithms::gaussian_igf(),
        isl_hls::algorithms::chambolle(),
    ] {
        let session = IslSession::from_algorithm(&algo).unwrap();
        let fields = session.pattern().fields().len();
        let init = FrameSet::from_frames(
            (0..fields)
                .map(|i| synthetic::noise(12, 10, 7 + i as u64))
                .collect(),
        )
        .unwrap();
        let fmt = FixedFormat::new(18, 10);
        let cosim = CoSimulator::new(session.pattern(), fmt).unwrap();
        let report = cosim
            .fault_campaign(&init, 2, Window::square(4), 2, &MaskSchedule::standard(fmt))
            .unwrap();
        assert!(report.faults > 0);
        assert_eq!(
            report.detected + report.masked + report.silent,
            report.faults,
            "{}: classification must partition the sweep",
            algo.name
        );
        assert!(
            report.predicted_silent > 0,
            "{}: static silence proof never fired (0 of {} faults)",
            algo.name,
            report.faults
        );
        assert!(
            report.predicted_silent <= report.masked + report.silent,
            "{}: predicted-silent {} exceeds measured masked-or-silent {}",
            algo.name,
            report.predicted_silent,
            report.masked + report.silent
        );
    }
}

/// The search's certification is gated to the format it chooses: on both
/// case studies, over inputs whose early escalation widths saturate, every
/// probe is bit-identical to a full certify at its format while the search
/// adds exactly one certificate. Every other probe's certification is
/// pruned — among them at least one failing widest-word escalation probe
/// that the saturation analysis flags over the measured value box, which
/// is what drives the search to escalate its integer bits.
#[test]
fn gated_search_is_bit_identical_and_prunes_probes() {
    let device = Device::virtex6_xc6vlx760();
    for algo in [
        isl_hls::algorithms::gaussian_igf(),
        isl_hls::algorithms::chambolle(),
    ] {
        let session = IslSession::from_algorithm(&algo).unwrap();
        let fields = session.pattern().fields().len();
        // Gaussian's 3×3 binomial sums 16× the signal before normalising:
        // a three-digit input band guarantees the early escalation widths
        // provably saturate. Chambolle amplifies `g` by 1/λ = 10×
        // internally, so unit-band noise already overflows narrow words.
        let init = FrameSet::from_frames(
            (0..fields)
                .map(|i| {
                    let noise = synthetic::noise(20, 14, 11 + i as u64);
                    if algo.name == "igf" {
                        Frame::from_fn(20, 14, |x, y| 100.0 + 100.0 * noise.get(x, y))
                    } else {
                        noise
                    }
                })
                .collect(),
        )
        .unwrap();
        let arch = Architecture::new(Window::square(4), 2, 1);
        let budget = ErrorBudget::max_abs(1e-3);

        let searched = session.search_format(&device, &init, arch, budget).unwrap();
        assert_eq!(
            session.store_stats().certificates.misses,
            1,
            "{}: a search certifies its chosen format and nothing else",
            algo.name
        );
        for p in searched.probes() {
            let cert = session.clone().with_format(p.format).certify(&init, arch).unwrap();
            let c = cert.certificate();
            assert_eq!(
                (p.max_abs_error.to_bits(), p.rms_error.to_bits(), p.within_budget),
                (
                    c.max_quant_error.to_bits(),
                    c.rms_quant_error.to_bits(),
                    budget.admits(c.max_quant_error, c.rms_quant_error)
                ),
                "{}: probe at {} not bit-identical to its certificate",
                algo.name,
                p.format
            );
        }

        // The measured value box the search sizes its integer bits from:
        // every input and exact-output sample.
        let golden = session.simulator().unwrap().run(&init, session.iterations()).unwrap();
        let maxabs = init
            .frames()
            .iter()
            .chain(golden.frames().iter())
            .flat_map(|f| f.as_slice())
            .filter(|v| v.is_finite())
            .fold(0.0f64, |m, v| m.max(v.abs()));
        let params: Vec<f64> = session.pattern().params().iter().map(|p| p.default).collect();
        let cone = session.cone(arch.window, arch.depth).unwrap();
        let cc = CompiledCone::compile_with(&cone, &params, false);
        let pruned = searched
            .probes()
            .iter()
            .filter(|p| p.format.width == budget.max_width && !p.within_budget)
            .filter(|p| {
                let input = WordRange::new(p.format.quantize(-maxabs), p.format.quantize(maxabs));
                Analysis::of_cone(&cc, p.format, input)
                    .expect("compiler output verifies")
                    .first_overflow()
                    .is_some()
            })
            .count();
        assert!(
            pruned >= 1,
            "{}: no statically-overflowing probe was pruned",
            algo.name
        );
    }
}
