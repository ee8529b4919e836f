//! Property tests for the bit-true co-simulation subsystem.
//!
//! Five layers of hardware/software equivalence, all bit-for-bit:
//!
//! 1. the **quantised cone-DAG engine** (`run_cone_dag_quantized`) against
//!    its tree-walking reference, on random patterns over every operator,
//!    borders, window shapes, non-divisor depths and the worker-thread
//!    matrix `{1, 2, 4}`, and on both case studies at the architecture DSE
//!    picks (the comparison `certify` does not repeat); plus the tiled tree
//!    walk against the quantised whole-frame engine (rounding commutes with
//!    the tiling);
//! 2. the **integer fixed-point VM** (`isl-cosim`) against the independent
//!    fixed-point graph interpreter (`isl_fpga::eval_fixed`);
//! 3. the **golden-vector exchange**: generated vectors certify cleanly,
//!    survive a text round-trip, drive a structurally valid testbench —
//!    and a deliberately injected rounding fault is caught at the exact
//!    window, level and port, and a fault campaign triages it to its
//!    instruction;
//! 4. the **two vector recorders**: the quantised cone-DAG engine's
//!    recording (what `certify` stores) equals the scalar co-simulator's
//!    golden vectors word for word at every width of the fuzzer's ladder,
//!    and `certify` returns the certificate the co-simulator path assembles;
//! 5. the **fault campaign**: propagating each fault over the clean traces
//!    classifies every fault exactly as replaying the whole program does.

use isl_tests::arb::{
    arb_border, arb_local_border, arb_pattern, arb_pattern_of_rank, arb_window,
    assert_bitwise_eq, frames_for,
};
use isl_tests::prop::{check, Rng};

use isl_fuzz::{engine_vectors, WIDTH_LADDER};
use isl_hls::cosim::{
    error_metrics, eval_cone_raw, eval_cone_raw_traced, CoSimulator, Fault, FaultCoverageReport,
    MaskSchedule,
};
use isl_hls::fpga::{eval_fixed, FixedFormat};
use isl_hls::ir::Cone;
use isl_hls::prelude::*;
use isl_hls::sim::CompiledCone;
use isl_hls::vhdl::check::{verify_vectors, VectorCheckError};
use isl_hls::vhdl::{generate_cone, generate_vector_testbench, VectorFile, VhdlOptions};
use isl_hls::ArchitectureCertificate;

const THREAD_MATRIX: [usize; 3] = [1, 2, 4];

fn arb_format(rng: &mut Rng) -> FixedFormat {
    let width = rng.u32_in(10, 26);
    let frac = rng.u32_in(2, width - 4);
    FixedFormat::new(width, frac)
}

/// Rounding commutes with the tiling: the quantised tiled run (any window,
/// any depth, halo recompute included) is bit-identical to the quantised
/// *whole-frame* run for local borders — every level recomputes exactly the
/// same rounded words the frame-at-once engine produces.
#[test]
fn quantized_tiled_matches_quantized_whole_frame() {
    check("quantized_tiled_matches_quantized_whole_frame", 32, |rng| {
        let pattern = arb_pattern(rng);
        let border = arb_local_border(rng);
        let (w, h) = (rng.usize_in(1, 18), rng.usize_in(1, 18));
        let window = arb_window(rng);
        let depth = rng.u32_in(1, 4);
        let iters = rng.u32_in(1, 5);
        let fmt = arb_format(rng);
        let init = frames_for(&pattern, w, h, rng.u64());
        let sim = Simulator::new(&pattern)
            .expect("valid pattern")
            .with_border(border);
        let whole = sim.run_quantized(&init, iters, fmt).expect("whole-frame runs");
        let tiled = sim
            .run_tiled_quantized_reference(&init, iters, window, depth, fmt)
            .expect("tiled runs");
        assert_bitwise_eq(
            &tiled,
            &whole,
            &format!("{w}x{h} border {border} window {window} depth {depth} iters {iters}"),
        );
    });
}

/// Compiled quantised cone-DAG execution equals the rounding graph walk
/// bit-for-bit — any border (cones resolve borders at the base only), any
/// window/depth, every thread count of the matrix.
#[test]
fn quantized_cone_dag_matches_reference_bitwise() {
    check("quantized_cone_dag_matches_reference_bitwise", 32, |rng| {
        let pattern = arb_pattern(rng);
        let border = arb_border(rng);
        let (w, h) = (rng.usize_in(1, 18), rng.usize_in(1, 18));
        let window = arb_window(rng);
        let depth = rng.u32_in(1, 3);
        let iters = rng.u32_in(1, 5);
        let fmt = arb_format(rng);
        let init = frames_for(&pattern, w, h, rng.u64());
        let reference = Simulator::new(&pattern)
            .expect("valid pattern")
            .with_border(border)
            .run_cone_dag_quantized_reference(&init, iters, window, depth, fmt)
            .expect("reference runs");
        for threads in THREAD_MATRIX {
            let sim = Simulator::new(&pattern)
                .expect("valid pattern")
                .with_border(border)
                .with_threads(threads);
            let dag = sim
                .run_cone_dag_quantized(&init, iters, window, depth, fmt)
                .expect("compiled quantised cone dag runs");
            assert_bitwise_eq(
                &dag,
                &reference,
                &format!(
                    "{w}x{h} border {border} window {window} depth {depth} iters {iters} threads {threads}"
                ),
            );
        }
    });
}

/// The integer fixed-point VM executes lowered cone bytecode bit-identical
/// to the independent fixed-point graph interpreter, on random patterns and
/// cone shapes — the two implementations share only the per-operation
/// datapath functions, not the evaluation strategy.
#[test]
fn integer_vm_matches_graph_interpreter_bitwise() {
    check("integer_vm_matches_graph_interpreter_bitwise", 48, |rng| {
        let pattern = arb_pattern(rng);
        let window = arb_window(rng);
        let depth = rng.u32_in(1, 3);
        let width = rng.u32_in(10, 30);
        let fmt = FixedFormat::new(width, rng.u32_in(2, width - 4));
        let params: Vec<f64> = pattern.params().iter().map(|p| p.default).collect();
        let cone = Cone::build(&pattern, window, depth).expect("cone builds");
        let cc = CompiledCone::compile_with(&cone, &params, false);
        let seed = rng.u64();
        let stim = move |f: u16, x: i32, y: i32| -> f64 {
            let k = (x as i64 * 31 + y as i64 * 57 + f as i64 * 13) as u64 ^ seed;
            ((k % 97) as f64) / 16.0 - 3.0
        };
        let got = eval_cone_raw(&cc, fmt, |f, x, y| fmt.quantize(stim(f, x, y)));
        let want = eval_fixed(
            &cone,
            fmt,
            |f, pt| stim(f.index() as u16, pt.x, pt.y),
            &params,
        );
        assert_eq!(got.len(), want.len());
        for ((g, (_, pt, wv)), slot) in got.iter().zip(&want).zip(cc.outputs()) {
            assert_eq!(
                fmt.dequantize(*g).to_bits(),
                wv.to_bits(),
                "window {window} depth {depth} {fmt} out ({}, {}) / slot ({}, {})",
                pt.x,
                pt.y,
                slot.px,
                slot.py
            );
        }
    });
}

/// Golden vectors round-trip end to end on two real algorithms: generate →
/// certify (zero mismatches) → serialise → parse → re-certify → replay in a
/// structurally valid vector testbench.
#[test]
fn golden_vector_roundtrip_two_algorithms() {
    for algo in [
        isl_hls::algorithms::gaussian_igf(),
        isl_hls::algorithms::chambolle(),
    ] {
        let (pattern, _) = algo.compile().expect("builtin compiles");
        let fmt = FixedFormat::default();
        let cosim = CoSimulator::new(&pattern, fmt).expect("co-simulator builds");
        let init = frames_for(&pattern, 20, 16, 0xB17 ^ algo.name.len() as u64);
        let files = cosim
            .golden_vectors(&init, 5, Window::square(4), 2)
            .expect("vectors generate");
        // 5 iterations at depth 2 = two distinct shapes (main + remainder).
        assert_eq!(files.len(), 2, "{}", algo.name);
        for file in &files {
            let cone = Cone::build(&pattern, file.window, file.depth).expect("cone builds");
            let report = verify_vectors(&cone, fmt, file)
                .unwrap_or_else(|e| panic!("{}: {e}", algo.name));
            assert_eq!(report.records, file.records.len());
            assert!(report.words > 0);
            // Text round-trip is lossless and re-certifies.
            let reparsed = VectorFile::parse(&file.to_text()).expect("parses");
            assert_eq!(&reparsed, file, "{}", algo.name);
            verify_vectors(&cone, fmt, &reparsed).expect("reparsed file certifies");
            // The vector testbench mode consumes the file.
            let module = generate_cone(&cone, &VhdlOptions { format: fmt });
            let tb = generate_vector_testbench(&module, file).expect("testbench generates");
            assert!(tb.contains(&format!("entity tb_{}_vec is", module.entity_name)));
            isl_hls::vhdl::check::balance_only(&tb).expect("testbench is balanced");
        }
    }
}

/// The co-simulator's integer run and the simulator's quantised run are the
/// *same* hardware, twice: since the quantised engines moved into the raw
/// word domain, both sides execute the identical saturating/truncating
/// datapath and must agree bit for bit — no drift allowance at all.
#[test]
fn integer_run_tracks_quantized_run() {
    let algo = isl_hls::algorithms::gaussian_igf();
    let (pattern, _) = algo.compile().expect("builtin compiles");
    let fmt = FixedFormat::default();
    let init = frames_for(&pattern, 16, 12, 99);
    let cosim = CoSimulator::new(&pattern, fmt).expect("co-simulator builds");
    let fixed = cosim
        .run_cone_levels(&init, 4, Window::square(4), 2)
        .expect("integer run")
        .dequantize(fmt);
    let quantized = Simulator::new(&pattern)
        .expect("valid")
        .run_cone_dag_quantized(&init, 4, Window::square(4), 2, fmt)
        .expect("quantised run");
    assert_bitwise_eq(&fixed, &quantized, "cosim integer vs sim quantised");
}

/// A deliberately injected single-LSB rounding fault anywhere in the cone
/// datapath is caught by the golden-vector check at the exact window,
/// level and port, and a fault campaign over the same shape reports it
/// detected and triaged to its instruction.
#[test]
fn injected_fault_is_caught_and_triaged() {
    let algo = isl_hls::algorithms::gaussian_igf();
    let (pattern, _) = algo.compile().expect("builtin compiles");
    let fmt = FixedFormat::default();
    let params: Vec<f64> = pattern.params().iter().map(|p| p.default).collect();
    let cone = Cone::build(&pattern, Window::square(3), 2).expect("cone builds");
    let cc = CompiledCone::compile_with(&cone, &params, false);
    // Fault the last instruction: post-DCE it necessarily produces an
    // output word, so the corruption cannot be masked downstream.
    let fault = Fault::bit_flip(cc.len() - 1, 1);
    let init = frames_for(&pattern, 12, 9, 4242);
    let clean = CoSimulator::new(&pattern, fmt).expect("builds");
    let faulty = CoSimulator::new(&pattern, fmt).expect("builds").with_fault(fault);

    let good = clean
        .golden_vectors(&init, 4, Window::square(3), 2)
        .expect("clean vectors");
    let bad = faulty
        .golden_vectors(&init, 4, Window::square(3), 2)
        .expect("faulty vectors");
    for file in &good {
        let c = Cone::build(&pattern, file.window, file.depth).expect("cone");
        verify_vectors(&c, fmt, file).expect("clean vectors certify");
    }
    // The faulty main-shape file must fail certification...
    let bad_main = bad.iter().find(|f| f.depth == 2).expect("main shape");
    let c2 = Cone::build(&pattern, bad_main.window, bad_main.depth).expect("cone");
    let err = verify_vectors(&c2, fmt, bad_main).expect_err("fault must be caught");
    let VectorCheckError::Mismatch(m) = err else {
        panic!("expected a mismatch, got {err}");
    };
    // ...at the very first firing (the fault hits every window), on the
    // port of the output the faulted instruction defines, one LSB off.
    assert_eq!((m.record, m.level), (0, 0));
    let output = cc
        .capture()
        .iter()
        .position(|&c| c as usize == fault.instr)
        .expect("the last instruction defines an output");
    assert_eq!(m.port, bad_main.ports_out[output]);
    assert_eq!(m.expected ^ 1, m.got);

    // A campaign on the same shape catches and triages the same fault. On
    // a flat frame the divisions truncate every intermediate LSB flip
    // away, so only output-defining instructions are detected and the
    // report's sample holds them all.
    let flat = FrameSet::from_frames(vec![Frame::new(12, 9)]).expect("one field");
    let schedule = MaskSchedule::lsb().bit_flip_only();
    let report = clean
        .fault_campaign(&flat, 4, Window::square(3), 2, &schedule)
        .expect("campaign runs");
    assert!(
        report.detected < FaultCoverageReport::SAMPLE_CAP,
        "{report}"
    );
    let caught = report
        .sample
        .iter()
        .find(|d| d.fault == fault)
        .unwrap_or_else(|| panic!("the injected fault escaped: {report}"));
    assert_eq!(
        (caught.shape_depth, caught.latency, caught.level),
        (2, 0, 0)
    );
    assert!(caught.triaged, "{caught:?}");
    assert!(!caught.opcode.is_empty());
}

/// The flow-level acceptance gate: `IslSession::certify` certifies
/// gaussian-IGF and chambolle at their DSE-chosen (window, depth)
/// decompositions with mismatch-free golden vectors, and on the certified
/// frames the quantised compiled cone-DAG engine equals its tree walk bit
/// for bit — the engine check `certify` itself leaves to the property
/// suites and the fuzzer.
#[test]
fn verify_architecture_certifies_igf_and_chambolle() {
    for algo in [
        isl_hls::algorithms::gaussian_igf(),
        isl_hls::algorithms::chambolle(),
    ] {
        let session = IslSession::from_algorithm(&algo).expect("session builds");
        let device = Device::virtex6_xc6vlx760();
        let space = DesignSpace::new(2..=5, 1..=3, 4);
        let result = session
            .explore(&device, session.workload(24, 18), &space)
            .expect("explores");
        let best = result.fastest().expect("feasible point");
        let init = frames_for(session.pattern(), 24, 18, 0x5EED ^ algo.name.len() as u64);
        let certified = session
            .certify(&init, best.arch)
            .unwrap_or_else(|e| panic!("{}: {e}", algo.name));
        let cert = certified.certificate();
        assert_eq!(cert.arch, best.arch);
        assert!(cert.quantized_elements > 0, "{}", algo.name);
        assert!(cert.vector_records > 0, "{}", algo.name);
        assert!(cert.vector_words > 0, "{}", algo.name);
        assert!(!cert.vector_files.is_empty(), "{}", algo.name);
        assert!(cert.max_fixed_error.is_finite(), "{}", algo.name);

        let sim = session.simulator().expect("simulator");
        let (fmt, iters) = (cert.format, cert.iterations);
        let (window, depth) = (best.arch.window, best.arch.depth);
        assert_bitwise_eq(
            &sim.run_cone_dag_quantized(&init, iters, window, depth, fmt)
                .expect("compiled cone dag runs"),
            &sim.run_cone_dag_quantized_reference(&init, iters, window, depth, fmt)
                .expect("cone dag reference runs"),
            &format!("{} quantised cone-DAG", algo.name),
        );
    }
}

/// The quantised cone-DAG engine records the same golden vectors as the
/// scalar co-simulator, byte for byte: random rank-1 and rank-2 patterns,
/// every border mode, windows that do not tile the frame and depths that
/// do not divide the iteration count, every thread count of the matrix and
/// every width of the fuzzer's ladder — 63 and 64 bits included, where no
/// `f64` comparison could tell the words apart.
#[test]
fn engine_vectors_equal_cosim_golden_vectors() {
    check("engine_vectors_equal_cosim_golden_vectors", 36, |rng| {
        let rank = rng.usize_in(1, 2);
        let pattern = arb_pattern_of_rank(rng, rank);
        let border = arb_border(rng);
        let window = if rank == 1 {
            Window::line(rng.u32_in(1, 5))
        } else {
            arb_window(rng)
        };
        let depth = rng.u32_in(1, 3);
        // Remainder levels and partial edge tiles in most cases.
        let iters = depth * rng.u32_in(0, 2) + rng.u32_in(1, depth + 1);
        let w = window.w as usize * rng.usize_in(1, 3) + rng.usize_in(0, window.w as usize);
        let h = if rank == 1 {
            1
        } else {
            window.h as usize * rng.usize_in(1, 3) + rng.usize_in(0, window.h as usize)
        };
        let width = WIDTH_LADDER[rng.usize_in(0, WIDTH_LADDER.len() - 1)];
        let frac = rng.u32_in(width / 2, width - 1);
        let fmt = FixedFormat::new(width, frac);
        let init = frames_for(&pattern, w, h, rng.u64());
        let what = format!(
            "rank {rank} {w}x{h} border {border} window {window} depth {depth} iters {iters} {fmt}"
        );
        let golden = CoSimulator::new(&pattern, fmt)
            .expect("co-simulator builds")
            .with_border(border)
            .golden_vectors(&init, iters, window, depth)
            .expect("co-simulator records");
        for threads in THREAD_MATRIX {
            let sim = Simulator::new(&pattern)
                .expect("valid pattern")
                .with_border(border)
                .with_threads(threads);
            let files = engine_vectors(&sim, &init, iters, window, depth, fmt)
                .expect("engine records");
            assert_eq!(files.len(), golden.len(), "{what} threads {threads}");
            for (a, b) in files.iter().zip(&golden) {
                assert_eq!(a.to_text(), b.to_text(), "{what} threads {threads}");
                assert_eq!(a, b, "{what} threads {threads}");
            }
        }
    });
}

/// On both case studies at their DSE-chosen decompositions, `certify`
/// returns exactly the certificate the co-simulator path assembles: its
/// golden vectors, its word counts, and error metrics measured on its
/// integer cone-level run (bit patterns compared).
#[test]
fn certify_matches_cosim_assembled_certificate() {
    for algo in [
        isl_hls::algorithms::gaussian_igf(),
        isl_hls::algorithms::chambolle(),
    ] {
        let session = IslSession::from_algorithm(&algo).expect("session builds");
        let device = Device::virtex6_xc6vlx760();
        let space = DesignSpace::new(2..=5, 1..=3, 4);
        let explored = session
            .explore(&device, session.workload(24, 18), &space)
            .expect("explores");
        let arch = explored.fastest().expect("feasible point").arch;
        let init = frames_for(session.pattern(), 24, 18, 0xC0DE ^ algo.name.len() as u64);
        let cert = session
            .certify(&init, arch)
            .unwrap_or_else(|e| panic!("{}: {e}", algo.name))
            .certificate()
            .as_ref()
            .clone();

        let fmt = session.synth_options().format;
        let iters = session.iterations();
        let (window, depth) = (arch.window, arch.depth);
        let cosim = CoSimulator::new(session.pattern(), fmt)
            .expect("co-simulator builds")
            .with_border(session.border());
        let vector_files = cosim
            .golden_vectors(&init, iters, window, depth)
            .expect("co-simulator records");
        let (mut vector_records, mut vector_words) = (0, 0);
        for file in &vector_files {
            let cone = Cone::build(session.pattern(), file.window, file.depth).expect("cone");
            let report = verify_vectors(&cone, fmt, file).expect("vectors certify");
            vector_records += report.records;
            vector_words += report.words;
        }
        let fixed = cosim
            .run_cone_levels(&init, iters, window, depth)
            .expect("integer run")
            .dequantize(fmt);
        let sim = session.simulator().expect("simulator");
        let golden = sim.run(&init, iters).expect("golden run");
        let exact = sim.run_cone_dag(&init, iters, window, depth).expect("exact run");
        let metrics = error_metrics(&golden, &fixed);
        let quant = error_metrics(&exact, &fixed);
        let expected = ArchitectureCertificate {
            arch,
            iterations: iters,
            format: fmt,
            // Every element of the one certified cone-DAG run.
            quantized_elements: init.len() * 24 * 18,
            vector_files,
            vector_records,
            vector_words,
            max_fixed_error: metrics.max_abs,
            rms_fixed_error: metrics.rms,
            max_quant_error: quant.max_abs,
            rms_quant_error: quant.rms,
        };
        assert_eq!(cert, expected, "{}", algo.name);
        for (got, want) in [
            (cert.max_fixed_error, expected.max_fixed_error),
            (cert.rms_fixed_error, expected.rms_fixed_error),
            (cert.max_quant_error, expected.max_quant_error),
            (cert.rms_quant_error, expected.rms_quant_error),
        ] {
            assert_eq!(got.to_bits(), want.to_bits(), "{}", algo.name);
        }
    }
}

/// What a full-replay campaign measures: per fault, the whole program runs
/// under the fault on every record from the first one where the fault
/// changes its instruction's word, reads resolved by port name, until an
/// output word differs from the recorded response.
#[derive(Debug, Default)]
struct ReplayOutcomes {
    detected: usize,
    masked: usize,
    silent: usize,
    triaged: usize,
    /// Model name → (faults, detected, masked, silent).
    by_model: std::collections::BTreeMap<&'static str, (usize, usize, usize, usize)>,
    by_level: std::collections::BTreeMap<u32, usize>,
    latencies: Vec<usize>,
    /// (fault, shape depth, latency, level) of every detection, in sweep
    /// order.
    detections: Vec<(Fault, u32, usize, u32)>,
}

fn replay_campaign(
    pattern: &StencilPattern,
    fmt: FixedFormat,
    files: &[VectorFile],
    schedule: &MaskSchedule,
) -> ReplayOutcomes {
    use isl_hls::ir::{FieldKind, Point};
    use isl_hls::vhdl::codegen::{input_port_name, static_port_name};

    let params: Vec<f64> = pattern.params().iter().map(|p| p.default).collect();
    let mut out = ReplayOutcomes::default();
    for file in files {
        let cone = Cone::build(pattern, file.window, file.depth).expect("cone");
        let cc = CompiledCone::compile_with(&cone, &params, false);
        let read = |r: usize| {
            let stimulus = &file.records[r].stimulus;
            move |f: u16, dx: i32, dy: i32| {
                let fid = isl_hls::ir::FieldId::new(f);
                let port = if pattern.field(fid).kind == FieldKind::Static {
                    static_port_name(fid, Point::d2(dx, dy))
                } else {
                    input_port_name(fid, Point::d2(dx, dy))
                };
                stimulus[file.input_column(&port).expect("port recorded")]
            }
        };
        let clean: Vec<Vec<i64>> = (0..file.records.len())
            .map(|r| eval_cone_raw_traced(&cc, fmt, read(r), None).1)
            .collect();
        for instr in 0..cc.len() {
            for model in schedule.models() {
                let fault = Fault { instr, model };
                let row = out.by_model.entry(model.name()).or_default();
                row.0 += 1;
                let Some(first) = clean.iter().position(|t| model.apply(t[instr]) != t[instr])
                else {
                    out.silent += 1;
                    row.3 += 1;
                    continue;
                };
                let detection = (first..file.records.len()).find_map(|r| {
                    let (outs, trace) = eval_cone_raw_traced(&cc, fmt, read(r), Some(fault));
                    (outs != file.records[r].response).then_some((r, trace))
                });
                let Some((latency, trace)) = detection else {
                    out.masked += 1;
                    row.2 += 1;
                    continue;
                };
                out.detected += 1;
                row.1 += 1;
                let diverges = trace.iter().zip(&clean[latency]).position(|(a, b)| a != b);
                if diverges == Some(instr) {
                    out.triaged += 1;
                }
                let level = file.records[latency].level;
                *out.by_level.entry(level).or_default() += 1;
                out.latencies.push(latency);
                out.detections.push((fault, file.depth, latency, level));
            }
        }
    }
    out
}

/// The trace-propagating sweep classifies every fault exactly as full
/// replay does: random rank-1 and rank-2 patterns, every border mode,
/// windows that do not tile the frame, depths that leave a remainder
/// shape, every width of the fuzzer's ladder, and the LSB, standard and a
/// multi-bit schedule.
#[test]
fn fault_campaign_matches_full_replay() {
    check("fault_campaign_matches_full_replay", 32, |rng| {
        let rank = rng.usize_in(1, 2);
        let pattern = arb_pattern_of_rank(rng, rank);
        let border = arb_border(rng);
        let window = if rank == 1 {
            Window::line(rng.u32_in(1, 4))
        } else {
            Window::rect(rng.u32_in(1, 3), rng.u32_in(1, 3))
        };
        let depth = rng.u32_in(1, 3);
        let iters = depth * rng.u32_in(0, 1) + rng.u32_in(1, depth + 1);
        let w = window.w as usize * rng.usize_in(1, 3) + rng.usize_in(0, window.w as usize);
        let h = if rank == 1 {
            1
        } else {
            window.h as usize * rng.usize_in(1, 3) + rng.usize_in(0, window.h as usize)
        };
        let width = WIDTH_LADDER[rng.usize_in(0, WIDTH_LADDER.len() - 1)];
        let fmt = FixedFormat::new(width, rng.u32_in(width / 2, width - 1));
        let schedule = match rng.usize_in(0, 2) {
            0 => MaskSchedule::lsb(),
            1 => MaskSchedule::standard(fmt),
            _ => MaskSchedule::with_masks(vec![0b11, (1 << (width - 1)) | 1]).expect("non-zero"),
        };
        let init = frames_for(&pattern, w, h, rng.u64());
        let what = format!(
            "rank {rank} {w}x{h} border {border} window {window} depth {depth} iters {iters} \
             {fmt} {schedule:?}"
        );
        let cosim = CoSimulator::new(&pattern, fmt)
            .expect("co-simulator builds")
            .with_border(border);
        let report = cosim
            .fault_campaign(&init, iters, window, depth, &schedule)
            .expect("campaign runs");
        let files = cosim
            .golden_vectors(&init, iters, window, depth)
            .expect("co-simulator records");
        let want = replay_campaign(&pattern, fmt, &files, &schedule);

        assert_eq!(
            (
                report.detected,
                report.masked,
                report.silent,
                report.triaged
            ),
            (want.detected, want.masked, want.silent, want.triaged),
            "{what}"
        );
        let by_model: Vec<_> = report
            .by_model
            .iter()
            .map(|m| (m.model.as_str(), (m.faults, m.detected, m.masked, m.silent)))
            .collect();
        let want_by_model: Vec<_> = want.by_model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(by_model, want_by_model, "{what}");
        let by_level: Vec<_> = report
            .by_level
            .iter()
            .map(|l| (l.level, l.detected))
            .collect();
        let want_by_level: Vec<_> = want.by_level.into_iter().collect();
        assert_eq!(by_level, want_by_level, "{what}");
        let mean = if want.latencies.is_empty() {
            0.0
        } else {
            want.latencies.iter().sum::<usize>() as f64 / want.latencies.len() as f64
        };
        assert_eq!(report.mean_latency.to_bits(), mean.to_bits(), "{what}");
        assert_eq!(
            report.max_latency,
            want.latencies.iter().copied().max().unwrap_or(0),
            "{what}"
        );
        let sample: Vec<_> = report
            .sample
            .iter()
            .map(|d| (d.fault, d.shape_depth, d.latency, d.level))
            .collect();
        let want_sample: Vec<_> = want
            .detections
            .into_iter()
            .take(FaultCoverageReport::SAMPLE_CAP)
            .collect();
        assert_eq!(sample, want_sample, "{what}");
    });
}
