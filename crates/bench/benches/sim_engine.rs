//! Interpreted vs compiled simulation engine, the headline perf comparison
//! of the bytecode VM work: gaussian IGF and Chambolle at 256×256, through
//! all three execution semantics — golden whole-frame, tiled
//! (cone-architecture) and cone-DAG — plus their **quantised** variants
//! (the raw-word fixed-point datapath of the generated hardware), the
//! cone-program slot footprint with and without the consumer-clustering
//! scheduling pre-pass, warm-vs-cold staged-session DSE, the precision
//! **format search** (cold vs warm, searched vs default-format area), and
//! the **fault-injection campaign** sweep rate (faults/s of the exhaustive
//! stuck-at + bit-flip campaign over the w8 d2 decomposition).
//!
//! A **frames** section scales the float-vs-quantised comparison to
//! production sizes — 1080p and 4K single frames plus a multi-frame 1080p
//! streaming run, for both case-study patterns — reporting Melem/s
//! throughput and the quantised/float time ratio (every engine case also
//! carries its Melem/s). Set
//! `ISL_BENCH_FAST=1` to shrink the frames section to a 1080p smoke case
//! (CI uses this).
//!
//! A **persistence** section measures the disk tier end to end — cold
//! process vs store flush/load vs warm-disk open vs warm-memory — and the
//! served round-trip latency of a warm certify at 1/4/16 concurrent
//! clients through an in-process `isl-serve` server.
//!
//! Always writes `BENCH_sim.json` at the workspace root with the measured
//! times and speedups so the perf trajectory of the engine can be tracked
//! across commits.

use std::time::Instant;

use isl_bench::harness::Criterion;
use isl_hls::algorithms::{chambolle, gaussian_igf};
use isl_hls::cosim::{CoSimulator, MaskSchedule};
use isl_hls::ir::Cone;
use isl_hls::prelude::*;
use isl_hls::sim::synthetic;
use isl_hls::sim::CompiledCone;

const SIZE: usize = 256;
const ITERS: u32 = 10;
/// Architecture shapes used for the tiled / cone-DAG cases (chosen near
/// the paper's sweet spots: wide windows amortise tiled halo recompute,
/// small windows stress per-tile dispatch on the cone-DAG path).
const TILE_TILED: u32 = 16;
const TILE_CONE: u32 = 8;
const DEPTH: u32 = 2;

struct Case {
    name: &'static str,
    pattern: StencilPattern,
    init: FrameSet,
}

fn cases() -> Vec<Case> {
    let (igf, _) = gaussian_igf().compile().expect("igf compiles");
    let (cham, _) = chambolle().compile().expect("chambolle compiles");
    let noisy = synthetic::add_noise(&synthetic::gaussian_spots(SIZE, SIZE, 9, 4), 3, 0.15);
    vec![
        Case {
            name: "gaussian_igf_256",
            pattern: igf,
            init: FrameSet::from_frames(vec![synthetic::noise(SIZE, SIZE, 42)])
                .expect("frames"),
        },
        Case {
            name: "chambolle_256",
            pattern: cham,
            init: FrameSet::from_frames(vec![
                Frame::new(SIZE, SIZE),
                Frame::new(SIZE, SIZE),
                noisy,
            ])
            .expect("frames"),
        },
    ]
}

/// Median-of-5 wall time of one full run.
fn time_runs(mut f: impl FnMut() -> FrameSet) -> (f64, FrameSet) {
    let out = f();
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    (times[2], out)
}

struct Row {
    name: String,
    interpreted_ms: f64,
    compiled_1t_ms: f64,
    compiled_auto_ms: f64,
    /// Frame elements processed by one run (width × height × iterations).
    elems: f64,
}

impl Row {
    /// Melem/s of the compiled engine at auto threads.
    fn throughput_melem_s(&self) -> f64 {
        self.elems / (self.compiled_auto_ms * 1e-3) / 1e6
    }

    fn json(&self, last: bool) -> String {
        format!(
            "    {{\"name\": \"{}\", \"interpreted_ms\": {:.3}, \"compiled_1t_ms\": {:.3}, \"compiled_auto_ms\": {:.3}, \"speedup_1t\": {:.2}, \"speedup_auto\": {:.2}, \"throughput_melem_s\": {:.1}}}{}\n",
            self.name,
            self.interpreted_ms,
            self.compiled_1t_ms,
            self.compiled_auto_ms,
            self.interpreted_ms / self.compiled_1t_ms,
            self.interpreted_ms / self.compiled_auto_ms,
            self.throughput_melem_s(),
            if last { "" } else { "," }
        )
    }

    fn print(&self) {
        println!(
            "{:<24} interpreted {:>8.2} ms | compiled(1t) {:>7.2} ms ({:>5.1}x) | compiled(auto) {:>7.2} ms ({:>5.1}x, {:>7.1} Melem/s)",
            self.name,
            self.interpreted_ms,
            self.compiled_1t_ms,
            self.interpreted_ms / self.compiled_1t_ms,
            self.compiled_auto_ms,
            self.interpreted_ms / self.compiled_auto_ms,
            self.throughput_melem_s(),
        );
    }
}

/// Measure one semantics (reference vs compiled 1t vs compiled auto).
fn measure(
    name: String,
    reference: impl Fn(&Simulator<'_>) -> FrameSet,
    compiled: impl Fn(&Simulator<'_>) -> FrameSet,
    pattern: &StencilPattern,
    elems: f64,
) -> Row {
    let interp = Simulator::new(pattern).expect("valid").with_threads(1);
    let compiled1 = Simulator::new(pattern).expect("valid").with_threads(1);
    let compiledn = Simulator::new(pattern).expect("valid").with_threads(0);
    let (t_interp, a) = time_runs(|| reference(&interp));
    let (t_vm1, b) = time_runs(|| compiled(&compiled1));
    let (t_vmn, c) = time_runs(|| compiled(&compiledn));
    assert_eq!(a, b, "{name}: compiled engine diverged");
    assert_eq!(a, c, "{name}: parallel engine diverged");
    Row {
        name,
        interpreted_ms: t_interp * 1e3,
        compiled_1t_ms: t_vm1 * 1e3,
        compiled_auto_ms: t_vmn * 1e3,
        elems,
    }
}

fn main() {
    let mut c = Criterion::default();
    let cases = cases();
    let tiled_window = Window::square(TILE_TILED);
    let cone_window = Window::square(TILE_CONE);
    let case_elems = (SIZE * SIZE) as f64 * ITERS as f64;
    let mut rows: Vec<Row> = Vec::new();
    for case in &cases {
        // Golden whole-frame semantics: tree-walk vs bytecode VM.
        let row = measure(
            case.name.to_string(),
            |s| s.run_reference(&case.init, ITERS).expect("runs"),
            |s| s.run(&case.init, ITERS).expect("runs"),
            &case.pattern,
            case_elems,
        );
        row.print();
        rows.push(row);

        // Tiled (cone-architecture) semantics: per-pixel tree-walk levels
        // vs compiled halo-buffer levels.
        let row = measure(
            format!("tiled_{}", case.name),
            |s| {
                s.run_tiled_reference(&case.init, ITERS, tiled_window, DEPTH)
                    .expect("runs")
            },
            |s| {
                s.run_tiled(&case.init, ITERS, tiled_window, DEPTH)
                    .expect("runs")
            },
            &case.pattern,
            case_elems,
        );
        row.print();
        rows.push(row);

        // Cone-DAG semantics: graph interpreter vs lowered cone bytecode.
        let row = measure(
            format!("cone_dag_{}", case.name),
            |s| {
                s.run_cone_dag_reference(&case.init, ITERS, cone_window, DEPTH)
                    .expect("runs")
            },
            |s| {
                s.run_cone_dag(&case.init, ITERS, cone_window, DEPTH)
                    .expect("runs")
            },
            &case.pattern,
            case_elems,
        );
        row.print();
        rows.push(row);

        // Quantised semantics (the raw-word fixed-point datapath of the
        // generated hardware): interpreted vs compiled, through all three
        // execution paths.
        let q = FixedFormat::default();
        let row = measure(
            format!("quantized_{}", case.name),
            |s| s.run_quantized_reference(&case.init, ITERS, q).expect("runs"),
            |s| s.run_quantized(&case.init, ITERS, q).expect("runs"),
            &case.pattern,
            case_elems,
        );
        row.print();
        rows.push(row);

        let row = measure(
            format!("quantized_tiled_{}", case.name),
            |s| {
                s.run_tiled_quantized_reference(&case.init, ITERS, tiled_window, DEPTH, q)
                    .expect("runs")
            },
            |s| {
                s.run_tiled_quantized(&case.init, ITERS, tiled_window, DEPTH, q)
                    .expect("runs")
            },
            &case.pattern,
            case_elems,
        );
        row.print();
        rows.push(row);

        let row = measure(
            format!("quantized_cone_dag_{}", case.name),
            |s| {
                s.run_cone_dag_quantized_reference(&case.init, ITERS, cone_window, DEPTH, q)
                    .expect("runs")
            },
            |s| {
                s.run_cone_dag_quantized(&case.init, ITERS, cone_window, DEPTH, q)
                    .expect("runs")
            },
            &case.pattern,
            case_elems,
        );
        row.print();
        rows.push(row);

        // Also register per-step timings with the harness for uniform output.
        let interp = Simulator::new(&case.pattern).expect("valid").with_threads(1);
        let small = small_for(&case.pattern, 64, 64);
        let mut g = c.benchmark_group(case.name);
        g.bench_function("interpreted_step_64", |b| {
            b.iter(|| interp.step_reference(&small).expect("runs"))
        });
        g.bench_function("compiled_step_64", |b| {
            b.iter(|| interp.step(&small).expect("runs"))
        });
        g.bench_function("compiled_tiled_64", |b| {
            b.iter(|| {
                interp
                    .run_tiled(&small, 1, Window::square(8), 1)
                    .expect("runs")
            })
        });
        g.finish();
    }

    // Production-size frames: the float vs quantised compiled engines at
    // 1080p and 4K, plus a multi-frame 1080p streaming run — the
    // camera-pipeline shape the paper's architecture targets. The headline
    // number is the quantised/float time ratio: with rounding fused into
    // branch-free lane kernels the raw-word datapath should cost a small
    // constant factor, not an order of magnitude. Fast mode (CI) keeps a
    // single short 1080p smoke case.
    let fast = std::env::var("ISL_BENCH_FAST").is_ok_and(|v| v == "1");
    let frame_shapes: Vec<(&str, usize, usize, u32, u32)> = if fast {
        vec![("frames_1080p", 1920, 1080, 2, 1)]
    } else {
        vec![
            ("frames_1080p", 1920, 1080, ITERS, 1),
            ("frames_4k", 3840, 2160, ITERS, 1),
            ("stream_1080p_x8", 1920, 1080, ITERS, 8),
        ]
    };
    let mut frame_rows: Vec<String> = Vec::new();
    let q = FixedFormat::default();
    // Both case-study patterns run at every production shape; fast mode
    // keeps the single-field gaussian smoke case only.
    let frame_cases: Vec<&Case> = if fast { vec![&cases[0]] } else { cases.iter().collect() };
    for case in frame_cases {
        let short = case.name.trim_end_matches("_256");
        for &(shape, w, h, iters, frames) in &frame_shapes {
            let name = format!("{shape}_{short}");
            let init = small_for(&case.pattern, w, h);
            let sim = Simulator::new(&case.pattern).expect("valid").with_threads(0);
            let stream = |run: &dyn Fn(&FrameSet) -> FrameSet| -> FrameSet {
                let mut last = run(&init);
                for _ in 1..frames {
                    last = run(&init);
                }
                last
            };
            let (t_float, _) = time_runs(|| stream(&|f| sim.run(f, iters).expect("runs")));
            let (t_quant, _) =
                time_runs(|| stream(&|f| sim.run_quantized(f, iters, q).expect("runs")));
            let elems = (w * h) as f64 * iters as f64 * frames as f64;
            let ratio = t_quant / t_float;
            println!(
                "{name:<30} {w}x{h} x{frames} frame(s), {iters} iters: float {:>8.2} ms ({:>7.1} Melem/s) | quantized {:>8.2} ms ({:>7.1} Melem/s) | ratio {ratio:.2}x",
                t_float * 1e3,
                elems / t_float / 1e6,
                t_quant * 1e3,
                elems / t_quant / 1e6,
            );
            frame_rows.push(format!(
                "    {{\"name\": \"{name}\", \"pattern\": \"{}\", \"width\": {w}, \"height\": {h}, \"iterations\": {iters}, \"frames\": {frames}, \"float_ms\": {:.3}, \"quantized_ms\": {:.3}, \"float_melem_s\": {:.1}, \"quantized_melem_s\": {:.1}, \"quantized_over_float\": {ratio:.2}}}",
                case.name,
                t_float * 1e3,
                t_quant * 1e3,
                elems / t_float / 1e6,
                elems / t_quant / 1e6,
            ));
        }
    }

    // Cone-program slot footprint: peak live set of the w16d2 cone with the
    // kill-first scheduling pre-pass vs the plain lowering order (the
    // ROADMAP's instruction-scheduling item, measured).
    let mut slot_rows: Vec<String> = Vec::new();
    for case in &cases {
        let params: Vec<f64> = case.pattern.params().iter().map(|p| p.default).collect();
        let cone =
            Cone::build(&case.pattern, Window::square(TILE_TILED), DEPTH).expect("cone builds");
        let cc = CompiledCone::compile(&cone, &params);
        println!(
            "{:<24} w{TILE_TILED} d{DEPTH} cone: {} instrs, slots {} scheduled vs {} linear ({:.1}% smaller)",
            case.name,
            cc.len(),
            cc.slots(),
            cc.slots_unscheduled(),
            100.0 * (1.0 - cc.slots() as f64 / cc.slots_unscheduled() as f64),
        );
        slot_rows.push(format!(
            "    {{\"name\": \"{}_w{TILE_TILED}_d{DEPTH}\", \"instructions\": {}, \"slots_scheduled\": {}, \"slots_linear\": {}}}",
            case.name,
            cc.len(),
            cc.slots(),
            cc.slots_unscheduled()
        ));
    }

    // Warm-vs-cold staged-session DSE: the artifact store memoises cones,
    // compiled programs and calibration syntheses, so a repeated explore on
    // one session reduces to pure enumeration arithmetic.
    let device = Device::virtex6_xc6vlx760();
    let space = DesignSpace::new(1..=6, 1..=4, 8);
    let mut session_rows: Vec<String> = Vec::new();
    for case in &cases {
        let workload = Workload::image(SIZE as u32, SIZE as u32, ITERS);
        let time_explores = |session: &IslSession| -> f64 {
            let mut times: Vec<f64> = (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(
                        session.explore(&device, workload, &space).expect("explores"),
                    );
                    t0.elapsed().as_secs_f64()
                })
                .collect();
            times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            times[2]
        };
        // Cold: a fresh session (empty store) per run.
        let mut cold_times: Vec<f64> = (0..5)
            .map(|_| {
                let session = IslSession::from_pattern(case.pattern.clone(), ITERS);
                let t0 = Instant::now();
                std::hint::black_box(session.explore(&device, workload, &space).expect("explores"));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        cold_times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let cold = cold_times[2];
        // Warm: one session, store populated by a first pass.
        let session = IslSession::from_pattern(case.pattern.clone(), ITERS);
        session.explore(&device, workload, &space).expect("explores");
        let warm = time_explores(&session);
        println!(
            "session_dse_{:<16} cold {:>8.3} ms | warm {:>8.3} ms ({:>6.1}x)",
            case.name,
            cold * 1e3,
            warm * 1e3,
            cold / warm
        );
        session_rows.push(format!(
            "    {{\"name\": \"{}\", \"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \"speedup\": {:.1}}}",
            case.name,
            cold * 1e3,
            warm * 1e3,
            cold / warm
        ));
    }

    // Precision format search: cold (every probe an engine run, the
    // chosen format certified from scratch) vs warm (the stored outcome),
    // and the area of the searched format vs the Q8.10/18-bit default
    // through the width-parameterised techmap. Smaller frames than the
    // engine cases.
    const FS_SIZE: usize = 64;
    let fs_arch = Architecture::new(Window::square(8), DEPTH, 2);
    let mut fs_rows: Vec<String> = Vec::new();
    for case in &cases {
        let fields = case.pattern.fields().len();
        let init = FrameSet::from_frames(
            (0..fields)
                .map(|i| synthetic::noise(FS_SIZE, FS_SIZE, 21 + i as u64))
                .collect(),
        )
        .expect("frames");
        let budget_of = |session: &IslSession| {
            ErrorBudget::max_abs(
                session
                    .certify(&init, fs_arch)
                    .expect("certifies")
                    .certificate()
                    .max_quant_error,
            )
        };
        let mut cold_times: Vec<f64> = (0..3)
            .map(|_| {
                let session = IslSession::from_pattern(case.pattern.clone(), ITERS);
                let budget = budget_of(&session);
                let t0 = Instant::now();
                std::hint::black_box(
                    session
                        .search_format(&device, &init, fs_arch, budget)
                        .expect("searches"),
                );
                t0.elapsed().as_secs_f64()
            })
            .collect();
        cold_times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let cold = cold_times[1];
        let session = IslSession::from_pattern(case.pattern.clone(), ITERS);
        let budget = budget_of(&session);
        let searched = session
            .search_format(&device, &init, fs_arch, budget)
            .expect("searches");
        let mut warm_times: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(
                    session
                        .search_format(&device, &init, fs_arch, budget)
                        .expect("searches"),
                );
                t0.elapsed().as_secs_f64()
            })
            .collect();
        warm_times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let warm = warm_times[2];
        let outcome = searched.outcome();
        println!(
            "format_search_{:<16} cold {:>8.3} ms | warm {:>8.5} ms ({:>9.1}x) | {} {} LUT -> {} {} LUT ({:.1}% saved, {} probes)",
            case.name,
            cold * 1e3,
            warm * 1e3,
            cold / warm,
            outcome.default_format,
            outcome.default_area_luts,
            outcome.chosen,
            outcome.chosen_area_luts,
            100.0 * searched.area_saving(),
            searched.probes().len(),
        );
        fs_rows.push(format!(
            "    {{\"name\": \"{}\", \"cold_ms\": {:.3}, \"warm_ms\": {:.5}, \"speedup\": {:.1}, \"default_format\": \"{}\", \"searched_format\": \"{}\", \"default_area_luts\": {}, \"searched_area_luts\": {}, \"probes\": {}}}",
            case.name,
            cold * 1e3,
            warm * 1e3,
            cold / warm,
            outcome.default_format,
            outcome.chosen,
            outcome.default_area_luts,
            outcome.chosen_area_luts,
            searched.probes().len()
        ));
    }

    // Fault-injection campaign throughput: the reliability subsystem's
    // exhaustive stuck-at + bit-flip sweep over every instruction of the
    // w8 d2 cone decomposition — faults-per-second is the number that
    // bounds how often CI can afford the full campaign. A campaign runs
    // for tens of seconds and is fully deterministic, so one timed run is
    // the measurement (median-of-N would multiply minutes for noise that
    // sits far below the reading). Fast mode shrinks the frame and keeps
    // the single-LSB schedule; the full run uses the standard three-mask
    // schedule of the default format.
    let (fc_size, fc_iters) = if fast { (32usize, 2u32) } else { (48usize, 4u32) };
    let fc_window = Window::square(8);
    let fc_fmt = FixedFormat::default();
    let fc_schedule = if fast {
        MaskSchedule::lsb()
    } else {
        MaskSchedule::standard(fc_fmt)
    };
    let mut fc_rows: Vec<String> = Vec::new();
    for case in &cases {
        let init = small_for(&case.pattern, fc_size, fc_size);
        let cosim = CoSimulator::new(&case.pattern, fc_fmt).expect("valid");
        let t0 = Instant::now();
        let report = cosim
            .fault_campaign(&init, fc_iters, fc_window, DEPTH, &fc_schedule)
            .expect("campaign runs");
        let t = t0.elapsed().as_secs_f64();
        println!(
            "fault_campaign_{:<16} w8 d{DEPTH} {fc_size}x{fc_size}: {} faults over {} instrs in {:>8.2} ms ({:>7.1} faults/s) | detected {:.1}% ({:.1}% of active)",
            case.name,
            report.faults,
            report.instructions,
            t * 1e3,
            report.faults as f64 / t,
            100.0 * report.detection_rate(),
            100.0 * report.active_detection_rate(),
        );
        fc_rows.push(format!(
            "    {{\"name\": \"{}\", \"instructions\": {}, \"faults\": {}, \"campaign_ms\": {:.3}, \"faults_per_s\": {:.1}, \"detection_pct\": {:.1}, \"active_detection_pct\": {:.1}, \"triaged\": {}, \"predicted_silent\": {}}}",
            case.name,
            report.instructions,
            report.faults,
            t * 1e3,
            report.faults as f64 / t,
            100.0 * report.detection_rate(),
            100.0 * report.active_detection_rate(),
            report.triaged,
            report.predicted_silent
        ));
    }

    // Static analysis: the abstract interpreter and the bytecode verifier
    // over the same w8 d2 cone the campaigns sweep — instructions/second
    // is the cost of proving a format saturation-free or classifying a
    // fault statically.
    let mut sa_rows: Vec<String> = Vec::new();
    for case in &cases {
        let params: Vec<f64> = case.pattern.params().iter().map(|p| p.default).collect();
        let cone = Cone::build(&case.pattern, Window::square(8), DEPTH).expect("cone builds");
        let cc = CompiledCone::compile_with(&cone, &params, true);
        let fmt = FixedFormat::default();
        let full = isl_hls::analyze::WordRange::full(fmt);
        let reps = if fast { 20u32 } else { 100 };
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(
                isl_hls::analyze::Analysis::of_cone(&cc, fmt, full).expect("analyses"),
            );
        }
        let analyze_t = t0.elapsed().as_secs_f64() / reps as f64;
        let t0 = Instant::now();
        for _ in 0..reps {
            isl_hls::analyze::verify_cone(&cc).expect("verifies");
        }
        let verify_t = t0.elapsed().as_secs_f64() / reps as f64;

        println!(
            "static_analysis_{:<15} {} instrs: analyze {:>7.3} ms ({:>9.0} instrs/s) | verify {:>7.3} ms ({:>9.0} instrs/s)",
            case.name,
            cc.len(),
            analyze_t * 1e3,
            cc.len() as f64 / analyze_t,
            verify_t * 1e3,
            cc.len() as f64 / verify_t,
        );
        sa_rows.push(format!(
            "    {{\"name\": \"{}\", \"instructions\": {}, \"analyze_ms\": {:.4}, \"analyzed_instrs_per_s\": {:.0}, \"verify_ms\": {:.4}, \"verified_instrs_per_s\": {:.0}}}",
            case.name,
            cc.len(),
            analyze_t * 1e3,
            cc.len() as f64 / analyze_t,
            verify_t * 1e3,
            cc.len() as f64 / verify_t,
        ));
    }

    // Persistence: the disk tier measured end to end — cold process
    // (empty store file, everything built), the store flush and load wall
    // times, a warm-disk open (fresh session replaying the file) and the
    // warm-memory re-explore, then the served round-trip latency of a
    // warm certify at 1/4/16 concurrent clients through `isl-serve`.
    let mut persist_rows: Vec<String> = Vec::new();
    for case in &cases {
        let workload = Workload::image(SIZE as u32, SIZE as u32, ITERS);
        let path = std::env::temp_dir().join(format!("isl-bench-{}.islstore", case.name));

        // Cold process: empty file + fresh session per run.
        let mut cold_times: Vec<f64> = (0..3)
            .map(|_| {
                std::fs::remove_file(&path).ok();
                let session = IslSession::from_pattern(case.pattern.clone(), ITERS)
                    .with_persistent_store(&path)
                    .expect("opens");
                let t0 = Instant::now();
                std::hint::black_box(session.explore(&device, workload, &space).expect("explores"));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        cold_times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let cold = cold_times[1];

        // Flush: dirty store → atomically published file.
        std::fs::remove_file(&path).ok();
        let writer = IslSession::from_pattern(case.pattern.clone(), ITERS)
            .with_persistent_store(&path)
            .expect("opens");
        writer.explore(&device, workload, &space).expect("explores");
        let t0 = Instant::now();
        let bytes = writer.checkpoint().expect("flushes");
        let flush = t0.elapsed().as_secs_f64();
        drop(writer);

        // Warm-disk open (load) + first explore from disk artifacts, then
        // the warm-memory re-explore on the same session.
        let t0 = Instant::now();
        let reader = IslSession::from_pattern(case.pattern.clone(), ITERS)
            .with_persistent_store(&path)
            .expect("opens");
        let load = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        std::hint::black_box(reader.explore(&device, workload, &space).expect("explores"));
        let warm_disk = t0.elapsed().as_secs_f64();
        let mut mem_times: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(reader.explore(&device, workload, &space).expect("explores"));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        mem_times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let warm_mem = mem_times[2];
        assert_eq!(reader.store_stats().calibrations.misses, 0, "disk tier missed");
        println!(
            "persistence_{:<16} cold {:>8.3} ms | flush {:>7.3} ms ({bytes} B) | load {:>7.3} ms | warm-disk {:>7.3} ms ({:>6.1}x) | warm-mem {:>7.3} ms",
            case.name,
            cold * 1e3,
            flush * 1e3,
            load * 1e3,
            warm_disk * 1e3,
            cold / warm_disk,
            warm_mem * 1e3,
        );
        persist_rows.push(format!(
            "    {{\"name\": \"{}\", \"cold_ms\": {:.3}, \"flush_ms\": {:.3}, \"flush_bytes\": {bytes}, \"load_ms\": {:.3}, \"warm_disk_ms\": {:.3}, \"warm_memory_ms\": {:.3}, \"disk_speedup\": {:.1}}}",
            case.name,
            cold * 1e3,
            flush * 1e3,
            load * 1e3,
            warm_disk * 1e3,
            warm_mem * 1e3,
            cold / warm_disk
        ));
        std::fs::remove_file(&path).ok();
    }

    // Service round-trip latency: a warm certify against an in-process
    // `isl-serve` server at 1/4/16 concurrent clients (fast mode: 1/4).
    let serve_state = std::env::temp_dir().join("isl-bench-serve-state");
    std::fs::remove_dir_all(&serve_state).ok();
    let handle = isl_serve::Server::start(isl_serve::ServeConfig {
        state_dir: Some(serve_state.clone()),
        batch_window: std::time::Duration::from_millis(1),
        ..isl_serve::ServeConfig::default()
    })
    .expect("serve binds");
    let addr = handle.addr();
    let served_certify = || isl_serve::Request {
        op: isl_serve::Op::Certify,
        algo: "igf".into(),
        width: 48,
        height: 32,
        seed: 1,
        window: 2,
        depth: 1,
        cores: 1,
        ..isl_serve::Request::default()
    };
    // One cold call warms the service; everything after measures serving.
    isl_serve::Client::connect(addr)
        .expect("connects")
        .request(served_certify())
        .expect("answers");
    let serve_clients: &[usize] = if fast { &[1, 4] } else { &[1, 4, 16] };
    let calls_per_client = if fast { 5 } else { 20 };
    let mut serve_rows: Vec<String> = Vec::new();
    for &n in serve_clients {
        let threads: Vec<_> = (0..n)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = isl_serve::Client::connect(addr).expect("connects");
                    (0..calls_per_client)
                        .map(|_| {
                            let t0 = Instant::now();
                            client.request(served_certify()).expect("answers");
                            t0.elapsed().as_secs_f64()
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        let mut lat: Vec<f64> = threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread"))
            .collect();
        lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let p50 = lat[lat.len() / 2];
        let p95 = lat[(lat.len() * 95 / 100).min(lat.len() - 1)];
        println!(
            "serve_round_trip_c{n:<3} warm certify: p50 {:>7.3} ms | p95 {:>7.3} ms ({} calls)",
            p50 * 1e3,
            p95 * 1e3,
            lat.len(),
        );
        serve_rows.push(format!(
            "    {{\"clients\": {n}, \"calls\": {}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}}}",
            lat.len(),
            p50 * 1e3,
            p95 * 1e3
        ));
    }
    handle.shutdown();
    std::fs::remove_dir_all(&serve_state).ok();

    let mut json = format!(
        "{{\n  \"meta\": {{\"git_commit\": \"{}\", \"rustc\": \"{}\", \"cores\": {}, \"timestamp_utc\": \"{}\"}},\n  \"frame\": [{SIZE}, {SIZE}],\n  \"iterations\": {ITERS},\n  \"tiled_window\": {TILE_TILED},\n  \"cone_dag_window\": {TILE_CONE},\n  \"cone_depth\": {DEPTH},\n  \"cases\": [\n",
        capture("git", &["rev-parse", "--short=12", "HEAD"]),
        capture("rustc", &["--version"]),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        utc_timestamp(),
    );
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&row.json(i + 1 == rows.len()));
    }
    json.push_str("  ],\n  \"frames\": [\n");
    json.push_str(&frame_rows.join(",\n"));
    json.push_str("\n  ],\n  \"cone_slots\": [\n");
    json.push_str(&slot_rows.join(",\n"));
    json.push_str("\n  ],\n  \"session_dse\": [\n");
    json.push_str(&session_rows.join(",\n"));
    json.push_str("\n  ],\n  \"format_search\": [\n");
    json.push_str(&fs_rows.join(",\n"));
    json.push_str("\n  ],\n  \"fault_campaign\": [\n");
    json.push_str(&fc_rows.join(",\n"));
    json.push_str("\n  ],\n  \"static_analysis\": [\n");
    json.push_str(&sa_rows.join(",\n"));
    json.push_str("\n  ],\n  \"persistence\": [\n");
    json.push_str(&persist_rows.join(",\n"));
    json.push_str("\n  ],\n  \"serve_latency\": [\n");
    json.push_str(&serve_rows.join(",\n"));
    json.push_str("\n  ]\n}\n");
    // cargo runs benches with the package directory as cwd; anchor the
    // trajectory file at the workspace root instead.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    std::fs::write(path, &json).expect("can write BENCH_sim.json");
    println!("wrote {path}");
    c.final_summary();
}

/// A noise frame set shaped to the pattern's field count.
fn small_for(pattern: &StencilPattern, w: usize, h: usize) -> FrameSet {
    let n = pattern.fields().len();
    FrameSet::from_frames((0..n).map(|i| synthetic::noise(w, h, 7 + i as u64)).collect())
        .expect("frames")
}

/// First line of `cmd`'s stdout, or `"unknown"` — run metadata must never
/// fail the bench (e.g. a source tarball without `.git`).
fn capture(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::trim).map(String::from))
        .unwrap_or_else(|| "unknown".into())
}

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`, from the Unix clock
/// alone (civil-from-days conversion; no date dependency).
fn utc_timestamp() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (h, m, s) = ((secs / 3600) % 24, (secs / 60) % 60, secs % 60);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}T{h:02}:{m:02}:{s:02}Z")
}
