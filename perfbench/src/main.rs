//! The repository benchmark: one case study per workload (`igf`,
//! `chambolle`), each driven from this one process through four
//! interleaved parts — the cold HLS flow, the 1080p quantised engines,
//! LSB fault campaigns and a hit/miss mix against an in-process server.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload igf --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before it
//! carries the host diagnostics and, for every metric, its estimator,
//! sample count, median and tail. `perfbench/METRICS.md` defines each
//! metric.

mod campaign;
mod engine;
mod expected;
mod flow;
mod serve;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use isl_hls::algorithms::{self, Algorithm};
use isl_hls::isl_telemetry;
use isl_hls::prelude::*;

use engine::Engine;
use expected::Expected;
use trace::Tracer;
use util::{num, secs, HostSample, Samples};

/// The parts of one round, in order. Every part runs once per round, so
/// each is sampled across the whole run and a slow host phase hits all
/// parts alike.
#[derive(Debug, Clone, Copy)]
enum Part {
    /// A full set-up, timed and then torn down.
    Setup,
    Flow,
    Engine(Engine),
    Campaign,
    Serve,
}

const ROUND: [Part; 6] = [
    Part::Setup,
    Part::Flow,
    Part::Engine(Engine::Frame),
    Part::Engine(Engine::Dag),
    Part::Campaign,
    Part::Serve,
];

/// Worker threads of every measured session, simulator and server. On a
/// shared 2-vCPU host the second vCPU comes and goes: per-20 s minima of a
/// 1080p engine run moved 35 % with two threads and 7 % with one, so the
/// gated numbers are single-threaded and the traced run reports the
/// default-thread speed-up (`pool.speedup`) beside them.
pub const THREADS: usize = 1;

/// Minimum time the campaign part of a round sweeps for.
const CAMPAIGN_SLICE_S: f64 = 0.3;

/// Quantile of a run's samples that the CPU-bound metrics report. On a
/// shared host the op times of one run are bimodal, the slow mode about
/// 1.6× the fast one. The fast mode's minimum shows only in runs that catch
/// a quiet moment; p90, the contended mode, repeats from run to run.
const OP_QUANTILE: f64 = 0.9;

/// Hit percentile reported as `serve_hit_tail_ms`: 25 of the schedule's 250
/// hits lie beyond it. p95 (12 beyond) did not repeat through a noisy host
/// phase.
const HIT_TAIL: f64 = 0.9;

const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("flow_ms", "ms"),
    ("frame_melem_s", "Melem/s"),
    ("dag_melem_s", "Melem/s"),
    ("campaign_faults_per_s", "1/s"),
    ("serve_hit_p50_ms", "ms"),
    ("serve_hit_tail_ms", "ms"),
    ("serve_miss_ms", "ms"),
];

const PER_LAYER: &[(&str, &str)] = &[
    ("frontend.compile_ms", "ms"),
    ("ir.cone_build_ms", "ms"),
    ("ir.cone_builds", "count"),
    ("dse.calibrate_ms", "ms"),
    ("dse.enumerate_ms", "ms"),
    ("fpga.syntheses", "count"),
    ("sim.compile_ms", "ms"),
    ("sim.cone_instrs", "count"),
    ("sim.cone_slots", "count"),
    ("sim.tiled_q_ms", "ms"),
    ("sim.tiled_q_ref_ms", "ms"),
    ("sim.dag_q_ms", "ms"),
    ("sim.dag_q_ref_ms", "ms"),
    ("sim.ref_f64_ms", "ms"),
    ("sim.frame_q_ms", "ms"),
    ("sim.frame_f64_ms", "ms"),
    ("sim.frame_q_1t_ms", "ms"),
    ("sim.dag_q_1t_ms", "ms"),
    ("pool.speedup", "ratio"),
    ("pool.park_ms", "ms"),
    ("pool.caller_share", "ratio"),
    ("cosim.golden_vectors_ms", "ms"),
    ("cosim.cone_levels_ms", "ms"),
    ("cosim.campaign_ms", "ms"),
    ("campaign.faults", "count"),
    ("campaign.detected", "count"),
    ("campaign.masked", "count"),
    ("campaign.silent", "count"),
    ("campaign.predicted_silent", "count"),
    ("campaign.triaged", "count"),
    ("campaign.predicted_share", "ratio"),
    ("vhdl.verify_vectors_ms", "ms"),
    ("vhdl.vector_text_ms", "ms"),
    ("vhdl.codegen_ms", "ms"),
    ("cert.vector_words", "count"),
    ("analyze.of_cone_ms", "ms"),
    ("search.probes", "count"),
    ("search.pruned", "count"),
    ("search.pruned_share", "ratio"),
    ("stage.spec_ms", "ms"),
    ("stage.explore_ms", "ms"),
    ("stage.synthesize_ms", "ms"),
    ("stage.certify_ms", "ms"),
    ("stage.search_format_ms", "ms"),
    ("stage.bundle_ms", "ms"),
    ("certify.self_ms", "ms"),
    ("store.cones.hit_ratio", "ratio"),
    ("store.programs.hit_ratio", "ratio"),
    ("store.syntheses.hit_ratio", "ratio"),
    ("store.calibrations.hit_ratio", "ratio"),
    ("store.vectors.hit_ratio", "ratio"),
    ("store.certificates.hit_ratio", "ratio"),
    ("store.references.hit_ratio", "ratio"),
    ("store.searches.hit_ratio", "ratio"),
    ("persist.checkpoint_ms", "ms"),
    ("persist.file_mb", "MB"),
    ("persist.load_ms", "ms"),
    ("serve.compute_ms", "ms"),
    ("serve.batch_ms", "ms"),
    ("serve.hit_batch_ms", "ms"),
    ("serve.batch_size", "count"),
    ("serve.hol_share", "ratio"),
    ("serve.protocol_us", "us"),
    ("telemetry.overhead_pct", "%"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Case {
    Igf,
    Chambolle,
}

impl Case {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "igf" => Some(Case::Igf),
            "chambolle" => Some(Case::Chambolle),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Case::Igf => "igf",
            Case::Chambolle => "chambolle",
        }
    }

    fn algo(self) -> Algorithm {
        match self {
            Case::Igf => algorithms::gaussian_igf(),
            Case::Chambolle => algorithms::chambolle(),
        }
    }

    fn expected(self) -> Expected {
        match self {
            Case::Igf => expected::igf(),
            Case::Chambolle => expected::chambolle(),
        }
    }
}

struct Args {
    case: Case,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let case = value("--workload")?;
    Ok(Args {
        case: Case::parse(case)
            .ok_or_else(|| format!("unknown workload {case:?} (igf, chambolle)"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

/// Everything one set-up produces. The run measures the first; the
/// set-ups repeated in the measured loop are timed and torn down.
struct Setup {
    session: IslSession,
    flow: flow::FlowInputs,
    engine: engine::EngineInputs,
    campaign: Vec<FrameSet>,
    sched: serve::Schedule,
    rig: serve::Rig,
}

impl Setup {
    /// Kernel compile, input generation, the 1080p exploration, engine
    /// program compiles, and a started, warmed server.
    fn new(case: Case, seed: u64, dir: &Path) -> Result<Self, String> {
        let algo = case.algo();
        let session = IslSession::from_algorithm(&algo)
            .map_err(|e| e.to_string())?
            .with_threads(THREADS);
        let fields = session.pattern().fields().len();
        let flow = flow::FlowInputs::new(algo, fields, seed);
        let engine = engine::EngineInputs::new(&session, seed).map_err(|e| e.to_string())?;
        let sim = session.simulator().map_err(|e| e.to_string())?;
        let small = util::crop(&engine.init, 40, 30);
        for e in [Engine::Frame, Engine::Dag] {
            engine::run(&sim, &engine, e, &small).map_err(|e| e.to_string())?;
        }
        drop(sim);
        let campaign = campaign::inputs(fields, seed);
        let sched = serve::Schedule::new(case.name(), seed);
        let rig = serve::Rig::start(dir, &sched)?;
        Ok(Setup {
            session,
            flow,
            engine,
            campaign,
            sched,
            rig,
        })
    }
}

/// Failure accounting: every op is attempted once; a failed call or a
/// failed check is one failed op, never a panic.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// The first failure of each kind.
    failures: BTreeMap<String, String>,
}

impl Tally {
    fn op<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(what, e);
                None
            }
        }
    }

    fn fail(&mut self, what: &str, e: String) {
        self.failed += 1;
        self.failures.entry(what.to_string()).or_insert(e);
    }
}

/// Telemetry counters and gauges of one op (traced runs only).
#[derive(Default)]
struct Counters(BTreeMap<String, f64>);

impl Counters {
    fn add_snapshot(&mut self, s: &isl_telemetry::Snapshot) {
        for (k, v) in &s.counters {
            *self.0.entry(k.clone()).or_default() += *v as f64;
        }
        for (k, g) in &s.gauges {
            *self.0.entry(format!("{k}.sum")).or_default() += g.sum as f64;
        }
    }

    fn get(&self, k: &str) -> f64 {
        self.0.get(k).copied().unwrap_or(0.0)
    }
}

/// Run `f` with the program's telemetry collecting (when `on`), adding
/// what it recorded to `into`.
fn observed<T>(
    on: bool,
    into: &mut Counters,
    spans: &mut Vec<isl_telemetry::SpanEvent>,
    f: impl FnOnce() -> T,
) -> T {
    if !on {
        return f();
    }
    isl_telemetry::start();
    let out = f();
    isl_telemetry::set_enabled(false);
    let snap = isl_telemetry::snapshot();
    into.add_snapshot(&snap);
    spans.extend(snap.spans);
    out
}

/// The serve part across rounds: the schedule served a share at a time,
/// each segment on a freshly started server.
struct ServePart {
    rig: serve::Rig,
    /// The next step to serve.
    next: usize,
    replies: Vec<serve::Reply>,
    counters: Counters,
    /// Telemetry spans of hit-only stretches and of miss stretches.
    spans: [Vec<isl_telemetry::SpanEvent>; 2],
}

impl ServePart {
    fn new(rig: serve::Rig) -> Self {
        ServePart {
            rig,
            next: 0,
            replies: Vec::new(),
            counters: Counters::default(),
            spans: Default::default(),
        }
    }

    /// Serve the next `n` steps (fewer at the schedule's end). Hit-only and
    /// miss stretches are observed apart so their dispatcher batches can
    /// be told apart. A completed segment's store counters are checked and
    /// the next segment starts on a fresh server.
    fn advance(
        &mut self,
        sched: &serve::Schedule,
        n: usize,
        on: bool,
        run_dir: &Path,
        tally: &mut Tally,
    ) {
        let end = (self.next + n).min(sched.steps.len());
        while self.next < end {
            let segment_end = (self.next / serve::SEGMENT + 1) * serve::SEGMENT;
            let stop = end.min(segment_end);
            for run in sched.stretches(self.next..stop) {
                let spans = &mut self.spans[usize::from(sched.is_miss(run.start))];
                let rig = &mut self.rig;
                self.replies
                    .extend(observed(on, &mut self.counters, spans, || {
                        rig.run(sched, run)
                    }));
            }
            self.next = stop;
            if stop < segment_end {
                break;
            }
            let stats = self.rig.stats(sched.algo).and_then(|s| {
                serve::check_stats(sched, stop - serve::SEGMENT..stop, &self.rig.base, &s)
            });
            tally.op("serve stats", stats);
            if stop < sched.steps.len() {
                let dir = run_dir.join(format!("serve-step{stop}"));
                match serve::Rig::start(&dir, sched) {
                    Ok(rig) => std::mem::replace(&mut self.rig, rig).stop(),
                    Err(e) => {
                        // The rest of the schedule is not served; the run
                        // fails for missing samples.
                        tally.fail("serve segment start", e);
                        self.next = sched.steps.len();
                    }
                }
            }
        }
    }
}

struct Report {
    correct: bool,
    tally: Tally,
    metrics: Vec<(&'static str, &'static str, f64)>,
    diag: String,
}

fn main() -> ExitCode {
    let t_main = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: --workload <igf|chambolle> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args, t_main) {
        Ok(report) => {
            for (what, e) in &report.tally.failures {
                eprintln!("perfbench: failed {what}: {e}");
            }
            println!("{}", report.diag);
            let mut line = format!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
                report.correct, report.tally.attempted, report.tally.failed
            );
            for (i, (name, unit, v)) in report.metrics.iter().enumerate() {
                let _ = write!(
                    line,
                    "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    if i == 0 { "" } else { ", " },
                    num(*v)
                );
            }
            line.push_str("}}");
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, t_main: Instant) -> Result<Report, String> {
    let case = args.case;
    let host0 = HostSample::now();
    let load0 = util::load_average();
    let root = PathBuf::from(".bench_run");
    let run_dir = root.join(format!(
        "{}-{}-{}",
        case.name(),
        args.seed,
        std::process::id()
    ));
    let result = measure(args, t_main, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    let (mut report, tracer) = result?;
    if tracer.enabled() {
        let path = root.join(format!("trace-{}-{}.json", case.name(), args.seed));
        std::fs::write(&path, tracer.to_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let host1 = HostSample::now();
    let steal = host1.steal_ticks.saturating_sub(host0.steal_ticks);
    let total = host1.total_ticks.saturating_sub(host0.total_ticks).max(1);
    report.diag = format!(
        "{{\"diag\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \"load_start\": {}, \"load_end\": {}, \"steal_ticks\": {steal}, \"steal_share\": {}, \"wall_s\": {}, {}}}}}",
        case.name(),
        args.seed,
        args.trace,
        util::nproc(),
        num(load0),
        num(util::load_average()),
        num(steal as f64 / total as f64),
        num(secs(t_main)),
        report.diag
    );
    Ok(report)
}

/// Estimator diagnostics of one metric: the gated value, how it was
/// estimated, and the sample count, median and tail beside it.
fn diag_entry(out: &mut String, name: &str, estimator: &str, value: f64, s: &Samples) {
    let _ = write!(
        out,
        "{}\"{name}\": {{\"value\": {}, \"estimator\": \"{estimator}\", \"n\": {}, \"min\": {}, \"p10\": {}, \"median\": {}, \"p90\": {}, \"max\": {}}}",
        if out.is_empty() { "" } else { ", " },
        num(value),
        s.len(),
        num(s.min()),
        num(s.quantile(0.1)),
        num(s.median()),
        num(s.quantile(0.9)),
        num(s.quantile(1.0)),
    );
}

#[allow(clippy::too_many_lines)]
fn measure(args: &Args, t_main: Instant, run_dir: &Path) -> Result<(Report, Tracer), String> {
    let case = args.case;
    let expected = case.expected();
    let default_seed = args.seed == expected::DEFAULT_SEED;
    let mut tr = Tracer::new(args.trace);
    let mut tally = Tally::default();

    // ---- Set-up from `main` entry; the loop repeats it once per round. ----
    let Setup {
        session,
        flow: flow_in,
        engine: eng,
        campaign: camp_in,
        sched,
        rig,
    } = Setup::new(case, args.seed, &run_dir.join("serve"))?;
    let mut setup_s = Samples(vec![secs(t_main)]);
    let sim = session.simulator().map_err(|e| e.to_string())?;
    let margin = eng.margin(session.pattern().radius());
    let models = isl_hls::cosim::MaskSchedule::lsb().models().len();

    // ---- Measured loop: the parts interleaved op by op. ----
    let mut flow_ms = [Samples::default(), Samples::default()]; // telemetry off, on
    let mut frame_ms = Samples::default();
    let mut dag_ms = Samples::default();
    let mut sweep_ms: [Samples; campaign::CONTENTS] = Default::default();
    let mut sweeps = 0usize;
    let mut first_flow: Option<flow::FlowResult> = None;
    let mut first_counts: [Option<campaign::Counts>; campaign::CONTENTS] = Default::default();
    let mut fingerprints: Vec<(Engine, engine::Fingerprint)> = Vec::new();
    let mut layers: BTreeMap<&'static str, Samples> = BTreeMap::new();
    let mut engine_counters = Counters::default();
    let mut serving = ServePart::new(rig);
    let mut ignored_spans = Vec::new();
    let mut engine_traced_ops = 0usize;
    let mut rounds = 0usize;
    let t_loop = Instant::now();
    'measure: loop {
        // Traced runs alternate rounds with the program's telemetry on and
        // off; the flow ops of the two halves give its overhead.
        let on = args.trace && rounds.is_multiple_of(2);
        for part in ROUND {
            if secs(t_loop) >= args.seconds {
                break 'measure;
            }
            match part {
                Part::Setup => {
                    let dir = run_dir.join(format!("serve-{rounds}"));
                    let t0 = Instant::now();
                    let s = Setup::new(case, args.seed, &dir);
                    let dt = secs(t0);
                    if let Some(s) = tally.op("setup", s) {
                        setup_s.push(dt);
                        s.rig.stop();
                    }
                }
                Part::Flow => {
                    tr.next_op();
                    let id = tr.begin("op.flow");
                    let op = observed(on, &mut Counters::default(), &mut ignored_spans, || {
                        flow::run(&flow_in, &mut tr)
                    });
                    tr.end(id);
                    let op = op.and_then(|op| {
                        flow::check(
                            &op.result,
                            &expected.flow,
                            default_seed,
                            first_flow.as_ref(),
                        )
                        .map(|()| op)
                    });
                    if let Some(op) = tally.op("flow", op) {
                        flow_ms[usize::from(on)].push(op.ms);
                        first_flow.get_or_insert_with(|| op.result.clone());
                        if args.trace {
                            let id = tr.begin("replay.flow");
                            let replayed = flow::replay(&flow_in, &op, &mut tr);
                            tr.end(id);
                            match replayed {
                                Ok(l) => {
                                    let certify = tr
                                        .durations("stage.certify")
                                        .0
                                        .last()
                                        .copied()
                                        .unwrap_or(0.0);
                                    let explained =
                                        l.get("certify.explained_ms").copied().unwrap_or(0.0);
                                    layers
                                        .entry("certify.self_ms")
                                        .or_default()
                                        .push(certify - explained);
                                    for (k, v) in l {
                                        layers.entry(k).or_default().push(v);
                                    }
                                }
                                Err(e) => tally.fail("flow replay", e),
                            }
                        }
                    }
                }
                Part::Engine(e) => {
                    tr.next_op();
                    let id = tr.begin(if e == Engine::Frame {
                        "op.frame"
                    } else {
                        "op.dag"
                    });
                    let r = engine::timed(&sim, &eng, e, margin);
                    tr.end(id);
                    if let Some((ms, fp)) = tally.op("engine", r.map_err(|e| e.to_string())) {
                        if e == Engine::Frame {
                            frame_ms.push(ms)
                        } else {
                            dag_ms.push(ms)
                        }
                        fingerprints.push((e, fp));
                    }
                }
                // Sweeps until the slice is used, so a cheap sweep is
                // sampled as often as the engines' long runs allow.
                Part::Campaign => {
                    let slice = Instant::now();
                    loop {
                        let k = sweeps % campaign::CONTENTS;
                        sweeps += 1;
                        tr.next_op();
                        let id = tr.begin("op.campaign");
                        let r = campaign::run(&session, &camp_in[k]);
                        tr.end(id);
                        let r = r.and_then(|(ms, counts)| {
                            let first = first_counts[k].as_ref();
                            campaign::check(
                                &counts,
                                &expected.campaign,
                                k,
                                models,
                                default_seed,
                                first,
                            )
                            .map(|()| (ms, counts))
                        });
                        match tally.op(&format!("campaign frame {k}"), r) {
                            Some((ms, counts)) => {
                                sweep_ms[k].push(ms);
                                first_counts[k].get_or_insert(counts);
                            }
                            None => break,
                        }
                        if secs(slice) >= CAMPAIGN_SLICE_S {
                            break;
                        }
                    }
                }
                // A share of the serve schedule, spread over the rounds
                // the remaining time is expected to hold.
                Part::Serve => {
                    if serving.next < sched.steps.len() {
                        let elapsed = secs(t_loop);
                        let per_round = elapsed / (rounds + 1) as f64;
                        let rounds_left =
                            ((args.seconds - elapsed) / per_round).max(0.0).floor() as usize + 1;
                        let chunk = (sched.steps.len() - serving.next).div_ceil(rounds_left);
                        tr.next_op();
                        let id = tr.begin("op.serve");
                        serving.advance(&sched, chunk, on, run_dir, &mut tally);
                        tr.end(id);
                    }
                }
            }
        }
        rounds += 1;
    }
    serving.advance(&sched, sched.steps.len(), false, run_dir, &mut tally);
    let ServePart {
        mut rig,
        replies,
        counters: serve_counters,
        spans: serve_spans,
        ..
    } = serving;
    // Every seeded campaign frame is swept at least once.
    for k in 0..campaign::CONTENTS {
        if sweep_ms[k].len() > 0 {
            continue;
        }
        let r = campaign::run(&session, &camp_in[k]).and_then(|(ms, counts)| {
            campaign::check(&counts, &expected.campaign, k, models, default_seed, None)
                .map(|()| (ms, counts))
        });
        if let Some((ms, counts)) = tally.op(&format!("campaign frame {k}"), r) {
            sweep_ms[k].push(ms);
            first_counts[k] = Some(counts);
        }
    }
    let loop_s = secs(t_loop);
    let t_verify = Instant::now();

    // ---- Checks that need an oracle computed after the loop. ----
    for e in [Engine::Frame, Engine::Dag] {
        let ops: Vec<engine::Fingerprint> = fingerprints
            .iter()
            .filter(|(x, _)| *x == e)
            .map(|(_, f)| *f)
            .collect();
        let want = if e == Engine::Frame {
            expected.engine_digests.0
        } else {
            expected.engine_digests.1
        };
        match engine::oracle(&sim, &eng, e, margin) {
            Ok(o) => {
                for fp in &ops {
                    if let Err(err) =
                        engine::check(*fp, &o, default_seed.then_some(want), ops.first().copied())
                    {
                        tally.fail("engine check", format!("{e:?}: {err}"));
                    }
                }
            }
            Err(err) => {
                for _ in &ops {
                    tally.fail("engine oracle", err.clone());
                }
            }
        }
    }
    tally.attempted += replies.len() as u64;
    let (serve_failed, serve_first, compute_ms) = serve::verify(&flow_in.algo, &sched, &replies);
    if let Some(f) = serve_first {
        tally.failed += serve_failed as u64;
        tally.failures.entry("serve reply".into()).or_insert(f);
    }
    let mut hits = Samples::default();
    let mut misses = Samples::default();
    for r in &replies {
        if sched.is_miss(r.step) {
            misses.push(r.ms)
        } else {
            hits.push(r.ms)
        }
    }

    // ---- Traced extras: pooled and f64 engines, pings, persistence. ----
    let mut extra: BTreeMap<&'static str, f64> = BTreeMap::new();
    if args.trace {
        // The engines at the library's default thread count, observed.
        let pooled = session.clone().with_threads(0);
        let sim0 = pooled.simulator().map_err(|e| e.to_string())?;
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let r = tr.time("sim.frame_q", || {
                observed(true, &mut engine_counters, &mut ignored_spans, || {
                    engine::timed(&sim0, &eng, Engine::Frame, margin)
                })
            });
            if let Some((ms, _)) = tally.op("engine pool", r.map_err(|e| e.to_string())) {
                engine_traced_ops += 1;
                best = best.min(ms);
            }
        }
        extra.insert("sim.frame_q_ms", best);
        let (r, ms) = tr.timed("sim.frame_f64", || sim.run(&eng.init, eng.iterations));
        if tally
            .op("engine f64", r.map_err(|e| e.to_string()))
            .is_some()
        {
            extra.insert("sim.frame_f64_ms", ms);
        }
        let pings = Samples(tr.time("serve.ping", || rig.pings(50)));
        extra.insert("serve.protocol_us", pings.median() * 1e3);
        let store = rig.store_file(sched.algo);
        match persist_layer(&flow_in.algo, &store, args.seed, run_dir, &mut tr) {
            Ok((load_ms, checkpoint_ms, file_mb)) => {
                extra.insert("persist.load_ms", load_ms);
                extra.insert("persist.checkpoint_ms", checkpoint_ms);
                extra.insert("persist.file_mb", file_mb);
            }
            Err(e) => tally.fail("persist", e),
        }
    }
    rig.stop();

    let sampled = flow_ms.iter().any(|s| s.len() > 0)
        && [&frame_ms, &dag_ms, &hits, &misses]
            .iter()
            .chain(&sweep_ms.each_ref())
            .all(|s| s.len() > 0);
    if !sampled {
        tally
            .failures
            .insert("samples".into(), "a part produced no passing sample".into());
    }
    let correct = sampled && tally.failed == 0;

    let verify_s = secs(t_verify);

    // ---- Metrics. ----
    let all_flow = Samples([flow_ms[0].0.clone(), flow_ms[1].0.clone()].concat());
    // Every sweep injects the same faults; the frames differ in how long
    // triage takes, and the sweeps cycle through them evenly.
    let sweep_faults = first_counts.iter().flatten().map(|c| c.faults).max();
    let all_sweeps = Samples(sweep_ms.iter().flat_map(|s| s.0.iter().copied()).collect());
    let melem = eng.melem();
    let mut diag = String::new();
    let mut metrics: Vec<(&'static str, &'static str, f64)> = Vec::new();
    if args.trace {
        let med = |k: &str| layers.get(k).map_or(0.0, Samples::median);
        let stage = |k: &str| tr.per_op_totals(k).median();
        let tasks = engine_counters.get("pool.tasks");
        let batches = serve_counters.get("serve.batches");
        let batch_ms = |spans: &[isl_telemetry::SpanEvent]| {
            Samples(
                spans
                    .iter()
                    .filter(|s| s.cat == "serve" && s.name.starts_with("batch of"))
                    .map(|s| s.dur_us as f64 / 1e3)
                    .collect(),
            )
        };
        let hit_batches = batch_ms(&serve_spans[0]);
        let all_batches = Samples([hit_batches.0.clone(), batch_ms(&serve_spans[1]).0].concat());
        let hit_p50 = hits.median();
        let counts = first_counts
            .iter()
            .flatten()
            .fold(campaign::Counts::default(), |a, c| campaign::Counts {
                instructions: a.instructions + c.instructions,
                faults: a.faults + c.faults,
                detected: a.detected + c.detected,
                masked: a.masked + c.masked,
                silent: a.silent + c.silent,
                predicted_silent: a.predicted_silent + c.predicted_silent,
                triaged: a.triaged + c.triaged,
            });
        for &(name, unit) in PER_LAYER {
            let v = match name {
                "sim.frame_q_1t_ms" => frame_ms.quantile(OP_QUANTILE),
                "sim.dag_q_1t_ms" => dag_ms.quantile(OP_QUANTILE),
                "sim.frame_q_ms"
                | "sim.frame_f64_ms"
                | "serve.protocol_us"
                | "persist.load_ms"
                | "persist.checkpoint_ms"
                | "persist.file_mb" => extra.get(name).copied().unwrap_or(0.0),
                "pool.speedup" => {
                    frame_ms.min()
                        / extra
                            .get("sim.frame_q_ms")
                            .copied()
                            .unwrap_or(f64::INFINITY)
                }
                "pool.park_ms" => {
                    engine_counters.get("pool.park_us.sum") / 1e3 / engine_traced_ops.max(1) as f64
                }
                "pool.caller_share" => engine_counters.get("pool.caller.tasks") / tasks.max(1.0),
                "cosim.campaign_ms" => all_sweeps.quantile(OP_QUANTILE),
                "campaign.faults" => counts.faults as f64,
                "campaign.detected" => counts.detected as f64,
                "campaign.masked" => counts.masked as f64,
                "campaign.silent" => counts.silent as f64,
                "campaign.predicted_silent" => counts.predicted_silent as f64,
                "campaign.triaged" => counts.triaged as f64,
                "campaign.predicted_share" => {
                    counts.predicted_silent as f64 / (counts.masked + counts.silent).max(1) as f64
                }
                "stage.spec_ms" => stage("stage.spec"),
                "stage.explore_ms" => stage("stage.explore"),
                "stage.synthesize_ms" => stage("stage.synthesize"),
                "stage.certify_ms" => stage("stage.certify"),
                "stage.search_format_ms" => stage("stage.search_format"),
                "stage.bundle_ms" => stage("stage.bundle"),
                "serve.compute_ms" => Samples(compute_ms.clone()).median(),
                "serve.batch_ms" => all_batches.mean(),
                "serve.hit_batch_ms" => hit_batches.median(),
                "serve.batch_size" => serve_counters.get("serve.requests") / batches.max(1.0),
                "serve.hol_share" => {
                    hits.0.iter().filter(|&&ms| ms > 2.0 * hit_p50).count() as f64
                        / hits.len().max(1) as f64
                }
                "telemetry.overhead_pct" => {
                    (flow_ms[1].quantile(OP_QUANTILE) / flow_ms[0].quantile(OP_QUANTILE).max(1e-9)
                        - 1.0)
                        * 100.0
                }
                other => med(other),
            };
            metrics.push((name, unit, v));
            diag_entry(
                &mut diag,
                name,
                "traced",
                v,
                layers.get(name).unwrap_or(&Samples::default()),
            );
        }
    } else {
        let e2e: BTreeMap<&str, (f64, &str, &Samples)> = [
            (
                "setup_s",
                (setup_s.quantile(OP_QUANTILE), "p90 of set-ups", &setup_s),
            ),
            (
                "flow_ms",
                (all_flow.quantile(OP_QUANTILE), "p90", &all_flow),
            ),
            (
                "frame_melem_s",
                (
                    melem / (frame_ms.quantile(OP_QUANTILE) / 1e3),
                    "work / p90 time",
                    &frame_ms,
                ),
            ),
            (
                "dag_melem_s",
                (
                    melem / (dag_ms.quantile(OP_QUANTILE) / 1e3),
                    "work / p90 time",
                    &dag_ms,
                ),
            ),
            (
                "campaign_faults_per_s",
                (
                    sweep_faults.unwrap_or(0) as f64 / (all_sweeps.quantile(OP_QUANTILE) / 1e3),
                    "faults per sweep / p90 sweep time",
                    &all_sweeps,
                ),
            ),
            ("serve_hit_p50_ms", (hits.median(), "median", &hits)),
            ("serve_hit_tail_ms", (hits.quantile(HIT_TAIL), "p90", &hits)),
            (
                "serve_miss_ms",
                (misses.quantile(OP_QUANTILE), "p90", &misses),
            ),
        ]
        .into_iter()
        .collect();
        let rss = util::peak_rss_mb();
        for &(name, unit) in END_TO_END {
            let (v, est, samples) = match e2e.get(name) {
                Some(&(v, est, s)) => (v, est, s.clone()),
                None => (rss, "VmHWM at the end", Samples(vec![rss])),
            };
            metrics.push((name, unit, v));
            diag_entry(&mut diag, name, est, v, &samples);
        }
    }
    let observed_json = format!(
        "\"rounds\": {rounds}, \"loop_s\": {}, \"verify_s\": {}, \"first_setup_s\": {}, \"engine_arch\": \"w{} d{} x{}\", \"flow\": \"{:?}\", \"campaign\": \"{:?}\", \"digests\": \"{}\", \"metrics\": {{{diag}}}",
        num(loop_s),
        num(verify_s),
        num(setup_s.0[0]),
        eng.arch.window,
        eng.arch.depth,
        eng.iterations,
        first_flow,
        first_counts,
        fingerprints
            .iter()
            .take(2)
            .map(|(e, f)| format!("{e:?} {:016x}", f.full))
            .collect::<Vec<_>>()
            .join(", "),
    );
    Ok((
        Report {
            correct,
            tally,
            metrics,
            diag: observed_json,
        },
        tr,
    ))
}

/// `IslSession::with_persistent_store` and `IslSession::checkpoint`, timed
/// on a copy of the last segment's store file: load the copy, add one
/// fresh certificate, flush. Returns (load ms, checkpoint ms, file MB).
fn persist_layer(
    algo: &Algorithm,
    store: &Path,
    seed: u64,
    run_dir: &Path,
    tr: &mut Tracer,
) -> Result<(f64, f64, f64), String> {
    let copy = run_dir.join("persist-copy.islstore");
    std::fs::copy(store, &copy).map_err(|e| format!("copy store: {e}"))?;
    let file_mb =
        std::fs::metadata(&copy).map_err(|e| e.to_string())?.len() as f64 / (1024.0 * 1024.0);
    let (session, load_ms) = tr.timed("persist.load", || {
        IslSession::from_algorithm(algo).and_then(|s| s.with_persistent_store(&copy))
    });
    let session = session.map_err(|e| e.to_string())?;
    let mut rng = util::Rng::stream(seed, "persist");
    let init = util::noise_frames(
        &mut rng,
        session.pattern().fields().len(),
        serve::KEY_W as usize,
        serve::KEY_H as usize,
    );
    session
        .certify(&init, Architecture::new(Window::square(4), 2, 2))
        .map_err(|e| e.to_string())?;
    let (written, checkpoint_ms) = tr.timed("persist.checkpoint", || session.checkpoint());
    let written = written.map_err(|e| e.to_string())?;
    if written == 0 {
        return Err("checkpoint of a dirty store wrote nothing".into());
    }
    Ok((load_ms, checkpoint_ms, file_mb))
}
