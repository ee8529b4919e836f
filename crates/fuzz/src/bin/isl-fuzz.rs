//! `isl-fuzz` — the reliability subsystem's command line.
//!
//! ```text
//! isl-fuzz diff     --iters 1000 --seed 1 [--corpus-dir DIR] [--shrink-budget 300]
//!                   [--progress-every 100]
//! isl-fuzz replay   <entry.c> [...]
//! isl-fuzz analyze  [--corpus-dir DIR]
//! isl-fuzz mutate   --iters 2000 --seed 1
//! isl-fuzz campaign
//! isl-fuzz persist  --iters 500 --seed 1 [--corpus-dir DIR]
//!                   [--shrink-budget 2000] [--write-fixtures DIR]
//!                   [--replay-dir DIR]
//! ```
//!
//! * `diff` — seeded differential campaign over all execution semantics;
//!   exits non-zero if any mismatch survives, after shrinking and printing
//!   (and optionally persisting) each counterexample. A progress line
//!   (iters/s, cross-checks, corpus size) goes to stderr every
//!   `--progress-every` iterations (0 silences it).
//! * `analyze` — replays the checked-in corpus through the `isl-analyze`
//!   bytecode verifier: every program form (f64 kernels, quantized step,
//!   folded and unfolded cones, quantized cone) is compiled at the entry's
//!   recorded configuration and checked for def-before-use,
//!   CSE congruence, DCE soundness and slot-interference freedom; the
//!   quantized cone is additionally pushed through the abstract
//!   interpreter. Exits non-zero on any finding. This is the CI gate that
//!   keeps the verifier sound over real compiler output.
//! * `mutate` — frontend robustness campaign over mangled kernel sources;
//!   exits non-zero on any panic.
//! * `campaign` — full stuck-at + bit-flip fault-injection campaigns over
//!   the DSE-chosen architectures of the paper's two case studies, printing
//!   the quantified coverage reports.
//! * `persist` — fuzz the `isl-persist` on-disk store format: round-trip
//!   random record sets, then bit-flip / splice / truncate the saved
//!   images, asserting every load returns with honest survivors and
//!   counted skips (never a panic). `--write-fixtures DIR` regenerates
//!   the canonical corruption fixtures; `--replay-dir DIR` replays them.
//!
//! Every subcommand also accepts the global observability flags
//! `--telemetry <out.json>` (structured run report: spans, counters,
//! gauges) and `--trace <out.trace.json>` (Chrome trace-event file,
//! loadable in Perfetto / `chrome://tracing`); either one enables the
//! telemetry collector for the run. Any other option, an option without a
//! value and a stray argument print the usage and exit non-zero.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use isl_fuzz::fuzz_frontend;
use isl_hls::prelude::*;
use isl_hls::FlowError;

const USAGE: &str = "usage: isl-fuzz <diff|replay|analyze|mutate|campaign|persist> [options] \
                     [--telemetry out.json] [--trace out.trace.json]";

/// Each subcommand, one a line, with the options its doc block lists;
/// every option takes a value.
const COMMANDS: &str = "diff --iters --seed --corpus-dir --shrink-budget --progress-every
replay
analyze --corpus-dir
mutate --iters --seed
campaign
persist --iters --seed --corpus-dir --shrink-budget --write-fixtures --replay-dir";

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_u64(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    match arg_value(args, name) {
        None => Ok(default),
        Some(v) => {
            let (digits, radix) = match v.strip_prefix("0x") {
                Some(h) => (h, 16),
                None => (v.as_str(), 10),
            };
            u64::from_str_radix(digits, radix).map_err(|e| format!("bad {name} `{v}`: {e}"))
        }
    }
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let iters = parse_u64(args, "--iters", 1000)? as usize;
    let seed = parse_u64(args, "--seed", 1)?;
    let budget = parse_u64(args, "--shrink-budget", 300)? as usize;
    let every = parse_u64(args, "--progress-every", 100)? as usize;
    let corpus_dir = arg_value(args, "--corpus-dir");

    println!("differential campaign: {iters} iterations, seed {seed:#x}");
    let report = isl_fuzz::run_campaign_with_progress(iters, seed, budget, every, |p| {
        eprintln!(
            "  [{}/{}] {:.0} iters/s, {} cross-checks, {} rejected, corpus {}",
            p.iteration, p.iterations, p.iters_per_sec, p.checks, p.rejected, p.corpus_size
        );
    });
    println!(
        "  {} agreed ({} cross-checks), {} rejected by the frontend, {} mismatches",
        report.agreed,
        report.checks,
        report.rejected,
        report.failures.len()
    );
    for f in &report.failures {
        println!("\n==== MISMATCH {} ====\n{}", f.name, f.to_text());
        if let Some(dir) = &corpus_dir {
            let path = std::path::Path::new(dir).join(format!("{}.c", f.name));
            std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
            std::fs::write(&path, f.to_text())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            println!("(persisted to {})", path.display());
        }
    }
    Ok(if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_replay(args: &[String]) -> Result<ExitCode, String> {
    if args.is_empty() {
        return Err("replay needs at least one corpus entry path".into());
    }
    let mut clean = true;
    for path in args {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let entry = isl_fuzz::CorpusEntry::parse(path, &text)?;
        match isl_fuzz::run_differential(&entry.source, &entry.config) {
            isl_fuzz::DiffOutcome::Agree { checks } => {
                println!("{path}: agree ({checks} cross-checks)");
            }
            isl_fuzz::DiffOutcome::CompileError(e) => {
                println!("{path}: rejected by the frontend: {e}");
                clean = false;
            }
            isl_fuzz::DiffOutcome::Mismatch(m) => {
                println!("{path}: MISMATCH in `{}`:\n  {}", m.check, m.detail);
                clean = false;
            }
        }
    }
    Ok(if clean { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Compile every program form of one corpus entry at its recorded
/// configuration and run the bytecode verifier over each. Returns
/// `(programs, instructions)` verified, or the first finding.
fn verify_entry(entry: &isl_fuzz::CorpusEntry) -> Result<(usize, usize), String> {
    let (pattern, _info) = isl_symexec::compile_str(&entry.source)
        .map_err(|e| format!("frontend rejected corpus entry: {e}"))?;
    let cfg = &entry.config;
    let fmt = cfg.format();
    let params: Vec<f64> = pattern.params().iter().map(|p| p.default).collect();
    let window = if pattern.rank() == 1 {
        isl_ir::Window::line(cfg.window.w)
    } else {
        cfg.window
    };

    let mut programs = 0usize;
    let mut instrs = 0usize;

    let compiled = isl_sim::CompiledPattern::compile(&pattern, &params, true);
    for i in 0..pattern.fields().len() {
        if let Some(k) = compiled.kernel(i) {
            isl_analyze::verify_kernel(k).map_err(|e| format!("f64 kernel {i}: {e}"))?;
            programs += 1;
            instrs += k.len();
        }
    }
    let step = isl_sim::QuantizedStep::compile(&pattern, &params);
    isl_analyze::verify_step(&step).map_err(|e| format!("quantized step: {e}"))?;
    programs += 1;
    instrs += step.len();

    // Cone construction can legitimately reject a window/depth combination
    // (reach constraints); that is a frontend contract, not a bytecode bug.
    if let Ok(cone) = isl_ir::Cone::build(&pattern, window, cfg.depth) {
        let unfolded = isl_sim::CompiledCone::compile_with(&cone, &params, false);
        let folded = isl_sim::CompiledCone::compile_with(&cone, &params, true);
        for (fold, cc) in [(false, &unfolded), (true, &folded)] {
            isl_analyze::verify_cone(cc).map_err(|e| format!("cone (fold={fold}): {e}"))?;
            programs += 1;
            instrs += cc.len();
        }
        // The unfolded cone is the program the quantised engines run.
        let analysis =
            isl_analyze::Analysis::of_cone(&unfolded, fmt, isl_analyze::WordRange::full(fmt))
                .map_err(|e| format!("abstract interpretation of the unfolded cone: {e}"))?;
        if analysis.is_empty() {
            return Err("abstract interpretation produced no facts".into());
        }
    }

    Ok((programs, instrs))
}

fn cmd_analyze(args: &[String]) -> Result<ExitCode, String> {
    let dir = arg_value(args, "--corpus-dir").unwrap_or_else(|| "tests/corpus".into());
    let entries = isl_fuzz::load_dir(std::path::Path::new(&dir))?;
    if entries.is_empty() {
        return Err(format!("no corpus entries found in {dir}"));
    }
    println!("bytecode verification over {} corpus entries in {dir}", entries.len());
    let mut findings = 0usize;
    let mut programs = 0usize;
    let mut instrs = 0usize;
    for entry in &entries {
        match verify_entry(entry) {
            Ok((p, n)) => {
                programs += p;
                instrs += n;
                println!("  {}: {p} programs clean ({n} instructions)", entry.name);
            }
            Err(e) => {
                findings += 1;
                println!("  {}: FINDING: {e}", entry.name);
            }
        }
    }
    println!(
        "  total: {programs} programs, {instrs} instructions verified, {findings} findings"
    );
    Ok(if findings == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_mutate(args: &[String]) -> Result<ExitCode, String> {
    let iters = parse_u64(args, "--iters", 2000)? as usize;
    let seed = parse_u64(args, "--seed", 1)?;
    let seeds: Vec<&str> = vec![
        isl_algorithms::gaussian::SOURCE,
        isl_algorithms::chambolle::SOURCE,
        isl_algorithms::heat::SOURCE,
        isl_algorithms::jacobi::SOURCE,
    ];
    println!("frontend mutation campaign: {iters} iterations, seed {seed:#x}");
    let report = fuzz_frontend(&seeds, iters, seed);
    println!(
        "  {} compiled, {} rejected with structured errors, {} panics",
        report.compiled,
        report.rejected,
        report.panics.len()
    );
    for p in &report.panics {
        println!("\n==== PANIC: {} ====\n{}", p.message, p.source);
    }
    Ok(if report.panics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_campaign() -> Result<ExitCode, FlowError> {
    let device = Device::virtex6_xc6vlx760();
    let space = DesignSpace::new(2..=5, 1..=3, 4);
    let (w, h) = (24, 18);

    for algo in [isl_algorithms::gaussian_igf(), isl_algorithms::chambolle()] {
        let session = IslSession::from_algorithm(&algo)?;
        let explored = session.explore(&device, session.workload(w, h), &space)?;
        let best = explored.fastest().expect("explorations are non-empty");
        let init = isl_fuzz::frames_for(session.pattern(), w as usize, h as usize, 0x5EED);
        let certified = explored.certify_fastest(&init)?;
        let fmt = certified.certificate().format;
        let schedule = isl_hls::cosim::MaskSchedule::standard(fmt);
        println!(
            "== {} — DSE-chosen architecture w{} d{}, format {fmt} ==",
            algo.name, best.arch.window, best.arch.depth
        );
        let report = certified.fault_campaign(&init, &schedule)?;
        println!("{report}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_persist(args: &[String]) -> Result<ExitCode, String> {
    if let Some(dir) = arg_value(args, "--write-fixtures") {
        let written = isl_fuzz::persist::write_fixtures(std::path::Path::new(&dir))?;
        println!("wrote {} fixtures + MANIFEST.txt to {dir}", written.len());
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(dir) = arg_value(args, "--replay-dir") {
        let names = isl_fuzz::replay_fixtures(std::path::Path::new(&dir))?;
        for n in &names {
            println!("{dir}/{n}: loads clean, survivors and skips match the manifest");
        }
        return Ok(ExitCode::SUCCESS);
    }
    let iters = parse_u64(args, "--iters", 500)? as usize;
    let seed = parse_u64(args, "--seed", 1)?;
    let budget = parse_u64(args, "--shrink-budget", 2000)? as usize;
    let corpus_dir = arg_value(args, "--corpus-dir");

    println!("persistence campaign: {iters} iterations, seed {seed:#x}");
    let report = isl_fuzz::run_persist_campaign(iters, seed, budget);
    println!(
        "  {} round trips, {} version invalidations, {} corrupted loads \
         ({} records skipped and counted), {} violations",
        report.round_trips,
        report.invalidations,
        report.attacks,
        report.records_skipped,
        report.failures.len()
    );
    for f in &report.failures {
        println!("\n==== VIOLATION {} ====\n{} ({} bytes)", f.name, f.detail, f.image.len());
        if let Some(dir) = &corpus_dir {
            let path = std::path::Path::new(dir).join(format!("{}.islstore", f.name));
            std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
            std::fs::write(&path, &f.image)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            println!("(persisted to {})", path.display());
        }
    }
    Ok(if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Remove the flag `name` and its value from `args`, returning the value;
/// an error when the flag has no value.
fn take_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    args.remove(i);
    match args.get(i) {
        Some(value) if !value.starts_with("--") => Ok(Some(args.remove(i))),
        _ => Err(format!("option `{name}` needs a value")),
    }
}

/// A checked command line: the telemetry sinks, the subcommand and its
/// arguments.
struct Args {
    telemetry: Option<String>,
    trace: Option<String>,
    cmd: String,
    rest: Vec<String>,
}

/// Take the global flags from anywhere in `args`, then refuse what the
/// subcommand would otherwise ignore: an option its doc block does not
/// list, an option without a value or given twice, and a positional
/// argument (only `replay` takes those).
fn parse_args(mut args: Vec<String>) -> Result<Args, String> {
    let telemetry = take_flag(&mut args, "--telemetry")?;
    let trace = take_flag(&mut args, "--trace")?;
    if args.is_empty() {
        return Err("no command given".into());
    }
    let cmd = args.remove(0);
    let known: Vec<&str> = COMMANDS
        .lines()
        .map(|line| line.split(' ').collect::<Vec<_>>())
        .find(|words| words[0] == cmd)
        .ok_or_else(|| format!("unknown command `{cmd}`"))?;
    let mut seen = Vec::new();
    let mut words = args.iter();
    while let Some(arg) = words.next() {
        if !arg.starts_with("--") {
            if cmd != "replay" {
                return Err(format!("`{cmd}` takes no argument `{arg}`"));
            }
        } else if !known[1..].contains(&arg.as_str()) {
            return Err(format!("`{cmd}` has no option `{arg}`"));
        } else if seen.contains(&arg) {
            return Err(format!("option `{arg}` given twice"));
        } else if words.next().is_none_or(|value| value.starts_with("--")) {
            return Err(format!("option `{arg}` needs a value"));
        } else {
            seen.push(arg);
        }
    }
    Ok(Args {
        telemetry,
        trace,
        cmd,
        rest: args,
    })
}

/// Write the telemetry sinks requested by the global `--telemetry` /
/// `--trace` flags.
fn write_telemetry(
    telemetry_out: Option<&str>,
    trace_out: Option<&str>,
) -> Result<(), String> {
    let snapshot = isl_telemetry::snapshot();
    if let Some(path) = telemetry_out {
        std::fs::write(path, snapshot.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("telemetry run report written to {path}");
    }
    if let Some(path) = trace_out {
        std::fs::write(path, snapshot.chrome_trace())
            .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("chrome trace written to {path} (load in ui.perfetto.dev)");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1).collect()) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("isl-fuzz: {msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    isl_analyze::install_debug_verifier();
    if args.telemetry.is_some() || args.trace.is_some() {
        isl_telemetry::start();
    }
    let rest = &args.rest;
    let result: Result<ExitCode, String> = match args.cmd.as_str() {
        "diff" => cmd_diff(rest),
        "replay" => cmd_replay(rest),
        "analyze" => cmd_analyze(rest),
        "mutate" => cmd_mutate(rest),
        "campaign" => cmd_campaign().map_err(|e| e.to_string()),
        "persist" => cmd_persist(rest),
        other => unreachable!("parse_args admits no command `{other}`"),
    };
    let result = result.and_then(|code| {
        write_telemetry(args.telemetry.as_deref(), args.trace.as_deref()).map(|()| code)
    });
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("isl-fuzz: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_args, Args};

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn unknown_options_and_stray_arguments_are_refused() {
        // The first two once ran the defaults (2 000 mutations, the full campaign).
        for line in [
            "mutate --iter 3 --seed 1",
            "campaign --fast",
            "diff --iters",
            "diff --iters --seed 1",
            "diff --seed 1 --seed 2",
            "analyze tests/corpus",
            "campaign --trace",
            "fuzz",
            "",
        ] {
            assert!(parse(line).is_err(), "`{line}` was accepted");
        }
        assert!(parse("--trace t.json replay a.c b.c").is_ok());
    }

    #[test]
    fn ci_command_lines_are_accepted() {
        let ci = include_str!("../../../../.github/workflows/ci.yml");
        let lines: Vec<&str> = ci
            .lines()
            .filter_map(|line| line.split_once("-p isl-fuzz --"))
            .map(|(_, args)| args)
            .collect();
        assert!(lines.len() >= 6, "{lines:?}");
        for line in lines {
            parse(line).unwrap_or_else(|e| panic!("`{line}` refused: {e}"));
        }
    }
}
