//! # isl-fuzz — the reliability subsystem
//!
//! The repo pins its execution semantics with property tests over
//! hand-picked patterns. This crate turns that spot-check into a standing
//! adversarial process, with two engines:
//!
//! ## 1. The differential fuzzer
//!
//! [`gen::generate`] emits random-but-plausible stencil kernels **as C
//! source text**, so every case travels the full production pipeline:
//! lexer → parser → semantic analysis → symbolic execution → pattern. Each
//! surviving program is executed at an adversarial [`DiffConfig`] (widths
//! from the ladder 8/18/31/54/63/64, all border modes, non-divisor cone
//! depths, 1–4 threads) through **all execution semantics** — the
//! tree-walking reference, the compiled engines, the quantised lane
//! engines and the integer co-simulation VM — and every pinned equivalence
//! is cross-checked with `f64::to_bits` equality ([`run_differential`]).
//!
//! A mismatch is automatically minimised ([`mod@shrink`]: statement
//! delta-debugging through the real parser and pretty-printer, operand
//! simplification, configuration shrinking) and persisted as a replayable
//! [`CorpusEntry`] — the regression corpus in `tests/corpus/` replays
//! through CI forever after.
//!
//! ## 2. Fault-injection campaigns
//!
//! [`isl_cosim::CoSimulator::fault_campaign`] (driven here by the
//! `isl-fuzz campaign` binary and surfaced in the staged API as
//! `Certified::fault_campaign`) sweeps every instruction of an
//! architecture's cone programs against transient bit-flips and stuck-at
//! faults, classifying each as detected / masked / silent and triaging
//! every detection to its instruction on the detecting firing's trace. The
//! quantified output — detection rate, per-level breakdown, detection
//! latency in windows — is the reliability evidence the DAC'13 flow's
//! certification stage was missing.
//!
//! ## 3. Frontend robustness
//!
//! [`fuzz_frontend`] mangles real kernel sources byte- and token-wise and
//! asserts the frontend always *returns* — structured errors are fine,
//! panics are findings. The frontend's nesting budget and the symbolic
//! executor's step/size/offset budgets exist because of this campaign.
//!
//! ## 4. Persistence-format fuzzing
//!
//! [`run_persist_campaign`] attacks the `isl-persist` on-disk store
//! format: random record sets are round-tripped bit-identically, version
//! bumps must invalidate wholesale, and saved images are corrupted with
//! bit flips, garbage runs, truncation and duplicated regions — every
//! load must *return* (panics are findings), every surviving record must
//! be one that was really written, and everything else must be counted
//! as skipped. Violations are shrunk by byte-range delta-debugging; the
//! canonical corruption fixtures live in `tests/corpus/persist/`.
//!
//! Everything is deterministic from a 64-bit seed ([`Rng`] wraps the same
//! SplitMix64 that generates workload frames), so any finding replays
//! exactly from its reported seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod diff;
pub mod gen;
pub mod mutate;
pub mod persist;
pub mod rng;
pub mod shrink;

pub use corpus::{load_dir, CorpusEntry};
pub use diff::{
    engine_vectors, frames_for, run_differential, DiffConfig, DiffOutcome, Mismatch, WIDTH_LADDER,
};
pub use gen::generate;
pub use mutate::{fuzz_frontend, MutationReport, PanicCase};
pub use persist::{
    replay_fixtures, run_persist_campaign, PersistCampaignReport, PersistFailure,
};
pub use rng::Rng;
pub use shrink::{shrink, shrink_with};

/// Outcome tally of a differential campaign ([`run_campaign`]).
#[derive(Debug, Clone, Default)]
pub struct DiffCampaignReport {
    /// Iterations attempted.
    pub iterations: usize,
    /// Programs that compiled and agreed across all semantics.
    pub agreed: usize,
    /// Cross-checks that ran in total.
    pub checks: usize,
    /// Programs the frontend rejected (structured errors — expected).
    pub rejected: usize,
    /// Minimised mismatches, as replayable corpus entries.
    pub failures: Vec<CorpusEntry>,
}

/// A progress sample of a running differential campaign, handed to the
/// [`run_campaign_with_progress`] callback every `every` iterations (and
/// once more at the end of the run).
#[derive(Debug, Clone, Copy)]
pub struct DiffProgress {
    /// Iterations completed so far.
    pub iteration: usize,
    /// Iterations the campaign will run in total.
    pub iterations: usize,
    /// Campaign throughput since the start, iterations per second.
    pub iters_per_sec: f64,
    /// Cross-checks that ran so far.
    pub checks: usize,
    /// Programs the frontend rejected so far.
    pub rejected: usize,
    /// Mismatches found (the growth of the failure corpus) so far.
    pub corpus_size: usize,
}

/// Run a seeded differential campaign: generate, execute, cross-check and
/// (on mismatch) shrink, `iterations` times.
///
/// `shrink_budget` bounds the re-check count spent minimising each
/// failure; pass 0 to keep raw counterexamples.
pub fn run_campaign(iterations: usize, seed: u64, shrink_budget: usize) -> DiffCampaignReport {
    run_campaign_with_progress(iterations, seed, shrink_budget, 0, |_| {})
}

/// [`run_campaign`] with a progress feed: `on_progress` is called with a
/// [`DiffProgress`] sample every `every` completed iterations and once at
/// the end of the run (`every == 0` reports only the final sample).
///
/// With telemetry enabled ([`isl_telemetry::enabled`]) the loop also
/// feeds the global collector: one `fuzz.iters` count per iteration,
/// `fuzz.checks` per cross-check, and a `fuzz.corpus` counter that grows
/// with every minimised mismatch, all under a `("fuzz", "diff campaign")`
/// span.
pub fn run_campaign_with_progress(
    iterations: usize,
    seed: u64,
    shrink_budget: usize,
    every: usize,
    mut on_progress: impl FnMut(&DiffProgress),
) -> DiffCampaignReport {
    let _span = isl_telemetry::span("fuzz", "diff campaign");
    let start = std::time::Instant::now();
    let mut rng = Rng::new(seed);
    let mut report = DiffCampaignReport::default();
    let progress = |report: &DiffCampaignReport| DiffProgress {
        iteration: report.iterations,
        iterations,
        iters_per_sec: report.iterations as f64 / start.elapsed().as_secs_f64().max(1e-9),
        checks: report.checks,
        rejected: report.rejected,
        corpus_size: report.failures.len(),
    };
    for i in 0..iterations {
        let source = generate(&mut rng);
        let config = DiffConfig::sample(&mut rng);
        report.iterations += 1;
        isl_telemetry::add("fuzz.iters", 1);
        match run_differential(&source, &config) {
            DiffOutcome::Agree { checks } => {
                report.agreed += 1;
                report.checks += checks;
                isl_telemetry::add("fuzz.checks", checks as u64);
            }
            DiffOutcome::CompileError(_) => report.rejected += 1,
            DiffOutcome::Mismatch(_) => {
                let (src, cfg) = if shrink_budget > 0 {
                    shrink(&source, &config, shrink_budget)
                } else {
                    (source.clone(), config)
                };
                report.failures.push(CorpusEntry {
                    name: format!("shrunk-{seed:#x}-{i}"),
                    config: cfg,
                    source: src,
                });
                isl_telemetry::add("fuzz.corpus", 1);
            }
        }
        if every > 0 && report.iterations % every == 0 {
            on_progress(&progress(&report));
        }
    }
    // Final sample, unless the last loop iteration just emitted it.
    if every == 0 || iterations == 0 || !iterations.is_multiple_of(every) {
        on_progress(&progress(&report));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_is_clean_and_deterministic() {
        let a = run_campaign(15, 0xC0FFEE, 50);
        assert_eq!(a.iterations, 15);
        assert!(
            a.failures.is_empty(),
            "differential mismatch: {}",
            a.failures[0].to_text()
        );
        assert!(a.agreed > 0, "nothing compiled in 15 iterations");
        let b = run_campaign(15, 0xC0FFEE, 50);
        assert_eq!(a.agreed, b.agreed);
        assert_eq!(a.checks, b.checks);
    }
}
