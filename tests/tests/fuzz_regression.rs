//! The standing reliability gates: corpus replay, bounded fuzz smoke, and
//! fault-campaign smoke.
//!
//! * every entry of `tests/corpus/` replays through **all execution
//!   semantics** at its recorded adversarial configuration, bitwise;
//! * every entry of `tests/corpus/crashes/` must be *rejected with a
//!   structured error* — these are the inputs that once crashed (or were
//!   designed to crash) the frontend and symbolic executor;
//! * a small fixed-seed differential campaign and a frontend mutation
//!   campaign run end to end with zero findings;
//! * a stuck-at + bit-flip fault campaign runs through the staged session
//!   API and classifies every injected fault.

use std::path::Path;

use isl_fuzz::{load_dir, run_campaign, DiffOutcome};
use isl_hls::prelude::*;
use isl_hls::IslSession;

fn corpus_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"))
}

/// Every persisted fuzz finding (and hand-seeded adversarial case) keeps
/// replaying clean: four semantics, bitwise, at the recorded config.
#[test]
fn corpus_replays_clean_across_all_semantics() {
    let entries = load_dir(corpus_dir()).expect("corpus loads");
    assert!(entries.len() >= 5, "seed corpus went missing");
    for entry in entries {
        match isl_fuzz::run_differential(&entry.source, &entry.config) {
            DiffOutcome::Agree { checks } => {
                assert!(checks > 0, "`{}` ran no checks", entry.name);
            }
            DiffOutcome::CompileError(e) => {
                panic!("corpus entry `{}` stopped compiling: {e}", entry.name)
            }
            DiffOutcome::Mismatch(m) => panic!(
                "corpus entry `{}` regressed: {} — {}",
                entry.name, m.check, m.detail
            ),
        }
    }
}

/// Inputs that once crashed (or target the crash surface of) the frontend
/// stay structured rejections: an `Err`, never a panic, stack overflow or
/// hang.
#[test]
fn crash_fixtures_are_rejected_with_structured_errors() {
    let dir = corpus_dir().join("crashes");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("crash fixture dir")
        .filter_map(Result::ok)
        .map(|d| d.path())
        .filter(|p| p.extension().is_some_and(|e| e == "c"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 6, "crash fixtures went missing");
    for p in paths {
        let src = std::fs::read_to_string(&p).expect("fixture reads");
        let err = isl_hls::symexec::compile_str(&src)
            .expect_err(&format!("{} must be rejected", p.display()));
        assert!(!err.to_string().is_empty());
    }
}

/// Bounded fixed-seed differential smoke: a fresh slice of generated
/// programs cross-checks clean on every CI run.
#[test]
fn bounded_differential_fuzz_is_mismatch_free() {
    let report = run_campaign(40, 0x15C_F022, 150);
    assert!(
        report.failures.is_empty(),
        "differential mismatch found:\n{}",
        report.failures[0].to_text()
    );
    assert!(report.agreed > 0, "no generated program compiled");
    assert!(report.checks >= report.agreed * 8, "check matrix shrank");
}

/// Bounded frontend mutation smoke: mangled kernels never panic the
/// frontend.
#[test]
fn bounded_mutation_fuzz_finds_no_panics() {
    let seeds = [
        isl_hls::algorithms::gaussian::SOURCE,
        isl_hls::algorithms::chambolle::SOURCE,
    ];
    let report = isl_fuzz::fuzz_frontend(&seeds, 250, 0xBAD_F00D);
    assert!(
        report.panics.is_empty(),
        "frontend panicked: {}",
        report.panics[0].message
    );
    assert_eq!(report.compiled + report.rejected, 250);
}

/// The stage-level reliability API: certify an architecture, then sweep
/// stuck-at and bit-flip faults over its cone programs. Every fault must
/// be classified, every detection triaged to its instruction. On the
/// certified frames the sweep reads the certificate's stored vectors, on
/// other frames it records and stores them; either way it reports exactly
/// what the co-simulator's own campaign reports.
#[test]
fn session_fault_campaign_classifies_and_triages() {
    let algo = isl_hls::algorithms::gaussian_igf();
    let session = IslSession::from_algorithm(&algo).expect("session builds");
    let init = isl_fuzz::frames_for(session.pattern(), 12, 9, 0x7A11);
    let arch = Architecture::new(Window::square(3), 2, 1);
    let certified = session.certify(&init, arch).expect("certifies");
    let schedule = isl_hls::cosim::MaskSchedule::lsb();
    let cosim = isl_hls::cosim::CoSimulator::new(session.pattern(), session.synth_options().format)
        .expect("co-simulator builds")
        .with_border(session.border());
    let campaign = |init: &FrameSet| {
        cosim
            .fault_campaign(
                init,
                session.iterations(),
                arch.window,
                arch.depth,
                &schedule,
            )
            .expect("co-simulator campaign runs")
    };

    let before = session.store_stats().vectors;
    let report = certified.fault_campaign(&init, &schedule).expect("campaign runs");
    let after = session.store_stats().vectors;
    assert_eq!(
        after.misses, before.misses,
        "the certified vectors were built again"
    );
    assert_eq!(after.hits, before.hits + 1);
    assert_eq!(report, campaign(&init));

    let other = isl_fuzz::frames_for(session.pattern(), 12, 9, 0x7A12);
    let other_report = certified
        .fault_campaign(&other, &schedule)
        .expect("campaign runs");
    assert_eq!(session.store_stats().vectors.misses, after.misses + 1);
    assert_eq!(other_report, campaign(&other));

    assert_eq!(report.faults, report.detected + report.masked + report.silent);
    assert!(report.faults >= report.instructions, "sweep skipped instructions");
    assert_eq!(report.triaged, report.detected, "a detection escaped triage");
    assert!(report.detected > 0, "nothing detected — campaign is vacuous");
    let by_level: usize = report.by_level.iter().map(|l| l.detected).sum();
    assert_eq!(by_level, report.detected);
    let by_model: usize = report.by_model.iter().map(|m| m.faults).sum();
    assert_eq!(by_model, report.faults);
    // The report prints the quantified coverage summary.
    let text = report.to_string();
    assert!(text.contains("detected"), "{text}");
}
