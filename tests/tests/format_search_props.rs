//! Properties of the precision design-space exploration (`FormatSearch`):
//! the monotonicity invariant the binary search relies on, bit-true
//! certification of the searched format, width-monotone area through the
//! parameterised techmap, and probes that equal a full certify at their
//! format while a search certifies only the format it chooses.

use std::sync::Arc;

use isl_hls::prelude::*;
use isl_hls::sim::synthetic;
use isl_tests::prop::{check, Rng};

fn session_and_frames(algo: &isl_hls::algorithms::Algorithm) -> (IslSession, FrameSet) {
    let session = IslSession::from_algorithm(algo).unwrap();
    let fields = session.pattern().fields().len();
    let init = FrameSet::from_frames(
        (0..fields)
            .map(|i| synthetic::noise(20, 14, 5 + i as u64))
            .collect(),
    )
    .unwrap();
    (session, init)
}

/// The invariant the binary search relies on: at a fixed (saturation-free)
/// integer width, the measured quantisation error of the certified run is
/// monotone non-increasing in the fractional width. Asserted strictly over
/// 4-bit refinement steps, where resolution dominates per-pixel rounding
/// noise, on both paper case studies.
#[test]
fn quant_error_monotone_in_frac() {
    for (algo, int_bits) in [
        (isl_hls::algorithms::gaussian_igf(), 6u32),
        (isl_hls::algorithms::chambolle(), 10u32),
    ] {
        let (session, init) = session_and_frames(&algo);
        let arch = Architecture::new(Window::square(4), 2, 1);
        let mut prev = f64::INFINITY;
        for frac in [4u32, 8, 12, 16, 20] {
            let fmt = FixedFormat::new(int_bits + frac, frac);
            let cert = session
                .clone()
                .with_format(fmt)
                .certify(&init, arch)
                .unwrap();
            let err = cert.certificate().max_quant_error;
            assert!(
                err < prev,
                "{}: error at {fmt} is {err:.3e}, not below {prev:.3e}",
                algo.name
            );
            assert!(cert.certificate().rms_quant_error <= err);
            prev = err;
        }
        // Four extra fractional bits must buy real accuracy, not noise.
        assert!(prev < 1e-4, "{}: 20 frac bits left error {prev:.3e}", algo.name);
    }
}

/// The acceptance criterion: for gaussian-IGF and Chambolle, a budget
/// anchored on the default Q8.10/18-bit format's measured accuracy yields
/// a certified format **no wider than the default**, and whenever the
/// searched word is strictly narrower the width-parameterised techmap
/// reports strictly lower synthesised area.
#[test]
fn searched_format_is_certified_and_no_wider_than_default() {
    let device = Device::virtex6_xc6vlx760();
    for algo in [
        isl_hls::algorithms::gaussian_igf(),
        isl_hls::algorithms::chambolle(),
    ] {
        let (session, init) = session_and_frames(&algo);
        let arch = Architecture::new(Window::square(4), 2, 2);
        let baseline = session.certify(&init, arch).unwrap();
        let default_fmt = session.synth_options().format;
        assert_eq!(default_fmt, FixedFormat::new(18, 10));

        let budget = ErrorBudget::max_abs(baseline.certificate().max_quant_error);
        let searched = session.search_format(&device, &init, arch, budget).unwrap();
        let chosen = searched.format();
        assert!(
            chosen.width <= default_fmt.width,
            "{}: searched {chosen} wider than default {default_fmt}",
            algo.name
        );

        // The chosen format's certificate is the full bit-true evidence:
        // golden vectors certified word-for-word at that exact format.
        let cert = searched.certificate();
        assert_eq!(cert.format, chosen);
        assert!(cert.vector_records > 0 && cert.vector_words > 0);
        assert!(cert.quantized_elements > 0);
        for file in &cert.vector_files {
            assert_eq!(file.format, chosen);
            let cone = session.cone(file.window, file.depth).unwrap();
            let report = isl_hls::vhdl::check::verify_vectors(&cone, chosen, file).unwrap();
            assert_eq!(report.records, file.records.len());
        }
        // The chosen probe meets the budget; the recorded probe list says so.
        assert!(budget.max_abs >= cert.max_quant_error);
        let probe = searched
            .probes()
            .iter()
            .find(|p| p.format == chosen)
            .expect("chosen format was probed");
        assert!(probe.within_budget);

        // Width is a real cost axis: strictly narrower word, strictly
        // lower synthesised area (and never higher at equal width).
        let outcome = searched.outcome();
        if chosen.width < default_fmt.width {
            assert!(
                outcome.chosen_area_luts < outcome.default_area_luts,
                "{}: {chosen} area {} !< {default_fmt} area {}",
                algo.name,
                outcome.chosen_area_luts,
                outcome.default_area_luts
            );
            assert!(searched.area_saving() > 0.0);
        } else if chosen == default_fmt {
            assert_eq!(outcome.chosen_area_luts, outcome.default_area_luts);
        }

        // The searched format flows through to the generated package.
        let tuned = searched.session();
        let bundle = tuned.synthesize(arch.window, arch.depth).unwrap();
        assert!(bundle
            .bundle()
            .package
            .contains(&format!("DATA_WIDTH : integer := {}", chosen.width)));
    }
}

/// Search `init` under `budget` and check the outcome against explicit
/// certification: the search adds one certificate miss, or none when
/// `certified` already holds the chosen format, and every returned probe
/// equals a full certify at its format, error bits included — so the
/// outcome is the one a search certifying every probe would return.
/// Every format certified here is added to `certified`.
fn search_and_check(
    session: &IslSession,
    init: &FrameSet,
    arch: Architecture,
    budget: ErrorBudget,
    certified: &mut Vec<FixedFormat>,
    case: &str,
) -> FormatSearched {
    let device = Device::virtex6_xc6vlx760();
    let before = session.store_stats().certificates.misses;
    let searched = session.search_format(&device, init, arch, budget).unwrap();
    let chosen = searched.format();
    assert_eq!(
        session.store_stats().certificates.misses - before,
        usize::from(!certified.contains(&chosen)),
        "{case}: a search certifies its chosen format {chosen} and nothing else"
    );
    for p in searched.probes() {
        let cert = session.clone().with_format(p.format).certify(init, arch).unwrap();
        let c = cert.certificate();
        assert_eq!(
            (p.max_abs_error.to_bits(), p.rms_error.to_bits(), p.within_budget),
            (
                c.max_quant_error.to_bits(),
                c.rms_quant_error.to_bits(),
                budget.admits(c.max_quant_error, c.rms_quant_error)
            ),
            "{case}: probe at {} differs from its certificate",
            p.format
        );
        assert!(
            p.format != chosen || Arc::ptr_eq(c, searched.certificate()),
            "{case}: the outcome's certificate is not the stored one"
        );
        if !certified.contains(&p.format) {
            certified.push(p.format);
        }
    }
    searched
}

/// The store acceptance criterion: a warm re-search with the same budget is
/// the stored outcome by pointer with zero new quantised builds (compiled
/// programs, golden-vector sets, certificates), and a re-search with a
/// tighter budget certifies at most one more format — because a search
/// certifies only the format it chooses. Checked on both case studies,
/// over the default noise frames and over an escalating band whose first
/// widths saturate. Gaussian's 3×3 binomial sums 16× the signal before
/// normalising, so a three-digit band overflows the early escalation
/// widths; Chambolle amplifies `g` by 1/λ = 10× internally, so unit-band
/// noise already does.
#[test]
fn warm_research_does_zero_quantized_builds() {
    let arch = Architecture::new(Window::square(4), 2, 1);
    let budget = ErrorBudget::max_abs(1e-3);
    for algo in [
        isl_hls::algorithms::gaussian_igf(),
        isl_hls::algorithms::chambolle(),
    ] {
        let (_, noise) = session_and_frames(&algo);
        let band = FrameSet::from_frames(
            (0..noise.len())
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
        for (frames, init) in [("noise", noise), ("band", band)] {
            let case = format!("{} on {frames}", algo.name);
            let session = IslSession::from_algorithm(&algo).unwrap();
            let mut certified = Vec::new();
            let first = search_and_check(&session, &init, arch, budget, &mut certified, &case);

            // Same budget: the stored outcome, by pointer, nothing rebuilt.
            let cold = session.store_stats();
            let warm = session
                .search_format(&Device::virtex6_xc6vlx760(), &init, arch, budget)
                .unwrap();
            let stats = session.store_stats();
            assert!(Arc::ptr_eq(first.outcome(), warm.outcome()), "{case}");
            assert_eq!(stats.searches.hits, cold.searches.hits + 1, "{case}");
            assert_eq!(
                cold.quantized_build_misses(),
                stats.quantized_build_misses(),
                "{case}: warm re-search rebuilt quantised artifacts"
            );
            assert_eq!(cold.cones.misses, stats.cones.misses, "{case}");
            assert_eq!(cold.syntheses.misses, stats.syntheses.misses, "{case}");

            // Tighter budget: a different search key, so the probes run
            // again, and at most one format is newly certified.
            let tighter = ErrorBudget::max_abs(budget.max_abs / 8.0);
            search_and_check(&session, &init, arch, tighter, &mut certified, &case);
        }
    }
}

/// Randomised budgets on the blur kernel: every successful search returns a
/// format that meets its budget, whose certificate carries that exact
/// format, and whose binary search never skipped a narrower passing probe
/// (relative to the probes it made at the chosen integer width).
#[test]
fn random_budgets_yield_consistent_searches() {
    let device = Device::virtex6_xc6vlx760();
    let (session, init) = session_and_frames(&isl_hls::algorithms::gaussian_igf());
    let arch = Architecture::new(Window::square(4), 2, 1);
    check("random_budgets_yield_consistent_searches", 8, |rng: &mut Rng| {
        // Budgets spanning loose (coarse formats suffice) to tight
        // (fine fractional widths, possibly escalated integer bits).
        let exp = rng.f64_in(-7.0, -1.0);
        let budget = ErrorBudget::max_abs(10f64.powf(exp));
        let searched = session.search_format(&device, &init, arch, budget).unwrap();
        let chosen = searched.format();
        let cert = searched.certificate();
        assert_eq!(cert.format, chosen);
        assert!(budget.admits(cert.max_quant_error, cert.rms_quant_error));
        // Binary-search soundness relative to its own probes: no probe at
        // the chosen integer width with fewer fractional bits passed.
        for p in searched.probes() {
            let same_int = p.format.int_bits() == chosen.int_bits();
            if same_int && p.format.frac < chosen.frac {
                assert!(
                    !p.within_budget,
                    "probe {} passed but {} was chosen",
                    p.format, chosen
                );
            }
        }
        // Determinism: the same budget again returns the same format.
        let again = session.search_format(&device, &init, arch, budget).unwrap();
        assert_eq!(again.format(), chosen);
    });
}

/// Malformed budgets are reported as `FlowError::Format` at the
/// format-search stage, and an unreachable budget names the best probe.
#[test]
fn impossible_and_malformed_budgets_are_errors() {
    let device = Device::virtex6_xc6vlx760();
    let (session, init) = session_and_frames(&isl_hls::algorithms::gaussian_igf());
    let arch = Architecture::new(Window::square(4), 2, 1);

    for bad in [
        ErrorBudget::max_abs(0.0),
        ErrorBudget::max_abs(f64::NAN),
        ErrorBudget::max_abs(1e-3).with_rms(0.0),
        ErrorBudget::max_abs(1e-3).with_max_width(3),
        ErrorBudget::max_abs(1e-3).with_max_width(64),
    ] {
        let err = session.search_format(&device, &init, arch, bad).unwrap_err();
        assert!(matches!(err, FlowError::Format(_)), "{err}");
        assert!(err.to_string().contains("[format-search"), "{err}");
    }

    // An unreachable budget (below anything 54 bits can certify).
    let err = session
        .search_format(&device, &init, arch, ErrorBudget::max_abs(1e-300))
        .unwrap_err();
    assert!(matches!(err, FlowError::Format(_)), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("no certifiable format"), "{msg}");
    assert!(msg.contains("best probe"), "{msg}");
}
