//! The persistent artifact store: disk-served results bit-identical to
//! cold recomputes, full pipelines replayed warm across process
//! "restarts" (a fresh session on the same store file), and corruption
//! degrading to cold builds with counted skips — never a panic, never a
//! wrong answer.

use std::path::PathBuf;

use isl_hls::prelude::*;
use isl_hls::sim::synthetic;
use isl_tests::arb::{arb_pattern, arb_window, frames_for};
use isl_tests::prop::{check, Rng};

/// A store path in a fresh per-test temp directory.
fn store_path(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("isl-persist-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{test}.islstore"))
}

/// Property: certificates served from the disk tier are bit-identical to
/// a cold recompute in a fresh, memory-only session — across random
/// patterns, windows and depths. The serving session performs zero
/// builds of any kind.
#[test]
fn disk_served_artifacts_equal_cold_recompute() {
    check("disk_served_artifacts_equal_cold_recompute", 8, |rng: &mut Rng| {
        let pattern = arb_pattern(rng);
        let window = arb_window(rng);
        let depth = rng.u32_in(1, 2);
        let iterations = rng.u32_in(1, 4);
        let init = frames_for(&pattern, 11, 7, rng.u64());
        let arch = Architecture::new(window, depth, 1);
        let path = store_path(&format!("equal-cold-{}", rng.u64()));

        // Writer process: certify once, flush on drop.
        {
            let writer = IslSession::from_pattern(pattern.clone(), iterations)
                .with_persistent_store(&path)
                .unwrap();
            writer.certify(&init, arch).unwrap();
        }

        // Reader "process": same store file, fresh caches.
        let reader = IslSession::from_pattern(pattern.clone(), iterations)
            .with_persistent_store(&path)
            .unwrap();
        let warm = reader.certify(&init, arch).unwrap();
        let stats = reader.store_stats();
        assert!(stats.disk_hits > 0, "certificate must come from disk");
        assert_eq!(stats.certificates.misses, 0, "disk hit must not count as a build");
        assert_eq!(stats.vectors.misses, 0, "vectors come from their own record");
        assert_eq!(stats.load_skipped_corrupt, 0);

        // Cold recompute in a memory-only session: bit-identical.
        let cold = IslSession::from_pattern(pattern, iterations)
            .certify(&init, arch)
            .unwrap();
        assert_eq!(warm.certificate(), cold.certificate());
        std::fs::remove_file(&path).ok();
    });
}

/// The acceptance criterion of the persistence tentpole: a full
/// `explore → certify → search_format` pipeline, replayed by a fresh
/// session on the same store file, performs **zero** new cone builds,
/// pattern compiles, calibration syntheses — zero misses of any kind —
/// and returns bit-identical results.
#[test]
fn restart_replays_full_pipeline_warm() {
    let algo = isl_hls::algorithms::gaussian_igf();
    let device = Device::virtex6_xc6vlx760();
    let space = DesignSpace::new(2..=4, 1..=2, 2);
    let init = FrameSet::from_frames(vec![synthetic::noise(24, 16, 11)]).unwrap();
    let arch = Architecture::new(Window::square(2), 1, 1);
    let budget = ErrorBudget::max_abs(1e-3);
    let path = store_path("restart-warm");
    std::fs::remove_file(&path).ok();

    let run = |session: &IslSession| {
        let explored = session
            .explore(&device, session.workload(24, 16), &space)
            .unwrap();
        let cert = session.certify(&init, arch).unwrap();
        let search = session.search_format(&device, &init, arch, budget).unwrap();
        (
            explored.points().to_vec(),
            cert.certificate().clone(),
            search.outcome().clone(),
        )
    };

    // First process: cold, builds everything, checkpoints explicitly.
    let first = IslSession::from_algorithm(&algo)
        .unwrap()
        .with_persistent_store(&path)
        .unwrap();
    let (points1, cert1, search1) = run(&first);
    let cold = first.store_stats();
    assert!(cold.cones.misses > 0 && cold.calibrations.misses > 0);
    let flushed = first.checkpoint().unwrap();
    assert!(flushed > 0, "checkpoint must write the dirty artifacts");
    drop(first);

    // Second process: same file, fresh everything. Zero builds.
    let second = IslSession::from_algorithm(&algo)
        .unwrap()
        .with_persistent_store(&path)
        .unwrap();
    let (points2, cert2, search2) = run(&second);
    let warm = second.store_stats();
    assert_eq!(warm.cones.misses, 0, "restart rebuilt cones");
    assert_eq!(warm.programs.misses, 0, "restart recompiled programs");
    assert_eq!(warm.syntheses.misses, 0, "restart re-ran syntheses");
    assert_eq!(warm.calibrations.misses, 0, "restart re-calibrated");
    assert_eq!(warm.vectors.misses, 0, "restart re-simulated vectors");
    assert_eq!(warm.certificates.misses, 0, "restart re-certified");
    assert_eq!(warm.searches.misses, 0, "restart re-searched");
    assert!(warm.disk_hits > 0, "nothing came from the disk tier");
    assert_eq!(warm.load_skipped_corrupt, 0);

    // Bit-identical results (points carry f64s; certificates carry every
    // golden-vector word).
    assert_eq!(points1, points2);
    assert_eq!(cert1, cert2);
    assert_eq!(search1.chosen, search2.chosen);
    assert_eq!(search1.probes, search2.probes);
    assert_eq!(search1.certificate, search2.certificate);
    std::fs::remove_file(&path).ok();
}

/// A certificate at the widest raw word, 64 bits, survives a reopen: its
/// golden vectors, words up to ten varint bytes each, are a vector record
/// a fresh session on the same store file must decode rather than skip,
/// so the second certify builds nothing.
#[test]
fn wide_format_certificate_survives_reopen() {
    let algo = isl_hls::algorithms::gaussian_igf();
    let init = FrameSet::from_frames(vec![synthetic::noise(12, 9, 3)]).unwrap();
    let arch = Architecture::new(Window::square(3), 2, 1);
    let path = store_path("wide-format");
    std::fs::remove_file(&path).ok();
    let open = || {
        IslSession::from_algorithm(&algo)
            .unwrap()
            .with_format(FixedFormat::new(64, 40))
            .with_persistent_store(&path)
            .unwrap()
    };

    let first = open();
    let cert1 = first.certify(&init, arch).unwrap().certificate().clone();
    assert!(
        first.checkpoint().unwrap() > 0,
        "checkpoint must write the certificate"
    );
    drop(first);

    let second = open();
    let cert2 = second.certify(&init, arch).unwrap().certificate().clone();
    let warm = second.store_stats();
    assert_eq!(warm.certificates.misses, 0, "reopened store re-certified");
    assert_eq!(warm.vectors.misses, 0, "reopened store re-recorded vectors");
    assert_eq!(warm.load_skipped_corrupt, 0);
    assert_eq!(cert1, cert2);
    std::fs::remove_file(&path).ok();
}

/// Corrupting the store file on disk degrades to cold recomputes with
/// counted skips: the session still opens, still answers, answers are
/// still bit-identical to a clean run — and the corruption shows up in
/// `StoreStats::load_skipped_corrupt`, never as a panic.
#[test]
fn corruption_degrades_to_cold_with_counted_skips() {
    let algo = isl_hls::algorithms::gaussian_igf();
    let init = FrameSet::from_frames(vec![synthetic::noise(16, 12, 5)]).unwrap();
    let arch = Architecture::new(Window::square(2), 1, 1);
    let path = store_path("corrupt-degrade");
    std::fs::remove_file(&path).ok();

    let reference = {
        let session = IslSession::from_algorithm(&algo)
            .unwrap()
            .with_persistent_store(&path)
            .unwrap();
        session.certify(&init, arch).unwrap().certificate().clone()
    };

    // Flip a byte in every 64-byte window of the record region — enough
    // to guarantee at least one record dies whatever the layout.
    let mut bytes = std::fs::read(&path).unwrap();
    let mut at = 32;
    while at < bytes.len() {
        bytes[at] ^= 0x40;
        at += 64;
    }
    std::fs::write(&path, &bytes).unwrap();

    let session = IslSession::from_algorithm(&algo)
        .unwrap()
        .with_persistent_store(&path)
        .unwrap();
    let again = session.certify(&init, arch).unwrap();
    let stats = session.store_stats();
    assert!(
        stats.load_skipped_corrupt > 0,
        "corruption must be counted: {stats}"
    );
    assert_eq!(*again.certificate(), reference, "corrupt store changed an answer");
    std::fs::remove_file(&path).ok();
}

/// The checked-in corruption fixtures (`tests/corpus/persist/`) replay:
/// every fixture image loads without a panic and yields exactly the
/// survivor/skip counts its manifest records. Regenerate with
/// `isl-fuzz persist --write-fixtures tests/corpus/persist` after a
/// format-version bump.
#[test]
fn persist_corpus_fixtures_replay() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .join("tests/corpus/persist");
    let names = isl_fuzz::replay_fixtures(&dir).unwrap();
    assert!(names.len() >= 5, "fixture set shrank: {names:?}");
}
