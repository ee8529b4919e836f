//! Properties of the telemetry subsystem: disabled-mode silence, race-free
//! counters under the worker pool, per-lane span nesting, Chrome-trace
//! JSON round-trips, and the run report of a fully observed pipeline.
//!
//! The collector is process-global, so every test here serialises on one
//! static lock — `cargo test`'s default thread-parallelism must not
//! interleave two tests' telemetry state.

use std::sync::{Mutex, MutexGuard};

use isl_hls::prelude::*;
use isl_hls::sim::parallel::for_each_task;
use isl_hls::sim::synthetic;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn disabled_mode_records_nothing() {
    let _guard = lock();
    isl_telemetry::start();
    isl_telemetry::set_enabled(false);

    let span = isl_telemetry::span("test", "should not exist");
    assert!(span.is_none(), "span() must be None while disabled");
    let span = isl_telemetry::span!("test", "fmt {}", 42);
    assert!(span.is_none(), "span!() must be None while disabled");
    isl_telemetry::add("test.disabled.counter", 7);
    isl_telemetry::sample("test.disabled.gauge", 7);

    let snap = isl_telemetry::snapshot();
    assert!(snap.spans.is_empty(), "no spans while disabled");
    assert!(
        !snap.counters.iter().any(|(n, _)| n.starts_with("test.disabled")),
        "no counters while disabled"
    );
    assert!(
        !snap.gauges.iter().any(|(n, _)| n.starts_with("test.disabled")),
        "no gauges while disabled"
    );
    assert_eq!(snap.dropped_spans, 0);
}

#[test]
fn counters_are_exact_under_pool_threads() {
    let _guard = lock();
    for threads in [2usize, 4] {
        isl_telemetry::start();
        let items: Vec<u64> = (0..1000).collect();
        for_each_task(items, threads, |i| {
            isl_telemetry::add("test.race.ones", 1);
            isl_telemetry::add("test.race.sum", i);
        });
        let snap = isl_telemetry::snapshot();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(get("test.race.ones"), 1000, "with {threads} threads");
        assert_eq!(get("test.race.sum"), 999 * 1000 / 2, "with {threads} threads");
    }
    isl_telemetry::set_enabled(false);
}

#[test]
fn spans_nest_per_lane_across_pool_threads() {
    let _guard = lock();
    isl_telemetry::start();
    let outer = isl_telemetry::span("test", "batch");
    let items: Vec<usize> = (0..8).collect();
    for_each_task(items, 4, |i| {
        let _task = isl_telemetry::span!("test", "task {}", i);
        let _child = isl_telemetry::span("test", "child");
        std::hint::black_box(i);
    });
    drop(outer);
    let snap = isl_telemetry::snapshot();
    isl_telemetry::set_enabled(false);

    let tasks: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| s.name.starts_with("task "))
        .collect();
    let children: Vec<_> = snap.spans.iter().filter(|s| s.name == "child").collect();
    assert_eq!(tasks.len(), 8);
    assert_eq!(children.len(), 8);
    // Every child must nest (lane, depth and interval) inside a task span
    // of its own lane — regardless of which pool thread ran it.
    for c in &children {
        let parent = tasks.iter().find(|t| {
            t.lane == c.lane
                && t.depth + 1 == c.depth
                && t.start_us <= c.start_us
                && c.start_us + c.dur_us <= t.start_us + t.dur_us
        });
        assert!(
            parent.is_some(),
            "child span on lane {} depth {} has no enclosing task",
            c.lane,
            c.depth
        );
    }
    // The batch span encloses everything on the submitting lane.
    let batch = snap
        .spans
        .iter()
        .find(|s| s.name == "batch")
        .expect("batch span recorded");
    for t in tasks.iter().filter(|t| t.lane == batch.lane) {
        assert_eq!(t.depth, batch.depth + 1, "tasks nest under batch");
    }
    // Every lane that ran spans is registered with a thread name.
    for s in &snap.spans {
        assert!(
            snap.threads.iter().any(|(id, _)| *id == s.lane),
            "lane {} has no registered thread name",
            s.lane
        );
    }
}

#[test]
fn chrome_trace_round_trips_through_json() {
    let _guard = lock();
    isl_telemetry::start();
    {
        let _a = isl_telemetry::span("stage", "Spec");
        let _b = isl_telemetry::span!("artifact", "cone w{}x{} d{}", 3, 3, 2);
    }
    isl_telemetry::add("test.trace.counter", 3);
    let trace = isl_telemetry::snapshot().chrome_trace();
    isl_telemetry::set_enabled(false);

    let parsed = isl_telemetry::json::parse(&trace).expect("trace parses as JSON");
    assert_eq!(
        parsed.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    let mut complete = 0;
    let mut metadata = 0;
    for ev in events {
        match ev.get("ph").and_then(|v| v.as_str()) {
            Some("X") => {
                complete += 1;
                assert!(ev.get("name").and_then(|v| v.as_str()).is_some());
                assert!(ev.get("ts").and_then(|v| v.as_num()).is_some());
                assert!(ev.get("dur").and_then(|v| v.as_num()).is_some());
                assert!(ev.get("tid").and_then(|v| v.as_num()).is_some());
            }
            Some("M") => metadata += 1,
            ph => panic!("unexpected event phase {ph:?}"),
        }
    }
    assert_eq!(complete, 2, "both spans exported as complete events");
    assert!(metadata >= 2, "process and thread metadata present");
}

#[test]
fn full_run_report_covers_all_stages() {
    let _guard = lock();
    let algo = isl_hls::algorithms::gaussian_igf();
    let session = IslSession::with_telemetry(algo.source).expect("parse");
    let device = Device::virtex6_xc6vlx760();
    let space = DesignSpace::new(2..=3, 1..=2, 2);
    let (w, h) = (12u32, 10u32);

    let explored = session
        .explore(&device, session.workload(w, h), &space)
        .expect("explore");
    let best = explored.fastest().expect("feasible point").clone();
    session
        .decompose(best.arch.window, best.arch.depth)
        .expect("decompose");
    explored.synthesize_fastest().expect("synthesize");
    let init = FrameSet::from_frames(
        (0..session.pattern().fields().len())
            .map(|i| synthetic::noise(w as usize, h as usize, 0xACE + i as u64))
            .collect(),
    )
    .expect("frames");
    let certified = explored.certify_fastest(&init).expect("certify");
    let budget = ErrorBudget::max_abs(certified.certificate().max_quant_error);
    session
        .search_format(&device, &init, best.arch, budget)
        .expect("search");

    let report = session.telemetry_report();
    isl_telemetry::set_enabled(false);

    let stage_names: Vec<String> = report.stages().iter().map(|t| t.name.clone()).collect();
    for stage in [
        "Spec",
        "Decomposed",
        "Estimated",
        "Explored",
        "Synthesized",
        "Certified",
        "FormatSearched",
    ] {
        assert!(
            stage_names.iter().any(|n| n == stage),
            "stage {stage} missing from {stage_names:?}"
        );
    }

    let json = report.to_json();
    let parsed = isl_telemetry::json::parse(&json).expect("run report parses");
    let stages = parsed
        .get("stages")
        .and_then(|v| v.as_arr())
        .expect("stages array");
    assert_eq!(stages.len(), 7, "all seven stages in the JSON report");
    let pool = parsed.get("pool").expect("pool object");
    for key in ["queue_depth", "park_us", "batch_us", "batches", "tasks", "caller_tasks"] {
        assert!(pool.get(key).is_some(), "pool.{key} missing");
    }
    let caches = parsed.get("caches").expect("caches object");
    for kind in [
        "cones",
        "programs",
        "syntheses",
        "calibrations",
        "vectors",
        "certificates",
        "references",
        "searches",
    ] {
        assert!(caches.get(kind).is_some(), "caches.{kind} missing");
    }
    assert!(parsed.get("telemetry").is_some(), "embedded snapshot present");
    // The Certified stage is attributed to its three child spans, and no
    // certification work runs on the scalar co-simulation VM.
    let spans = &report.snapshot().spans;
    for child in ["quantised engine checks", "golden vectors", "vector verify"] {
        assert!(
            spans.iter().any(|s| s.cat == "certify" && s.name == child),
            "certify span `{child}` missing"
        );
    }
    assert!(
        spans.iter().all(|s| s.cat != "cosim"),
        "co-simulator spans in a certify/search run"
    );
    // The trace of the same run must load as JSON too.
    isl_telemetry::json::parse(&report.chrome_trace()).expect("trace parses");
    // The human summary names every stage.
    let text = report.to_string();
    assert!(text.contains("FormatSearched") && text.contains("worker pool"));
}
