//! Determinism contract of the observability layer: the RunTelemetry
//! export must be a pure function of the seed — byte-identical across
//! repeated runs and across thread budgets — and idle instruments must
//! render as zeros, never NaN.

use ddoshield::experiments::{run_baseline_detection, run_serving_detection, ExperimentScale};
use obs::RunTelemetry;

/// Small end-to-end profile: long enough that infection completes and
/// the live phase logs windows, short enough for a test.
fn tiny() -> ExperimentScale {
    ExperimentScale { capture_secs: 40, live_secs: 25, max_train_samples: 1_500, cnn_epochs: 2 }
}

fn run_telemetry(seed: u64) -> RunTelemetry {
    run_baseline_detection(seed, &tiny()).live.telemetry
}

#[test]
fn telemetry_is_byte_identical_across_same_seed_runs() {
    let live = run_baseline_detection(7, &tiny()).live;
    let a = live.telemetry;
    let b = run_telemetry(7);
    assert_eq!(a.render_text(), b.render_text());
    assert_eq!(a.render_json(), b.render_json());

    // The acceptance surface: event-loop phases, link counters, IDS
    // stage timings and the ML predict-work profile are all present.
    let deliver = a.histogram("netsim.phase.deliver.advance_ns").expect("phase histogram");
    assert!(deliver.count > 0);
    assert!(a.gauge("netsim.link.0.delivered_packets").expect("link gauge") > 0);
    let ids = |name: &str| format!("ids.serving.tserver.{name}");
    assert!(a.counter(&ids("windows_classified")).expect("ids windows") > 0);
    assert!(a.histogram(&ids("extract_modelled_ns")).expect("extract stage").count > 0);
    assert!(a.histogram(&ids("classify_modelled_ns")).expect("classify stage").count > 0);
    assert!(a.histogram(&ids("predict_work_units")).expect("predict profile").sum > 0);
    assert!(a.counter("botnet.infections").expect("botnet counter") > 0);
    assert!(a.counter("traffic.client.http.completed").expect("traffic counter") > 0);
    assert!(a.counter("containers.ids.cpu_windows").expect("meter counter") > 0);

    // Measured predict latency lives in its own registry, never in the
    // deterministic export: at most one observation per tick.
    let wall = live.wallclock.histogram("ids.wallclock.K-Means.predict_wall_ns");
    let wall = wall.expect("wall-clock predict histogram");
    assert!(wall.count > 0 && wall.count <= live.log.len() as u64);
    assert!(!a.render_text().contains("wallclock"));
}

#[test]
fn telemetry_is_thread_count_invariant() {
    let text_at = |threads: usize| {
        ml::par::with_threads(threads, || run_telemetry(11).render_text())
    };
    assert_eq!(text_at(1), text_at(4));
}

/// The serving layer's contract: a run with mid-flight model hot-swaps
/// and background retrains exports byte-identical telemetry for the
/// same seed, regardless of the ML thread budget — retrain scheduling
/// and swap points are sim-clock driven, never wall-clock or
/// thread-count driven.
#[test]
fn serving_hot_swap_telemetry_is_byte_identical_and_thread_invariant() {
    let render = || {
        let out = run_serving_detection(11, &ExperimentScale::swarm());
        assert!(out.report.swaps >= 1, "hot swap must land mid-run");
        assert!(out.report.generation >= 1, "generation must advance");
        out.report.telemetry.render_text()
    };
    let baseline = render();
    let serial = ml::par::with_threads(1, render);
    let threaded = ml::par::with_threads(4, render);
    assert_eq!(baseline, serial);
    assert_eq!(serial, threaded);
    assert!(baseline.contains("counter ids.serving.swaps"), "{baseline}");
    assert!(baseline.contains("gauge ids.serving.generation"), "{baseline}");
    assert!(baseline.contains("counter ids.serving.tserver.windows_ingested"), "{baseline}");
}

/// A fully-idle scope — instruments registered, nothing recorded — must
/// export zero-valued metrics, never NaN or missing entries.
#[test]
fn idle_instruments_export_zeros_not_nan() {
    let registry = obs::Registry::new();
    let scope = registry.scope("ids");
    let _windows = scope.counter("windows");
    let _depth = scope.gauge("queue_depth");
    let _lat = scope.histogram("extract_modelled_ns", &obs::pow2_bounds(10, 20));
    let telemetry = registry.snapshot();
    assert_eq!(telemetry.counter("ids.windows"), Some(0));
    assert_eq!(telemetry.gauge("ids.queue_depth"), Some(0));
    let hist = telemetry.histogram("ids.extract_modelled_ns").expect("registered");
    assert_eq!(hist.count, 0);
    assert_eq!(hist.sum, 0);
    let text = telemetry.render_text();
    assert!(text.contains("counter ids.windows 0"), "{text}");
    assert!(text.contains("hist ids.extract_modelled_ns count=0 sum=0"), "{text}");
    assert!(!text.contains("NaN"), "{text}");
    assert!(!telemetry.render_json().contains("NaN"));
}
