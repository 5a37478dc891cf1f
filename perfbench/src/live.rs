//! The live-detection workloads: E1's capture → train → live run with
//! one of Table I's models.
//!
//! Every pass repeats the whole pipeline from a fresh deployment: the
//! training capture, training, the live deployment with its infection
//! lead and epoch gap, and the 70-virtual-second live phase. Untraced
//! passes time the shipped `Testbed::run_live`. Traced passes re-drive
//! the same live phase one window interval at a time through public
//! calls, mirroring `RealTimeIds::tick`, and record a span around each
//! call.

use std::time::Instant;

use capture::record::PacketRecord;
use ddoshield::experiments::{
    detection_scenario, paper_models, training_scenario, ExperimentScale,
};
use ddoshield::Testbed;
use features::extract::{Window, WindowAggregator, TOTAL_FEATURES};
use ids::pipeline::{detection_from_predictions, IdsConfig, ModelKind, TrainedIds};
use ids::realtime::{DetectionLog, OverloadPolicy};
use ml::classifier::RowSpan;
use ml::matrix::FeatureMatrix;
use netsim::rng::SimRng;
use netsim::time::SimDuration;

use crate::cpu::{Stopwatch, Times};
use crate::report::{Metric, Outcome};
use crate::stats::{fnv1a, median, peak_rss_mb, percentile, quartiles, tail_percentile};
use crate::trace::Tracer;

/// A tick slower than the window interval misses the real-time
/// deadline.
const DEADLINE_S: f64 = 1.0;

/// Scenario seeds per untraced run. Traffic volume, and with it every
/// timing, moves by about 5% between scenario seeds, and the CNN's
/// accuracy collapses on about one seed in five; a run reports medians
/// over this many scenarios, so one unlucky seed does not set its
/// result.
const SCENARIOS: u64 = 3;

/// The scenario seeds of run `seed`: disjoint between runs.
fn scenario_seeds(seed: u64) -> Vec<u64> {
    (0..SCENARIOS)
        .map(|j| seed.wrapping_mul(SCENARIOS).wrapping_add(j))
        .collect()
}

/// What one pass through the pipeline produced.
#[derive(Debug)]
struct Iteration {
    /// The scenario seed the pass ran.
    seed: u64,
    setup: Times,
    train: Times,
    live: Times,
    /// Wall time of each IDS tick, in seconds.
    ticks_s: Vec<f64>,
    /// Table II's CPU column (untraced passes only).
    cpu_pct: f64,
    accuracy_pct: f64,
    log: String,
    /// `DetectionLog::liveness_violation` of the pass's log.
    liveness: Option<String>,
    windows: usize,
    degraded: usize,
    records: u64,
    events: u64,
    dropped: u64,
    counts: LayerCounts,
}

impl Iteration {
    fn failed(&self) -> usize {
        self.degraded + self.ticks_s.iter().filter(|&&t| t > DEADLINE_S).count()
    }

    fn summary(&self) -> String {
        format!(
            "scenario_seed={} log_digest={:016x} windows={} records={} events={}",
            self.seed,
            fnv1a(self.log.as_bytes()),
            self.windows,
            self.records,
            self.events
        )
    }

    /// Wall seconds, then CPU seconds in brackets, and the median tick.
    fn timings(&self) -> String {
        let t = |t: Times| format!("{:.3}s({:.3})", t.wall_s, t.cpu_s);
        format!(
            "setup={} train={} live={} tick_p50={:.3}ms",
            t(self.setup),
            t(self.train),
            t(self.live),
            median(&self.ticks_s) * 1e3
        )
    }
}

/// Work counts of the traced live phase, taken at the layer boundaries.
#[derive(Debug, Default, Clone, PartialEq)]
struct LayerCounts {
    train_samples: usize,
    bridge_delivered: u64,
    bridge_dropped: u64,
    flows_folded: u64,
    predict_calls: u64,
    predict_rows: usize,
    predict_work: u64,
    obs_lines: usize,
}

/// The capture-train-live pipeline for one model at quick scale.
struct Pipeline {
    scale: ExperimentScale,
    kind: ModelKind,
    /// `IdsConfig::stats_refresh`: the statistical features are
    /// recomputed every this many windows (1 in the paper's main runs).
    stats_refresh: usize,
}

impl Pipeline {
    fn new(model: &str, stats_refresh: usize) -> Self {
        let scale = ExperimentScale::quick();
        let kind = paper_models(&scale)
            .into_iter()
            .find(|k| k.name() == model)
            .unwrap_or_else(|| panic!("no paper model named {model}"));
        Pipeline {
            scale,
            kind,
            stats_refresh,
        }
    }

    /// Runs one pass of scenario `seed`. `traced` selects the step loop
    /// over `run_live`; set-up and training calls get spans either way.
    fn iterate(&self, seed: u64, tracer: &mut Tracer, id: u64, traced: bool) -> Iteration {
        let scale = &self.scale;
        let capture_secs = SimDuration::from_secs(scale.capture_secs);
        let capture_setup = Stopwatch::start();
        let mut training = tracer.time("Testbed::deploy", id, None, || {
            Testbed::deploy(training_scenario(seed, scale.capture_secs))
        });
        tracer.time("Testbed::run_infection_lead", id, None, || {
            training.run_infection_lead()
        });
        let capture = tracer.time("Testbed::run_capture", id, None, || {
            training.run_capture(capture_secs)
        });
        drop(training);
        let capture_setup = capture_setup.read();

        let ids_config = IdsConfig {
            max_train_samples: scale.max_train_samples,
            stats_refresh: self.stats_refresh,
            ..IdsConfig::default()
        };
        // At the default `ml::par` budget (all cores), as
        // `run_full_evaluation` trains.
        let mut rng = SimRng::seed_from(seed ^ 0x7ea1);
        let train = Stopwatch::start();
        let outcome = tracer.time("TrainedIds::train", id, None, || {
            TrainedIds::train(&capture, &self.kind, ids_config, &mut rng)
        });
        let train = train.read();
        let outcome = outcome.expect("the training capture holds both classes");
        drop(capture);

        // The live run starts once the training epoch has elapsed on the
        // continuing clock, as in `run_full_evaluation`.
        let epoch_offset = scale.capture_secs + 5;
        let live_setup = Stopwatch::start();
        let mut live = tracer.time("Testbed::deploy", id, None, || {
            Testbed::deploy(detection_scenario(seed, scale.live_secs, epoch_offset))
        });
        tracer.time("Testbed::run_infection_lead", id, None, || {
            live.run_infection_lead()
        });
        tracer.time("Testbed::run_capture", id, None, || {
            live.run_capture(SimDuration::from_secs(epoch_offset))
        });
        let setup = capture_setup + live_setup.read();

        let events_before = live.runtime().world().events_processed();
        let records_before = live.sniffer().captured_total();
        let dropped_before = live.sniffer().dropped_overflow();
        let mut pass = if traced {
            step_live_phase(&mut live, &outcome.ids, scale.live_secs, tracer, id)
        } else {
            untraced_live_phase(&mut live, outcome.ids, scale.live_secs)
        };
        pass.seed = seed;
        pass.setup = setup;
        pass.train = train;
        pass.counts.train_samples = outcome.train_samples;
        pass.events = live.runtime().world().events_processed() - events_before;
        pass.records = live.sniffer().captured_total() - records_before;
        pass.dropped = live.sniffer().dropped_overflow() - dropped_before;
        pass
    }
}

/// A live phase's outcome, with set-up, training and counts still unset.
fn from_log(log: &DetectionLog, live: Times, ticks_s: Vec<f64>) -> Iteration {
    Iteration {
        seed: 0,
        setup: Times::default(),
        train: Times::default(),
        live,
        ticks_s,
        cpu_pct: 0.0,
        accuracy_pct: log.mean_accuracy() * 100.0,
        log: log.serialize_compact(),
        liveness: log.liveness_violation(),
        windows: log.len(),
        degraded: log.degraded_count(),
        records: 0,
        events: 0,
        dropped: 0,
        counts: LayerCounts::default(),
    }
}

/// The shipped path: `Testbed::run_live` with the IDS inline on the
/// simulation thread. Tick times come from the IDS container's meter.
fn untraced_live_phase(live: &mut Testbed, ids: TrainedIds, live_secs: u64) -> Iteration {
    let watch = Stopwatch::start();
    let report = live.run_live(SimDuration::from_secs(live_secs), ids);
    let live_times = watch.read();
    // CPU pressure is 1.0 in this scenario, so a sample's busy share of
    // its interval is the tick's own wall time.
    let ticks_s = report
        .meter
        .cpu_samples()
        .iter()
        .map(|s| s.cpu_percent / 100.0 * s.end.saturating_since(s.start).as_secs_f64())
        .collect();
    Iteration {
        cpu_pct: report.sustainability.cpu_percent,
        ..from_log(&report.log, live_times, ticks_s)
    }
}

/// The traced path: the live phase one window interval at a time, the
/// simulation step followed by the IDS tick, with a span per call.
fn step_live_phase(
    live: &mut Testbed,
    ids: &TrainedIds,
    live_secs: u64,
    tracer: &mut Tracer,
    iteration: u64,
) -> Iteration {
    assert!(
        live.config().faults.is_empty(),
        "the step loop assumes no CPU pressure"
    );
    let policy = OverloadPolicy::default();
    let window_secs = ids.window_secs();
    let interval = SimDuration::from_secs(window_secs);
    let bridge_before = live.bridge_stats();
    let log = DetectionLog::new();
    let mut counts = LayerCounts::default();
    let mut aggregator = WindowAggregator::new(window_secs).with_stats_refresh(ids.stats_refresh());
    let mut scratch = FeatureMatrix::new(TOTAL_FEATURES);
    let mut drain_buf: Vec<PacketRecord> = Vec::new();
    let mut completed: Vec<Window> = Vec::new();
    let (mut row_spans, mut predictions, mut span_work) = (Vec::new(), Vec::new(), Vec::new());
    let mut ticks_s = Vec::new();
    ids.check_classify_arity(&scratch)
        .expect("the trained model takes the extracted rows");

    let watch = Stopwatch::start();
    let phase = tracer.open("live_phase", iteration, None);
    live.sniffer().set_capacity(policy.feed_capacity);
    for step in 0..live_secs / window_secs {
        tracer.time("Runtime::run_for", step, Some(phase), || {
            live.runtime_mut().run_for(interval)
        });
        let tick = tracer.open("tick", step, Some(phase));
        let feed = live.sniffer();
        tracer.time("SnifferHandle::drain_into", step, Some(tick), || {
            feed.drain_into(&mut drain_buf)
        });
        tracer.time("WindowAggregator::push", step, Some(tick), || {
            completed.extend(
                drain_buf
                    .iter()
                    .filter_map(|&record| aggregator.push(record)),
            );
        });
        tracer.time("Window::append_features", step, Some(tick), || {
            scratch.clear();
            row_spans.clear();
            for window in &completed {
                let start = scratch.n_rows();
                window.append_features(&mut scratch);
                row_spans.push(RowSpan {
                    start,
                    len: scratch.n_rows() - start,
                });
            }
        });
        tracer.time("Scaler::transform_matrix", step, Some(tick), || {
            ids.scaler().transform_matrix(&mut scratch)
        });
        counts.predict_work += tracer.time(
            "Classifier::predict_batch_spans_into",
            step,
            Some(tick),
            || {
                ids.model().predict_batch_spans_into(
                    scratch.view(),
                    &row_spans,
                    &mut predictions,
                    &mut span_work,
                )
            },
        );
        counts.predict_calls += 1;
        counts.predict_rows += scratch.n_rows();
        tracer.time(
            "detection_from_predictions+DetectionLog::push",
            step,
            Some(tick),
            || {
                for (window, span) in completed.drain(..).zip(&row_spans) {
                    let mut detection =
                        detection_from_predictions(&window, &predictions[span.range()]);
                    detection.degraded =
                        policy.modelled_cost_secs(window.records.len(), 1.0) > window_secs as f64;
                    log.push(detection);
                }
            },
        );
        ticks_s.push(tracer.close(tick));
    }
    counts.flows_folded = aggregator.flows_touched();
    counts.obs_lines = tracer.time("Testbed::telemetry", iteration, Some(phase), || {
        live.telemetry().render_text().lines().count()
    });
    let live_times = Times {
        wall_s: tracer.close(phase),
        cpu_s: watch.read().cpu_s,
    };

    let bridge = live.bridge_stats();
    counts.bridge_delivered = bridge.delivered_packets - bridge_before.delivered_packets;
    let drops = |s: &netsim::link::LinkStats| {
        s.drops_queue_full + s.drops_lost + s.drops_unroutable + s.drops_link_down
    };
    counts.bridge_dropped = drops(&bridge) - drops(&bridge_before);
    Iteration {
        counts,
        ..from_log(&log, live_times, ticks_s)
    }
}

/// Runs a live workload for about `seconds` of measured time and
/// reports its end-to-end (`traced == false`) or per-layer metrics.
/// Untraced passes cycle through the run's scenario seeds; traced passes
/// all break down the first one.
///
/// A first, unmeasured pass of the first scenario through the other path
/// warms the process up and gives the reference detection log: every
/// measured pass of that scenario must reproduce it byte for byte, which
/// also checks that the step loop and `run_live` do the same work.
pub fn run(model: &str, stats_refresh: usize, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let pipeline = Pipeline::new(model, stats_refresh);
    let mut scenarios = scenario_seeds(seed);
    if traced {
        scenarios.truncate(1);
    }
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };

    let mut reference_tracer = Tracer::new();
    let reference = pipeline.iterate(scenarios[0], &mut reference_tracer, 0, !traced);
    let reference_path = if traced { "run_live" } else { "step loop" };
    outcome.notes.push(format!(
        "reference ({reference_path}): {} {}",
        reference.summary(),
        reference.timings()
    ));

    let mut tracer = Tracer::new();
    let mut passes: Vec<Iteration> = Vec::new();
    let measure_started = Instant::now();
    let mut pass_s = Vec::new();
    loop {
        let started = Instant::now();
        let scenario = scenarios[passes.len() % scenarios.len()];
        passes.push(pipeline.iterate(scenario, &mut tracer, passes.len() as u64, traced));
        pass_s.push(started.elapsed().as_secs_f64());
        // Cover every scenario, then stop before a pass would overrun the
        // measuring time.
        if passes.len() >= scenarios.len()
            && measure_started.elapsed().as_secs_f64() + median(&pass_s) > seconds as f64
        {
            break;
        }
    }

    let path = if traced { "step loop" } else { "run_live" };
    for (i, pass) in passes.iter().enumerate() {
        outcome.notes.push(format!(
            "pass {i} ({path}): {} {}",
            pass.summary(),
            pass.timings()
        ));
        let first = passes
            .iter()
            .find(|p| p.seed == pass.seed)
            .expect("the pass itself");
        let reference = (pass.seed == reference.seed).then_some(&reference);
        if let Some(problem) = check_pass(pass, first, reference) {
            outcome.correct = false;
            outcome
                .notes
                .push(format!("CHECK FAILED pass {i}: {problem}"));
        }
    }
    outcome.attempted = passes.iter().map(|p| p.windows as u64).sum();
    outcome.failed = passes.iter().map(|p| p.failed() as u64).sum();
    let dropped: u64 = passes.iter().map(|p| p.dropped).sum();

    let first = &passes[0];
    let n = first.ticks_s.len();
    let tail_p = tail_percentile(n, 10).expect("a live phase has at least 20 ticks");
    outcome.notes.push(format!(
        "{} passes over {} scenario seeds; window samples per pass: {n}; tail = p{tail_p} \
         (at least 10 samples beyond); medians over passes",
        passes.len(),
        scenarios.len()
    ));
    if traced {
        layer_metrics(&mut outcome, &passes, &tracer);
        outcome.spans_tsv = Some(tracer.render_tsv());
        return outcome;
    }
    let live_secs = pipeline.scale.live_secs as f64;
    let per_pass = |name: &'static str, f: &dyn Fn(&Iteration) -> f64| {
        (name, passes.iter().map(f).collect::<Vec<f64>>())
    };
    // Training is timed in CPU seconds of all its threads: a parallel
    // fit starts a thread per split, and on a host whose cores are
    // shared the wall time mostly measures the wait for a second core.
    // The wall time is shown in the table.
    let series = [
        per_pass("setup_s", &|p| p.setup.wall_s),
        per_pass("train_s", &|p| p.train.cpu_s),
        per_pass("sim_speed", &|p| live_secs / p.live.wall_s),
        per_pass("window_p50_ms", &|p| median(&p.ticks_s) * 1e3),
        per_pass("window_tail_ms", &|p| percentile(&p.ticks_s, tail_p) * 1e3),
        per_pass("ids_cpu_pct", &|p| p.cpu_pct),
        per_pass("train_wall_s", &|p| p.train.wall_s),
    ];
    if passes.len() >= 2 {
        for (name, values) in &series {
            let [q1, q2, q3] = quartiles(values);
            outcome.notes.push(format!(
                "  {name:<15} per pass q1 {q1:.4}  median {q2:.4}  q3 {q3:.4}"
            ));
        }
    }
    let med = |i: usize| median(&series[i].1);
    // Deterministic per scenario: one value per scenario seed.
    let accuracy: Vec<f64> = scenarios
        .iter()
        .map(|&s| {
            passes
                .iter()
                .find(|p| p.seed == s)
                .expect("every scenario ran")
                .accuracy_pct
        })
        .collect();
    outcome.metrics = vec![
        Metric::new("setup_s", med(0), "s"),
        Metric::new("train_s", med(1), "cpu_s"),
        Metric::new("sim_speed", med(2), "vsec/s"),
        Metric::new("window_p50_ms", med(3), "ms"),
        Metric::new("window_tail_ms", med(4), "ms"),
        Metric::new("ids_cpu_pct", med(5), "%"),
        Metric::new(
            "peak_rss_mb",
            peak_rss_mb().expect("VmHWM is readable"),
            "MB",
        ),
        Metric::new("accuracy_pct", median(&accuracy), "%"),
    ];
    outcome.shown = vec![
        Metric::new("train_wall_s", med(6), "s"),
        Metric::new(
            "fail_rate",
            outcome.failed as f64 / outcome.attempted as f64,
            "fraction",
        ),
        Metric::new("capture.dropped", dropped as f64, "count"),
    ];
    outcome
}

/// The output checks: a pass repeats the log and counts of the first
/// pass of its scenario, reproduces the reference pass of its scenario
/// if there is one, and keeps the log's liveness invariant.
fn check_pass(
    pass: &Iteration,
    first: &Iteration,
    reference: Option<&Iteration>,
) -> Option<String> {
    if pass.log != first.log {
        return Some("detection log differs from the scenario's first pass".into());
    }
    if (pass.windows, pass.records, pass.events) != (first.windows, first.records, first.events) {
        return Some(format!(
            "counts moved: {} vs {}",
            pass.summary(),
            first.summary()
        ));
    }
    if let Some(reference) = reference {
        if pass.log != reference.log {
            return Some(format!(
                "detection log differs from the reference ({:016x} != {:016x})",
                fnv1a(pass.log.as_bytes()),
                fnv1a(reference.log.as_bytes())
            ));
        }
        if pass.records != reference.records {
            return Some(format!(
                "captured {} records, reference {}",
                pass.records, reference.records
            ));
        }
    }
    if pass.windows == 0 {
        return Some("no window was logged".into());
    }
    pass.liveness.clone()
}

/// Per-layer metrics of the traced passes: busy seconds per layer
/// (mean per pass), work counts, and the remainder no span covers.
fn layer_metrics(outcome: &mut Outcome, passes: &[Iteration], tracer: &Tracer) {
    let per_pass = 1.0 / passes.len() as f64;
    let busy = tracer.busy_by_name();
    let busy = |name: &str| busy.get(name).copied().unwrap_or(0.0) * per_pass;
    let first = &passes[0];
    let counts = &first.counts;
    if let Some(i) = passes.iter().position(|p| p.counts != *counts) {
        outcome.correct = false;
        outcome
            .notes
            .push(format!("CHECK FAILED pass {i}: layer counts moved"));
    }

    let total = busy("live_phase");
    let layers = [
        ("netsim.busy_s", busy("Runtime::run_for")),
        ("capture.busy_s", busy("SnifferHandle::drain_into")),
        ("features.push_s", busy("WindowAggregator::push")),
        ("features.append_s", busy("Window::append_features")),
        ("features.scale_s", busy("Scaler::transform_matrix")),
        ("ml.predict_s", busy("Classifier::predict_batch_spans_into")),
        (
            "ids.log_s",
            busy("detection_from_predictions+DetectionLog::push"),
        ),
        ("obs.export_s", busy("Testbed::telemetry")),
    ];
    let attributed: f64 = layers.iter().map(|(_, s)| s).sum();
    let unattributed = total - attributed;
    let spans_per_pass = tracer.spans().len() as f64 * per_pass;
    let overhead = spans_per_pass * Tracer::span_cost_secs() / total;
    let share = |s: f64| format!("{:.1}%", 100.0 * s / total);
    outcome.notes.push(format!(
        "traced live phase: {total:.4} s per pass; layer shares:"
    ));
    for (name, secs) in layers
        .iter()
        .chain([("unattributed_s", unattributed)].iter())
    {
        outcome
            .notes
            .push(format!("  {name:<20} {secs:>10.6} s  {}", share(*secs)));
    }
    let [netsim, capture, push, append, scale, predict, log, export] = layers.map(|(_, s)| s);
    if unattributed > 0.10 * total {
        // Name the span whose self time holds the gap.
        let ticks = busy("tick");
        let in_ticks = ticks - (capture + push + append + scale + predict + log);
        let gap = if in_ticks > total - (netsim + ticks + export) {
            "tick (between its calls)"
        } else {
            "live_phase (between run_for, tick and telemetry)"
        };
        outcome.notes.push(format!(
            "NOTE unattributed time is {} of the live phase, mostly in the self time of {gap}",
            share(unattributed)
        ));
    }
    let (records, events, windows) = (
        first.records as f64,
        first.events as f64,
        first.windows as f64,
    );
    let rows = counts.predict_rows as f64;
    let secs = |name, value| Metric::new(name, value, "s");
    let count = |name, value: f64| Metric::new(name, value, "count");
    let nanos = |name, value: f64, per: f64| Metric::new(name, value * 1e9 / per, "ns");
    let metrics = vec![
        secs("core.deploy_s", busy("Testbed::deploy")),
        secs("netsim.busy_s", netsim),
        secs(
            "netsim.setup_busy_s",
            busy("Testbed::run_infection_lead") + busy("Testbed::run_capture"),
        ),
        count("netsim.events", events),
        nanos("netsim.ns_per_event", netsim, events),
        Metric::new(
            "netsim.bridge_delivered",
            counts.bridge_delivered as f64,
            "count",
        ),
        count("netsim.bridge_dropped", counts.bridge_dropped as f64),
        secs("capture.busy_s", capture),
        count("capture.records", records),
        secs("features.push_s", push),
        secs("features.append_s", append),
        secs("features.scale_s", scale),
        nanos("features.ns_per_record", push + append + scale, records),
        count("features.windows", windows),
        count("features.rows", rows),
        count("features.flows_folded", counts.flows_folded as f64),
        secs("ml.predict_s", predict),
        count("ml.predict_calls", counts.predict_calls as f64),
        count("ml.predict_rows", rows),
        nanos("ml.predict_ns_per_row", predict, rows),
        count("ml.predict_work", counts.predict_work as f64),
        secs("ml.train_s", busy("TrainedIds::train")),
        count("ml.train_samples", counts.train_samples as f64),
        secs("ids.log_s", log),
        count("ids.windows", windows),
        secs("obs.export_s", export),
        count("obs.lines", counts.obs_lines as f64),
        secs("trace.live_s", total),
        secs("unattributed_s", unattributed),
        Metric::new("trace_overhead_frac", overhead, "fraction"),
        Metric::new("cores", crate::cores() as f64, "count"),
    ];
    outcome.metrics = metrics;
    let degraded: usize = passes.iter().map(|p| p.degraded).sum();
    outcome.shown = vec![
        Metric::new(
            "capture.dropped",
            passes.iter().map(|p| p.dropped).sum::<u64>() as f64,
            "count",
        ),
        Metric::new("ids.degraded", degraded as f64, "count"),
    ];
}
