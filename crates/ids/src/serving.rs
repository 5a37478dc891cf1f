//! The long-lived IDS serving layer: bounded ingestion, model
//! hot-swap, shadow evaluation, and multi-link tenancy.
//!
//! [`IdsService`] is the one detection loop: every window interval it
//! drains each tenant's sniffer feed, aggregates, extracts, classifies
//! every completed window in one coalesced predict and logs the
//! verdicts. The paper's Real-Time IDS Unit is its single-tenant preset
//! ([`TenantConfig::paper`]); the production-style service adds:
//!
//! * **Bounded ingestion.** Each tenant owns an [`IngestQueue`] between
//!   its sniffer drain and feature extraction, with an explicit
//!   [`BackpressurePolicy`] — block upstream (records wait in the
//!   sniffer's own bounded buffer), drop oldest, or degrade to sampled
//!   admission. Every shed record and window is counted, never silently
//!   lost: per tenant, `windows_ingested == windows_classified +
//!   windows_degraded + windows_shed` holds exactly after
//!   [`ServingHandle::finalize`].
//! * **Model hot-swap.** The champion model lives behind an
//!   [`ml::handle::SwapHandle`]; retrains are staged deterministically
//!   on the sim clock and swapped in at a tick (= window) boundary, so
//!   every window is classified by exactly one model generation — the
//!   generation is stamped into the [`DetectionLog`].
//! * **Champion/challenger shadow evaluation.** An optional challenger
//!   scores the same windows without emitting alerts; verdict and
//!   packet-level disagreements export through `obs`.
//! * **Multi-link tenancy.** One service instance monitors several
//!   links; budgets (per-tick processing budget, shed threshold) are per
//!   tenant, so one tenant's overload degrades only its own windows.
//!
//! Determinism contract: all control flow runs on modelled cost, the
//! sim clock, and the decision points of a [`netsim::buggify::Buggify`]
//! fork ([`ServingConfig::buggify`]). Wall-clock time feeds the
//! sustainability meter only. Same seed ⇒ byte-identical detection logs
//! and telemetry, regardless of `ml::par` thread counts.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::collections::{vec_deque, VecDeque};
use std::rc::Rc;
use std::time::Instant;

use capture::dataset::Dataset;
use capture::record::PacketRecord;
use capture::sniffer::SnifferHandle;
use containers::meter::ResourceMeter;
use features::extract::{WindowAggregator, Window, TOTAL_FEATURES};
use ml::handle::SwapHandle;
use ml::matrix::FeatureMatrix;
use netsim::buggify::{Buggify, DecisionPoint};
use netsim::rng::SimRng;
use netsim::time::{SimDuration, SimTime};
use netsim::world::{App, Ctx};
use obs::{pow2_bounds, Counter, Gauge, Histogram, Scope};

use ml::classifier::RowSpan;

use crate::pipeline::{detection_from_predictions, ModelKind, TrainedIds, WindowDetection};
use crate::realtime::{DetectionLog, OverloadPolicy};

/// What a tenant does when its ingestion queue is full (or chaos
/// pretends it is).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Leave records upstream in the sniffer's bounded buffer; drain
    /// only what the queue has room for. Upstream overflow is the
    /// sniffer's tail-drop accounting (`feed_dropped`).
    BlockUpstream,
    /// Admit the new record and shed the oldest queued one. Shed
    /// records are counted and their windows accounted (degraded if the
    /// window still classifies, shed if it never does).
    DropOldest,
    /// Once the queue runs past half capacity, admit only every `keep`
    /// -th record until it drains below the high-water mark. Sampled
    /// windows classify on the admitted subset and are marked degraded.
    DegradeSampled {
        /// Admit every `keep`-th record while sampling (≥ 2).
        keep: usize,
    },
}

impl BackpressurePolicy {
    /// Stable name for telemetry and display.
    pub fn name(self) -> &'static str {
        match self {
            BackpressurePolicy::BlockUpstream => "block_upstream",
            BackpressurePolicy::DropOldest => "drop_oldest",
            BackpressurePolicy::DegradeSampled { .. } => "degrade_sampled",
        }
    }
}

/// Per-tenant compute budget. A window's modelled cost comes from the
/// one cost model, [`OverloadPolicy`]; the budget sets where that cost
/// lands on the degradation ladder: past one window interval the window
/// is classified late (degraded), past `shed_factor ×` the interval it
/// is shed whole (accounted, never classified).
#[derive(Debug, Clone, Copy)]
pub struct TenantBudget {
    /// Records the tenant may move from its queue into feature
    /// extraction per service tick. The queue absorbs the rest — this
    /// is what makes the bound meaningful under flood.
    pub drain_records_per_tick: usize,
    /// Multiple of the window interval beyond which a window is shed
    /// whole rather than classified late.
    pub shed_factor: f64,
}

impl Default for TenantBudget {
    fn default() -> Self {
        TenantBudget { drain_records_per_tick: 4_096, shed_factor: 8.0 }
    }
}

/// Static configuration of one tenant (one monitored link). Every
/// tenant's sniffer feed is bounded on start at
/// [`OverloadPolicy::feed_capacity`].
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Stable tenant name (telemetry scope suffix, report key).
    pub name: String,
    /// Ingestion queue bound, in records.
    pub queue_capacity: usize,
    /// What happens when the queue is full.
    pub policy: BackpressurePolicy,
    /// The tenant's compute budget.
    pub budget: TenantBudget,
}

impl TenantConfig {
    /// A tenant with the given name and defaults everywhere else:
    /// 8192-record queue, drop-oldest, default budget.
    pub fn new(name: impl Into<String>) -> Self {
        TenantConfig {
            name: name.into(),
            queue_capacity: 8_192,
            policy: BackpressurePolicy::DropOldest,
            budget: TenantBudget::default(),
        }
    }

    /// The paper's Real-Time IDS Unit as a tenant: every tick drains
    /// and classifies everything its feed holds, and no window is ever
    /// shed. The queue is as deep as the bounded feed and blocks
    /// upstream, and the drain budget is unlimited, so the queue is
    /// empty at every tick start; a window whose modelled cost exceeds
    /// one interval is logged degraded.
    pub fn paper(name: impl Into<String>) -> Self {
        TenantConfig {
            name: name.into(),
            queue_capacity: OverloadPolicy::default().feed_capacity.unwrap_or(usize::MAX),
            policy: BackpressurePolicy::BlockUpstream,
            budget: TenantBudget { drain_records_per_tick: usize::MAX, shed_factor: f64::INFINITY },
        }
    }
}

/// What [`IngestQueue::offer`] did with a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Queued normally.
    Admitted,
    /// Queued, but the oldest queued record was shed to make room
    /// (drop-oldest at capacity); carries the shed record's window
    /// index so its window can be marked degraded.
    AdmittedSheddingOldest(u64),
    /// Deliberately skipped by sampled admission.
    SampledOut,
    /// Rejected outright (block-upstream offered past its room).
    Shed,
}

/// The bounded ingestion queue between sniffer drain and feature
/// extraction. Pure data structure — deterministic, allocation-stable,
/// fully accounted: `offered == admitted + shed + sampled_out`, and
/// `len() ≤ capacity` always.
#[derive(Debug)]
pub struct IngestQueue {
    queue: VecDeque<PacketRecord>,
    capacity: usize,
    policy: BackpressurePolicy,
    window_secs: u64,
    /// Forced-full latch for the current tick (chaos or test-injected).
    forced_full: bool,
    /// Offered-record counter used for sampled admission.
    sample_phase: usize,
    /// Whether degrade-to-sampled is currently shedding.
    sampling_active: bool,
    // Accounting. Every offered record reaches exactly one terminal
    // disposition — popped into extraction, shed, or sampled out — or
    // is still queued: `offered == popped + shed + sampled_out + len`.
    offered: u64,
    admitted: u64,
    popped: u64,
    shed: u64,
    sampled_out: u64,
    high_water: usize,
    /// Distinct window indices seen among offered records.
    windows_ingested: u64,
    last_offered_index: Option<u64>,
    /// Absolute end of the last offered record's window, in
    /// nanoseconds: offers inside the window compare against this
    /// cached boundary instead of dividing every timestamp down to a
    /// window index.
    offered_end_nanos: u64,
}

impl IngestQueue {
    /// Creates an empty queue with the given bound and policy.
    /// `window_secs` maps record timestamps to window indices for the
    /// shed-window accounting.
    pub fn new(capacity: usize, policy: BackpressurePolicy, window_secs: u64) -> Self {
        IngestQueue {
            queue: VecDeque::new(),
            capacity: capacity.max(1),
            policy,
            window_secs: window_secs.max(1),
            forced_full: false,
            sample_phase: 0,
            sampling_active: false,
            offered: 0,
            admitted: 0,
            popped: 0,
            shed: 0,
            sampled_out: 0,
            high_water: 0,
            windows_ingested: 0,
            last_offered_index: None,
            offered_end_nanos: 0,
        }
    }

    /// Records currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The queue bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many records the upstream drain may offer right now without
    /// forcing the policy to act. Only [`BackpressurePolicy::BlockUpstream`]
    /// limits the drain; the other policies accept everything and act
    /// at admission.
    pub fn drain_room(&self) -> usize {
        match self.policy {
            BackpressurePolicy::BlockUpstream => {
                if self.forced_full {
                    0
                } else {
                    self.capacity - self.queue.len()
                }
            }
            _ => usize::MAX,
        }
    }

    /// Latches the queue as "momentarily full" for the current tick
    /// (the `serve.ingest_queue_full` decision point): block-upstream
    /// drains nothing, drop-oldest sheds for every admission, sampled
    /// admission engages regardless of occupancy.
    pub fn force_full(&mut self) {
        self.forced_full = true;
    }

    /// Clears the forced-full latch (start of every tick).
    pub fn clear_forced_full(&mut self) {
        self.forced_full = false;
    }

    /// Offers one record; applies the backpressure policy. The caller
    /// gets back what happened for window-level accounting.
    pub fn offer(&mut self, record: PacketRecord) -> Admission {
        self.offered += 1;
        if self.last_offered_index.is_none() || record.ts.as_nanos() >= self.offered_end_nanos {
            // Window rollover (or first offer): the only division on
            // the offer path — in-window records take the comparison
            // above. Offers arrive in non-decreasing time order.
            let index = record.window_index(self.window_secs);
            self.last_offered_index = Some(index);
            self.offered_end_nanos =
                (index + 1).saturating_mul(self.window_secs.saturating_mul(1_000_000_000));
            self.windows_ingested += 1;
        }
        let effectively_full =
            self.forced_full || self.queue.len() >= self.capacity;
        let outcome = match self.policy {
            BackpressurePolicy::BlockUpstream => {
                if effectively_full {
                    // Only reachable when the caller ignored drain_room
                    // (or chaos latched mid-drain): account as shed
                    // rather than exceeding the bound.
                    self.shed += 1;
                    return Admission::Shed;
                }
                self.queue.push_back(record);
                self.admitted += 1;
                Admission::Admitted
            }
            BackpressurePolicy::DropOldest => {
                if effectively_full {
                    if let Some(oldest) = self.queue.pop_front() {
                        self.shed += 1;
                        self.queue.push_back(record);
                        self.admitted += 1;
                        return Admission::AdmittedSheddingOldest(
                            oldest.window_index(self.window_secs),
                        );
                    }
                    // Capacity 0 edge: nothing to evict, shed the offer.
                    self.shed += 1;
                    return Admission::Shed;
                }
                self.queue.push_back(record);
                self.admitted += 1;
                Admission::Admitted
            }
            BackpressurePolicy::DegradeSampled { keep } => {
                let high_water = self.capacity / 2;
                if self.sampling_active && self.queue.len() * 4 <= self.capacity {
                    self.sampling_active = false; // recovered: low-water at 1/4
                }
                if effectively_full || self.queue.len() >= high_water {
                    self.sampling_active = true;
                }
                if self.sampling_active {
                    self.sample_phase += 1;
                    let keeper = self.sample_phase.is_multiple_of(keep.max(2));
                    if !keeper || self.queue.len() >= self.capacity {
                        self.sampled_out += 1;
                        return Admission::SampledOut;
                    }
                }
                self.queue.push_back(record);
                self.admitted += 1;
                Admission::Admitted
            }
        };
        self.high_water = self.high_water.max(self.queue.len());
        outcome
    }

    /// Pops the oldest admitted record for feature extraction.
    pub fn pop(&mut self) -> Option<PacketRecord> {
        self.pop_up_to(1).next()
    }

    /// Pops up to `max` of the oldest admitted records for feature
    /// extraction, oldest first, in one batch.
    pub fn pop_up_to(&mut self, max: usize) -> vec_deque::Drain<'_, PacketRecord> {
        let n = self.queue.len().min(max);
        self.popped += n as u64;
        self.queue.drain(..n)
    }

    /// `(offered, admitted, popped, shed, sampled_out)` record
    /// accounting.
    pub fn record_counts(&self) -> (u64, u64, u64, u64, u64) {
        (self.offered, self.admitted, self.popped, self.shed, self.sampled_out)
    }

    /// Distinct window indices seen among offered records.
    pub fn windows_ingested(&self) -> u64 {
        self.windows_ingested
    }

    /// Deepest the queue has ever been.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Checks the queue's conservation invariant: every offered record
    /// reached exactly one terminal disposition (popped, shed, sampled
    /// out) or is still queued, and the bound was never exceeded.
    /// Returns the first violation, or `None`.
    pub fn conservation_violation(&self) -> Option<String> {
        let accounted = self.popped + self.shed + self.sampled_out + self.queue.len() as u64;
        if self.offered != accounted {
            return Some(format!(
                "queue records unaccounted: offered {} != popped {} + shed {} + sampled {} + queued {}",
                self.offered,
                self.popped,
                self.shed,
                self.sampled_out,
                self.queue.len()
            ));
        }
        if self.high_water > self.capacity {
            return Some(format!(
                "queue bound exceeded: high water {} > capacity {}",
                self.high_water, self.capacity
            ));
        }
        None
    }
}

/// Deterministic background-retrain schedule. Training itself runs
/// synchronously at stage time (the sim has no real background
/// threads), but the *swap* lands `delay_windows` ticks later — the
/// modelled training latency — and only ever at a tick boundary.
#[derive(Debug, Clone)]
pub struct RetrainPolicy {
    /// Stage a retrain every this many service ticks (≥ 1).
    pub every_windows: u64,
    /// Ticks between staging and the atomic swap (modelled training
    /// latency; the `serve.model_swap_delay` decision point stretches it).
    pub delay_windows: u64,
    /// Model family to retrain.
    pub kind: ModelKind,
    /// Most recent admitted records (with ground-truth labels) kept as
    /// the retrain corpus.
    pub replay_capacity: usize,
    /// Salt folded into the per-retrain RNG seed.
    pub rng_salt: u64,
}

/// Frozen snapshot of one tenant's accounting, embedded in reports:
/// the values of the tenant's telemetry counters of the same names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantCounters {
    /// Distinct window indices offered at ingestion.
    pub windows_ingested: u64,
    /// Windows classified healthy.
    pub windows_classified: u64,
    /// Windows classified but marked degraded (overload, shed-affected,
    /// sampled, or classify error).
    pub windows_degraded: u64,
    /// Windows shed whole — never classified.
    pub windows_shed: u64,
    /// Records offered to the ingest queue.
    pub records_offered: u64,
    /// Records admitted.
    pub records_admitted: u64,
    /// Records popped from the queue into feature extraction.
    pub records_processed: u64,
    /// Records shed (drop-oldest or forced-full).
    pub records_shed: u64,
    /// Records deliberately skipped by sampled admission.
    pub records_sampled_out: u64,
    /// Classify failures converted to degraded windows.
    pub classify_errors: u64,
    /// Challenger windows scored in shadow.
    pub challenger_windows: u64,
    /// Windows where champion and challenger majority verdicts differ.
    pub verdict_disagreements: u64,
    /// Packet-level prediction disagreements between the two models.
    pub packet_disagreements: u64,
}

impl TenantCounters {
    /// Checks the serving conservation invariant: every ingested window
    /// is exactly one of classified / degraded / shed, and every record
    /// is accounted. Valid after [`ServingHandle::finalize`].
    pub fn conservation_violation(&self) -> Option<String> {
        let out = self.windows_classified + self.windows_degraded + self.windows_shed;
        if self.windows_ingested != out {
            return Some(format!(
                "windows unaccounted: ingested {} != classified {} + degraded {} + shed {}",
                self.windows_ingested,
                self.windows_classified,
                self.windows_degraded,
                self.windows_shed
            ));
        }
        if self.records_offered
            != self.records_processed + self.records_shed + self.records_sampled_out
        {
            return Some(format!(
                "records unaccounted: offered {} != processed {} + shed {} + sampled {}",
                self.records_offered,
                self.records_processed,
                self.records_shed,
                self.records_sampled_out
            ));
        }
        None
    }
}

/// Per-tenant deterministic telemetry instruments, the only store of
/// the tenant's counts ([`TenantCounters`] reads them back). Every
/// figure is deterministic: the per-window stage timings come from the
/// modelled cost under injected pressure (the same numbers that decide
/// degradation), and the predict-path profile counts model work units —
/// wall-clock time never enters, so the export stays byte-identical
/// across same-seed runs.
#[derive(Debug)]
struct TenantObs {
    scope: Scope,
    records_offered: Counter,
    records_admitted: Counter,
    records_processed: Counter,
    records_shed: Counter,
    records_sampled_out: Counter,
    windows_ingested: Counter,
    windows_classified: Counter,
    windows_degraded: Counter,
    windows_shed: Counter,
    classify_errors: Counter,
    /// Windows whose modelled cost exceeded the window interval.
    budget_exceeded: Counter,
    packets_classified: Counter,
    extract_ns: Histogram,
    classify_ns: Histogram,
    predict_work: Histogram,
    queue_depth: Gauge,
    queue_high_water: Gauge,
    challenger_windows: Counter,
    verdict_disagreements: Counter,
    packet_disagreements: Counter,
}

impl TenantObs {
    fn new(scope: Scope) -> Self {
        let challenger = scope.child("challenger");
        // Modelled stage costs: ~1 µs up to ~17 s of modelled time.
        let ns_bounds = pow2_bounds(10, 34);
        // Predict work units (nodes / MACs / distance ops) per window.
        let work_bounds = pow2_bounds(4, 30);
        TenantObs {
            records_offered: scope.counter("records_offered"),
            records_admitted: scope.counter("records_admitted"),
            records_processed: scope.counter("records_processed"),
            records_shed: scope.counter("records_shed"),
            records_sampled_out: scope.counter("records_sampled_out"),
            windows_ingested: scope.counter("windows_ingested"),
            windows_classified: scope.counter("windows_classified"),
            windows_degraded: scope.counter("windows_degraded"),
            windows_shed: scope.counter("windows_shed"),
            classify_errors: scope.counter("classify_errors"),
            budget_exceeded: scope.counter("budget_exceeded"),
            packets_classified: scope.counter("packets_classified"),
            extract_ns: scope.histogram("extract_modelled_ns", &ns_bounds),
            classify_ns: scope.histogram("classify_modelled_ns", &ns_bounds),
            predict_work: scope.histogram("predict_work_units", &work_bounds),
            queue_depth: scope.gauge("queue_depth"),
            queue_high_water: scope.gauge("queue_high_water"),
            challenger_windows: challenger.counter("windows"),
            verdict_disagreements: challenger.counter("verdict_disagreements"),
            packet_disagreements: challenger.counter("packet_disagreements"),
            scope,
        }
    }

    /// The counters' current values. The queue-owned record and
    /// window-ingestion counts are as of the last
    /// [`ServingCore::sync_counters`].
    fn counters(&self) -> TenantCounters {
        TenantCounters {
            windows_ingested: self.windows_ingested.value(),
            windows_classified: self.windows_classified.value(),
            windows_degraded: self.windows_degraded.value(),
            windows_shed: self.windows_shed.value(),
            records_offered: self.records_offered.value(),
            records_admitted: self.records_admitted.value(),
            records_processed: self.records_processed.value(),
            records_shed: self.records_shed.value(),
            records_sampled_out: self.records_sampled_out.value(),
            classify_errors: self.classify_errors.value(),
            challenger_windows: self.challenger_windows.value(),
            verdict_disagreements: self.verdict_disagreements.value(),
            packet_disagreements: self.packet_disagreements.value(),
        }
    }
}

/// One tenant's live state.
struct TenantState {
    config: TenantConfig,
    feed: SnifferHandle,
    queue: IngestQueue,
    aggregator: WindowAggregator,
    log: DetectionLog,
    /// Window indices with at least one shed or sampled-out record that
    /// have not yet reached a terminal verdict. Classified → degraded;
    /// never classified → shed (settled at finalize).
    affected_pending: BTreeSet<u64>,
    obs: TenantObs,
}

/// A model staged for the next boundary swap.
struct StagedSwap {
    ids: TrainedIds,
    ready_tick: u64,
}

/// Service-level deterministic instruments, the only store of the
/// swap and retrain counts.
#[derive(Debug)]
struct ServiceObs {
    scope: Scope,
    swaps: Counter,
    retrains: Counter,
    retrains_failed: Counter,
    generation: Gauge,
    /// Distinct flows folded at window close across every tenant's
    /// incremental extractor (`features.incremental.flows_touched`).
    flows_touched: Counter,
}

impl ServiceObs {
    fn new(scope: Scope) -> Self {
        let incremental = scope.registry().scope("features.incremental");
        ServiceObs {
            swaps: scope.counter("swaps"),
            retrains: scope.counter("retrains"),
            retrains_failed: scope.counter("retrains_failed"),
            generation: scope.gauge("generation"),
            flows_touched: incremental.counter("flows_touched"),
            scope,
        }
    }
}

/// Wall-clock telemetry for the predict hot path, kept in a registry
/// *separate* from the deterministic one: the measured latency is
/// host-dependent by nature, so it must never share an export with the
/// byte-identity-pinned metrics. One histogram, named after the
/// champion model the service started with
/// (`<Model>.predict_wall_ns`), observes the tick's one coalesced
/// predict.
#[derive(Debug)]
struct WallclockObs {
    predict_wall_ns: Histogram,
}

impl WallclockObs {
    fn new(scope: &Scope, model: &str) -> Self {
        // Measured predict latency: ~0.25 µs up to ~17 s.
        let ns_bounds = pow2_bounds(8, 34);
        WallclockObs {
            predict_wall_ns: scope.child(model).histogram("predict_wall_ns", &ns_bounds),
        }
    }
}

/// Configuration of an [`IdsService`] (everything but the feeds).
pub struct ServingConfig {
    /// The initial champion.
    pub champion: TrainedIds,
    /// Optional shadow challenger.
    pub challenger: Option<TrainedIds>,
    /// Promote the challenger to champion at this service tick
    /// (staged, then swapped after the modelled delay).
    pub promote_challenger_at_tick: Option<u64>,
    /// Ticks between staging a promotion and its swap.
    pub promote_delay_ticks: u64,
    /// Optional deterministic background retraining.
    pub retrain: Option<RetrainPolicy>,
    /// The `serve.*` and `features.state_cull` decision points, usually
    /// a [`netsim::world::World::buggify_fork`]; disabled by default.
    pub buggify: Buggify,
}

impl ServingConfig {
    /// A service with just a champion: no challenger, no promotion, no
    /// retraining, decision points disarmed.
    pub fn new(champion: TrainedIds) -> Self {
        ServingConfig {
            champion,
            challenger: None,
            promote_challenger_at_tick: None,
            promote_delay_ticks: 1,
            retrain: None,
            buggify: Buggify::disabled(),
        }
    }
}

/// Per-window bookkeeping of one coalesced classify batch: which
/// tenant's window each [`RowSpan`] belongs to and the per-tenant
/// degradation decisions made before the batch predict.
struct BatchMeta {
    /// Index into the tick's shared `completed` window list.
    window: usize,
    /// Owning tenant (service order).
    tenant: usize,
    /// The window had shed or sampled-out records pending when its
    /// verdict was decided.
    affected: bool,
    /// Modelled cost exceeded the window interval (late ⇒ degraded).
    late: bool,
}

/// Shared core state: the [`IdsService`] app ticks it on the sim
/// clock; the [`ServingHandle`] reads (and finalizes) it afterwards.
struct ServingCore {
    tenants: Vec<TenantState>,
    champion: SwapHandle<TrainedIds>,
    challenger: Option<SwapHandle<TrainedIds>>,
    promote_challenger_at_tick: Option<u64>,
    promote_delay_ticks: u64,
    retrain: Option<RetrainPolicy>,
    replay: VecDeque<PacketRecord>,
    staged: Option<StagedSwap>,
    buggify: Buggify,
    tick_index: u64,
    window_secs: u64,
    last_pressure: f64,
    last_now: SimTime,
    finalized: bool,
    /// First flow-state-conservation violation observed after a forced
    /// cull (`features.state_cull` chaos), or `None`.
    flow_state_violation: Option<String>,
    obs: ServiceObs,
    wall_obs: Option<WallclockObs>,
    // Scratch reused across tenants and windows.
    scratch: FeatureMatrix,
    predictions: Vec<usize>,
    challenger_scratch: FeatureMatrix,
    challenger_predictions: Vec<usize>,
    drain_buf: Vec<PacketRecord>,
    /// Every tenant's windows completed this tick, tenant order.
    completed: Vec<Window>,
    /// Owning tenant of each `completed` window (parallel, sorted).
    completed_by: Vec<usize>,
    /// Row spans of the non-shed windows inside the coalesced batch.
    spans: Vec<RowSpan>,
    /// Per-span deterministic work units from the batch predict.
    span_work: Vec<u64>,
    challenger_span_work: Vec<u64>,
    batch_meta: Vec<BatchMeta>,
}

impl ServingCore {
    /// Stages `ids` for a boundary swap `delay` ticks from now; the
    /// `serve.model_swap_delay` decision point may stretch the delay.
    fn stage(&mut self, ids: TrainedIds, delay: u64) {
        let mut delay = delay;
        let swap_delay = DecisionPoint::ServeModelSwapDelay;
        if self.buggify.fire(swap_delay) {
            delay += self.buggify.magnitude_int(swap_delay, 1, 4);
        }
        self.staged = Some(StagedSwap { ids, ready_tick: self.tick_index + delay });
    }

    /// Applies a due staged swap. Called at tick start, before any
    /// window of the tick classifies — the window-boundary guarantee.
    fn apply_due_swap(&mut self, now: SimTime) {
        let due = matches!(&self.staged, Some(s) if s.ready_tick <= self.tick_index);
        if !due {
            return;
        }
        let staged = self.staged.take().expect("checked above");
        let generation = self.champion.swap(staged.ids);
        self.obs.swaps.inc();
        self.obs.generation.set(generation as i64);
        self.obs.scope.event(
            now.as_nanos(),
            "model_swap",
            format!("generation={generation} tick={}", self.tick_index),
        );
    }

    /// Stages a deterministic retrain from the replay buffer.
    fn maybe_retrain(&mut self, now: SimTime) {
        let Some(policy) = self.retrain.clone() else { return };
        if self.tick_index == 0
            || !self.tick_index.is_multiple_of(policy.every_windows.max(1))
            || self.staged.is_some()
        {
            return;
        }
        let dataset = Dataset::from_records(self.replay.iter().copied().collect::<Vec<_>>());
        let retrain_index = self.obs.retrains.value() + self.obs.retrains_failed.value();
        let mut rng = SimRng::seed_from(
            policy.rng_salt ^ (retrain_index.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        );
        let champion = self.champion.load();
        let config = crate::pipeline::IdsConfig {
            window_secs: self.window_secs,
            scaling: champion.value.scaler().method(),
            max_train_samples: policy.replay_capacity,
            holdout_fraction: 0.0,
            stats_refresh: champion.value.stats_refresh(),
        };
        match TrainedIds::train(&dataset, &policy.kind, config, &mut rng) {
            Ok(outcome) => {
                self.obs.retrains.inc();
                self.obs.scope.event(
                    now.as_nanos(),
                    "retrain_staged",
                    format!("tick={} samples={}", self.tick_index, outcome.train_samples),
                );
                self.stage(outcome.ids, policy.delay_windows);
            }
            Err(e) => {
                // Recoverable: a single-class replay buffer (e.g. pure
                // flood) cannot train — keep serving the old champion.
                self.obs.retrains_failed.inc();
                self.obs.scope.event(
                    now.as_nanos(),
                    "retrain_failed",
                    format!("tick={} error={e}", self.tick_index),
                );
            }
        }
    }

    /// One service tick: swap if due, then a two-phase pass — every
    /// tenant ingests (fixed order: drain → admit → budgeted extract),
    /// then all tenants' ready windows classify in **one** coalesced
    /// batch (see [`ServingCore::classify_batch`]).
    fn tick(&mut self, now: SimTime, pressure: f64) -> u64 {
        self.tick_index += 1;
        self.last_pressure = pressure;
        self.last_now = now;
        if let Some(tick) = self.promote_challenger_at_tick {
            if self.tick_index == tick {
                if let Some(challenger) = &self.challenger {
                    let promoted = challenger.load().value.clone();
                    self.obs.scope.event(
                        now.as_nanos(),
                        "challenger_promotion_staged",
                        format!("tick={tick}"),
                    );
                    self.stage(promoted, self.promote_delay_ticks);
                }
            }
        }
        self.maybe_retrain(now);
        self.apply_due_swap(now);

        self.completed.clear();
        self.completed_by.clear();
        for t in 0..self.tenants.len() {
            self.ingest_tenant(t, now);
        }
        let classified_packets = self.classify_batch(now, pressure);

        for tenant in &self.tenants {
            tenant.obs.queue_depth.set(tenant.queue.len() as i64);
            tenant.obs.queue_high_water.set_max(tenant.queue.high_water() as i64);
        }
        classified_packets
    }

    /// Runs one tenant's ingest phase: drain → admit → budgeted
    /// extract. Completed windows land in the shared `completed` list
    /// (tagged with the tenant in `completed_by`) for the tick's one
    /// coalesced classify pass.
    fn ingest_tenant(&mut self, t: usize, now: SimTime) {
        // Per-tick decision points: maybe latch the queue as full, maybe
        // force an early stale-key cull on the feature state.
        let forced = self.buggify.fire(DecisionPoint::ServeIngestQueueFull);
        let cull = self.buggify.fire(DecisionPoint::FeaturesStateCull);
        let tenant = &mut self.tenants[t];
        tenant.queue.clear_forced_full();
        if forced {
            tenant.queue.force_full();
            tenant.obs.scope.event(
                now.as_nanos(),
                "queue_forced_full",
                format!("tick={}", self.tick_index),
            );
        }

        // Ingest: drain what the policy allows, offer record by record.
        let room = tenant.queue.drain_room();
        tenant.feed.drain_up_to(room, &mut self.drain_buf);
        for &record in &self.drain_buf {
            match tenant.queue.offer(record) {
                Admission::Admitted => {}
                Admission::AdmittedSheddingOldest(shed_index) => {
                    tenant.affected_pending.insert(shed_index);
                }
                Admission::SampledOut | Admission::Shed => {
                    tenant.affected_pending.insert(record.window_index(self.window_secs));
                }
            }
        }
        // The primary tenant feeds the retrain replay buffer.
        if t == 0 {
            if let Some(policy) = &self.retrain {
                for &record in &self.drain_buf {
                    if self.replay.len() >= policy.replay_capacity {
                        self.replay.pop_front();
                    }
                    self.replay.push_back(record);
                }
            }
        }

        // Budgeted extraction: move at most the tenant's per-tick record
        // budget into the aggregator; the queue holds the rest.
        let tenant = &mut self.tenants[t];
        for record in tenant.queue.pop_up_to(tenant.config.budget.drain_records_per_tick) {
            if let Some(window) = tenant.aggregator.push(record) {
                self.completed.push(window);
                self.completed_by.push(t);
            }
        }

        // The `features.state_cull` decision point: force an early cull at
        // this window/tick boundary and immediately verify the live
        // per-flow state survived — a cull that disturbs in-window
        // aggregates is the bug class this invariant exists to catch.
        if cull {
            let tenant = &mut self.tenants[t];
            tenant.aggregator.force_cull();
            tenant.obs.scope.event(
                now.as_nanos(),
                "state_cull",
                format!("tick={}", self.tick_index),
            );
            if self.flow_state_violation.is_none() {
                if let Some(v) = tenant.aggregator.state_conservation_violation() {
                    self.flow_state_violation =
                        Some(format!("tenant {}: {v}", tenant.config.name));
                }
            }
        }
    }

    /// Classifies (or sheds) every tenant's completed windows in one
    /// coalesced batch: per-window shed/degrade decisions first (in
    /// tenant-then-window order, exactly as the per-window path made
    /// them), then every surviving window's features stacked into one
    /// matrix, one scaler transform, and one
    /// [`ml::classifier::Classifier::predict_batch_spans_into`] pass.
    /// The [`RowSpan`]s keep budgets, degradation ladders, and `gen=`
    /// stamping per tenant and per window.
    ///
    /// The champion snapshot is loaded **once** per batch: a swap can
    /// only land at a tick boundary, before any window of the tick
    /// classifies, so one load per batch sees the same generation the
    /// per-window loads did — and the per-window stamp proves it.
    fn classify_batch(&mut self, now: SimTime, pressure: f64) -> u64 {
        let mut packets_total = 0u64;
        let window_interval_secs = self.window_secs as f64;
        let cost = OverloadPolicy::default();

        // Decision pass: shed verdicts and degradation inputs per
        // window, features of the survivors appended to the shared
        // scratch matrix with one RowSpan per window.
        self.scratch.clear();
        self.spans.clear();
        self.batch_meta.clear();
        let mut row_start = 0usize;
        for (i, window) in self.completed.iter().enumerate() {
            let t = self.completed_by[i];
            let tenant = &mut self.tenants[t];
            let affected = tenant.affected_pending.remove(&window.index);
            let modelled_secs = cost.modelled_cost_secs(window.records.len(), pressure);
            let shed_threshold =
                window_interval_secs * tenant.config.budget.shed_factor.max(1.0);
            if modelled_secs > shed_threshold {
                // Too far past budget to be worth classifying late:
                // shed whole, accounted.
                tenant.obs.windows_shed.inc();
                tenant.obs.scope.event(
                    now.as_nanos(),
                    "window_shed",
                    format!("w={} packets={}", window.index, window.records.len()),
                );
                continue;
            }
            window.append_features(&mut self.scratch);
            self.spans.push(RowSpan { start: row_start, len: window.records.len() });
            row_start += window.records.len();
            self.batch_meta.push(BatchMeta {
                window: i,
                tenant: t,
                affected,
                late: modelled_secs > window_interval_secs,
            });
            packets_total += window.records.len() as u64;
        }
        if self.batch_meta.is_empty() {
            return packets_total;
        }

        // One arity check, one transform, one predict for the whole
        // batch. The checks depend only on the scratch matrix and the
        // fitted scaler — a failure (bad hot-swapped model) degrades
        // every window of the batch, exactly as the per-window path
        // degraded each of them individually.
        let champion = self.champion.load();
        let arity = champion.value.check_classify_arity(&self.scratch);
        if arity.is_ok() {
            champion.value.scaler().transform_matrix(&mut self.scratch);
            let predict_started = Instant::now();
            champion.value.model().predict_batch_spans_into(
                self.scratch.view(),
                &self.spans,
                &mut self.predictions,
                &mut self.span_work,
            );
            if let Some(wall) = &self.wall_obs {
                wall.predict_wall_ns.observe(predict_started.elapsed().as_nanos() as u64);
            }
        }

        // Shadow evaluation: the challenger scores the same coalesced
        // batch through its own scaler and scratch, but never emits;
        // only disagreement counters move. Skipped whole if its arity
        // check fails — and compared only when the champion produced
        // predictions.
        let mut challenger_ok = false;
        if let Some(challenger) = &self.challenger {
            let challenger = challenger.load();
            self.challenger_scratch.clear();
            for meta in &self.batch_meta {
                self.completed[meta.window].append_features(&mut self.challenger_scratch);
            }
            if challenger.value.check_classify_arity(&self.challenger_scratch).is_ok() {
                challenger.value.scaler().transform_matrix(&mut self.challenger_scratch);
                challenger.value.model().predict_batch_spans_into(
                    self.challenger_scratch.view(),
                    &self.spans,
                    &mut self.challenger_predictions,
                    &mut self.challenger_span_work,
                );
                challenger_ok = true;
            }
        }

        // Verdict pass, in the same tenant-then-window order: fold each
        // span's predictions into the window's detection, stamp the
        // generation, settle the degradation ladder, log.
        for (j, meta) in self.batch_meta.iter().enumerate() {
            let window = &self.completed[meta.window];
            let tenant = &mut self.tenants[meta.tenant];
            let span = self.spans[j];
            let obs = &tenant.obs;
            let mut detection = match &arity {
                Ok(()) => {
                    let packets = window.records.len();
                    let (extract_ns, classify_ns) = cost.modelled_stage_ns(packets, pressure);
                    obs.packets_classified.add(packets as u64);
                    obs.extract_ns.observe(extract_ns);
                    obs.classify_ns.observe(classify_ns);
                    obs.predict_work.observe(self.span_work[j]);
                    if meta.late {
                        obs.budget_exceeded.inc();
                        obs.scope.event(
                            now.as_nanos(),
                            "degraded_window",
                            format!("w={} packets={packets}", window.index),
                        );
                    }
                    detection_from_predictions(window, &self.predictions[span.range()])
                }
                Err(e) => {
                    obs.classify_errors.inc();
                    obs.scope.event(
                        now.as_nanos(),
                        "classify_error",
                        format!("w={} {e}", window.index),
                    );
                    WindowDetection {
                        window_index: window.index,
                        packets: window.records.len(),
                        correct: 0,
                        predicted_malicious: 0,
                        truth_malicious: 0,
                        malicious_correct: 0,
                        mixed: window.is_mixed(),
                        majority_truth: window.majority_label(),
                        generation: champion.generation,
                        degraded: true,
                    }
                }
            };
            detection.generation = champion.generation;
            detection.degraded |= meta.late || meta.affected;

            if arity.is_ok() && challenger_ok {
                let shadow =
                    detection_from_predictions(window, &self.challenger_predictions[span.range()]);
                obs.challenger_windows.inc();
                let champion_verdict = detection.predicted_malicious * 2 > detection.packets;
                let challenger_verdict = shadow.predicted_malicious * 2 > shadow.packets;
                let verdict_differs = champion_verdict != challenger_verdict;
                let packet_diffs = self.predictions[span.range()]
                    .iter()
                    .zip(&self.challenger_predictions[span.range()])
                    .filter(|(a, b)| a != b)
                    .count() as u64;
                obs.verdict_disagreements.add(u64::from(verdict_differs));
                obs.packet_disagreements.add(packet_diffs);
            }

            if detection.degraded {
                obs.windows_degraded.inc();
            } else {
                obs.windows_classified.inc();
            }
            tenant.log.push(detection);
        }
        packets_total
    }

    /// Graceful shutdown: drain every queue ignoring budgets, flush the
    /// aggregators, classify the remainder (one final coalesced batch),
    /// and settle shed-window accounting so conservation holds exactly.
    fn finalize(&mut self) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        let now = self.last_now;
        let pressure = self.last_pressure;
        self.completed.clear();
        self.completed_by.clear();
        for t in 0..self.tenants.len() {
            let tenant = &mut self.tenants[t];
            for record in tenant.queue.pop_up_to(usize::MAX) {
                if let Some(window) = tenant.aggregator.push(record) {
                    self.completed.push(window);
                    self.completed_by.push(t);
                }
            }
            if let Some(window) = tenant.aggregator.flush() {
                self.completed.push(window);
                self.completed_by.push(t);
            }
        }
        self.classify_batch(now, pressure);
        for tenant in &mut self.tenants {
            // Whatever is still marked affected never completed: every
            // record of those windows was shed or sampled out.
            let wholly_shed = tenant.affected_pending.len() as u64;
            tenant.obs.windows_shed.add(wholly_shed);
            tenant.affected_pending.clear();
        }
        self.sync_counters();
    }

    /// Publishes the queue-owned accounting (and the extractors'
    /// flows-touched total) into the telemetry counters.
    fn sync_counters(&self) {
        for tenant in &self.tenants {
            let (offered, admitted, popped, shed, sampled) = tenant.queue.record_counts();
            let obs = &tenant.obs;
            set_counter(&obs.records_offered, offered);
            set_counter(&obs.records_admitted, admitted);
            set_counter(&obs.records_processed, popped);
            set_counter(&obs.records_shed, shed);
            set_counter(&obs.records_sampled_out, sampled);
            set_counter(&obs.windows_ingested, tenant.queue.windows_ingested());
            obs.queue_depth.set(tenant.queue.len() as i64);
            obs.queue_high_water.set_max(tenant.queue.high_water() as i64);
        }
        let touched: u64 = self.tenants.iter().map(|t| t.aggregator.flows_touched()).sum();
        set_counter(&self.obs.flows_touched, touched);
    }
}

/// Monotone counters can only `inc`/`add`: top an obs counter up to an
/// absolute value tracked elsewhere.
fn set_counter(counter: &Counter, absolute: u64) {
    let current = counter.value();
    if absolute > current {
        counter.add(absolute - current);
    }
}

/// The serving-layer application installed into the IDS container: one
/// instance, many tenants. Pair it with a [`ServingHandle`] via
/// [`serving_pair`].
pub struct IdsService {
    core: Rc<RefCell<ServingCore>>,
    meter: ResourceMeter,
}

impl std::fmt::Debug for IdsService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IdsService").finish()
    }
}

/// The report/inspection half of a serving deployment, valid while and
/// after the simulation runs.
#[derive(Clone)]
pub struct ServingHandle {
    core: Rc<RefCell<ServingCore>>,
}

impl std::fmt::Debug for ServingHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingHandle").finish()
    }
}

/// Creates a connected [`IdsService`] / [`ServingHandle`] pair over a
/// config and one `(TenantConfig, SnifferHandle)` per monitored link.
/// The service counts under `scope` (conventionally `ids.serving`):
/// service counters plus one child scope per tenant, named after it.
/// The handle's read-outs are those counters, so two services under one
/// scope would share them.
///
/// # Panics
///
/// Panics if `tenants` is empty or two tenants share a name.
pub fn serving_pair(
    config: ServingConfig,
    tenants: Vec<(TenantConfig, SnifferHandle)>,
    meter: ResourceMeter,
    scope: Scope,
) -> (IdsService, ServingHandle) {
    assert!(!tenants.is_empty(), "a serving deployment needs at least one tenant");
    let mut names = BTreeSet::new();
    for (cfg, _) in &tenants {
        assert!(names.insert(&cfg.name), "two tenants are named {:?}", cfg.name);
    }
    let window_secs = config.champion.window_secs();
    let stats_refresh = config.champion.stats_refresh();
    let tenant_states = tenants
        .into_iter()
        .map(|(cfg, feed)| TenantState {
            queue: IngestQueue::new(cfg.queue_capacity, cfg.policy, window_secs),
            aggregator: WindowAggregator::new(window_secs).with_stats_refresh(stats_refresh),
            log: DetectionLog::new(),
            affected_pending: BTreeSet::new(),
            obs: TenantObs::new(scope.child(&cfg.name)),
            feed,
            config: cfg,
        })
        .collect();
    let core = ServingCore {
        tenants: tenant_states,
        champion: SwapHandle::new(config.champion),
        challenger: config.challenger.map(SwapHandle::new),
        promote_challenger_at_tick: config.promote_challenger_at_tick,
        promote_delay_ticks: config.promote_delay_ticks.max(1),
        retrain: config.retrain,
        replay: VecDeque::new(),
        staged: None,
        buggify: config.buggify,
        tick_index: 0,
        window_secs,
        last_pressure: 1.0,
        last_now: SimTime::ZERO,
        finalized: false,
        flow_state_violation: None,
        obs: ServiceObs::new(scope),
        wall_obs: None,
        scratch: FeatureMatrix::new(TOTAL_FEATURES),
        predictions: Vec::new(),
        challenger_scratch: FeatureMatrix::new(TOTAL_FEATURES),
        challenger_predictions: Vec::new(),
        drain_buf: Vec::new(),
        completed: Vec::new(),
        completed_by: Vec::new(),
        spans: Vec::new(),
        span_work: Vec::new(),
        challenger_span_work: Vec::new(),
        batch_meta: Vec::new(),
    };
    let core = Rc::new(RefCell::new(core));
    (IdsService { core: Rc::clone(&core), meter }, ServingHandle { core })
}

impl IdsService {
    /// Attaches the wall-clock reporting scope (call before installing
    /// the app). Must come from a registry separate from the
    /// deterministic one — measured predict latency is host-dependent
    /// and would break byte-identical telemetry exports if mixed in.
    pub fn set_wallclock_obs(&mut self, scope: Scope) {
        let mut core = self.core.borrow_mut();
        let model = core.champion.load().value.model().name();
        core.wall_obs = Some(WallclockObs::new(&scope, model));
    }
}

impl App for IdsService {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let core = self.core.borrow();
        if let Some(capacity) = OverloadPolicy::default().feed_capacity {
            for tenant in &core.tenants {
                tenant.feed.set_capacity(Some(capacity));
            }
        }
        let window_secs = core.window_secs;
        drop(core);
        self.meter.begin_window(ctx.now());
        ctx.set_timer(SimDuration::from_secs(window_secs), 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let started = Instant::now();
        let pressure = ctx.cpu_pressure();
        let mut core = self.core.borrow_mut();
        let classified_packets = core.tick(ctx.now(), pressure);
        let window_secs = core.window_secs;
        // Resident footprint: models plus every tenant's queue.
        let champion_bytes = core.champion.load().value.model().memory_bytes();
        let challenger_bytes = core
            .challenger
            .as_ref()
            .map(|c| c.load().value.model().memory_bytes())
            .unwrap_or(0);
        let queued: u64 = core.tenants.iter().map(|t| t.queue.len() as u64).sum();
        drop(core);
        // Wall-clock busy time, stretched by the injected pressure,
        // feeds the sustainability meter only (reporting, not control).
        let busy = started.elapsed().as_secs_f64();
        self.meter.record_cpu_seconds(busy * pressure.max(0.0));
        self.meter.set_memory_bytes(
            champion_bytes + challenger_bytes + (queued + classified_packets) * 64,
        );
        self.meter.end_window(ctx.now());
        self.meter.begin_window(ctx.now());
        ctx.set_timer(SimDuration::from_secs(window_secs), 0);
    }
}

impl ServingHandle {
    /// Graceful shutdown: drains every queue (ignoring budgets),
    /// flushes the aggregators, classifies the remainder, and settles
    /// shed-window accounting. Idempotent. Call after the simulation
    /// ends, before reading reports — conservation holds exactly from
    /// then on.
    pub fn finalize(&self) {
        self.core.borrow_mut().finalize();
    }

    /// A tenant's detection log (shared handle).
    pub fn tenant_log(&self, name: &str) -> Option<DetectionLog> {
        let core = self.core.borrow();
        core.tenants.iter().find(|t| t.config.name == name).map(|t| t.log.clone())
    }

    /// A tenant's frozen accounting. Call [`ServingHandle::finalize`]
    /// first for exact conservation.
    pub fn tenant_counters(&self, name: &str) -> Option<TenantCounters> {
        let core = self.core.borrow();
        core.sync_counters();
        core.tenants.iter().find(|t| t.config.name == name).map(|t| t.obs.counters())
    }

    /// Every tenant's `(name, counters)`, in service order.
    pub fn all_counters(&self) -> Vec<(String, TenantCounters)> {
        let core = self.core.borrow();
        core.sync_counters();
        core.tenants
            .iter()
            .map(|t| (t.config.name.clone(), t.obs.counters()))
            .collect()
    }

    /// The champion's current generation.
    pub fn generation(&self) -> u64 {
        self.core.borrow().champion.generation()
    }

    /// `(swaps, retrains, retrains_failed)` so far.
    pub fn swap_counts(&self) -> (u64, u64, u64) {
        let obs = &self.core.borrow().obs;
        (obs.swaps.value(), obs.retrains.value(), obs.retrains_failed.value())
    }

    /// First flow-state-conservation violation observed after a forced
    /// `features.state_cull`, or `None` when every forced cull left the
    /// live per-flow aggregates intact.
    pub fn flow_state_violation(&self) -> Option<String> {
        self.core.borrow().flow_state_violation.clone()
    }

    /// First conservation violation across every tenant and queue, or
    /// `None` when all accounting is exact. Call after
    /// [`ServingHandle::finalize`].
    pub fn conservation_violation(&self) -> Option<String> {
        let core = self.core.borrow();
        core.sync_counters();
        for tenant in &core.tenants {
            if let Some(v) = tenant.queue.conservation_violation() {
                return Some(format!("tenant {}: {v}", tenant.config.name));
            }
            let counters = tenant.obs.counters();
            if let Some(v) = counters.conservation_violation() {
                return Some(format!("tenant {}: {v}", tenant.config.name));
            }
            let logged = tenant.log.len() as u64;
            let counted = counters.windows_classified + counters.windows_degraded;
            if logged != counted {
                return Some(format!(
                    "tenant {}: log has {logged} windows but counters account {counted}",
                    tenant.config.name
                ));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capture::record::Label;
    use capture::sniffer::{sniffer_pair, Sniffer, SnifferFilter};
    use features::scaling::{Scaler, ScalingMethod};
    use ml::cnn::CnnConfig;
    use netsim::packet::{Packet, Protocol, Provenance};
    use netsim::tap::{PacketTap, TapMeta};
    use netsim::{Addr, LinkId, NodeId};

    use crate::pipeline::{train_model_view, IdsConfig};

    fn record(secs: u64, offset_ms: u64) -> PacketRecord {
        PacketRecord {
            ts: SimTime::from_millis(secs * 1000 + offset_ms),
            src: Addr::new(10, 0, 0, 1),
            src_port: 1000,
            dst: Addr::new(10, 0, 0, 2),
            dst_port: 80,
            protocol: Protocol::Udp,
            flags: Default::default(),
            wire_len: 100,
            payload_len: 60,
            seq: 0,
            label: Label::Benign,
        }
    }

    #[test]
    fn queue_bound_is_never_exceeded_drop_oldest() {
        let mut q = IngestQueue::new(4, BackpressurePolicy::DropOldest, 1);
        for i in 0..10 {
            q.offer(record(0, i));
        }
        assert_eq!(q.len(), 4);
        assert!(q.high_water() <= 4);
        let (offered, admitted, popped, shed, sampled) = q.record_counts();
        assert_eq!(offered, 10);
        // drop-oldest admits every offer and sheds older admissions to
        // make room; each record's terminal disposition is unique.
        assert_eq!(admitted, 10);
        assert_eq!(popped, 0);
        assert_eq!(shed, 6);
        assert_eq!(sampled, 0);
        assert_eq!(q.conservation_violation(), None);
        while q.pop().is_some() {}
        assert_eq!(q.conservation_violation(), None);
    }

    #[test]
    fn queue_conservation_violation_message() {
        let q = IngestQueue::new(4, BackpressurePolicy::DropOldest, 1);
        assert_eq!(q.conservation_violation(), None);
    }

    #[test]
    fn block_upstream_limits_drain_room() {
        let mut q = IngestQueue::new(3, BackpressurePolicy::BlockUpstream, 1);
        assert_eq!(q.drain_room(), 3);
        q.offer(record(0, 0));
        q.offer(record(0, 1));
        assert_eq!(q.drain_room(), 1);
        q.force_full();
        assert_eq!(q.drain_room(), 0);
        q.clear_forced_full();
        assert_eq!(q.drain_room(), 1);
    }

    #[test]
    fn degrade_sampled_engages_at_high_water() {
        let mut q = IngestQueue::new(8, BackpressurePolicy::DegradeSampled { keep: 2 }, 1);
        for i in 0..20 {
            q.offer(record(0, i));
        }
        let (offered, admitted, _popped, shed, sampled) = q.record_counts();
        assert_eq!(offered, 20);
        assert!(sampled > 0, "sampling must engage past high water");
        assert_eq!(offered, admitted + shed + sampled);
        assert!(q.len() <= q.capacity());
        assert_eq!(q.conservation_violation(), None);
    }

    #[test]
    fn forced_full_engages_policy_without_occupancy() {
        let mut q = IngestQueue::new(100, BackpressurePolicy::DropOldest, 1);
        q.offer(record(0, 0));
        q.force_full();
        let outcome = q.offer(record(0, 1));
        assert!(matches!(outcome, Admission::AdmittedSheddingOldest(_)));
        q.clear_forced_full();
        assert!(matches!(q.offer(record(0, 2)), Admission::Admitted));
    }

    #[test]
    fn windows_ingested_counts_distinct_indices() {
        let mut q = IngestQueue::new(100, BackpressurePolicy::DropOldest, 1);
        for s in 0..5u64 {
            for i in 0..3 {
                q.offer(record(s, i));
            }
        }
        assert_eq!(q.windows_ingested(), 5);
    }

    #[test]
    fn tenant_counter_conservation_checks() {
        let good = TenantCounters {
            windows_ingested: 10,
            windows_classified: 6,
            windows_degraded: 3,
            windows_shed: 1,
            records_offered: 100,
            records_admitted: 96,
            records_processed: 90,
            records_shed: 6,
            records_sampled_out: 4,
            ..TenantCounters::default()
        };
        assert_eq!(good.conservation_violation(), None);
        let bad = TenantCounters { windows_shed: 0, ..good };
        assert!(bad.conservation_violation().unwrap().contains("windows unaccounted"));
        let bad = TenantCounters { records_shed: 0, ..good };
        assert!(bad.conservation_violation().unwrap().contains("records unaccounted"));
    }

    /// Calls every packet benign: enough model to drive the loop.
    struct AllBenign;

    impl ml::classifier::Classifier for AllBenign {
        fn name(&self) -> &'static str {
            "all-benign"
        }
        fn predict(&self, _features: &[f64]) -> usize {
            0
        }
        fn encode(&self) -> Vec<u8> {
            Vec::new()
        }
        fn memory_bytes(&self) -> u64 {
            0
        }
        fn clone_box(&self) -> Box<dyn ml::classifier::Classifier> {
            Box::new(AllBenign)
        }
    }

    /// A champion that calls every packet benign, with a fitted scaler.
    fn all_benign_ids() -> TrainedIds {
        let mut rows =
            FeatureMatrix::from_rows(&[vec![0.0; TOTAL_FEATURES], vec![1.0; TOTAL_FEATURES]])
                .unwrap();
        let scaler = Scaler::fit_transform_matrix(ScalingMethod::MinMax, &mut rows);
        TrainedIds::from_parts(Box::new(AllBenign), scaler, IdsConfig::default())
    }

    /// Captures `n` benign packets stamped `at` into the sniffer.
    fn capture(tap: &mut Sniffer, at: SimTime, n: usize) {
        let meta = TapMeta { time: at, link: LinkId::from_raw(0), receiver: NodeId::from_raw(0) };
        let (src, dst) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2));
        let packet = Packet::udp(src, dst, 1000, 80, Default::default())
            .with_provenance(Provenance::Benign);
        for _ in 0..n {
            tap.on_packet(&meta, &packet);
        }
    }

    /// The paper preset never sheds: a tick that delivers exactly the
    /// feed bound drains and processes all of it, and a tick at 10⁴×
    /// CPU pressure logs its window late (degraded) instead of shedding
    /// it, where a default tenant's 8× shed factor would have.
    #[test]
    fn paper_tenant_never_sheds_at_the_feed_bound_or_under_pressure() {
        let ids = all_benign_ids();
        let (mut tap, feed) = sniffer_pair(SnifferFilter::All);
        let bound = OverloadPolicy::default().feed_capacity.expect("the feed is bounded");
        // What `IdsService::on_start` applies.
        feed.set_capacity(Some(bound));
        let (service, handle) = serving_pair(
            ServingConfig::new(ids),
            vec![(TenantConfig::paper("paper"), feed.clone())],
            ResourceMeter::new(),
            obs::Registry::new().scope("ids.serving"),
        );
        let log = handle.tenant_log("paper").expect("the tenant");
        let assert_never_shed = |tick: &str| {
            let c = handle.tenant_counters("paper").expect("the tenant");
            assert_eq!(
                (c.records_shed, c.records_sampled_out, c.windows_shed),
                (0, 0, 0),
                "{tick}"
            );
            assert_eq!(c.records_processed, c.records_offered, "{tick}");
            assert!(service.core.borrow().tenants[0].queue.is_empty(), "{tick}");
            // Every completed window is logged; only the open one waits.
            assert_eq!(log.len() as u64, c.windows_ingested - 1, "{tick}");
            assert_eq!(c.windows_classified + c.windows_degraded, log.len() as u64, "{tick}");
        };

        // Windows 0..=2 full, window 3 opened: exactly the bound. One
        // more packet overflows the feed upstream of the tenant.
        for (secs, n) in [(0, 20_000), (1, 20_000), (2, 20_000), (3, bound - 60_000)] {
            capture(&mut tap, SimTime::from_millis(secs * 1000 + 500), n);
        }
        capture(&mut tap, SimTime::from_millis(3_600), 1);
        assert_eq!((feed.buffered(), feed.dropped_overflow()), (bound, 1));
        service.core.borrow_mut().tick(SimTime::from_secs(4), 1.0);
        assert_eq!(handle.tenant_counters("paper").unwrap().records_offered, bound as u64);
        assert_eq!(feed.buffered(), 0);
        assert_never_shed("feed-bound tick");
        assert_eq!(log.len(), 3);
        assert_eq!(log.degraded_count(), 0);

        // Window 3 closes on a tick at 10⁴× pressure: modelled cost
        // ~112 s, far past a default tenant's 8 s shed threshold.
        capture(&mut tap, SimTime::from_millis(4_500), 100);
        service.core.borrow_mut().tick(SimTime::from_secs(5), 1e4);
        assert_never_shed("pressure tick");
        let late = log.results()[3];
        assert_eq!((late.window_index, late.packets), (3, bound - 60_000));
        assert!(late.degraded, "a late window is degraded, not shed");
        assert_eq!(handle.tenant_counters("paper").unwrap().windows_degraded, 1);
    }

    /// A champion fitted on rows one feature narrower than the layout is
    /// a classify error, not a panic: every window it meets is logged
    /// degraded, the errors are counted, and the service keeps ticking
    /// and finalizes with every window and record accounted.
    #[test]
    fn wrong_width_champion_degrades_windows_and_keeps_serving() {
        let mut rows = FeatureMatrix::new(TOTAL_FEATURES - 1);
        for i in 0..40 {
            rows.push_row(&[(i % 2) as f64 * 5.0 + (i % 3) as f64; TOTAL_FEATURES - 1]);
        }
        let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
        let cnn = CnnConfig {
            epochs: 1,
            ..CnnConfig::default()
        };
        let model = train_model_view(
            &ModelKind::Cnn(cnn),
            rows.view(),
            &labels,
            &mut SimRng::seed_from(5),
        )
        .unwrap();
        let mut scaler_rows =
            FeatureMatrix::from_rows(&[vec![0.0; TOTAL_FEATURES], vec![1.0; TOTAL_FEATURES]])
                .unwrap();
        let scaler = Scaler::fit_transform_matrix(ScalingMethod::MinMax, &mut scaler_rows);
        let ids = TrainedIds::from_parts(model, scaler, IdsConfig::default());
        let (mut tap, feed) = sniffer_pair(SnifferFilter::All);
        let (service, handle) = serving_pair(
            ServingConfig::new(ids),
            vec![(TenantConfig::paper("paper"), feed)],
            ResourceMeter::new(),
            obs::Registry::new().scope("ids.serving"),
        );
        for secs in 0..5 {
            capture(&mut tap, SimTime::from_millis(secs * 1000 + 500), 50);
            service
                .core
                .borrow_mut()
                .tick(SimTime::from_secs(secs + 1), 1.0);
        }
        handle.finalize();
        let c = handle.tenant_counters("paper").expect("the tenant");
        let log = handle.tenant_log("paper").expect("the tenant");
        assert_eq!(log.len(), 5);
        assert_eq!(log.degraded_count(), log.len());
        assert_eq!((c.windows_classified, c.windows_degraded), (0, 5));
        assert_eq!(c.classify_errors, 5);
        assert_eq!(handle.conservation_violation(), None);
    }

    /// A tenant's counts live under a scope named after it, so two
    /// tenants of one name would count into each other.
    #[test]
    #[should_panic(expected = "two tenants are named \"link\"")]
    fn serving_pair_rejects_duplicate_tenant_names() {
        let (_tap, feed) = sniffer_pair(SnifferFilter::All);
        let _ = serving_pair(
            ServingConfig::new(all_benign_ids()),
            vec![(TenantConfig::new("link"), feed.clone()), (TenantConfig::paper("link"), feed)],
            ResourceMeter::new(),
            obs::Registry::new().scope("ids.serving"),
        );
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(BackpressurePolicy::BlockUpstream.name(), "block_upstream");
        assert_eq!(BackpressurePolicy::DropOldest.name(), "drop_oldest");
        assert_eq!(BackpressurePolicy::DegradeSampled { keep: 3 }.name(), "degrade_sampled");
    }
}
