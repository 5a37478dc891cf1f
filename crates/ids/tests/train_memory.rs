//! The heap peak of training: `TrainedIds::train` builds only the
//! feature rows a model reads (the sampled training rows and the
//! holdout), never one row per packet of the capture.
//!
//! A tracking global allocator wraps the system allocator (the harness
//! of `ml`'s zero-allocation test, extended to count live bytes and
//! their high-water mark). It counts on the test thread only, and the
//! fit runs with a one-thread budget, so every allocation of the
//! training call lands on that thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use capture::dataset::Dataset;
use capture::record::{Label, PacketRecord};
use features::extract::TOTAL_FEATURES;
use ids::pipeline::{IdsConfig, ModelKind, TrainedIds};
use ml::kmeans::KMeansConfig;
use netsim::packet::{Protocol, TcpFlags};
use netsim::rng::SimRng;
use netsim::time::SimTime;
use netsim::Addr;

struct TrackingAllocator;

thread_local! {
    /// `true` only on the test thread while a measured call runs.
    /// Const-initialised so the allocator's read never itself allocates.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    /// Bytes allocated minus bytes freed since tracking started.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` seen.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    if TRACKING.try_with(Cell::get).unwrap_or(false) {
        let _ = LIVE.try_with(|live| {
            let now = live.get() + delta;
            live.set(now);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
        });
    }
}

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A moving realloc holds both blocks while it copies.
        track(new_size as isize);
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        track(-(layout.size() as isize));
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: TrackingAllocator = TrackingAllocator;

/// Runs `f` and returns its result with the most bytes it held live at
/// once, above what was live when it started.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.with(|live| live.set(0));
    PEAK.with(|peak| peak.set(0));
    TRACKING.with(|t| t.set(true));
    let out = f();
    TRACKING.with(|t| t.set(false));
    (out, PEAK.with(Cell::get) as usize)
}

/// `seconds` seconds of `per_second` records each, every third second a
/// SYN flood from five sources and the rest benign request traffic.
fn two_class_capture(seconds: u64, per_second: u64) -> Dataset {
    let mut records = Vec::with_capacity((seconds * per_second) as usize);
    for s in 0..seconds {
        let attack = s % 3 == 2;
        for i in 0..per_second {
            let ts = SimTime::from_nanos(s * 1_000_000_000 + i * 1_000_000_000 / per_second);
            let k = i as u32;
            records.push(if attack {
                PacketRecord {
                    ts,
                    src: Addr::new(10, 0, 1, (10 + k % 5) as u8),
                    src_port: 2_000 + (k * 131 % 5_000) as u16,
                    dst: Addr::new(10, 0, 0, 2),
                    dst_port: 80,
                    protocol: Protocol::Tcp,
                    flags: TcpFlags::SYN,
                    wire_len: 40,
                    payload_len: 0,
                    seq: k.wrapping_mul(2_654_435_761),
                    label: Label::Malicious,
                }
            } else {
                PacketRecord {
                    ts,
                    src: Addr::new(10, 0, 0, (3 + k % 3) as u8),
                    src_port: 50_000 + (k % 3) as u16,
                    dst: Addr::new(10, 0, 0, 2),
                    dst_port: [80u16, 1935, 21][(k % 3) as usize],
                    protocol: Protocol::Tcp,
                    flags: TcpFlags::ACK | TcpFlags::PSH,
                    wire_len: 200 + k % 7 * 100,
                    payload_len: 160,
                    seq: 1_000 + k * 160,
                    label: Label::Benign,
                }
            });
        }
    }
    Dataset::from_records(records)
}

/// Training on a 50,000-record capture, capped at 2,000 samples with a
/// 20 % holdout, holds at most the rows it reads (training plus
/// holdout, 26 values each), the labels and the index permutation, with
/// room for the model and the window aggregator. A full feature matrix
/// of the capture needs more than that bound on its own.
#[test]
fn training_holds_only_the_rows_it_reads() {
    let capture = two_class_capture(50, 1_000);
    let n = capture.len();
    let config = IdsConfig { max_train_samples: 2_000, ..IdsConfig::default() };
    let kind = ModelKind::KMeans(KMeansConfig::default());
    let mut rng = SimRng::seed_from(7);
    let (outcome, peak) = ml::par::with_threads(1, || {
        peak_bytes(|| TrainedIds::train(&capture, &kind, config, &mut rng))
    });
    let outcome = outcome.expect("both classes are present");

    let holdout = (n as f64 * config.holdout_fraction) as usize;
    let row_bytes = (outcome.train_samples + holdout) * TOTAL_FEATURES * size_of::<f64>();
    let index_bytes = 2 * n * size_of::<usize>();
    let bound = (row_bytes + index_bytes) * 3 / 2;
    let full_matrix = n * TOTAL_FEATURES * size_of::<f64>();
    assert!(full_matrix > bound, "the bound must exclude a full matrix: {full_matrix} B");
    assert!(
        peak < bound,
        "training held {peak} B at its peak; the rows it reads and their indices allow {bound} B"
    );
}
