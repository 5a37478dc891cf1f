//! # ddoshield — the DDoShield-IoT testbed
//!
//! The paper's primary contribution, reassembled in pure Rust: a
//! reproducible IDS testbed in which actual "IoT binaries" (benign
//! HTTP/video/FTP servers and clients, Mirai's scanner/loader/C2, the
//! vulnerable devices it compromises, and a real-time IDS unit) run in
//! containers bridged over a simulated network, generating labelled
//! real-world-shaped traffic for training and evaluating ML-based
//! intrusion detection.
//!
//! * [`scenario`] — every knob of a deployment ([`ScenarioConfig`]).
//! * [`testbed`] — [`Testbed::deploy`] wires the four container roles of
//!   Fig. 1 and exposes the capture / live-detection phases of §IV-D.
//! * [`experiments`] — one canned runner per table/figure of the paper.
//!
//! ```no_run
//! use ddoshield::{ScenarioConfig, Testbed};
//! use netsim::time::SimDuration;
//!
//! let mut testbed = Testbed::deploy(ScenarioConfig::paper_default(42));
//! testbed.run_infection_lead();
//! let dataset = testbed.run_capture(SimDuration::from_secs(60));
//! println!("{:?}", dataset.class_counts());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod scenario;
pub mod shardplan;
pub mod swarm;
pub mod testbed;

pub use experiments::{
    run_baseline_detection, run_chaos_detection, run_full_evaluation, run_lifecycle_detection,
    run_serving_detection, ChaosOutcome, ExperimentScale, FullReport, ModelReport, ServingOutcome,
};
pub use shardplan::{partition_devices, run_sharded_chaos, ShardPlanConfig, ShardedChaosReport};
pub use scenario::{
    rotation, AttackPhase, CpuPressureSpec, CrashSpec, FaultPlanConfig, JitterSpec,
    LifecycleTarget, LinkFlapSpec, LossRampSpec, RandomFlapSpec, RebootSpec, ScenarioConfig,
    ThrottleSpec,
};
pub use testbed::{LiveReport, ServingRunReport, ServingTenantTarget, TenantReport, Testbed};
