//! # ids — the Real-Time IDS Unit
//!
//! The fourth container of DDoShield-IoT (Fig. 2 of the paper): a
//! three-stage loop of (i) real-time traffic monitoring via a sniffer
//! feed, (ii) preprocessing — windowed basic + statistical feature
//! extraction and scaling — and (iii) detection with a user-selected ML
//! model (RF, K-Means or CNN). Per-window accuracy is logged (the paper
//! reports accuracy only in real time, because single-class windows make
//! precision/recall undefined) and the loop's actual compute time and
//! memory feed the sustainability metrics of Table II.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alerts;
pub mod federated;
pub mod pipeline;
pub mod realtime;
pub mod resources;
pub mod serving;

pub use alerts::{alert_episodes, detection_latencies, summarize, AlertPolicy, AlertSummary};
pub use federated::{train_federated, FederatedConfig, FederatedOutcome};
pub use pipeline::{IdsConfig, ModelKind, TrainedIds, TrainingOutcome, WindowDetection};
pub use realtime::{DetectionLog, OverloadPolicy};
pub use resources::{RobustnessReport, SustainabilityReport};
pub use serving::{
    serving_pair, Admission, BackpressurePolicy, IdsService, IngestQueue, RetrainPolicy,
    ServingConfig, ServingHandle, TenantBudget, TenantConfig, TenantCounters,
};
