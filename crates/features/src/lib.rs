//! # features — basic + statistical feature extraction
//!
//! Implements the paper's two-stage feature pipeline (§III-B, §IV-A):
//! per-packet **basic** features (protocol, ports, lengths, TCP flags)
//! concatenated with per-window **statistical** features (packet counts,
//! destination-port entropy, port-frequency concentration, short-lived
//! connections, repeated connection attempts, SYN-without-ACK counts,
//! flow rates, sequence-number variance). Statistical features are
//! shared by every packet in a window — deliberately reproduced, because
//! the paper attributes its boundary-second accuracy dips to exactly
//! this property.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod extract;
pub mod genmap;
pub mod incremental;
pub mod scaling;
pub mod window;

pub use extract::{
    basic_features, feature_names, windows_of, CaptureRows, Window, WindowAggregator,
    BASIC_FEATURES, TOTAL_FEATURES,
};
pub use genmap::GenMap;
pub use incremental::{FlowAgg, FlowDelta};
pub use scaling::{Scaler, ScalingMethod};
pub use window::{entropy, mean_std, AckGrace, WindowStats, STAT_FEATURES};
