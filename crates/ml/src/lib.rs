//! # ml — from-scratch machine learning for the DDoShield-IoT IDS
//!
//! Pure-Rust reimplementations of the three models the paper evaluates
//! (scikit-learn / TensorFlow in the original):
//!
//! * [`rf`] — Random Forest: CART trees (Gini), bootstrap bagging,
//!   per-split feature subsampling, majority voting.
//! * [`kmeans`] — classic Lloyd plus the unsupervised entropy-penalised
//!   **U-K-Means** (Sinaga & Yang 2020) the paper cites, with automatic
//!   cluster-count selection and post-hoc cluster labelling.
//! * [`cnn`] — a trainable 1-D CNN (conv / dilated conv / ReLU / maxpool
//!   / dense / softmax) with hand-written backprop and Adam.
//!
//! Extension models from the paper's §V future-work list: [`svm`]
//! (linear SVM via Pegasos), [`iforest`] (Isolation Forest) and
//! [`autoencoder`] (a dense autoencoder anomaly detector standing in
//! for the VAE).
//!
//! Supporting modules: [`metrics`] (accuracy/precision/recall/F1 with
//! the paper's division-by-zero caveat made explicit), [`codec`] (the
//! PKL-file analogue used for the Model-Size metric), [`classifier`]
//! (the object-safe interface the IDS drives), [`matrix`] (the flat
//! row-major [`FeatureMatrix`] the training/inference hot paths run on)
//! and [`par`] (deterministic, thread-count-invariant data-parallel
//! helpers the trainers fan work out with).

#![warn(missing_docs)]
// Three `unsafe` blocks: the CNN's AVX2 dispatches for prediction and
// training (`cnn.rs`) and the K-Means block loop's (`kmeans.rs`), each
// allowed where it stands. Any other needs its own allow and a `SAFETY`
// comment.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod autoencoder;
pub mod classifier;
pub mod cnn;
pub mod codec;
pub mod handle;
pub mod iforest;
pub mod kmeans;
pub mod matrix;
pub mod metrics;
pub mod nn;
pub mod par;
pub mod rf;
pub mod svm;

pub use classifier::{evaluate_view, Classifier, RowSpan, TrainError};
pub use handle::{ModelHandle, SwapHandle, Versioned};
pub use matrix::{gather, FeatureMatrix, MatrixView};
pub use cnn::{Cnn, CnnConfig};
pub use codec::{DecodeError, Decoder, Encoder};
pub use kmeans::{KMeans, KMeansConfig, KMeansDetector};
pub use metrics::{ConfusionMatrix, MetricsReport};
pub use rf::{DecisionTree, ForestConfig, RandomForest, TreeConfig};
pub use autoencoder::{Autoencoder, AutoencoderConfig};
pub use iforest::{IsolationForest, IsolationForestConfig};
pub use svm::{LinearSvm, SvmConfig};
