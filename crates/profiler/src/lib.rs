//! Offline and runtime profilers (§III-B, §III-C, §IV).
//!
//! **Offline** (run once per platform): sample layer configurations
//! uniformly over realistic attribute ranges ([`sampling`]), measure their
//! execution times on the platform model ([`dataset`]), fit one NNLS linear
//! model per computation-node kind and report RMSE/MAPE on held-out data
//! ([`training`] — Table III). A [`feature_selection`] module reproduces
//! the XGBoost-style step that justified the Table II feature choices.
//!
//! **Runtime**: the edge server tracks the load influence factor `k` — the
//! ratio of observed partition execution time over model prediction within
//! the most recent monitoring period ([`runtime::LoadFactorTracker`]) —
//! and a GPU-utilization watchdog resets `k` when the GPU becomes
//! underutilized while the client runs locally
//! ([`runtime::GpuUtilWatchdog`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod feature_selection;
pub mod runtime;
pub mod sampling;
pub mod training;

pub use dataset::{Dataset, NodeConfig};
pub use runtime::{GpuUtilWatchdog, LoadFactorTracker};
pub use training::{train_all, ModelReport, PredictionModels};
