//! Environmental telemetry simulator (§2.2, §3.3 of the paper).
//!
//! Each Astra node reports six temperature sensors (one CPU sensor per
//! socket, one DIMM sensor per group of four slots) plus DC power, sampled
//! once per minute by the BMC. This crate reproduces that data stream with
//! the properties the paper measures:
//!
//! * CPU temperatures in the mid-50s to mid-70s °C with ≈ 7 °C between the
//!   first and ninth deciles; DIMM temperatures in the high-30s to low-50s
//!   with ≈ 4 °C decile spread (Fig 13) — Astra's cooling is much tighter
//!   than the Schroeder et al. systems;
//! * CPU1 (socket 0) hotter than CPU2 (socket 1): front-to-back airflow
//!   reaches socket 1 first (Fig 1);
//! * node DC power roughly 240–380 W tracking utilization (Fig 2c, 14);
//! * rack-to-rack mean differences below ≈ 4.2 °C and region-to-region
//!   differences below 1 °C (§3.4) — temperature cannot explain positional
//!   fault skew;
//! * a small fraction (< 1 %) of unreadable or clearly invalid samples,
//!   which the analysis excludes (§2.2).
//!
//! **Temperature is deliberately decoupled from error generation**: the
//! fault simulator never consults this model, which is how the
//! reproduction encodes the paper's central negative result (no strong
//! temperature/utilization ↔ CE correlation, Figs 9, 13, 14).
//!
//! Because a full-scale minute-resolution trace is ~3 × 10⁹ samples, the
//! model is *functional*: [`TelemetryModel::reading`] computes any sample
//! on demand in O(1) from `(seed, node, sensor, minute)`, so analyses can
//! query windows without materializing the dataset, and
//! [`TelemetryModel::records`] materializes configurable-stride excerpts
//! for the text-log pipeline. Every reading is drawn by a [`NodeSampler`],
//! which computes the terms a node's seven sensors share once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
pub mod profile;

pub use model::{NodeSampler, TelemetryModel};
pub use profile::ThermalProfile;
