//! `astra-core`: the memory-failure analysis library.
//!
//! This crate is the reproduction's primary deliverable — the "canonical
//! tooling" version of the analysis the paper performs over Astra's logs.
//! It consumes the textual log formats of [`astra_logs`] (never simulator
//! internals, so it would run unchanged over the real published dataset)
//! and produces every table and figure of the paper's evaluation.
//!
//! The central methodological point of the paper is the distinction
//! between **errors** (individual corrected events in the syslog) and
//! **faults** (the underlying defects): analyses that look only at raw
//! error counts reach wrong conclusions about how failures are
//! distributed (§3.2, Figs 6, 7, 10, 12). Accordingly the heart of this
//! crate is [`mod@coalesce`] — grouping the CE stream into observed faults —
//! and [`classify`] — assigning each observed fault the mode vocabulary of
//! §2.1, subject to Astra's real observability limits (no row information,
//! SEC-DED-only protection).
//!
//! Modules:
//!
//! * [`mod@coalesce`] — error → fault coalescing over `(node, slot, rank)`
//!   populations, with rank-level (pin) extraction before per-bank
//!   footprint classification.
//! * [`classify`] — observed fault modes and per-mode tallies.
//! * [`spatial`] — error/fault aggregation by socket, bank, column, rank,
//!   slot, node, rack, region, bit position, and physical address.
//! * [`tempcorr`] — the §3.3 analyses: windowed pre-error temperature
//!   means (Fig 9), Schroeder-style temperature deciles (Fig 13), and the
//!   hot/cold utilization split (Fig 14).
//! * [`het`] — uncorrectable-error analysis and the FIT computation
//!   (Fig 15, §3.5).
//! * [`pipeline`] — end-to-end drivers: simulate → serialize to text logs
//!   → parse → analyze, the way a site would run the tools.
//! * [`experiments`] — one driver per paper table/figure, each returning a
//!   printable data structure (`astra-mem report` prints them all).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod cli;
pub mod coalesce;
pub mod experiments;
pub mod het;
pub mod mitigation;
pub mod modeling;
pub mod pipeline;
pub mod reliability;
pub mod serve;
pub mod shard;
pub mod spatial;
pub mod stream;
pub mod tempcorr;

pub use classify::ObservedMode;
pub use coalesce::{coalesce, ObservedFault};
pub use pipeline::{AnalysisInput, Dataset};
