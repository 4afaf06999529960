//! Foundation utilities for the `astra-mem` workspace.
//!
//! This crate holds the pieces every other crate leans on:
//!
//! * [`rng`] — deterministic, *order-independent* random number streams.
//!   Every simulated entity (a node, a DIMM, a fault) derives its own RNG
//!   stream from `(seed, entity key)` so simulation results do not depend on
//!   iteration order or thread count.
//! * [`dist`] — the probability distributions the simulators need (normal,
//!   lognormal, Poisson, Weibull, discrete power law, …). The standard Rust
//!   ecosystem splits these across crates with varying quality; the set we
//!   need is small enough to implement and test directly.
//! * [`time`] — simulated wall-clock time for the study interval
//!   (January–September 2019): minute-resolution timestamps, calendar dates,
//!   month bucketing, and RFC-3339-style formatting for log records.
//! * [`par`] — scoped-thread data parallelism (`par_map`, `par_fold`) used to
//!   fan simulation and analysis out across cores without adding a thread
//!   pool dependency.
//! * [`crc`] — CRC-32 checksums guarding checkpoint sections against torn
//!   writes.
//! * [`codec`] — varint/zigzag/delta column codecs of the binary log
//!   format.
//! * [`ascii`] — numbers parsed straight from ASCII bytes, with exactly
//!   `FromStr`'s rules, for the text log parsers and the checkpoint
//!   reader.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ascii;
pub mod codec;
pub mod crc;
pub mod dist;
pub mod par;
pub mod rng;
pub mod time;

pub use crc::{crc32, crc32_update};
pub use rng::{splitmix64, DetRng, StreamKey};
pub use time::{CalDate, Minute, MINUTES_PER_DAY};
