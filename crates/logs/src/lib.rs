//! Log substrate: the textual record formats the paper publishes, plus the
//! kernel-side logging behaviour that shapes what reaches the syslog.
//!
//! §2.4 of the paper describes the released dataset as *text files*: memory
//! failure telemetry extracted from system logs and environmental sensor
//! data from the BMC logs. This crate defines those formats and their
//! parsers:
//!
//! * [`ce`] — correctable-error (CE) syslog records: timestamp, node,
//!   socket, DIMM slot, rank, bank, row (absent on Astra, see §3.2), column,
//!   bit position, physical address, and vendor syndrome.
//! * [`het`] — Hardware Event Tracker records for uncorrectable errors and
//!   other machine events, with the severity classes of Fig 15.
//! * [`sensor`] — BMC environmental records: six temperature sensors and DC
//!   power per node, sampled once per minute.
//! * [`inventory`] — daily inventory-scan component replacement records
//!   (Table 1 / Fig 3).
//! * [`buffer`] — the bounded kernel CE log buffer with periodic polling
//!   (§2.3): correctable errors can be *dropped* when the buffer fills
//!   between polls; uncorrectable errors are never lost. This asymmetry is
//!   one reason the paper insists on analyzing faults rather than raw error
//!   counts.
//! * [`io`] — line-oriented writers, the fault-tolerant chunk readers,
//!   and [`io::LogReader`], the one reader every command opens a log
//!   through (in either format), so the analyzer consumes exactly what a
//!   site would have on disk.
//! * [`manifest`] — the `manifest.txt` provenance record (platform
//!   profile, seed, rack count, log format, tool version) that makes a
//!   dataset directory self-describing; consumers use it instead of
//!   assuming the Astra profile.
//! * [`binfmt`] — the `astra-binlog` binary columnar format, a compact
//!   peer of the four text formats with per-block CRC framing, and the
//!   one walk over that framing.
//! * [`quarantine`] — the typed bad-line taxonomy and strict/lenient
//!   ingest policy the readers apply to dirty production logs.
//! * [`chaos`] — deterministic fault injection (truncation, bit flips,
//!   non-UTF-8 garbage, reordering, foreign lines, torn writes, flaky
//!   readers) used to prove the readers degrade gracefully.
//!
//! The analyzer crate (`astra-core`) is deliberately restricted to these
//! textual interfaces: it never peeks at simulator internals, which keeps
//! the pipeline runnable against the real published dataset.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binfmt;
pub mod buffer;
pub mod ce;
pub mod chaos;
#[cfg(test)]
mod frame_oracle;
pub mod het;
pub mod inventory;
pub mod io;
mod kv;
pub mod manifest;
#[cfg(test)]
mod oracle;
pub mod quarantine;
pub mod sensor;

pub use binfmt::BinFormat;
pub use buffer::CeLogBuffer;
pub use ce::CeRecord;
pub use het::{HetKind, HetRecord, HetSeverity};
pub use inventory::{Component, ReplacementRecord};
pub use manifest::{Manifest, ManifestError, MANIFEST_FILE};
pub use quarantine::{
    IngestMode, IngestOptions, LineFormat, Quarantine, QuarantineReason, RetryPolicy,
};
pub use sensor::SensorRecord;
