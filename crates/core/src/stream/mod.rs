//! The incremental analysis engine: one pass over `ce.log`, every
//! analysis the CE-only commands print.
//!
//! The batch pipeline materializes the full CE record vector, then runs
//! each analysis as its own pass. This module inverts that: `ce.log` is
//! read as one stream of [`MemEvent`]s, and every analysis implements
//! [`Analyzer`] — a fold over that stream — so a single pass drives
//! coalescing, spatial aggregation and online prediction *concurrently*,
//! with peak memory bounded by analyzer state (footprints, count tables,
//! per-rank feature state) rather than by dataset size.
//!
//! Only `ce.log` is read. Everything `stream-analyze`, `shard-analyze`
//! and `serve` print comes from CE records; the HET, inventory and
//! sensor logs feed `report`'s joins, which load them through
//! [`AnalysisInput`](crate::pipeline::AnalysisInput).
//!
//! Determinism is by construction, in the same style as `astra_util::par`:
//!
//! * records come out in file order, which is the order the batch
//!   record vector has;
//! * every analyzer's [`Analyzer::merge`] is exact (integer sums,
//!   footprint-list append in stream order, rank-disjoint predict state;
//!   see `analyzers`);
//! * checkpoints identify the resume point by the *consumed parsed-record
//!   count* plus a [`LogPosition`]: the offset of the chunk (or block)
//!   holding the next record, with the reader and ingest state there.
//!   Resume seeks to that offset and drops the chunk's consumed records;
//!   chunk parsing is deterministic from any chunk start, so the resumed
//!   stream lands on the same state as the run that wrote the checkpoint.
//!
//! Batch `Analysis::run` calls `coalesce()` and `SpatialCounts::compute`
//! over the record vector instead; the coalesce analyzer's snapshot and
//! `coalesce()` share `classify_groups`, and both spatial paths share
//! `absorb_record`/`absorb_fault`, so the two give the same faults and
//! tables.

pub mod analyzers;
pub mod checkpoint;
pub mod site;

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, Read as _, Seek as _, SeekFrom};
use std::path::{Path, PathBuf};

use astra_logs::binfmt;
use astra_logs::io::LogReader;
use astra_logs::{
    ce, CeRecord, HetRecord, IngestOptions, Quarantine, ReplacementRecord, SensorRecord,
};
use astra_predict::PredictConfig;
use astra_topology::SystemConfig;

use crate::coalesce::CoalesceConfig;
use crate::pipeline::LoadError;

pub use analyzers::{StreamAnalyzer, StreamReport};
pub use astra_logs::io::ReadPoint;

/// One record an [`Analyzer`] folds.
///
/// [`EventStream`] yields CE events only. The other variants carry the
/// records of the other three logs for folds that join against them
/// ([`analyzers::HetAnalyzer`], [`analyzers::TempCorrAnalyzer`]); no
/// command drives those folds.
///
/// `seq` is the record's index within *its own source log* (file order,
/// zero-based). For CE events this equals the index the record would have
/// in the batch `records` vector, which is what lets the streaming
/// coalescer produce byte-identical `record_indices`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemEvent {
    /// A correctable error from `ce.log`.
    Ce {
        /// File-order index within `ce.log`.
        seq: u64,
        /// The parsed record.
        rec: CeRecord,
    },
    /// A hardware-event-tracker record from `het.log`.
    Het {
        /// File-order index within `het.log`.
        seq: u64,
        /// The parsed record.
        rec: HetRecord,
    },
    /// A component replacement from `inventory.log`.
    Inventory {
        /// File-order index within `inventory.log`.
        seq: u64,
        /// The parsed record.
        rec: ReplacementRecord,
    },
    /// An environmental sample from `sensors.log`.
    Sensor {
        /// File-order index within `sensors.log`.
        seq: u64,
        /// The parsed record.
        rec: SensorRecord,
    },
}

/// A fold over the event stream.
///
/// `consume` must be a pure state update; `merge` combines two states
/// built from *disjoint, ordered* slices of the stream (shard fan-in —
/// state from the earlier slice is the left argument); `snapshot` renders
/// the state into a report without consuming it, so the engine can
/// checkpoint and keep going.
pub trait Analyzer: Sized {
    /// What `snapshot` produces.
    type Report;

    /// Fold one event into the state.
    fn consume(&mut self, ev: &MemEvent);

    /// Combine two shard states; `a` saw the earlier slice of the stream.
    fn merge(a: Self, b: Self) -> Self;

    /// Render the current state.
    fn snapshot(&self) -> Self::Report;
}

/// The log's resume position: the reader's place at the chunk (text) or
/// block (binary) that holds the next unconsumed record — or at the
/// log's current end when every record read so far was consumed — with
/// the ingest state there and a fingerprint of the bytes before it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogPosition {
    /// The reader's place and state.
    pub point: ReadPoint,
    /// Records parsed before the point.
    pub parsed: u64,
    /// Lines (or binary units) quarantined before the point.
    pub quarantine: Quarantine,
    /// CRC-32 of the up to 4 KiB of the log before the point's offset:
    /// a resume refuses a log whose bytes there differ.
    pub tail_crc: u32,
}

/// How many bytes before a saved offset [`LogPosition::tail_crc`] covers.
const TAIL_CRC_BYTES: u64 = 4096;

/// The one log the engine reads.
const CE_LOG: &str = "ce.log";

/// Where a run stopped in `ce.log`: the records it consumed and the
/// position to seek to. A resume seeks to the position and drops the
/// `consumed - parsed` records of the chunk there.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResumePoint {
    /// Parsed CE records consumed.
    pub consumed: u64,
    /// `ce.log`'s position.
    pub log: LogPosition,
}

/// CRC-32 of the up to [`TAIL_CRC_BYTES`] of `file` before `offset`.
fn tail_crc(file: &mut File, offset: u64) -> io::Result<u32> {
    let from = offset.saturating_sub(TAIL_CRC_BYTES);
    let mut bytes = vec![0u8; (offset - from) as usize];
    file.seek(SeekFrom::Start(from))?;
    file.read_exact(&mut bytes)?;
    Ok(astra_util::crc32(&bytes))
}

/// `ce.log` as a resumable stream of CE events: a reader plus the
/// parsed-but-unconsumed buffer, with the accounting a checkpoint saves.
///
/// `buf` only ever holds records of the last chunk read, so the chunk's
/// start (`start`) is where a resumed reader seeks to; it drops the
/// chunk's consumed records and carries on. Chunk parsing depends only
/// on the saved reader state (line count and ordering maximum, or the
/// binary decode state), so the re-read chunk yields the same records
/// and quarantine as the first read did.
pub struct EventStream {
    path: PathBuf,
    reader: Option<LogReader<CeRecord>>,
    buf: VecDeque<CeRecord>,
    /// Sequence number of the next record to pop (== records consumed).
    next_seq: u64,
    /// Parsed records still to drop before buffering (resume).
    skip_remaining: u64,
    /// Records parsed so far, from byte 0 (the budget denominator
    /// alongside the quarantine total).
    parsed: u64,
    /// Lines quarantined so far (whole file, from byte 0).
    quarantine: Quarantine,
    /// The position before the chunk `buf` holds, or the end position
    /// once the reader is retired (its `tail_crc` is filled in only when
    /// a checkpoint asks).
    start: LogPosition,
    /// The strict/lenient policy the stream enforces.
    ingest: IngestOptions,
    /// Tail mode: the file may still be growing. EOF means "dry for
    /// now" — the reader stays open and the next call re-probes it —
    /// and the lenient budget is evaluated at every dry point (each is
    /// the file's EOF as currently visible) instead of once.
    tail: bool,
    /// Bytes consumed by a retired reader.
    bytes_done: usize,
}

impl EventStream {
    /// Open a log directory's `ce.log` under the default strict ingest
    /// policy. The other logs are not opened, so they may be absent.
    pub fn open(dir: &Path) -> Result<Self, LoadError> {
        Self::open_with(dir, &ResumePoint::default(), IngestOptions::default())
    }

    /// As [`EventStream::open`], resuming after `consumed[0]` records:
    /// reads `ce.log` from its start and drops them.
    pub fn open_resumed(dir: &Path, consumed: [u64; 1]) -> Result<Self, LoadError> {
        let resume = ResumePoint {
            consumed: consumed[0],
            log: LogPosition::default(),
        };
        Self::open_with(dir, &resume, IngestOptions::default())
    }

    /// Open at a checkpoint's resume point under an explicit ingest
    /// policy. The reader seeks to the saved position and drops the
    /// consumed records of the chunk there; a position past byte 0 is
    /// refused with [`LoadError::Changed`] when the log is shorter than
    /// its offset, differs in the bytes before it, or changed format. A
    /// log that ends before its consumed count is refused the same way,
    /// at its end. Strict aborts on the first quarantined line (or a
    /// saved tally that is not empty), lenient checks the error budget
    /// at the file's EOF.
    pub fn open_with(
        dir: &Path,
        resume: &ResumePoint,
        ingest: IngestOptions,
    ) -> Result<Self, LoadError> {
        Self::open_impl(dir, resume, ingest, false)
    }

    /// As [`EventStream::open_with`], but in tail mode: the log may
    /// still be growing, so end-of-file means "dry for now" — the reader
    /// stays open, a torn final record is held back until the writer
    /// completes it, and [`EventStream::next_event`] returning `None`
    /// means the stream is dry, not finished. The call after `None`
    /// probes the log again, so a drain to `None` costs one probe (one
    /// `read` returning 0). A log shorter than the binlog magic at byte 0
    /// has its format chosen once that many bytes are there
    /// ([`LogReader`]).
    pub fn open_tailing(
        dir: &Path,
        resume: &ResumePoint,
        ingest: IngestOptions,
    ) -> Result<Self, LoadError> {
        Self::open_impl(dir, resume, ingest, true)
    }

    /// A position past byte 0 is first checked against the file: long
    /// enough and the same bytes before the offset here, the same format
    /// and (binary) a header that still validates in [`LogReader`].
    fn open_impl(
        dir: &Path,
        resume: &ResumePoint,
        ingest: IngestOptions,
        tail: bool,
    ) -> Result<Self, LoadError> {
        let (consumed, pos) = (resume.consumed, &resume.log);
        let path = dir.join(CE_LOG);
        let unreadable = |source: io::Error| LoadError::Unreadable {
            name: CE_LOG,
            path: path.clone(),
            source,
        };
        let changed = |detail: String| LoadError::Changed {
            name: CE_LOG,
            path: path.clone(),
            detail,
        };
        let skip = consumed.checked_sub(pos.parsed).ok_or_else(|| {
            changed(format!(
                "the checkpoint's position follows {} parsed records, more than the {consumed} \
                 it consumed",
                pos.parsed
            ))
        })?;
        let mut f = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(LoadError::MissingLog { name: CE_LOG, path })
            }
            Err(e) => return Err(unreadable(e)),
        };
        let point = pos.point;
        if !point.is_start() {
            let offset = point.offset();
            let len = f.metadata().map_err(unreadable)?.len();
            if len < offset {
                return Err(changed(format!(
                    "{len} bytes, shorter than the checkpoint's offset {offset}"
                )));
            }
            if tail_crc(&mut f, offset).map_err(unreadable)? != pos.tail_crc {
                return Err(changed(format!(
                    "the bytes before offset {offset} differ from the checkpoint's"
                )));
            }
        }
        let reader = LogReader::open(f, ce::FORMAT, binfmt::CE, ingest.retry, tail, point)
            .map_err(|e| match e.kind() {
                io::ErrorKind::InvalidData => changed(e.to_string()),
                _ => unreadable(e),
            })?;
        let stream = EventStream {
            path,
            reader: Some(reader),
            buf: VecDeque::new(),
            next_seq: consumed,
            skip_remaining: skip,
            parsed: pos.parsed,
            quarantine: pos.quarantine.clone(),
            start: pos.clone(),
            ingest,
            tail,
            bytes_done: 0,
        };
        // A strict run stops at its first quarantined line, so a stored
        // tally that is not empty can only resume leniently.
        if ingest.refuses(stream.parsed, &stream.quarantine, false) {
            return Err(stream.corrupt());
        }
        Ok(stream)
    }

    /// The typed abort for the accumulated quarantine.
    fn corrupt(&self) -> LoadError {
        LoadError::Corrupt {
            name: CE_LOG,
            path: self.path.clone(),
            quarantine: Box::new(self.quarantine.clone()),
            lines_ok: self.parsed,
        }
    }

    /// The state at the reader's current place: what a checkpoint saves
    /// once every record read so far is consumed.
    fn here(&self, point: ReadPoint) -> LogPosition {
        LogPosition {
            point,
            parsed: self.parsed,
            quarantine: self.quarantine.clone(),
            tail_crc: 0,
        }
    }

    /// Ensure the buffer is non-empty or the file is exhausted — in tail
    /// mode, or dry for now.
    fn refill(&mut self) -> Result<(), LoadError> {
        while self.buf.is_empty() {
            let Some(reader) = self.reader.as_mut() else {
                return Ok(());
            };
            let before = reader.point();
            match reader.next_chunk() {
                Ok(Some(mut chunk)) => {
                    let drop = self.skip_remaining.min(chunk.records.len() as u64) as usize;
                    if drop < chunk.records.len() {
                        // This chunk holds the next record.
                        self.start = self.here(before);
                    }
                    self.parsed += chunk.records.len() as u64;
                    self.quarantine.merge(&chunk.quarantine);
                    if self.ingest.refuses(self.parsed, &self.quarantine, false) {
                        return Err(self.corrupt());
                    }
                    chunk.records.drain(..drop);
                    self.skip_remaining -= drop as u64;
                    self.buf.extend(chunk.records);
                }
                Ok(None) => {
                    if self.skip_remaining > 0 {
                        return Err(LoadError::Changed {
                            name: CE_LOG,
                            path: self.path.clone(),
                            detail: format!(
                                "ends after {} records, but the checkpoint consumed {}",
                                self.parsed, self.next_seq
                            ),
                        });
                    }
                    // The lenient budget is checked at the log's end, as
                    // the batch drain checks it. In tail mode every dry
                    // point is the end as currently visible, so the check
                    // runs there too, but the reader stays open for
                    // whatever the writer appends next.
                    if self.ingest.refuses(self.parsed, &self.quarantine, true) {
                        return Err(self.corrupt());
                    }
                    if self.tail {
                        return Ok(());
                    }
                    self.bytes_done += reader.bytes_consumed();
                    let end = reader.point();
                    self.start = self.here(end);
                    self.reader = None;
                }
                Err(e) => {
                    return Err(LoadError::Unreadable {
                        name: CE_LOG,
                        path: self.path.clone(),
                        source: e,
                    })
                }
            }
        }
        Ok(())
    }

    /// Pop the next CE event in file order, or `None` at the end of
    /// `ce.log` (in tail mode: once it is dry for now; the next call
    /// probes it again).
    pub fn next_event(&mut self) -> Result<Option<MemEvent>, LoadError> {
        self.refill()?;
        Ok(self.buf.pop_front().map(|rec| {
            let seq = self.next_seq;
            self.next_seq += 1;
            MemEvent::Ce { seq, rec }
        }))
    }

    /// Parsed CE records consumed.
    pub fn consumed(&self) -> u64 {
        self.next_seq
    }

    /// What a checkpoint saves to resume here: the consumed count and
    /// the log's position, with the tail CRC read from the log.
    pub fn resume_point(&self) -> Result<ResumePoint, LoadError> {
        let mut log = match &self.reader {
            Some(reader) if self.buf.is_empty() => self.here(reader.point()),
            _ => self.start.clone(),
        };
        let offset = log.point.offset();
        if offset > 0 {
            log.tail_crc = File::open(&self.path)
                .and_then(|mut f| tail_crc(&mut f, offset))
                .map_err(|source| LoadError::Unreadable {
                    name: CE_LOG,
                    path: self.path.clone(),
                    source,
                })?;
        }
        Ok(ResumePoint {
            consumed: self.consumed(),
            log,
        })
    }

    /// Lines quarantined so far.
    pub fn skipped(&self) -> u64 {
        self.quarantine.total()
    }

    /// Per-reason quarantine report so far.
    pub fn quarantine(&self) -> &Quarantine {
        &self.quarantine
    }

    /// Log bytes read so far by this stream (a resumed stream counts
    /// from its position, not from byte 0).
    pub fn bytes_read(&self) -> usize {
        self.bytes_done + self.reader.as_ref().map_or(0, LogReader::bytes_consumed)
    }
}

/// Engine options for [`stream_analyze`].
#[derive(Debug, Clone, Default)]
pub struct StreamOptions {
    /// Ingest policy (strict by default; `--lenient` quarantines within
    /// an error budget).
    pub ingest: IngestOptions,
    /// Write a checkpoint every N consumed CE records (absolute stream
    /// position, so cadence survives resume). Requires `checkpoint_path`.
    pub checkpoint_every: Option<u64>,
    /// Where checkpoints are written (atomically, via a `.tmp` sibling).
    /// [`stream_analyze`] also writes one at the end of the run.
    pub checkpoint_path: Option<PathBuf>,
    /// Resume from a checkpoint file instead of starting fresh.
    pub resume_from: Option<PathBuf>,
    /// Stop once N CE records are consumed: write a final checkpoint and
    /// return `Ok(None)` instead of a report. Test/ops hook for
    /// exercising mid-stream restarts.
    pub stop_after: Option<u64>,
}

/// Why a streaming run failed.
#[derive(Debug)]
pub enum StreamError {
    /// The log directory could not be opened or read.
    Load(LoadError),
    /// A checkpoint could not be written, read, or decoded.
    Checkpoint {
        /// Checkpoint file involved (empty when none was configured).
        path: PathBuf,
        /// What went wrong.
        detail: String,
    },
    /// A checkpoint of an older format version, which this build no
    /// longer resumes.
    Version {
        /// Checkpoint file involved.
        path: PathBuf,
        /// Its header line.
        header: String,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Load(e) => write!(f, "{e}"),
            StreamError::Checkpoint { path, detail } => {
                write!(f, "checkpoint {}: {detail}", path.display())
            }
            StreamError::Version { path, header } => write!(
                f,
                "checkpoint {}: written as {header}, which this build no longer reads (it \
                 reads {}); delete it to start over from the logs",
                path.display(),
                checkpoint::HEADER
            ),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Load(e) => Some(e),
            StreamError::Checkpoint { .. } | StreamError::Version { .. } => None,
        }
    }
}

impl From<LoadError> for StreamError {
    fn from(e: LoadError) -> Self {
        StreamError::Load(e)
    }
}

/// How often the engine samples its accounted working set into the
/// `stream.workingset_bytes` gauge.
const WORKINGSET_SAMPLE_EVERY: u64 = 65_536;

/// Run every analyzer over a log directory's `ce.log` in one pass.
///
/// Returns `Ok(None)` when `stop_after` cut the run short (a checkpoint
/// was written; re-run with `resume_from` to finish), otherwise the full
/// [`StreamReport`]. With a `checkpoint_path`, a finished run also saves
/// the state it ends in (unless its last periodic checkpoint already
/// did), so a later resume after `ce.log` grows reads only the appended
/// bytes. Peak memory is analyzer state: at no point is the record
/// vector materialized.
pub fn stream_analyze(
    dir: &Path,
    system: SystemConfig,
    opts: &StreamOptions,
) -> Result<Option<StreamReport>, StreamError> {
    let _span = astra_obs::span("pipeline.stream");
    let (mut analyzer, resume) = match &opts.resume_from {
        Some(path) => checkpoint::read(path, &system)?,
        None => (
            StreamAnalyzer::new(system, CoalesceConfig::default(), PredictConfig::default()),
            ResumePoint::default(),
        ),
    };
    let mut source = EventStream::open_with(dir, &resume, opts.ingest)?;
    let mut checkpoints_written = 0u64;
    // The position of the last periodic checkpoint this run wrote.
    let mut checkpointed_at = None;

    let checkpoint_now =
        |analyzer: &StreamAnalyzer, source: &EventStream| -> Result<(), StreamError> {
            let path = opts
                .checkpoint_path
                .as_deref()
                .ok_or_else(|| StreamError::Checkpoint {
                    path: PathBuf::new(),
                    detail: "a checkpoint cadence or stop was requested without --checkpoint FILE"
                        .into(),
                })?;
            checkpoint::write(path, analyzer, &source.resume_point()?)
        };

    loop {
        let position = source.consumed();
        if opts.stop_after.is_some_and(|stop| position >= stop) {
            checkpoint_now(&analyzer, &source)?;
            flush_metrics(&source, &resume, checkpoints_written + 1, &analyzer);
            return Ok(None);
        }
        let Some(ev) = source.next_event()? else {
            break;
        };
        analyzer.consume(&ev);
        let position = position + 1;
        if opts
            .checkpoint_every
            .is_some_and(|every| every > 0 && position.is_multiple_of(every))
        {
            checkpoint_now(&analyzer, &source)?;
            checkpointed_at = Some(position);
            checkpoints_written += 1;
        }
        if position.is_multiple_of(WORKINGSET_SAMPLE_EVERY) {
            astra_obs::global()
                .gauge("stream.workingset_bytes")
                .set_max(analyzer.accounted_bytes() as f64);
        }
    }
    if opts.checkpoint_path.is_some() && checkpointed_at != Some(source.consumed()) {
        checkpoint_now(&analyzer, &source)?;
        checkpoints_written += 1;
    }

    flush_metrics(&source, &resume, checkpoints_written, &analyzer);
    let mut report = analyzer.snapshot();
    report.skipped = source.skipped();
    Ok(Some(report))
}

/// Emit the `stream.*` counters once, at end of a run that started at
/// `resume` (batched locally so the hot loop never touches the registry).
fn flush_metrics(
    source: &EventStream,
    resume: &ResumePoint,
    checkpoints_written: u64,
    analyzer: &StreamAnalyzer,
) {
    let obs = astra_obs::global();
    obs.counter("stream.events")
        .add(source.consumed() - resume.consumed);
    obs.counter("stream.skipped_lines").add(source.skipped());
    astra_logs::io::publish_quarantine(source.quarantine());
    obs.counter("stream.bytes_read")
        .add(source.bytes_read() as u64);
    if checkpoints_written > 0 {
        obs.counter("stream.checkpoints_written")
            .add(checkpoints_written);
    }
    obs.gauge("stream.workingset_bytes")
        .set_max(analyzer.accounted_bytes() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Dataset;

    pub(super) struct TempDirGuard(pub(super) PathBuf);

    impl TempDirGuard {
        pub(super) fn new(tag: &str) -> TempDirGuard {
            use std::sync::atomic::{AtomicU64, Ordering};
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "astra-{tag}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            TempDirGuard(dir)
        }
    }

    impl Drop for TempDirGuard {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    pub(super) fn written_dataset(tag: &str) -> (Dataset, TempDirGuard) {
        let ds = Dataset::generate(1, 42);
        let guard = TempDirGuard::new(tag);
        ds.write_logs(&guard.0).unwrap();
        (ds, guard)
    }

    fn drain(stream: &mut EventStream) -> Vec<MemEvent> {
        let mut events = Vec::new();
        while let Some(ev) = stream.next_event().unwrap() {
            events.push(ev);
        }
        events
    }

    /// `ds`'s CE log as the events a full read yields.
    fn ce_events(ds: &Dataset) -> Vec<MemEvent> {
        (0..)
            .zip(&ds.sim.ce_log)
            .map(|(seq, rec)| MemEvent::Ce { seq, rec: *rec })
            .collect()
    }

    pub(super) fn append(path: &Path, bytes: &[u8]) {
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .unwrap()
            .write_all(bytes)
            .unwrap();
    }

    /// Write `ds` into `dir` in `format` with `ce.log` cut after its
    /// first `cut` records; returns the bytes that complete it. Binary
    /// appends are whole blocks — `write_records` output minus its
    /// header, since the prefix's header already declares every record.
    fn write_with_ce_prefix(
        ds: &Dataset,
        dir: &Path,
        format: binfmt::LogFormat,
        cut: usize,
    ) -> Vec<u8> {
        ds.write_logs_as(dir, format).unwrap();
        let encode = |recs: &[CeRecord]| {
            let mut out = Vec::new();
            match format {
                binfmt::LogFormat::Text => {
                    astra_logs::io::write_lines_with(&mut out, recs, |r, buf| r.to_line_into(buf))
                        .unwrap();
                }
                binfmt::LogFormat::Binary => {
                    binfmt::write_records(&mut out, binfmt::CE, recs).unwrap();
                    out.drain(..binfmt::HEADER_LEN);
                }
            }
            out
        };
        let ces = &ds.sim.ce_log;
        let mut prefix = Vec::new();
        if format == binfmt::LogFormat::Binary {
            prefix.extend(binfmt::header_bytes(binfmt::KIND_CE, ces.len() as u64));
        }
        prefix.extend(encode(&ces[..cut]));
        std::fs::write(dir.join("ce.log"), prefix).unwrap();
        encode(&ces[cut..])
    }

    #[test]
    fn tailing_stream_reprobes_dry_logs_after_draining() {
        let ds = Dataset::generate(1, 42);
        let cut = ds.sim.ce_log.len() / 2;
        for format in [binfmt::LogFormat::Text, binfmt::LogFormat::Binary] {
            let guard = TempDirGuard::new("stream-tail-reprobe");
            let rest = write_with_ce_prefix(&ds, &guard.0, format, cut);
            let mut stream = EventStream::open_tailing(
                &guard.0,
                &ResumePoint::default(),
                IngestOptions::default(),
            )
            .unwrap();
            let mut events = drain(&mut stream);
            assert_eq!(stream.consumed(), cut as u64, "{format:?}: the prefix");
            // Nothing appended: the re-probe finds the log still dry.
            assert!(stream.next_event().unwrap().is_none(), "{format:?}");

            append(&guard.0.join("ce.log"), &rest);
            events.extend(drain(&mut stream));
            assert!(
                events == ce_events(&ds),
                "{format:?}: CE events must continue in file order, no gap or repeat"
            );
            let mut complete = EventStream::open(&guard.0).unwrap();
            drain(&mut complete);
            assert_eq!(stream.consumed(), complete.consumed(), "{format:?}");
            assert_eq!(stream.bytes_read(), complete.bytes_read(), "{format:?}");
        }
    }

    #[test]
    fn a_tailing_resume_point_follows_a_log_that_grew() {
        let ds = Dataset::generate(1, 42);
        let cut = ds.sim.ce_log.len() / 2;
        for format in [binfmt::LogFormat::Text, binfmt::LogFormat::Binary] {
            let guard = TempDirGuard::new("stream-tail-grown");
            let rest = write_with_ce_prefix(&ds, &guard.0, format, cut);
            let ingest = IngestOptions::default();
            let mut first =
                EventStream::open_tailing(&guard.0, &ResumePoint::default(), ingest).unwrap();
            let mut events = drain(&mut first);
            let point = first.resume_point().unwrap();
            assert_eq!(point.consumed, cut as u64, "{format:?}");
            let prefix_len = std::fs::metadata(guard.0.join("ce.log")).unwrap().len();
            assert_eq!(point.log.point.offset(), prefix_len, "{format:?}");
            drop(first);

            // The writer finishes ce.log while nothing reads it; a
            // stream opened at the saved point reads only the new bytes.
            append(&guard.0.join("ce.log"), &rest);
            let mut second = EventStream::open_tailing(&guard.0, &point, ingest).unwrap();
            events.extend(drain(&mut second));
            assert_eq!(second.bytes_read(), rest.len(), "{format:?}");
            assert!(
                events == ce_events(&ds),
                "{format:?}: events differ from a one-shot read"
            );
        }
    }

    #[test]
    fn ce_events_come_in_file_order_and_no_other_log_is_read() {
        let (ds, guard) = written_dataset("stream-order");
        let mut stream = EventStream::open(&guard.0).unwrap();
        // Every CE in file order, seq numbered from 0: the batch record
        // vector exactly.
        assert!(drain(&mut stream) == ce_events(&ds));
        assert_eq!(stream.skipped(), 0);
        // The bytes read are ce.log's, and no other log's.
        let ce_len = std::fs::metadata(guard.0.join("ce.log")).unwrap().len();
        assert_eq!(stream.bytes_read() as u64, ce_len);
    }

    #[test]
    fn binary_logs_stream_identically_and_resume() {
        let (ds, guard) = written_dataset("stream-binfmt-text");
        let bin_guard = TempDirGuard::new("stream-binfmt-bin");
        ds.write_logs_as(&bin_guard.0, binfmt::LogFormat::Binary)
            .unwrap();
        let mut text_stream = EventStream::open(&guard.0).unwrap();
        let text_events = drain(&mut text_stream);
        let mut bin_stream = EventStream::open(&bin_guard.0).unwrap();
        let bin_events = drain(&mut bin_stream);
        assert!(bin_events == text_events, "the stream must be format-blind");

        // Checkpoint-style resume lands on the same tail.
        let mut head = EventStream::open(&bin_guard.0).unwrap();
        let cut = 500;
        for _ in 0..cut {
            head.next_event().unwrap().unwrap();
        }
        let mut tail = EventStream::open_resumed(&bin_guard.0, [head.consumed()]).unwrap();
        assert!(drain(&mut tail).as_slice() == &text_events[cut..]);
    }

    #[test]
    fn resume_skips_exactly_the_consumed_prefix() {
        let (_, guard) = written_dataset("stream-resume");
        let mut full = EventStream::open(&guard.0).unwrap();
        let all = drain(&mut full);

        let mut head = EventStream::open(&guard.0).unwrap();
        let cut = 1000;
        for _ in 0..cut {
            head.next_event().unwrap().unwrap();
        }
        assert_eq!(head.consumed(), cut as u64);

        let mut tail = EventStream::open_resumed(&guard.0, [head.consumed()]).unwrap();
        let rest = drain(&mut tail);
        assert_eq!(rest.len(), all.len() - cut);
        assert!(rest.as_slice() == &all[cut..], "resumed tail differs");
        // Re-reading the whole file recovers the full skip count.
        assert_eq!(tail.skipped(), full.skipped());
    }

    #[test]
    fn strict_stream_aborts_on_corrupt_log() {
        let (ds, guard) = written_dataset("stream-strict");
        // Garbage in the logs the stream does not read changes nothing.
        for name in ["het.log", "inventory.log", "sensors.log"] {
            append(&guard.0.join(name), b"ntpd[9]: clock step\n");
        }
        let mut stream = EventStream::open(&guard.0).unwrap();
        assert_eq!(drain(&mut stream).len(), ds.sim.ce_log.len());

        append(&guard.0.join("ce.log"), b"ntpd[9]: clock step\n");
        let mut stream = EventStream::open(&guard.0).unwrap();
        let err = loop {
            match stream.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("expected a Corrupt abort"),
                Err(e) => break e,
            }
        };
        match err {
            LoadError::Corrupt { name, .. } => assert_eq!(name, "ce.log"),
            other => panic!("expected Corrupt, got {other}"),
        }
    }

    #[test]
    fn lenient_stream_quarantines_and_finishes() {
        let (ds, guard) = written_dataset("stream-lenient");
        append(&guard.0.join("ce.log"), b"ntpd[9]: clock step\n");
        let mut stream = EventStream::open_with(
            &guard.0,
            &ResumePoint::default(),
            astra_logs::IngestOptions::lenient(None),
        )
        .unwrap();
        let events = drain(&mut stream);
        assert_eq!(stream.skipped(), 1);
        assert!(
            events == ce_events(&ds),
            "quarantining must not drop records"
        );
    }

    #[test]
    fn missing_required_log_is_load_error() {
        let (_, guard) = written_dataset("stream-missing");
        std::fs::remove_file(guard.0.join("ce.log")).unwrap();
        match EventStream::open(&guard.0) {
            Err(LoadError::MissingLog { name, .. }) => assert_eq!(name, "ce.log"),
            Err(other) => panic!("expected MissingLog, got {other}"),
            Ok(_) => panic!("expected MissingLog, opened fine"),
        }
    }

    #[test]
    fn absent_sensor_log_is_tolerated() {
        // The stream opens ce.log alone: the other three may all be gone.
        let (ds, guard) = written_dataset("stream-nosensors");
        for name in ["sensors.log", "het.log", "inventory.log"] {
            std::fs::remove_file(guard.0.join(name)).unwrap();
        }
        let mut stream = EventStream::open(&guard.0).unwrap();
        assert!(drain(&mut stream) == ce_events(&ds));
    }

    #[test]
    fn stream_analyze_reports_and_matches_batch_analysis() {
        let (ds, guard) = written_dataset("stream-analyze");
        let report = stream_analyze(&guard.0, ds.system, &StreamOptions::default())
            .unwrap()
            .expect("no stop requested");
        let analysis = crate::pipeline::Analysis::run(ds.system, ds.sim.ce_log.clone());
        assert_eq!(report.ces, analysis.total_errors());
        assert_eq!(report.faults, analysis.faults);
        assert_eq!(report.spatial, analysis.spatial);
        assert_eq!(report.skipped, 0);
    }

    #[test]
    fn stop_after_requires_checkpoint_path() {
        let (ds, guard) = written_dataset("stream-stopnopath");
        let opts = StreamOptions {
            stop_after: Some(10),
            ..StreamOptions::default()
        };
        match stream_analyze(&guard.0, ds.system, &opts) {
            Err(StreamError::Checkpoint { .. }) => {}
            other => panic!("expected checkpoint error, got {:?}", other.is_ok()),
        }
    }
}
