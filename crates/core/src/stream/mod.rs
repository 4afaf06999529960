//! The incremental analysis engine: one pass, every analysis.
//!
//! The batch pipeline materializes the full CE record vector, then runs
//! each analysis as its own pass. This module inverts that: the four logs
//! are k-way merged into one time-ordered [`MemEvent`] stream, and every
//! analysis implements [`Analyzer`] — a fold over that stream — so a
//! single pass drives coalescing, spatial aggregation, HET series,
//! temperature correlation, and online prediction *concurrently*, with
//! peak memory bounded by analyzer state (footprints, count tables,
//! per-rank feature state) rather than by dataset size.
//!
//! Determinism is by construction, in the same style as `astra_util::par`:
//!
//! * the merge pops the head with the smallest `(time, source index)` and
//!   preserves FIFO order within each source, so the merged order is a
//!   pure function of file contents — in particular all CE events keep
//!   exact file order, which is the order the batch record vector has;
//! * every analyzer's [`Analyzer::merge`] is either exact (integer sums,
//!   footprint-list append in stream order) or never exercised by the
//!   shipped paths (see `analyzers`);
//! * checkpoints identify the resume point per source by *consumed
//!   parsed-record counts* plus a [`LogPosition`]: the offset of the
//!   chunk (or block) holding the next record, with the reader and ingest
//!   state there. Resume seeks to that offset and drops the chunk's
//!   consumed records; chunk parsing is deterministic from any chunk
//!   start, so the resumed stream lands on the same state as the run
//!   that wrote the checkpoint.
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

use astra_logs::binfmt::{self, BinFormat, BinPoint, BinReader};
use astra_logs::io::{ChunkReader, IngestChunk, TextPoint, STREAM_CHUNK_BYTES};
use astra_logs::{
    ce, het, inventory, sensor, CeRecord, HetRecord, IngestOptions, LineFormat, Quarantine,
    ReplacementRecord, SensorRecord,
};
use astra_predict::PredictConfig;
use astra_topology::SystemConfig;
use astra_util::Minute;

use crate::coalesce::CoalesceConfig;
use crate::pipeline::LoadError;

pub use analyzers::{HetReport, SensorMonth, StreamAnalyzer, StreamReport};

/// One record of the merged, time-ordered analysis stream.
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

impl MemEvent {
    /// Event time used for merge ordering. Inventory scans carry a date,
    /// not a minute; they merge at that day's midnight.
    pub fn time(&self) -> Minute {
        match self {
            MemEvent::Ce { rec, .. } => rec.time,
            MemEvent::Het { rec, .. } => rec.time,
            MemEvent::Inventory { rec, .. } => rec.date.midnight(),
            MemEvent::Sensor { rec, .. } => rec.time,
        }
    }

    /// Which log the event came from.
    pub fn source(&self) -> EventSource {
        match self {
            MemEvent::Ce { .. } => EventSource::Ce,
            MemEvent::Het { .. } => EventSource::Het,
            MemEvent::Inventory { .. } => EventSource::Inventory,
            MemEvent::Sensor { .. } => EventSource::Sensor,
        }
    }

    /// File-order index within the event's source log.
    pub fn seq(&self) -> u64 {
        match self {
            MemEvent::Ce { seq, .. }
            | MemEvent::Het { seq, .. }
            | MemEvent::Inventory { seq, .. }
            | MemEvent::Sensor { seq, .. } => *seq,
        }
    }
}

/// The four logs, in merge tie-break order (lower index wins a time tie).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventSource {
    /// `ce.log`.
    Ce,
    /// `het.log`.
    Het,
    /// `inventory.log`.
    Inventory,
    /// `sensors.log`.
    Sensor,
}

impl EventSource {
    /// All sources in tie-break order.
    pub const ALL: [EventSource; 4] = [
        EventSource::Ce,
        EventSource::Het,
        EventSource::Inventory,
        EventSource::Sensor,
    ];

    /// Dense index, 0–3.
    pub fn index(self) -> usize {
        match self {
            EventSource::Ce => 0,
            EventSource::Het => 1,
            EventSource::Inventory => 2,
            EventSource::Sensor => 3,
        }
    }

    /// Metric-name token (`stream.events.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            EventSource::Ce => "ce",
            EventSource::Het => "het",
            EventSource::Inventory => "inventory",
            EventSource::Sensor => "sensors",
        }
    }
}

/// A fold over the merged event stream.
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

/// A reader's saved place in its log, by format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPoint {
    /// A text log's [`ChunkReader::point`].
    Text(TextPoint),
    /// An `astra-binlog` file's [`BinReader::point`].
    Bin(BinPoint),
}

impl Default for ReadPoint {
    /// Byte 0, which is the start of a log in either format.
    fn default() -> Self {
        ReadPoint::Text(TextPoint::default())
    }
}

impl ReadPoint {
    /// File offset of the next chunk or block.
    pub fn offset(&self) -> u64 {
        match self {
            ReadPoint::Text(p) => p.offset,
            ReadPoint::Bin(p) => p.offset,
        }
    }

    /// Whether this is a fresh start, whatever the log's format.
    fn is_start(&self) -> bool {
        match self {
            ReadPoint::Text(p) => p.offset == 0,
            ReadPoint::Bin(p) => p.offset == 0 && !p.ended,
        }
    }
}

/// One log's resume position: the reader's place at the chunk (text) or
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

/// Where a run stopped, per log in [`EventSource`] order: the records it
/// consumed and the position to seek to. A log resumes at its position
/// and drops the `consumed - parsed` records of the chunk there; byte-0
/// positions ([`ResumePoint::replay`]) replay the whole log instead.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResumePoint {
    /// Parsed records consumed per source.
    pub consumed: [u64; 4],
    /// Per-source positions.
    pub logs: [LogPosition; 4],
}

impl ResumePoint {
    /// Byte-0 positions: read each log from its start and drop its first
    /// `consumed` records (what a v2 checkpoint resumes as).
    pub fn replay(consumed: [u64; 4]) -> Self {
        ResumePoint {
            consumed,
            logs: Default::default(),
        }
    }
}

/// The per-file reader behind a [`LogSource`], picked by magic-byte
/// sniffing at open: text logs stream through the chunked line parser,
/// `astra-binlog` files through the CRC-framed block reader. Both yield
/// [`IngestChunk`]s, so everything downstream is format-blind.
enum SourceReader<T> {
    Text(ChunkReader<File, T>),
    Bin(BinReader<File, T>),
}

impl<T: Send> SourceReader<T> {
    fn next_chunk(&mut self) -> io::Result<Option<IngestChunk<T>>> {
        match self {
            SourceReader::Text(r) => r.next_chunk(),
            SourceReader::Bin(r) => r.next_chunk(),
        }
    }

    fn bytes_consumed(&self) -> usize {
        match self {
            SourceReader::Text(r) => r.bytes_consumed(),
            SourceReader::Bin(r) => r.bytes_consumed(),
        }
    }

    fn point(&self) -> ReadPoint {
        match self {
            SourceReader::Text(r) => ReadPoint::Text(r.point()),
            SourceReader::Bin(r) => ReadPoint::Bin(r.point()),
        }
    }
}

/// CRC-32 of the up to [`TAIL_CRC_BYTES`] of `file` before `offset`.
fn tail_crc(file: &mut File, offset: u64) -> io::Result<u32> {
    let from = offset.saturating_sub(TAIL_CRC_BYTES);
    let mut bytes = vec![0u8; (offset - from) as usize];
    file.seek(SeekFrom::Start(from))?;
    file.read_exact(&mut bytes)?;
    Ok(astra_util::crc32(&bytes))
}

/// One log file as a resumable record queue: a [`SourceReader`] plus the
/// parsed-but-unconsumed buffer, with the accounting a checkpoint saves.
/// `buf` only ever holds records of the last chunk read, so the chunk's
/// start (`start`) is where a resumed reader seeks to; it drops the
/// chunk's consumed records and carries on. Chunk parsing depends only
/// on the saved reader state (line count and ordering maximum, or the
/// binary decode state), so the re-read chunk yields the same records
/// and quarantine as the first read did.
struct LogSource<T> {
    name: &'static str,
    path: PathBuf,
    reader: Option<SourceReader<T>>,
    buf: VecDeque<T>,
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
    /// The strict/lenient policy this source enforces.
    ingest: IngestOptions,
    /// Tail mode: the file may still be growing. EOF means "dry for
    /// now" — the reader stays open and a later refill re-probes it —
    /// and the lenient budget is evaluated at every dry point (each is
    /// the file's EOF as currently visible) instead of once.
    tail: bool,
    /// Tail mode only: the reader came up dry during the current drain,
    /// so `refill` leaves it alone until [`EventStream::next_event`]
    /// returns `None` and clears the flag.
    dry: bool,
    /// Bytes consumed by retired readers.
    bytes_done: usize,
}

impl<T: Send> LogSource<T> {
    /// Open `dir/name` at `pos` with `consumed` records already folded.
    /// A position past byte 0 is first checked against the file: long
    /// enough, the same bytes before the offset, the same format, and
    /// (binary) a header that still validates.
    #[allow(clippy::too_many_arguments)]
    fn open(
        dir: &Path,
        name: &'static str,
        format: LineFormat<T>,
        bin: BinFormat<T>,
        required: bool,
        consumed: u64,
        pos: &LogPosition,
        ingest: IngestOptions,
        tail: bool,
    ) -> Result<Self, LoadError> {
        let path = dir.join(name);
        let unreadable = |source: io::Error| LoadError::Unreadable {
            name,
            path: dir.join(name),
            source,
        };
        let changed = |detail: String| LoadError::Changed {
            name,
            path: dir.join(name),
            detail,
        };
        let skip = consumed.checked_sub(pos.parsed).ok_or_else(|| {
            changed(format!(
                "the checkpoint's position follows {} parsed records, more than the {consumed} \
                 it consumed",
                pos.parsed
            ))
        })?;
        let reader = match File::open(&path) {
            Ok(mut f) => {
                let is_bin = binfmt::file_is_binlog(&path).map_err(unreadable)?;
                let point = pos.point;
                let mut header = Vec::with_capacity(binfmt::HEADER_LEN);
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
                    match (point, is_bin) {
                        (ReadPoint::Text(_), true) => {
                            return Err(changed(
                                "was text at the checkpoint, is astra-binlog now".into(),
                            ))
                        }
                        (ReadPoint::Bin(_), false) => {
                            return Err(changed(
                                "was astra-binlog at the checkpoint, is text now".into(),
                            ))
                        }
                        _ => {}
                    }
                    if is_bin {
                        f.seek(SeekFrom::Start(0)).map_err(unreadable)?;
                        (&mut f)
                            .take(binfmt::HEADER_LEN as u64)
                            .read_to_end(&mut header)
                            .map_err(unreadable)?;
                    }
                    f.seek(SeekFrom::Start(offset)).map_err(unreadable)?;
                }
                // At byte 0 either format's point is a fresh start.
                Some(match point {
                    ReadPoint::Bin(p) if is_bin => SourceReader::Bin(
                        BinReader::new(f, bin)
                            .starting_at(p, &header)
                            .map_err(|e| changed(format!("header no longer valid: {e}")))?
                            .with_retry(ingest.retry)
                            .with_tail(tail),
                    ),
                    _ if is_bin => SourceReader::Bin(
                        BinReader::new(f, bin)
                            .with_retry(ingest.retry)
                            .with_tail(tail),
                    ),
                    ReadPoint::Text(p) => SourceReader::Text(
                        ChunkReader::new(f, format, STREAM_CHUNK_BYTES)
                            .starting_at(p)
                            .with_retry(ingest.retry)
                            .with_tail(tail),
                    ),
                    ReadPoint::Bin(_) => SourceReader::Text(
                        ChunkReader::new(f, format, STREAM_CHUNK_BYTES)
                            .with_retry(ingest.retry)
                            .with_tail(tail),
                    ),
                })
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                if required {
                    return Err(LoadError::MissingLog { name, path });
                }
                if consumed > 0 || !pos.point.is_start() {
                    return Err(changed(format!(
                        "missing, but the checkpoint consumed {consumed} records of it"
                    )));
                }
                None
            }
            Err(e) => return Err(unreadable(e)),
        };
        let source = LogSource {
            name,
            path,
            reader,
            buf: VecDeque::new(),
            next_seq: consumed,
            skip_remaining: skip,
            parsed: pos.parsed,
            quarantine: pos.quarantine.clone(),
            start: pos.clone(),
            ingest,
            tail,
            dry: false,
            bytes_done: 0,
        };
        // A strict run stops at its first quarantined line, so a stored
        // tally that is not empty can only resume leniently.
        if ingest.is_strict() && !source.quarantine.is_empty() {
            return Err(source.corrupt());
        }
        Ok(source)
    }

    /// The typed abort for this source's accumulated quarantine.
    fn corrupt(&self) -> LoadError {
        LoadError::Corrupt {
            name: self.name,
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
    /// mode, or dry for now. A tail-mode reader that comes up dry is
    /// marked `dry` and not read again until the stream has drained to
    /// `None`: one probe per dry log per drain, however many records the
    /// other logs still hold.
    fn refill(&mut self) -> Result<(), LoadError> {
        while self.buf.is_empty() {
            let Some(reader) = self.reader.as_mut() else {
                return Ok(());
            };
            if self.dry {
                return Ok(());
            }
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
                    if self.ingest.is_strict() && !self.quarantine.is_empty() {
                        return Err(self.corrupt());
                    }
                    chunk.records.drain(..drop);
                    self.skip_remaining -= drop as u64;
                    self.buf.extend(chunk.records);
                }
                Ok(None) => {
                    if self.skip_remaining > 0 {
                        return Err(LoadError::Changed {
                            name: self.name,
                            path: self.path.clone(),
                            detail: format!(
                                "ends after {} records, but the checkpoint consumed {}",
                                self.parsed, self.next_seq
                            ),
                        });
                    }
                    // Lenient budget is per file, checked at its EOF —
                    // same rule as `parse_stream_chunked`. In tail mode
                    // every dry point is the EOF as currently visible,
                    // so the check runs there too, but the reader stays
                    // open for whatever the writer appends next.
                    let total = self.parsed + self.quarantine.total();
                    if total > 0
                        && self.quarantine.total() as f64 / total as f64
                            > self.ingest.max_bad_frac()
                    {
                        return Err(self.corrupt());
                    }
                    if self.tail {
                        self.dry = true;
                        return Ok(());
                    }
                    self.bytes_done += reader.bytes_consumed();
                    let end = reader.point();
                    self.start = self.here(end);
                    self.reader = None;
                }
                Err(e) => {
                    return Err(LoadError::Unreadable {
                        name: self.name,
                        path: self.path.clone(),
                        source: e,
                    })
                }
            }
        }
        Ok(())
    }

    fn head(&self) -> Option<&T> {
        self.buf.front()
    }

    fn pop(&mut self) -> (u64, T) {
        let rec = self.buf.pop_front().expect("pop on refilled source");
        let seq = self.next_seq;
        self.next_seq += 1;
        (seq, rec)
    }

    fn bytes(&self) -> usize {
        self.bytes_done + self.reader.as_ref().map_or(0, SourceReader::bytes_consumed)
    }

    /// Where a resume should seek for this log, with its tail CRC read
    /// from the file.
    fn position(&self) -> Result<LogPosition, LoadError> {
        let mut pos = match &self.reader {
            Some(reader) if self.buf.is_empty() => self.here(reader.point()),
            _ => self.start.clone(),
        };
        let offset = pos.point.offset();
        if offset > 0 {
            pos.tail_crc = File::open(&self.path)
                .and_then(|mut f| tail_crc(&mut f, offset))
                .map_err(|source| LoadError::Unreadable {
                    name: self.name,
                    path: self.path.clone(),
                    source,
                })?;
        }
        Ok(pos)
    }
}

/// The k-way merge over the four log readers.
///
/// `next` pops the event with the smallest `(time, source index)` among
/// the source heads. Within one source records come out in file order
/// whatever their timestamps (`sensors.log` is node-major, not
/// time-sorted), so the merged order is deterministic for any inputs.
pub struct EventStream {
    ce: LogSource<CeRecord>,
    het: LogSource<HetRecord>,
    inventory: LogSource<ReplacementRecord>,
    sensors: LogSource<SensorRecord>,
}

impl EventStream {
    /// Open a log directory (same required/optional semantics as
    /// `AnalysisInput::from_dir`: `sensors.log` may be absent) under the
    /// default strict ingest policy.
    pub fn open(dir: &Path) -> Result<Self, LoadError> {
        Self::open_resumed(dir, [0; 4])
    }

    /// As [`EventStream::open`], resuming after `consumed[source]` parsed
    /// records of each log: the byte-0 case of a checkpoint resume
    /// ([`ResumePoint::replay`]), which reads each log from its start
    /// and drops those records.
    pub fn open_resumed(dir: &Path, consumed: [u64; 4]) -> Result<Self, LoadError> {
        Self::open_with(
            dir,
            &ResumePoint::replay(consumed),
            IngestOptions::default(),
        )
    }

    /// Open at a checkpoint's resume point under an explicit ingest
    /// policy. Each log seeks to its saved position and drops the
    /// consumed records of the chunk there; a position past byte 0 is
    /// refused with [`LoadError::Changed`] when the log is shorter than
    /// its offset, differs in the bytes before it, or changed format. A
    /// log that ends before its consumed count is refused the same way,
    /// at its end. Each source enforces the policy independently: strict
    /// aborts on its first quarantined line (or a saved tally that is
    /// not empty), lenient checks the error budget at that file's EOF.
    pub fn open_with(
        dir: &Path,
        resume: &ResumePoint,
        ingest: IngestOptions,
    ) -> Result<Self, LoadError> {
        Self::open_impl(dir, resume, ingest, false)
    }

    /// As [`EventStream::open_with`], but in tail mode: the logs may
    /// still be growing, so end-of-file means "dry for now" — readers
    /// stay open, a torn final record is held back until the writer
    /// completes it, and [`EventStream::next_event`] returning `None`
    /// means the stream is dry, not finished. While some sources are dry
    /// the k-way merge pops among the *available* heads only, so the
    /// cross-source interleaving is best-effort; every analyzer folds
    /// per-source state, so analysis results are unaffected (within one
    /// source, file order is always preserved).
    ///
    /// Probe rule: a log that comes up dry stays dry until `next_event`
    /// returns `None`, and the call after `None` re-probes every log. A
    /// drain to `None` therefore costs one probe (one `read` returning 0)
    /// per dry log, not one per record popped from the logs that still
    /// hold data; data appended to a dry log mid-drain is picked up by
    /// the next drain.
    pub fn open_tailing(
        dir: &Path,
        resume: &ResumePoint,
        ingest: IngestOptions,
    ) -> Result<Self, LoadError> {
        Self::open_impl(dir, resume, ingest, true)
    }

    fn open_impl(
        dir: &Path,
        resume: &ResumePoint,
        ingest: IngestOptions,
        tail: bool,
    ) -> Result<Self, LoadError> {
        let (consumed, logs) = (&resume.consumed, &resume.logs);
        Ok(EventStream {
            ce: LogSource::open(
                dir,
                "ce.log",
                ce::FORMAT,
                binfmt::CE,
                true,
                consumed[0],
                &logs[0],
                ingest,
                tail,
            )?,
            het: LogSource::open(
                dir,
                "het.log",
                het::FORMAT,
                binfmt::HET,
                true,
                consumed[1],
                &logs[1],
                ingest,
                tail,
            )?,
            inventory: LogSource::open(
                dir,
                "inventory.log",
                inventory::FORMAT,
                binfmt::INVENTORY,
                true,
                consumed[2],
                &logs[2],
                ingest,
                tail,
            )?,
            sensors: LogSource::open(
                dir,
                "sensors.log",
                sensor::FORMAT,
                binfmt::SENSOR,
                false,
                consumed[3],
                &logs[3],
                ingest,
                tail,
            )?,
        })
    }

    /// Pop the next event in merge order, or `None` at end of all logs
    /// (in tail mode: once every log is dry; see
    /// [`EventStream::open_tailing`] for when dry logs are re-probed).
    pub fn next_event(&mut self) -> Result<Option<MemEvent>, LoadError> {
        self.ce.refill()?;
        self.het.refill()?;
        self.inventory.refill()?;
        self.sensors.refill()?;

        fn best(cur: Option<(Minute, u8)>, cand: (Minute, u8)) -> Option<(Minute, u8)> {
            Some(match cur {
                None => cand,
                Some(c) => c.min(cand),
            })
        }
        let mut min: Option<(Minute, u8)> = None;
        if let Some(r) = self.ce.head() {
            min = best(min, (r.time, 0));
        }
        if let Some(r) = self.het.head() {
            min = best(min, (r.time, 1));
        }
        if let Some(r) = self.inventory.head() {
            min = best(min, (r.date.midnight(), 2));
        }
        if let Some(r) = self.sensors.head() {
            min = best(min, (r.time, 3));
        }
        let Some((_, src)) = min else {
            // Drained: the next call probes every dry log again.
            self.ce.dry = false;
            self.het.dry = false;
            self.inventory.dry = false;
            self.sensors.dry = false;
            return Ok(None);
        };
        Ok(Some(match src {
            0 => {
                let (seq, rec) = self.ce.pop();
                MemEvent::Ce { seq, rec }
            }
            1 => {
                let (seq, rec) = self.het.pop();
                MemEvent::Het { seq, rec }
            }
            2 => {
                let (seq, rec) = self.inventory.pop();
                MemEvent::Inventory { seq, rec }
            }
            _ => {
                let (seq, rec) = self.sensors.pop();
                MemEvent::Sensor { seq, rec }
            }
        }))
    }

    /// Parsed records consumed per source.
    pub fn consumed(&self) -> [u64; 4] {
        [
            self.ce.next_seq,
            self.het.next_seq,
            self.inventory.next_seq,
            self.sensors.next_seq,
        ]
    }

    /// What a checkpoint saves to resume here: the consumed counts and
    /// each log's position, with the tail CRCs read from the logs.
    pub fn resume_point(&self) -> Result<ResumePoint, LoadError> {
        Ok(ResumePoint {
            consumed: self.consumed(),
            logs: [
                self.ce.position()?,
                self.het.position()?,
                self.inventory.position()?,
                self.sensors.position()?,
            ],
        })
    }

    /// Lines quarantined across all logs so far.
    pub fn skipped(&self) -> u64 {
        self.quarantine().total()
    }

    /// Merged per-reason quarantine report across all logs.
    pub fn quarantine(&self) -> Quarantine {
        let mut q = self.ce.quarantine.clone();
        q.merge(&self.het.quarantine);
        q.merge(&self.inventory.quarantine);
        q.merge(&self.sensors.quarantine);
        q
    }

    /// Log bytes read so far by this stream (a resumed stream counts
    /// from its positions, not from byte 0).
    pub fn bytes_read(&self) -> usize {
        self.ce.bytes() + self.het.bytes() + self.inventory.bytes() + self.sensors.bytes()
    }
}

/// Engine options for [`stream_analyze`].
#[derive(Debug, Clone, Default)]
pub struct StreamOptions {
    /// Ingest policy (strict by default; `--lenient` quarantines within
    /// an error budget).
    pub ingest: IngestOptions,
    /// Write a checkpoint every N consumed events (absolute stream
    /// position, so cadence survives resume). Requires `checkpoint_path`.
    pub checkpoint_every: Option<u64>,
    /// Where checkpoints are written (atomically, via a `.tmp` sibling).
    pub checkpoint_path: Option<PathBuf>,
    /// Resume from a checkpoint file instead of starting fresh.
    pub resume_from: Option<PathBuf>,
    /// Stop after the stream position reaches N events: write a final
    /// checkpoint and return `Ok(None)` instead of a report. Test/ops
    /// hook for exercising mid-stream restarts.
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
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Load(e) => write!(f, "{e}"),
            StreamError::Checkpoint { path, detail } => {
                write!(f, "checkpoint {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Load(e) => Some(e),
            StreamError::Checkpoint { .. } => None,
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

/// Run every analyzer over a log directory in one merged pass.
///
/// Returns `Ok(None)` when `stop_after` cut the run short (a checkpoint
/// was written; re-run with `resume_from` to finish), otherwise the full
/// [`StreamReport`]. Peak memory is analyzer state: at no point is any
/// log's record vector materialized.
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
    let mut position: u64 = resume.consumed.iter().sum();
    let mut counted = [0u64; 4];
    let mut checkpoints_written = 0u64;

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
        if opts.stop_after.is_some_and(|stop| position >= stop) {
            checkpoint_now(&analyzer, &source)?;
            checkpoints_written += 1;
            flush_metrics(&source, &counted, checkpoints_written, &analyzer);
            return Ok(None);
        }
        let Some(ev) = source.next_event()? else {
            break;
        };
        analyzer.consume(&ev);
        counted[ev.source().index()] += 1;
        position += 1;
        if opts
            .checkpoint_every
            .is_some_and(|every| every > 0 && position.is_multiple_of(every))
        {
            checkpoint_now(&analyzer, &source)?;
            checkpoints_written += 1;
        }
        if position.is_multiple_of(WORKINGSET_SAMPLE_EVERY) {
            astra_obs::global()
                .gauge("stream.workingset_bytes")
                .set_max(analyzer.accounted_bytes() as f64);
        }
    }

    flush_metrics(&source, &counted, checkpoints_written, &analyzer);
    let mut report = analyzer.snapshot();
    report.skipped = source.skipped();
    Ok(Some(report))
}

/// Emit the `stream.*` counters once, at end of run (batched locally so
/// the hot loop never touches the registry).
fn flush_metrics(
    source: &EventStream,
    counted: &[u64; 4],
    checkpoints_written: u64,
    analyzer: &StreamAnalyzer,
) {
    let obs = astra_obs::global();
    obs.counter("stream.events").add(counted.iter().sum());
    for src in EventSource::ALL {
        obs.counter(&format!("stream.events.{}", src.name()))
            .add(counted[src.index()]);
    }
    obs.counter("stream.skipped_lines").add(source.skipped());
    astra_logs::io::publish_quarantine(&source.quarantine());
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
        fn new(tag: &str) -> TempDirGuard {
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
            assert_eq!(stream.consumed()[0], cut as u64, "{format:?}: the prefix");
            // Nothing appended: the re-probe finds every log still dry.
            assert!(stream.next_event().unwrap().is_none(), "{format:?}");

            append(&guard.0.join("ce.log"), &rest);
            events.extend(drain(&mut stream));

            let ce_seqs = events
                .iter()
                .filter(|ev| ev.source() == EventSource::Ce)
                .map(MemEvent::seq);
            assert!(
                ce_seqs.eq(0..ds.sim.ce_log.len() as u64),
                "{format:?}: CE seqs must continue in file order, no gap or repeat"
            );
            let mut complete = EventStream::open(&guard.0).unwrap();
            let expected = drain(&mut complete);
            for src in EventSource::ALL {
                let of = |evs: &[MemEvent]| -> Vec<MemEvent> {
                    evs.iter()
                        .filter(|ev| ev.source() == src)
                        .copied()
                        .collect()
                };
                assert_eq!(
                    of(&events),
                    of(&expected),
                    "{format:?}: {} events differ from a one-shot read",
                    src.name()
                );
            }
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
            assert_eq!(point.consumed[0], cut as u64, "{format:?}");
            let prefix_len = std::fs::metadata(guard.0.join("ce.log")).unwrap().len();
            assert_eq!(point.logs[0].point.offset(), prefix_len, "{format:?}");
            drop(first);

            // The writer finishes ce.log while nothing reads it; a
            // stream opened at the saved point reads only the new bytes.
            append(&guard.0.join("ce.log"), &rest);
            let mut second = EventStream::open_tailing(&guard.0, &point, ingest).unwrap();
            events.extend(drain(&mut second));
            assert_eq!(second.bytes_read(), rest.len(), "{format:?}");

            let mut complete = EventStream::open(&guard.0).unwrap();
            let expected = drain(&mut complete);
            for src in EventSource::ALL {
                let of = |evs: &[MemEvent]| -> Vec<MemEvent> {
                    evs.iter()
                        .filter(|ev| ev.source() == src)
                        .copied()
                        .collect()
                };
                assert_eq!(
                    of(&events),
                    of(&expected),
                    "{format:?}: {} events differ from a one-shot read",
                    src.name()
                );
            }
        }
    }

    #[test]
    fn merge_is_time_ordered_with_source_tiebreak_and_fifo() {
        let (ds, guard) = written_dataset("stream-merge");
        let mut stream = EventStream::open(&guard.0).unwrap();
        let events = drain(&mut stream);
        let expected = ds.sim.ce_log.len()
            + ds.sim.het_log.len()
            + ds.replacements.len()
            + ds.sensor_excerpt().len();
        assert_eq!(events.len(), expected);
        assert_eq!(stream.skipped(), 0);

        // Per-source seq is FIFO (file order)...
        let mut next_seq = [0u64; 4];
        for ev in &events {
            let src = ev.source().index();
            assert_eq!(ev.seq(), next_seq[src], "source {src} not FIFO");
            next_seq[src] += 1;
        }
        // ...and the merged (time, source) keys never go backwards,
        // except where a source is internally unsorted (sensors.log is
        // node-major); then FIFO within the source must win, which the
        // seq check above already proved. Verify the sorted sources obey
        // the global key order among themselves.
        let keys: Vec<(Minute, usize)> = events
            .iter()
            .filter(|ev| ev.source() != EventSource::Sensor)
            .map(|ev| (ev.time(), ev.source().index()))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "merge order broken");

        // CE events reproduce the batch record vector exactly.
        let ces: Vec<CeRecord> = events
            .iter()
            .filter_map(|ev| match ev {
                MemEvent::Ce { rec, .. } => Some(*rec),
                _ => None,
            })
            .collect();
        assert_eq!(ces, ds.sim.ce_log);
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
        assert_eq!(bin_events, text_events, "merge order must be format-blind");

        // Checkpoint-style resume lands on the same tail.
        let mut head = EventStream::open(&bin_guard.0).unwrap();
        let cut = 500;
        for _ in 0..cut {
            head.next_event().unwrap().unwrap();
        }
        let mut tail = EventStream::open_resumed(&bin_guard.0, head.consumed()).unwrap();
        assert_eq!(drain(&mut tail).as_slice(), &text_events[cut..]);
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
        let consumed = head.consumed();
        assert_eq!(consumed.iter().sum::<u64>(), cut as u64);

        let mut tail = EventStream::open_resumed(&guard.0, consumed).unwrap();
        let rest = drain(&mut tail);
        assert_eq!(rest.len(), all.len() - cut);
        assert_eq!(rest.as_slice(), &all[cut..], "resumed tail differs");
        // Re-reading the whole file recovers the full skip count.
        assert_eq!(tail.skipped(), full.skipped());
    }

    #[test]
    fn strict_stream_aborts_on_corrupt_log() {
        use std::io::Write as _;
        let (_, guard) = written_dataset("stream-strict");
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(guard.0.join("het.log"))
            .unwrap();
        writeln!(f, "ntpd[9]: clock step").unwrap();
        drop(f);
        let mut stream = EventStream::open(&guard.0).unwrap();
        let err = loop {
            match stream.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("expected a Corrupt abort"),
                Err(e) => break e,
            }
        };
        match err {
            LoadError::Corrupt { name, .. } => assert_eq!(name, "het.log"),
            other => panic!("expected Corrupt, got {other}"),
        }
    }

    #[test]
    fn lenient_stream_quarantines_and_finishes() {
        use std::io::Write as _;
        let (ds, guard) = written_dataset("stream-lenient");
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(guard.0.join("ce.log"))
            .unwrap();
        writeln!(f, "ntpd[9]: clock step").unwrap();
        drop(f);
        let mut stream = EventStream::open_with(
            &guard.0,
            &ResumePoint::default(),
            astra_logs::IngestOptions::lenient(None),
        )
        .unwrap();
        let events = drain(&mut stream);
        assert_eq!(stream.skipped(), 1);
        let ces: Vec<CeRecord> = events
            .iter()
            .filter_map(|ev| match ev {
                MemEvent::Ce { rec, .. } => Some(*rec),
                _ => None,
            })
            .collect();
        assert_eq!(ces, ds.sim.ce_log, "quarantining must not drop records");
    }

    #[test]
    fn missing_required_log_is_load_error() {
        let (_, guard) = written_dataset("stream-missing");
        std::fs::remove_file(guard.0.join("het.log")).unwrap();
        match EventStream::open(&guard.0) {
            Err(LoadError::MissingLog { name, .. }) => assert_eq!(name, "het.log"),
            Err(other) => panic!("expected MissingLog, got {other}"),
            Ok(_) => panic!("expected MissingLog, opened fine"),
        }
    }

    #[test]
    fn absent_sensor_log_is_tolerated() {
        let (ds, guard) = written_dataset("stream-nosensors");
        std::fs::remove_file(guard.0.join("sensors.log")).unwrap();
        let mut stream = EventStream::open(&guard.0).unwrap();
        let events = drain(&mut stream);
        assert_eq!(
            events.len(),
            ds.sim.ce_log.len() + ds.sim.het_log.len() + ds.replacements.len()
        );
        assert!(events.iter().all(|ev| ev.source() != EventSource::Sensor));
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
        assert!(report.hets > 0);
        assert!(report.sensor_readings > 0);
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
