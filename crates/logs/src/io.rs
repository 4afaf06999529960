//! Line-oriented log writers, the fault-tolerant chunk readers, and the
//! one reader every command opens a log through.
//!
//! Real syslogs contain lines from many producers plus occasional
//! corruption; the readers here quarantine anything that does not parse
//! and count it, mirroring how a site's extraction scripts behave.
//! [`LogReader`] sniffs a log's format once and yields [`IngestChunk`]s
//! from the line parser ([`ChunkReader`]) or the binlog block reader
//! ([`crate::binfmt::BinReader`]); [`read_to_end`] drains any of them
//! under an ingest policy, whose strict/lenient decision is
//! [`IngestOptions::refuses`]. Writers are plain `io::Write` adapters so
//! logs stream to files, pipes, or an in-memory `Vec<u8>` in tests
//! without buffering whole datasets.

use std::fmt;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};

use crate::binfmt::{sniff_is_binlog, BinFormat, BinPoint, BinReader, HEADER_LEN, MAGIC};
use crate::quarantine::{IngestOptions, LineFormat, Quarantine, QuarantineReason, RetryPolicy};

/// Write an iterator of records as lines through one reused buffer.
///
/// `fill` appends a record's line (without the newline) to the supplied
/// `String`; the buffer is cleared and reused across records, so bulk
/// serialization performs no per-record allocation. Pair with the record
/// types' `to_line_into` methods.
pub fn write_lines_with<W, I, T, F>(mut sink: W, records: I, fill: F) -> io::Result<u64>
where
    W: Write,
    I: IntoIterator<Item = T>,
    F: Fn(&T, &mut String),
{
    let mut buf = String::with_capacity(160);
    let mut n = 0;
    for rec in records {
        buf.clear();
        fill(&rec, &mut buf);
        buf.push('\n');
        sink.write_all(buf.as_bytes())?;
        n += 1;
    }
    Ok(n)
}

/// Result of reading a log: the records that parsed, in file order. What
/// did not parse is in the [`Quarantine`] returned beside it.
#[derive(Debug, Clone)]
pub struct ParsedLog<T> {
    /// Successfully parsed records, in file order.
    pub records: Vec<T>,
}

/// Read all lines from `source`, parsing each with `parse`: the plain
/// sequential reader the chunked parser is checked against. Returns the
/// records and the count of non-blank lines that did not parse.
#[cfg(test)]
pub(crate) fn read_lines<R, T, F>(source: R, parse: F) -> io::Result<(Vec<T>, u64)>
where
    R: io::BufRead,
    F: Fn(&str) -> Option<T>,
{
    let mut records = Vec::new();
    let mut skipped = 0;
    for line in source.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match parse(&line) {
            Some(rec) => records.push(rec),
            None => skipped += 1,
        }
    }
    Ok((records, skipped))
}

impl<T> ParsedLog<T> {
    /// Publish this log's parse outcome under `parse.<stage>.*` in the
    /// global metrics registry: lines parsed, lines quarantined, and
    /// bytes consumed. The skip counter is the §2.3 lesson applied to our
    /// own apparatus — corrupt/foreign lines are dropped by the parser,
    /// so the registry is where that loss becomes visible.
    pub(crate) fn publish(&self, stage: &str, quarantine: &Quarantine, bytes: usize) {
        let obs = astra_obs::global();
        obs.counter(&format!("parse.{stage}.lines_ok"))
            .add(self.records.len() as u64);
        obs.counter(&format!("parse.{stage}.lines_skipped"))
            .add(quarantine.total());
        obs.counter(&format!("parse.{stage}.bytes"))
            .add(bytes as u64);
    }
}

/// Default chunk size for the streaming parsers: large enough that the
/// per-chunk shard parallelism pays for itself, small enough that peak
/// memory is bounded by the chunk plus the parsed records — never the
/// whole log text plus the records, as `read_to_string` + parse was.
pub const STREAM_CHUNK_BYTES: usize = 8 * 1024 * 1024;

/// Error from the policy-aware streaming ingest path.
#[derive(Debug)]
pub enum IngestError {
    /// The underlying reader failed (after exhausting retries).
    Io(io::Error),
    /// Corruption beyond policy: strict mode met its first quarantined
    /// line, or a lenient run exceeded its `--max-bad-frac` budget. The
    /// typed report travels with the error.
    Corrupt {
        /// What was quarantined, by reason, with sample lines.
        quarantine: Quarantine,
        /// Lines that parsed cleanly before the abort.
        lines_ok: u64,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "{e}"),
            IngestError::Corrupt {
                quarantine,
                lines_ok,
            } => write!(
                f,
                "quarantined {} of {} lines {}",
                quarantine.total(),
                lines_ok + quarantine.total(),
                quarantine.summary(),
            ),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io(e) => Some(e),
            IngestError::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for IngestError {
    fn from(e: io::Error) -> Self {
        IngestError::Io(e)
    }
}

/// Fold per-reason quarantine counts into the global
/// `ingest.quarantined.<reason>` counters.
pub fn publish_quarantine(q: &Quarantine) {
    let obs = astra_obs::global();
    for reason in QuarantineReason::ALL {
        let n = q.count(reason);
        if n > 0 {
            obs.counter(&format!("ingest.quarantined.{}", reason.name()))
                .add(n);
        }
    }
}

/// Read a log's chunks to its end under `opts`: the one batch drain,
/// for a reader of either format (`next` is its `next_chunk`).
///
/// Returns the records and the quarantine report. The first chunk's
/// records move in whole, so a log that fits one chunk is never copied.
/// Strict mode aborts on the first chunk holding a quarantined unit;
/// lenient mode checks the error budget once the reader is exhausted
/// ([`IngestOptions::refuses`] decides both).
pub fn read_to_end<T>(
    opts: &IngestOptions,
    mut next: impl FnMut() -> io::Result<Option<IngestChunk<T>>>,
) -> Result<(Vec<T>, Quarantine), IngestError> {
    let mut records: Vec<T> = Vec::new();
    let mut quarantine = Quarantine::default();
    loop {
        let chunk = next()?;
        let at_end = chunk.is_none();
        if let Some(chunk) = chunk {
            if records.is_empty() {
                records = chunk.records;
            } else {
                records.extend(chunk.records);
            }
            quarantine.merge(&chunk.quarantine);
        }
        if opts.refuses(records.len() as u64, &quarantine, at_end) {
            return Err(IngestError::Corrupt {
                quarantine,
                lines_ok: records.len() as u64,
            });
        }
        if at_end {
            return Ok((records, quarantine));
        }
    }
}

/// One `read` with `retry` applied: `Interrupted` is always retried;
/// other errors get bounded exponential backoff and an
/// `ingest.io_retries` count, then surface.
fn read_retry<R: Read>(reader: &mut R, buf: &mut [u8], retry: RetryPolicy) -> io::Result<usize> {
    let mut attempt = 0u32;
    loop {
        match reader.read(buf) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                if attempt >= retry.max_retries {
                    return Err(e);
                }
                let backoff_ms = retry.backoff_base_ms << attempt;
                attempt += 1;
                astra_obs::global().counter("ingest.io_retries").add(1);
                if backoff_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
                }
            }
        }
    }
}

/// Fill as much of `buf` as `reader` holds (short only at its end),
/// each read under `retry`.
pub(crate) fn read_fill<R: Read>(
    reader: &mut R,
    buf: &mut [u8],
    retry: RetryPolicy,
) -> io::Result<usize> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match read_retry(reader, &mut buf[filled..], retry)? {
            0 => break,
            n => filled += n,
        }
    }
    Ok(filled)
}

/// One parsed chunk from a [`ChunkReader`]: the records that survived,
/// plus everything quarantined within the chunk.
#[derive(Debug)]
pub struct IngestChunk<T> {
    /// Records that parsed and passed the ordering check, in file order.
    pub records: Vec<T>,
    /// Lines quarantined within this chunk (line numbers are file-global).
    pub quarantine: Quarantine,
}

/// Where a [`ChunkReader`] stands in its file: enough for a new reader
/// to carry on from there ([`ChunkReader::starting_at`]) instead of from
/// byte 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TextPoint {
    /// File offset of the next chunk (always the start of a line).
    pub offset: u64,
    /// Lines before `offset` (blank lines included): the base of
    /// file-global line numbers.
    pub lines: u64,
    /// The ordering check's running maximum at `offset`.
    pub max_key: Option<i64>,
}

/// Resumable line-aligned chunk parser over any reader.
///
/// Each [`ChunkReader::next_chunk`] call yields one parsed chunk of
/// roughly `chunk_bytes` input, cut at a line boundary, until the reader
/// is exhausted. Pulling chunks one at a time (instead of draining the
/// whole reader as [`read_to_end`] does) lets a caller fold each chunk
/// before it reads the next, and stop, checkpoint or tail a growing file
/// in between: the incremental analysis engine (and with it the shard
/// workers and the serve daemon) reads a text `ce.log` this way, through
/// [`LogReader`], keeping at most one chunk of text resident.
///
/// Corruption handling:
/// * a chunk that is entirely valid UTF-8 takes the fast path — shard
///   parallel parse, exactly as before;
/// * a chunk containing invalid UTF-8 falls back to a sequential
///   per-line pass that quarantines only the offending lines
///   ([`QuarantineReason::BadUtf8`]) instead of failing the whole file.
///   Chunks are always cut at `\n` (never inside a multi-byte sequence),
///   so a straddling line stays whole in `pending` and is classified
///   exactly once;
/// * for time-sorted formats (`order_key`), records whose key drops
///   strictly below the running maximum — carried across chunks — are
///   quarantined [`QuarantineReason::OutOfOrder`];
/// * transient read errors are retried per the [`RetryPolicy`]
///   (`Interrupted` is always retried; other errors get bounded
///   exponential backoff and an `ingest.io_retries` count).
pub struct ChunkReader<R, T> {
    reader: R,
    format: LineFormat<T>,
    retry: RetryPolicy,
    // Unconsumed input: whole lines plus, at its tail, at most one
    // partial line carried across the chunk boundary.
    pending: Vec<u8>,
    read_buf: Vec<u8>,
    // Grows past the configured chunk size only if a single line exceeds it.
    target: usize,
    // Tail mode: the file may still be growing, so EOF is provisional —
    // a newline-less final line is held back (an append may be in
    // progress) and re-probed on the next call instead of parsed as-is.
    tail: bool,
    eof: bool,
    // File offset the reader started at (0 unless `starting_at`).
    base: u64,
    bytes: usize,
    chunks: u64,
    // Lines consumed so far (blank lines included) — the base for
    // file-global 1-based line numbers in quarantine samples.
    lines: u64,
    // Largest ordering key seen so far, carried across chunks.
    max_key: Option<i64>,
}

impl<R, T> ChunkReader<R, T>
where
    R: Read,
    T: Send,
{
    /// Wraps `reader`, ingesting lines per `format` in chunks of roughly
    /// `chunk_bytes`, with the default [`RetryPolicy`].
    pub fn new(reader: R, format: LineFormat<T>, chunk_bytes: usize) -> Self {
        ChunkReader {
            reader,
            format,
            retry: RetryPolicy::default(),
            pending: Vec::new(),
            read_buf: vec![0u8; 64 * 1024],
            target: chunk_bytes.max(1),
            tail: false,
            eof: false,
            base: 0,
            bytes: 0,
            chunks: 0,
            lines: 0,
            max_key: None,
        }
    }

    /// Carry on from `point`, which [`ChunkReader::point`] gave for an
    /// earlier reader over the same file; the wrapped reader must already
    /// be positioned at `point.offset`. Line numbers and the ordering
    /// check continue as if this reader had read the file from byte 0.
    pub fn starting_at(mut self, point: TextPoint) -> Self {
        self.base = point.offset;
        self.lines = point.lines;
        self.max_key = point.max_key;
        self
    }

    /// Replace the transient-I/O retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Set tail (growing-file) mode, for the reader's whole life: EOF is
    /// then "dry for now", and a newline-less final line is an append in
    /// progress, held back until its `\n` lands. A line is never parsed
    /// torn, so a writer caught mid-line at shutdown has that line
    /// ingested in the next process, after a checkpoint and restart.
    pub fn with_tail(mut self, tail: bool) -> Self {
        self.tail = tail;
        self
    }

    /// Parses and returns the next line-aligned chunk, or `None` once the
    /// reader is exhausted.
    pub fn next_chunk(&mut self) -> io::Result<Option<IngestChunk<T>>> {
        loop {
            while !self.eof && self.pending.len() < self.target {
                let n = read_retry(&mut self.reader, &mut self.read_buf, self.retry)?;
                if n == 0 {
                    self.eof = true;
                } else {
                    self.pending.extend_from_slice(&self.read_buf[..n]);
                }
            }
            if self.pending.is_empty() {
                if self.tail {
                    // Dry for now: the next call probes the file again.
                    self.eof = false;
                }
                return Ok(None);
            }
            // Cut at the last newline so no chunk splits a line; at EOF
            // the final (possibly newline-less) partial line is parsed
            // as-is — unless the file may still be growing, in which case
            // the partial line is an append in progress: hold it back in
            // `pending` (the re-read from the last known-good offset) and
            // let later calls complete it. '\n' is never part of a
            // multi-byte UTF-8 sequence, so a sequence straddling the raw
            // read boundary always stays whole within one cut.
            let cut = if self.eof {
                if self.tail {
                    self.eof = false;
                    match self.pending.iter().rposition(|&b| b == b'\n') {
                        Some(pos) => pos + 1,
                        None => return Ok(None),
                    }
                } else {
                    self.pending.len()
                }
            } else {
                match self.pending.iter().rposition(|&b| b == b'\n') {
                    Some(pos) => pos + 1,
                    None => {
                        self.target = self.target.saturating_mul(2);
                        continue;
                    }
                }
            };
            let raw = &self.pending[..cut];
            let (records, quarantine, nlines) = match std::str::from_utf8(raw) {
                Ok(text) => ingest_text(text, &self.format, self.lines, &mut self.max_key),
                Err(_) => ingest_bytes(raw, &self.format, self.lines, &mut self.max_key),
            };
            self.lines += nlines;
            self.bytes += cut;
            self.chunks += 1;
            self.pending.drain(..cut);
            return Ok(Some(IngestChunk {
                records,
                quarantine,
            }));
        }
    }

    /// Input bytes this reader has consumed into chunks so far.
    pub fn bytes_consumed(&self) -> usize {
        self.bytes
    }

    /// Where the next chunk starts, with the line count and ordering
    /// state there.
    pub fn point(&self) -> TextPoint {
        TextPoint {
            offset: self.base + self.bytes as u64,
            lines: self.lines,
            max_key: self.max_key,
        }
    }

    /// Number of chunks yielded so far.
    pub fn chunks_read(&self) -> u64 {
        self.chunks
    }
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
    pub fn is_start(&self) -> bool {
        match self {
            ReadPoint::Text(p) => p.offset == 0,
            ReadPoint::Bin(p) => p.offset == 0 && !p.ended,
        }
    }
}

/// The one reader of a log file, in either format.
///
/// It sniffs the format once, from the magic bytes, and then yields the
/// [`IngestChunk`]s of the chunked line parser ([`ChunkReader`]) or of the
/// CRC-framed block reader ([`BinReader`]), so everything downstream is
/// format-blind. Tail mode is fixed at open. A tailing reader at byte 0
/// of a log that holds fewer bytes than the binlog magic chooses the
/// format once that many are there; until then it yields nothing and
/// stands at byte 0, so a checkpoint taken meanwhile makes a restart
/// sniff again. A reader that does not tail takes such a log as text.
pub struct LogReader<T> {
    spec: Spec<T>,
    format: Format<T>,
}

/// What a [`LogReader`] builds its format's reader from.
struct Spec<T> {
    line: LineFormat<T>,
    bin: BinFormat<T>,
    retry: RetryPolicy,
    tail: bool,
}

enum Format<T> {
    /// Not sniffed yet: the file, at byte 0.
    Unknown(File),
    Text(ChunkReader<File, T>),
    Bin(BinReader<File, T>),
}

impl<T: Send> Spec<T> {
    /// The reader of `file` in the format its first bytes `head` show,
    /// from byte 0.
    fn reader(&self, file: File, head: &[u8]) -> Format<T> {
        if sniff_is_binlog(head) {
            let r = BinReader::new(file, self.bin);
            Format::Bin(r.with_retry(self.retry).with_tail(self.tail))
        } else {
            let r = ChunkReader::new(file, self.line, STREAM_CHUNK_BYTES);
            Format::Text(r.with_retry(self.retry).with_tail(self.tail))
        }
    }
}

/// Up to the first [`HEADER_LEN`] bytes of `file`, leaving it at byte 0.
fn read_head(file: &mut File, retry: RetryPolicy) -> io::Result<Vec<u8>> {
    let mut head = vec![0u8; HEADER_LEN];
    file.rewind()?;
    let n = read_fill(file, &mut head, retry)?;
    head.truncate(n);
    file.rewind()?;
    Ok(head)
}

impl<T: Send> LogReader<T> {
    /// Read the log `file` holds, parsing lines per `line` or blocks per
    /// `bin`, whichever its first bytes say it is, from `at`: byte 0
    /// (`ReadPoint::default()`), or a place an earlier reader of the same
    /// log gave ([`LogReader::point`]). Past byte 0 the log must still be
    /// in the point's format and a binlog's header must still validate,
    /// else the error is [`io::ErrorKind::InvalidData`] saying why; the
    /// reader then carries on as if it had read the log from byte 0.
    pub fn open(
        mut file: File,
        line: LineFormat<T>,
        bin: BinFormat<T>,
        retry: RetryPolicy,
        tail: bool,
        at: ReadPoint,
    ) -> io::Result<Self> {
        let spec = Spec {
            line,
            bin,
            retry,
            tail,
        };
        let head = read_head(&mut file, retry)?;
        if at.is_start() {
            let format = if tail && head.len() < MAGIC.len() {
                Format::Unknown(file)
            } else {
                spec.reader(file, &head)
            };
            return Ok(LogReader { spec, format });
        }
        file.seek(SeekFrom::Start(at.offset()))?;
        let changed = |what: String| Err(io::Error::new(io::ErrorKind::InvalidData, what));
        let format = match (spec.reader(file, &head), at) {
            (Format::Text(r), ReadPoint::Text(p)) => Format::Text(r.starting_at(p)),
            (Format::Bin(r), ReadPoint::Bin(p)) => match r.starting_at(p, &head) {
                Ok(r) => Format::Bin(r),
                Err(e) => return changed(format!("header no longer valid: {e}")),
            },
            (_, ReadPoint::Text(_)) => {
                return changed("was text at the checkpoint, is astra-binlog now".into())
            }
            (_, ReadPoint::Bin(_)) => {
                return changed("was astra-binlog at the checkpoint, is text now".into())
            }
        };
        Ok(LogReader { spec, format })
    }

    /// The next chunk (text) or block (binary), or `None` at the end of
    /// the log; in tail mode, at the end of what is there so far.
    pub fn next_chunk(&mut self) -> io::Result<Option<IngestChunk<T>>> {
        if let Format::Unknown(file) = &mut self.format {
            let head = read_head(file, self.spec.retry)?;
            if head.len() < MAGIC.len() {
                return Ok(None);
            }
            // A second handle: the first goes with the unsniffed state.
            let file = file.try_clone()?;
            self.format = self.spec.reader(file, &head);
        }
        match &mut self.format {
            Format::Unknown(_) => Ok(None),
            Format::Text(r) => r.next_chunk(),
            Format::Bin(r) => r.next_chunk(),
        }
    }

    /// Where the next chunk or block starts, with the reader's state
    /// there.
    pub fn point(&self) -> ReadPoint {
        match &self.format {
            Format::Unknown(_) => ReadPoint::default(),
            Format::Text(r) => ReadPoint::Text(r.point()),
            Format::Bin(r) => ReadPoint::Bin(r.point()),
        }
    }

    /// Log bytes consumed into chunks or blocks so far.
    pub fn bytes_consumed(&self) -> usize {
        match &self.format {
            Format::Unknown(_) => 0,
            Format::Text(r) => r.bytes_consumed(),
            Format::Bin(r) => r.bytes_consumed(),
        }
    }

    /// The units read so far, named as the `parse.<stage>.*` metrics
    /// name them: `chunks` of text or `blocks` of a binlog.
    pub fn units_read(&self) -> (&'static str, u64) {
        match &self.format {
            Format::Unknown(_) => ("chunks", 0),
            Format::Text(r) => ("chunks", r.chunks_read()),
            Format::Bin(r) => ("blocks", r.blocks_read()),
        }
    }
}

/// Per-shard outcome of the parallel chunk ingest: records, their local
/// line indices (only tracked for ordered formats), and failed lines
/// with their classification.
struct ShardOut<T> {
    records: Vec<T>,
    record_lines: Vec<u64>,
    bad: Vec<(u64, QuarantineReason, String)>,
    lines: u64,
}

/// How many bad-line snippets each shard retains (counts are always
/// exact; snippets exist only to feed the bounded sample set).
const SHARD_SNIPPET_CAP: usize = 16;

fn ingest_shard<T>(shard: &str, format: &LineFormat<T>) -> ShardOut<T> {
    // Runs on the caller's thread sequentially and on `par_map` workers
    // in parallel; worker threads inherit the caller's span root, so
    // this nests under `parse.<stage>` identically either way.
    let mut span = astra_obs::span("parse.shard");
    let track_lines = format.order_key.is_some();
    let mut out = ShardOut {
        records: Vec::new(),
        record_lines: Vec::new(),
        bad: Vec::new(),
        lines: 0,
    };
    for (i, line) in shard.lines().enumerate() {
        out.lines = i as u64 + 1;
        if line.trim().is_empty() {
            continue;
        }
        match (format.parse)(line) {
            Some(rec) => {
                if track_lines {
                    out.record_lines.push(i as u64);
                }
                out.records.push(rec);
            }
            None => {
                let reason = (format.classify)(line);
                let snippet = if out.bad.len() < SHARD_SNIPPET_CAP {
                    line.chars().take(96).collect()
                } else {
                    String::new()
                };
                out.bad.push((i as u64, reason, snippet));
            }
        }
    }
    span.attach("lines_ok", out.records.len() as i64);
    span.attach("lines_quarantined", out.bad.len() as i64);
    out
}

/// Ingest one valid-UTF-8 chunk: shard-parallel parse + classify, then a
/// sequential gather applying line numbering and the cross-chunk
/// ordering check. `line_base` is the count of lines consumed before
/// this chunk; returns `(records, quarantine, lines_in_chunk)`.
fn ingest_text<T>(
    text: &str,
    format: &LineFormat<T>,
    line_base: u64,
    max_key: &mut Option<i64>,
) -> (Vec<T>, Quarantine, u64)
where
    T: Send,
{
    let workers = astra_util::par::worker_count(text.len() / 4096 + 1);
    let outs: Vec<ShardOut<T>> = if workers <= 1 || text.len() < 64 * 1024 {
        vec![ingest_shard(text, format)]
    } else {
        let shards = split_line_shards(text, workers);
        astra_util::par::par_map(&shards, |shard| ingest_shard(shard, format))
    };

    let mut records = Vec::with_capacity(outs.iter().map(|o| o.records.len()).sum());
    let mut quarantine = Quarantine::default();
    let mut base = line_base;
    for out in outs {
        let shard_lines = out.lines;
        match format.order_key {
            None => records.extend(out.records),
            Some(keyf) => {
                // Fast scan: if the whole shard is in order relative to
                // the running maximum (the overwhelmingly common case),
                // move the records wholesale.
                let mut mx = *max_key;
                let mut violation = false;
                for rec in &out.records {
                    let k = keyf(rec);
                    if mx.is_some_and(|m| k < m) {
                        violation = true;
                        break;
                    }
                    mx = Some(k);
                }
                if !violation {
                    *max_key = mx;
                    records.extend(out.records);
                } else {
                    for (i, rec) in out.records.into_iter().enumerate() {
                        let line_no = base + out.record_lines[i] + 1;
                        if in_order(keyf(&rec), max_key, line_no, &mut quarantine) {
                            records.push(rec);
                        }
                    }
                }
            }
        }
        for (line, reason, snippet) in out.bad {
            quarantine.note(base + line + 1, reason, snippet.as_bytes());
        }
        base += shard_lines;
    }
    (records, quarantine, base - line_base)
}

/// The ordering check of a time-sorted log, for one record: whether its
/// key `k` keeps order against the running maximum, which it then
/// raises. A record below the maximum is quarantined
/// [`QuarantineReason::OutOfOrder`] at `line_no`.
fn in_order(k: i64, max_key: &mut Option<i64>, line_no: u64, quarantine: &mut Quarantine) -> bool {
    match *max_key {
        Some(m) if k < m => {
            let msg = format!("record key {k} precedes running maximum {m}");
            quarantine.note(line_no, QuarantineReason::OutOfOrder, msg.as_bytes());
            false
        }
        _ => {
            *max_key = Some(k);
            true
        }
    }
}

/// Sequential fallback for a chunk containing invalid UTF-8: every line
/// is validated individually so only the offending lines are quarantined
/// as [`QuarantineReason::BadUtf8`] — the rest of the chunk parses
/// normally (ordering check included).
fn ingest_bytes<T>(
    raw: &[u8],
    format: &LineFormat<T>,
    line_base: u64,
    max_key: &mut Option<i64>,
) -> (Vec<T>, Quarantine, u64) {
    let mut records = Vec::new();
    let mut quarantine = Quarantine::default();
    let mut lines = 0u64;
    let mut start = 0usize;
    while start < raw.len() {
        let end = raw[start..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|p| start + p)
            .unwrap_or(raw.len());
        let mut line_bytes = &raw[start..end];
        if let [head @ .., b'\r'] = line_bytes {
            line_bytes = head;
        }
        let line_no = line_base + lines + 1;
        lines += 1;
        start = end + 1;
        match std::str::from_utf8(line_bytes) {
            Err(_) => quarantine.note(line_no, QuarantineReason::BadUtf8, line_bytes),
            Ok(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                match (format.parse)(line) {
                    Some(rec) => {
                        if format.order_key.is_none_or(|key| {
                            in_order(key(&rec), max_key, line_no, &mut quarantine)
                        }) {
                            records.push(rec);
                        }
                    }
                    None => quarantine.note(line_no, (format.classify)(line), line.as_bytes()),
                }
            }
        }
    }
    (records, quarantine, lines)
}

/// Cut `text` into at most `workers` shards on line boundaries.
fn split_line_shards(text: &str, workers: usize) -> Vec<&str> {
    let mut shards: Vec<&str> = Vec::with_capacity(workers);
    let bytes = text.as_bytes();
    let mut start = 0usize;
    for w in 1..workers {
        let target = (text.len() * w) / workers;
        if target <= start {
            continue;
        }
        let end = match bytes[target..].iter().position(|&b| b == b'\n') {
            Some(off) => target + off + 1,
            None => text.len(),
        };
        if end > start {
            shards.push(&text[start..end]);
            start = end;
        }
    }
    if start < text.len() {
        shards.push(&text[start..]);
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ce::CeRecord;
    use crate::sensor::SensorRecord;
    use astra_topology::{DimmSlot, NodeId, PhysAddr, RankId, SensorId, SocketId};
    use astra_util::CalDate;

    fn ce(minute: i64) -> CeRecord {
        let slot = DimmSlot::from_letter('C').unwrap();
        CeRecord {
            time: CalDate::new(2019, 4, 1).midnight().plus(minute),
            node: NodeId(9),
            socket: slot.socket(),
            slot,
            rank: RankId(0),
            bank: 2,
            row: None,
            col: 11,
            bit_pos: 7,
            addr: PhysAddr(0x1234C0),
            syndrome: 0xBEEF,
        }
    }

    #[test]
    fn write_then_read_roundtrip() {
        let records: Vec<CeRecord> = (0..10).map(ce).collect();
        let mut sink = Vec::new();
        let n =
            write_lines_with(&mut sink, records.iter(), |rec, buf| rec.to_line_into(buf)).unwrap();
        assert_eq!(n, 10);
        let (parsed, skipped) = read_lines(sink.as_slice(), CeRecord::parse_line).unwrap();
        assert_eq!(parsed, records);
        assert_eq!(skipped, 0);
    }

    #[test]
    fn mixed_log_skips_foreign_lines() {
        // A realistic syslog interleaves CE records with other producers.
        let mut sink = Vec::new();
        let ce_line = ce(5).to_line();
        let sensor = SensorRecord {
            time: CalDate::new(2019, 4, 1).midnight(),
            node: NodeId(9),
            sensor: SensorId::cpu(SocketId(0)),
            value: Some(61.0),
        };
        sink.extend_from_slice(format!("{ce_line}\n").as_bytes());
        sink.extend_from_slice(format!("{}\n", sensor.to_line()).as_bytes());
        sink.extend_from_slice(b"totally corrupted line !!!\n");
        sink.extend_from_slice(b"\n");
        sink.extend_from_slice(format!("{ce_line}\n").as_bytes());

        let (ces, skipped) = read_lines(sink.as_slice(), CeRecord::parse_line).unwrap();
        assert_eq!(ces.len(), 2);
        assert_eq!(skipped, 2, "sensor + corrupt, blank ignored");

        let (sensors, skipped) = read_lines(sink.as_slice(), SensorRecord::parse_line).unwrap();
        assert_eq!(sensors.len(), 1);
        assert_eq!(skipped, 3);
    }

    #[test]
    fn empty_input() {
        let (parsed, skipped) = read_lines(&b""[..], CeRecord::parse_line).unwrap();
        assert!(parsed.is_empty());
        assert_eq!(skipped, 0);
    }

    #[test]
    fn tail_mode_holds_back_torn_final_line() {
        // Simulate an append in progress: the file ends mid-record. A
        // tailing reader must hold the partial line back (not quarantine
        // it) and complete it once the writer catches up.
        let dir =
            std::env::temp_dir().join(format!("astra-io-tail-{}-{}", std::process::id(), line!()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ce.log");
        let full = ce(1).to_line();
        let (head, rest) = full.split_at(full.len() / 2);
        std::fs::write(&path, format!("{}\n{head}", ce(0).to_line())).unwrap();

        let f = std::fs::File::open(&path).unwrap();
        let mut r = ChunkReader::new(f, crate::ce::FORMAT, 1 << 20).with_tail(true);
        let chunk = r.next_chunk().unwrap().expect("first complete line");
        assert_eq!(chunk.records, vec![ce(0)]);
        assert!(chunk.quarantine.is_empty(), "torn tail must not quarantine");
        assert!(
            r.next_chunk().unwrap().is_none(),
            "dry until the append finishes"
        );

        // The writer finishes the record (plus one more whole line).
        use std::io::Write as _;
        let mut w = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        writeln!(w, "{rest}").unwrap();
        writeln!(w, "{}", ce(2).to_line()).unwrap();
        drop(w);
        let chunk = r.next_chunk().unwrap().expect("completed lines parse");
        assert_eq!(chunk.records, vec![ce(1), ce(2)]);
        assert!(chunk.quarantine.is_empty());
        assert!(r.next_chunk().unwrap().is_none(), "dry again");

        // A newline-less final line stays held back for as long as the
        // reader tails.
        let mut w = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        write!(w, "{}", ce(3).to_line()).unwrap();
        drop(w);
        assert!(
            r.next_chunk().unwrap().is_none(),
            "newline-less tail stays held back while tailing"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A log a writer appends to while it is read: reads see the bytes
    /// written so far.
    struct Growing {
        data: std::rc::Rc<std::cell::RefCell<Vec<u8>>>,
        pos: usize,
    }

    impl Read for Growing {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let data = self.data.borrow();
            let n = buf.len().min(data.len() - self.pos);
            buf[..n].copy_from_slice(&data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn a_tailing_reader_given_a_text_log_in_two_writes_reads_it_whole() {
        // Chunks of about 100 bytes, so the log is many chunks and the
        // split falls in every part of one: mid-line, on a newline, on a
        // chunk cut.
        let mut text = String::new();
        for i in 0..12 {
            text.push_str(&ce(i).to_line());
            text.push('\n');
        }
        let (want, ..) = drain(
            text.as_bytes(),
            crate::ce::FORMAT,
            &IngestOptions::default(),
            100,
        )
        .unwrap();
        for cut in 0..=text.len() {
            let written =
                std::rc::Rc::new(std::cell::RefCell::new(text.as_bytes()[..cut].to_vec()));
            let grow = Growing {
                data: written.clone(),
                pos: 0,
            };
            let mut reader = ChunkReader::new(grow, crate::ce::FORMAT, 100).with_tail(true);
            let mut got = Vec::new();
            for write in [&text.as_bytes()[cut..], &[][..]] {
                while let Some(chunk) = reader.next_chunk().unwrap() {
                    assert!(chunk.quarantine.is_empty(), "cut at {cut}");
                    got.extend(chunk.records);
                }
                written.borrow_mut().extend_from_slice(write);
            }
            assert_eq!(got, want.records, "cut at {cut}");
            assert_eq!(reader.bytes_consumed(), text.len(), "cut at {cut}");
        }
    }

    #[test]
    fn a_tailing_log_reader_chooses_the_format_once_the_magic_is_there() {
        // A site's ce.log may be empty, or hold part of the binlog magic,
        // when its tailing reader opens. Split each format's log in two
        // writes at every offset of its first 40 bytes (inside the magic,
        // the header and the first line or block): the reader stands at
        // byte 0 until it can tell, then reads the log whole.
        let records: Vec<CeRecord> = (0..40).map(ce).collect();
        let mut binary = Vec::new();
        crate::binfmt::write_records(&mut binary, crate::binfmt::CE, &records).unwrap();
        let mut text = Vec::new();
        write_lines_with(&mut text, records.iter(), |r, buf| r.to_line_into(buf)).unwrap();
        let dir = std::env::temp_dir().join(format!("astra-io-sniff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ce.log");
        for (log, is_bin) in [(&binary, true), (&text, false)] {
            for cut in 0..40 {
                std::fs::write(&path, &log[..cut]).unwrap();
                let file = File::open(&path).unwrap();
                let (line, bin) = (crate::ce::FORMAT, crate::binfmt::CE);
                let retry = RetryPolicy::default();
                let mut reader =
                    LogReader::open(file, line, bin, retry, true, ReadPoint::default()).unwrap();
                let mut got = Vec::new();
                while let Some(chunk) = reader.next_chunk().unwrap() {
                    assert!(chunk.quarantine.is_empty(), "cut at {cut}");
                    got.extend(chunk.records);
                }
                if cut < MAGIC.len() {
                    assert_eq!(reader.point(), ReadPoint::default(), "cut at {cut}");
                }
                std::fs::write(&path, log).unwrap();
                while let Some(chunk) = reader.next_chunk().unwrap() {
                    assert!(chunk.quarantine.is_empty(), "cut at {cut}");
                    got.extend(chunk.records);
                }
                assert_eq!(got, records, "binary {is_bin}, cut at {cut}");
                assert_eq!(matches!(reader.point(), ReadPoint::Bin(_)), is_bin);
                assert_eq!(reader.bytes_consumed(), log.len(), "cut at {cut}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_tailing_reader_resumed_inside_the_magic_length_reads_text() {
        // Two blank lines: a one-shot reader's point after them is byte 2
        // of a text log. Resuming there in tail mode must read text, not
        // wait to sniff a log whose format the point already gives.
        let dir = std::env::temp_dir().join(format!("astra-io-short-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ce.log");
        std::fs::write(&path, "\n\n").unwrap();
        let (line, bin, retry) = (crate::ce::FORMAT, crate::binfmt::CE, RetryPolicy::default());
        let open =
            |tail, at| LogReader::open(File::open(&path).unwrap(), line, bin, retry, tail, at);
        let mut first = open(false, ReadPoint::default()).unwrap();
        while first.next_chunk().unwrap().is_some() {}
        let at = first.point();
        assert_eq!(at.offset(), 2);
        let mut resumed = open(true, at).unwrap();
        assert_eq!(resumed.point(), at);
        std::fs::write(&path, format!("\n\n{}\n", ce(0).to_line())).unwrap();
        let chunk = resumed.next_chunk().unwrap().expect("the appended line");
        assert_eq!(chunk.records, vec![ce(0)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_reader_started_at_a_saved_point_reads_on_as_one_pass_would() {
        // Displaced records (3 after 9, 2 after 10), a foreign line and a
        // blank one: the ordering maximum and the line count must carry
        // over a cut at every line boundary.
        let mut text = String::new();
        for t in [0, 9, 3, 10, 10] {
            text.push_str(&ce(t).to_line());
            text.push('\n');
        }
        text.push_str("junk\n\n");
        for t in [2, 11] {
            text.push_str(&ce(t).to_line());
            text.push('\n');
        }
        let drain =
            |r: &mut ChunkReader<&[u8], CeRecord>, recs: &mut Vec<_>, q: &mut Quarantine| {
                while let Some(chunk) = r.next_chunk().unwrap() {
                    recs.extend(chunk.records);
                    q.merge(&chunk.quarantine);
                }
            };
        let (mut want, mut want_q) = (Vec::new(), Quarantine::default());
        drain(
            &mut ChunkReader::new(text.as_bytes(), crate::ce::FORMAT, 1 << 20),
            &mut want,
            &mut want_q,
        );
        assert_eq!(want_q.count(QuarantineReason::OutOfOrder), 2);
        let cuts = text.match_indices('\n').map(|(i, _)| i + 1);
        for cut in std::iter::once(0).chain(cuts) {
            let (mut got, mut got_q) = (Vec::new(), Quarantine::default());
            let mut head = ChunkReader::new(&text.as_bytes()[..cut], crate::ce::FORMAT, 1 << 20);
            drain(&mut head, &mut got, &mut got_q);
            let point = head.point();
            assert_eq!(point.offset, cut as u64);
            let mut tail = ChunkReader::new(&text.as_bytes()[cut..], crate::ce::FORMAT, 1 << 20)
                .starting_at(point);
            drain(&mut tail, &mut got, &mut got_q);
            assert_eq!(got, want, "cut at {cut}");
            // Samples, too: grouped by reason whatever the cut.
            assert_eq!(got_q, want_q, "cut at {cut}");
            assert_eq!(tail.bytes_consumed(), text.len() - cut);
            assert_eq!(tail.point().offset, text.len() as u64);
        }
    }

    /// Parse `text` as one chunk at `workers` workers (the chunk size
    /// exceeds the text, so the reader meets EOF before it cuts).
    fn one_chunk(text: &str, workers: usize) -> IngestChunk<CeRecord> {
        astra_util::par::set_workers(Some(workers));
        let mut reader = ChunkReader::new(text.as_bytes(), crate::ce::FORMAT, text.len() + 1);
        let chunk = reader.next_chunk().unwrap().expect("one chunk");
        astra_util::par::set_workers(None);
        assert!(
            reader.next_chunk().unwrap().is_none(),
            "the text is one chunk"
        );
        chunk
    }

    #[test]
    fn parallel_matches_sequential_small() {
        // Below the parallel threshold: exercises the sequential path.
        let mut text = String::new();
        for i in 0..50 {
            text.push_str(&ce(i).to_line());
            text.push('\n');
        }
        text.push_str("junk\n\n");
        let (seq, skipped) = read_lines(text.as_bytes(), CeRecord::parse_line).unwrap();
        let chunk = one_chunk(&text, 4);
        assert_eq!(chunk.records, seq);
        assert_eq!(chunk.quarantine.total(), skipped);
    }

    #[test]
    fn parallel_matches_sequential_large() {
        // Above the threshold: shard boundaries must preserve order and
        // never split a record, at any worker count.
        let mut text = String::new();
        for i in 0..5000 {
            text.push_str(&ce(i).to_line());
            text.push('\n');
            if i % 97 == 0 {
                text.push_str("corrupt line here\n");
            }
        }
        assert!(text.len() > 64 * 1024, "test must exceed the threshold");
        let (seq, skipped) = read_lines(text.as_bytes(), CeRecord::parse_line).unwrap();
        for workers in [1, 4] {
            let chunk = one_chunk(&text, workers);
            assert_eq!(chunk.records, seq, "{workers} workers");
            assert_eq!(chunk.quarantine.total(), skipped, "{workers} workers");
        }
    }

    /// Lenient policy with an unlimited error budget, used where tests
    /// care about *what* was quarantined rather than the budget.
    fn tolerant() -> IngestOptions {
        IngestOptions::lenient(Some(1.0))
    }

    /// Drain `reader` in chunks of about `chunk_bytes` under `opts`: the
    /// records, the quarantine, and the bytes and chunks read.
    fn drain<R: Read, T: Send>(
        reader: R,
        format: LineFormat<T>,
        opts: &IngestOptions,
        chunk_bytes: usize,
    ) -> Result<(ParsedLog<T>, Quarantine, usize, u64), IngestError> {
        let mut reader = ChunkReader::new(reader, format, chunk_bytes).with_retry(opts.retry);
        let (records, quarantine) = read_to_end(opts, || reader.next_chunk())?;
        let (bytes, chunks) = (reader.bytes_consumed(), reader.chunks_read());
        Ok((ParsedLog { records }, quarantine, bytes, chunks))
    }

    #[test]
    fn streaming_matches_whole_text_across_chunk_sizes() {
        // Corrupt lines and records must land on chunk boundaries for at
        // least some of these sizes; every size must agree with the
        // whole-text parse.
        let mut text = String::new();
        for i in 0..400 {
            text.push_str(&ce(i).to_line());
            text.push('\n');
            if i % 7 == 0 {
                text.push_str("corrupt line straddling chunks maybe\n");
            }
            if i % 31 == 0 {
                text.push('\n');
            }
        }
        text.push_str(&ce(1400).to_line()); // no trailing newline
        let (whole, skipped) = read_lines(text.as_bytes(), CeRecord::parse_line).unwrap();
        for chunk_bytes in [1, 7, 64, 1000, 1 << 20] {
            let (streamed, quarantine, bytes, chunks) =
                drain(text.as_bytes(), crate::ce::FORMAT, &tolerant(), chunk_bytes).unwrap();
            assert_eq!(streamed.records, whole, "chunk={chunk_bytes}");
            assert_eq!(quarantine.total(), skipped, "chunk={chunk_bytes}");
            assert_eq!(
                quarantine.count(QuarantineReason::UnknownFormat),
                skipped,
                "chunk={chunk_bytes}"
            );
            assert_eq!(bytes, text.len());
            assert!(chunks >= 1);
        }
    }

    #[test]
    fn streaming_empty_input() {
        let (parsed, quarantine, bytes, chunks) =
            drain(&b""[..], crate::ce::FORMAT, &IngestOptions::default(), 1024).unwrap();
        assert!(parsed.records.is_empty());
        assert!(quarantine.is_empty());
        assert_eq!((bytes, chunks), (0, 0));
    }

    #[test]
    fn strict_mode_aborts_with_typed_report() {
        let mut bytes = ce(1).to_line().into_bytes();
        bytes.push(b'\n');
        bytes.extend_from_slice(&[0xFF, 0xFE, b'\n']);
        let err = drain(
            bytes.as_slice(),
            crate::ce::FORMAT,
            &IngestOptions::default(),
            1 << 20,
        )
        .unwrap_err();
        match err {
            IngestError::Corrupt {
                quarantine,
                lines_ok,
            } => {
                assert_eq!(quarantine.count(QuarantineReason::BadUtf8), 1);
                assert_eq!(lines_ok, 1);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn lenient_quarantines_bad_utf8_per_line_at_any_chunk_size() {
        // A non-UTF-8 line between two valid records. Tiny chunk sizes
        // force the garbage to straddle the reader's internal cut points
        // — it must be quarantined exactly once, never panic, never take
        // neighbouring lines down with it.
        let mut bytes = ce(1).to_line().into_bytes();
        bytes.push(b'\n');
        bytes.extend_from_slice(&[0xC3, 0x28, 0xFF, b'g', b'a', b'r', b'b', b'\n']);
        bytes.extend_from_slice(ce(2).to_line().as_bytes());
        bytes.push(b'\n');
        for chunk_bytes in [1, 2, 3, 5, 16, 1 << 20] {
            let (parsed, quarantine, ..) = drain(
                bytes.as_slice(),
                crate::ce::FORMAT,
                &tolerant(),
                chunk_bytes,
            )
            .unwrap();
            assert_eq!(parsed.records.len(), 2, "chunk={chunk_bytes}");
            assert_eq!(
                quarantine.count(QuarantineReason::BadUtf8),
                1,
                "chunk={chunk_bytes}"
            );
            assert_eq!(quarantine.total(), 1, "chunk={chunk_bytes}");
            assert_eq!(quarantine.samples[0].line_no, 2, "chunk={chunk_bytes}");
        }
    }

    #[test]
    fn multibyte_utf8_straddling_chunks_is_not_dropped() {
        // A foreign line full of multi-byte characters: chunk cuts land
        // inside the é/μ sequences for small sizes. The line must
        // survive intact and classify as UnknownFormat (it is valid
        // UTF-8, just not one of our records).
        let mut text = ce(1).to_line();
        text.push('\n');
        text.push_str("Mär  4 12:01:00 café sshd[µ]: sesión désactivée\n");
        text.push_str(&ce(2).to_line());
        text.push('\n');
        for chunk_bytes in [1, 2, 3, 4, 7, 1 << 20] {
            let (parsed, quarantine, bytes, _) =
                drain(text.as_bytes(), crate::ce::FORMAT, &tolerant(), chunk_bytes).unwrap();
            assert_eq!(parsed.records.len(), 2, "chunk={chunk_bytes}");
            assert_eq!(
                quarantine.count(QuarantineReason::UnknownFormat),
                1,
                "chunk={chunk_bytes}"
            );
            assert_eq!(bytes, text.len(), "chunk={chunk_bytes}");
        }
    }

    #[test]
    fn out_of_order_records_quarantined_across_chunks() {
        // t=0,1,2, then a displaced t=1 record, then t=3. Equal keys are
        // fine; strictly-regressing keys are quarantined — at every
        // chunk size, including cuts that isolate the displaced record.
        let mut text = String::new();
        for t in [0, 1, 1, 2, 1, 3] {
            text.push_str(&ce(t).to_line());
            text.push('\n');
        }
        for chunk_bytes in [1, 40, 200, 1 << 20] {
            let (parsed, quarantine, ..) =
                drain(text.as_bytes(), crate::ce::FORMAT, &tolerant(), chunk_bytes).unwrap();
            assert_eq!(parsed.records.len(), 5, "chunk={chunk_bytes}");
            assert_eq!(
                quarantine.count(QuarantineReason::OutOfOrder),
                1,
                "chunk={chunk_bytes}"
            );
            assert_eq!(quarantine.samples[0].line_no, 5, "chunk={chunk_bytes}");
        }
    }

    #[test]
    fn unordered_formats_skip_the_order_check() {
        // sensors.log is node-major: regressing timestamps are normal.
        let s = |minute: i64, node: u32| {
            SensorRecord {
                time: CalDate::new(2019, 4, 1).midnight().plus(minute),
                node: NodeId(node),
                sensor: SensorId::cpu(SocketId(0)),
                value: Some(60.0),
            }
            .to_line()
        };
        let text = format!("{}\n{}\n{}\n", s(5, 1), s(6, 1), s(0, 2));
        let (parsed, quarantine, ..) = drain(
            text.as_bytes(),
            crate::sensor::FORMAT,
            &IngestOptions::default(),
            1 << 20,
        )
        .unwrap();
        assert_eq!(parsed.records.len(), 3);
        assert!(quarantine.is_empty());
    }

    #[test]
    fn lenient_budget_exceeded_is_typed_error() {
        let mut text = ce(1).to_line();
        text.push('\n');
        text.push_str("junk\n");
        // 50 % bad against a 5 % budget.
        let err = drain(
            text.as_bytes(),
            crate::ce::FORMAT,
            &IngestOptions::lenient(Some(0.05)),
            1 << 20,
        )
        .unwrap_err();
        assert!(matches!(err, IngestError::Corrupt { .. }), "{err:?}");
        // The same input inside budget parses fine.
        let (parsed, quarantine, ..) = drain(
            text.as_bytes(),
            crate::ce::FORMAT,
            &IngestOptions::lenient(Some(0.5)),
            1 << 20,
        )
        .unwrap();
        assert_eq!(parsed.records.len(), 1);
        assert_eq!(quarantine.total(), 1);
    }

    /// Reader that fails the first `failures` reads with `kind`, then
    /// delegates to the inner slice.
    struct FlakyReader<'a> {
        inner: &'a [u8],
        failures: u32,
        kind: io::ErrorKind,
    }

    impl Read for FlakyReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.failures > 0 {
                self.failures -= 1;
                return Err(io::Error::new(self.kind, "transient"));
            }
            self.inner.read(buf)
        }
    }

    #[test]
    fn transient_read_errors_are_retried() {
        let text = format!("{}\n", ce(1).to_line());
        let flaky = FlakyReader {
            inner: text.as_bytes(),
            failures: 3,
            kind: io::ErrorKind::Other,
        };
        let opts = IngestOptions {
            retry: RetryPolicy {
                max_retries: 4,
                backoff_base_ms: 0,
            },
            ..IngestOptions::default()
        };
        let (parsed, ..) = drain(flaky, crate::ce::FORMAT, &opts, 1 << 20).unwrap();
        assert_eq!(parsed.records.len(), 1);
    }

    #[test]
    fn retries_exhausted_surface_the_error() {
        let text = format!("{}\n", ce(1).to_line());
        let flaky = FlakyReader {
            inner: text.as_bytes(),
            failures: 10,
            kind: io::ErrorKind::Other,
        };
        let opts = IngestOptions {
            retry: RetryPolicy {
                max_retries: 2,
                backoff_base_ms: 0,
            },
            ..IngestOptions::default()
        };
        let err = drain(flaky, crate::ce::FORMAT, &opts, 1 << 20).unwrap_err();
        assert!(matches!(err, IngestError::Io(_)), "{err:?}");
    }

    #[test]
    fn interrupted_reads_never_count_against_retries() {
        let text = format!("{}\n", ce(1).to_line());
        let flaky = FlakyReader {
            inner: text.as_bytes(),
            failures: 50,
            kind: io::ErrorKind::Interrupted,
        };
        let opts = IngestOptions {
            retry: RetryPolicy {
                max_retries: 0,
                backoff_base_ms: 0,
            },
            ..IngestOptions::default()
        };
        let (parsed, ..) = drain(flaky, crate::ce::FORMAT, &opts, 1 << 20).unwrap();
        assert_eq!(parsed.records.len(), 1);
    }

    #[test]
    fn write_lines_with_reuses_buffer() {
        let records: Vec<CeRecord> = (0..10).map(ce).collect();
        let mut sink = Vec::new();
        let n =
            write_lines_with(&mut sink, records.iter(), |rec, buf| rec.to_line_into(buf)).unwrap();
        assert_eq!(n, 10);
        let plain: String = records.iter().map(|r| r.to_line() + "\n").collect();
        assert_eq!(sink, plain.as_bytes());
    }

    #[test]
    fn parallel_no_trailing_newline() {
        let mut text = String::new();
        for i in 0..3000 {
            text.push_str(&ce(i).to_line());
            text.push('\n');
        }
        text.push_str(&ce(3000).to_line()); // no trailing newline
        let (seq, _) = read_lines(text.as_bytes(), CeRecord::parse_line).unwrap();
        assert_eq!(one_chunk(&text, 4).records, seq);
    }
}
