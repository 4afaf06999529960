//! Checkpoint serialization for the incremental engine.
//!
//! A checkpoint is a line-oriented UTF-8 snapshot of the full
//! [`StreamAnalyzer`] state plus the resume point: the number of parsed
//! `ce.log` records consumed, and the log's [`LogPosition`]. A position
//! is the byte offset of the text chunk or binary block that holds the
//! log's next unconsumed record (or the log's end when every record read
//! was consumed), the reader state at that offset (text: lines seen and
//! the ordering check's running maximum; binary: records decoded,
//! whether anything was quarantined, whether the reader had stopped),
//! the records parsed and the quarantine tally with its samples before
//! it, and a CRC-32 of the up to 4 KiB before it. Resuming seeks to the
//! offset and drops only the consumed records of that one chunk: at most
//! one 8 MiB text chunk or one 65,536-record block is read again. Chunk
//! parsing is deterministic from any chunk start, so a resumed
//! `stream-analyze` produces output identical to an uninterrupted one
//! (the golden equivalence test enforces this). A log shorter than its
//! offset, or with other bytes before it, is refused rather than
//! silently mixed.
//!
//! Format notes:
//!
//! * every `f64` travels as its IEEE-754 bit pattern in hex
//!   (`{:016x}` of `to_bits`) — decimal round-tripping would break
//!   bit-identity;
//! * configuration knobs (coalesce thresholds, predictor half-life) are
//!   deliberately *not* stored: they travel with the run configuration,
//!   and mixing them silently would corrupt results. What is guarded is
//!   the machine shape (`racks`), which changes the meaning of every
//!   node id;
//! * every section (meta, coalesce, spatial, predict) ends with a
//!   `crc NAME HEX` line — the CRC-32 of the section's lines — so a torn
//!   or bit-flipped checkpoint is detected as *which section* is
//!   damaged, not silently resumed from. The position lives in `meta`:
//!   one `log ce` line, then `quarantined` and `sample` lines for a
//!   tally that is not empty (a sample's text travels as hex);
//! * an older version is refused with [`StreamError::Version`]: v2 had
//!   no positions, and v2 and v3 carried the HET and temperature folds
//!   and a position for each of the four logs;
//! * writes go to a `.tmp` sibling then rename, so a crash mid-write
//!   never leaves a truncated checkpoint under the configured name; a
//!   failed write removes its orphaned `.tmp`. On resume, [`read`]
//!   considers both the configured file and a leftover `.tmp` sibling
//!   and salvages the freshest fully-intact snapshot of the two;
//! * the predict `fired` flags serialize as a bitmask indexed by the
//!   default predictor bank's order.
//!
//! Codec notes: a checkpoint holds every CE footprint (about 38 bytes
//! per CE), so the codec never holds a whole file. [`write`] renders
//! straight into one [`BUF_BYTES`] buffer with its own decimal and hex
//! appenders, and folds each filled buffer into the open section's CRC
//! ([`astra_util::crc32_update`]) before writing it out. [`read`] takes
//! lines from a buffered reader of the same size, parses them as bytes,
//! and folds each into its section's CRC as it goes. The bytes are the
//! ones `format!` would print; the tests keep that renderer as the
//! oracle. Counts read from the file never size an allocation before
//! their section's CRC is checked beyond [`MAX_PREALLOC_FOOTPRINTS`], so
//! a damaged count is a typed error, not an abort.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

use astra_logs::binfmt::BinPoint;
use astra_logs::io::TextPoint;
use astra_logs::quarantine::QuarantinedLine;
use astra_logs::QuarantineReason;
use astra_predict::{Alert, DimmKey, FeatureState, FeatureStateDump, FeatureVector, PredictConfig};
use astra_topology::{DimmSlot, NodeId, RankId, SystemConfig};
use astra_util::ascii::{dec_i64, dec_u64, dec_uint, hex_u64};
use astra_util::{crc32_update, Minute};

use super::analyzers::{RankTrack, StreamAnalyzer};
use super::{LogPosition, ReadPoint, ResumePoint, StreamError};
use crate::coalesce::CoalesceConfig;
use crate::spatial::SpatialCounts;

/// First line of every checkpoint written. v2 added the per-section CRC
/// lines, v3 the per-log positions, v4 dropped the logs and folds that
/// only `report` uses.
pub(crate) const HEADER: &str = "astra-stream-checkpoint v4";

/// What every version's first line starts with.
const HEADER_STEM: &str = "astra-stream-checkpoint v";

/// Size of the one buffer a checkpoint passes through, each way.
const BUF_BYTES: usize = 64 * 1024;

/// Most footprints a `group` line may reserve room for up front. Its
/// count is read before the section's CRC can vouch for it, so a larger
/// group grows as its lines actually arrive.
const MAX_PREALLOC_FOOTPRINTS: usize = 1 << 16;

fn cerr(path: &Path, detail: impl Into<String>) -> StreamError {
    StreamError::Checkpoint {
        path: path.to_path_buf(),
        detail: detail.into(),
    }
}

/// Serialize the analyzer state and resume point to `path`, atomically.
/// A failed write (or rename) removes its `.tmp` sibling so a transient
/// error never leaves an orphaned partial file for a later resume to
/// trip over.
pub(crate) fn write(
    path: &Path,
    analyzer: &StreamAnalyzer,
    resume: &ResumePoint,
) -> Result<(), StreamError> {
    let _span = astra_obs::span("checkpoint.write");
    let tmp = tmp_sibling(path);
    let bytes = match File::create(&tmp).and_then(|mut f| render(&mut f, analyzer, resume)) {
        Ok(bytes) => bytes,
        Err(e) => {
            std::fs::remove_file(&tmp).ok();
            return Err(cerr(path, format!("write failed: {e}")));
        }
    };
    std::fs::rename(&tmp, path).map_err(|e| {
        std::fs::remove_file(&tmp).ok();
        cerr(path, format!("rename failed: {e}"))
    })?;
    astra_obs::global()
        .counter("checkpoint.bytes_written")
        .add(bytes);
    Ok(())
}

/// Whether `path` could resume anything: the checkpoint itself or a
/// `.tmp` sibling a dying writer left behind (salvage handles picking).
pub(crate) fn resume_candidate_exists(path: &Path) -> bool {
    path.exists() || tmp_sibling(path).exists()
}

/// The `.tmp` sibling used for atomic writes (and probed by salvage).
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Append `v` in decimal. The digits go out as one fixed 20-byte copy
/// that is then cut to length, which is cheaper than a copy of variable
/// length; `out` must have room for 20 more bytes.
fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    let n = v.checked_ilog10().map_or(1, |d| d as usize + 1);
    let mut digits = [0u8; 20];
    for slot in digits[..n].iter_mut().rev() {
        *slot = b'0' + (v % 10) as u8;
        v /= 10;
    }
    let len = out.len();
    out.extend_from_slice(&digits);
    out.truncate(len + n);
}

/// Append the low `width` nibbles of `v` in zero-padded lower-case hex.
fn put_hex(out: &mut Vec<u8>, v: u64, width: usize) {
    const NIBBLES: &[u8; 16] = b"0123456789abcdef";
    for shift in (0..width).rev() {
        out.push(NIBBLES[(v >> (4 * shift)) as usize & 0xf]);
    }
}

/// The write side of the codec: bytes collect in one fixed buffer, which
/// is folded into the open section's CRC and written out each time it
/// fills. The first I/O error is kept and reported by [`Sink::finish`],
/// so rendering code can chain appends without checking each one.
struct Sink<W: Write> {
    out: W,
    buf: Vec<u8>,
    /// CRC-32 of the open section's bytes up to `buf[..folded]`.
    crc: u32,
    /// `buf[..folded]` is in `crc` already, or belongs to no section.
    folded: usize,
    /// Whether appended bytes belong to the open section (false while
    /// writing a line no section covers).
    covering: bool,
    written: u64,
    err: Option<io::Error>,
}

impl<W: Write> Sink<W> {
    fn new(out: W) -> Self {
        Sink {
            out,
            buf: Vec::with_capacity(BUF_BYTES),
            crc: 0,
            folded: 0,
            covering: true,
            written: 0,
            err: None,
        }
    }

    /// The buffer, flushed first unless `n` more bytes fit.
    fn room(&mut self, n: usize) -> &mut Vec<u8> {
        if self.buf.len() + n > BUF_BYTES {
            self.flush();
        }
        &mut self.buf
    }

    fn fold(&mut self) {
        if self.covering {
            self.crc = crc32_update(self.crc, &self.buf[self.folded..]);
        }
        self.folded = self.buf.len();
    }

    fn flush(&mut self) {
        self.fold();
        if self.err.is_none() {
            match self.out.write_all(&self.buf) {
                Ok(()) => self.written += self.buf.len() as u64,
                Err(e) => self.err = Some(e),
            }
        }
        self.buf.clear();
        self.folded = 0;
    }

    fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.room(b.len()).extend_from_slice(b);
        self
    }

    fn sp(&mut self) -> &mut Self {
        self.bytes(b" ")
    }

    fn nl(&mut self) -> &mut Self {
        self.bytes(b"\n")
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        put_u64(self.room(20), v);
        self
    }

    fn i64(&mut self, v: i64) -> &mut Self {
        if v < 0 {
            self.bytes(b"-");
        }
        self.u64(v.unsigned_abs())
    }

    fn hex(&mut self, v: u64, width: usize) -> &mut Self {
        put_hex(self.room(width), v, width);
        self
    }

    /// An `f64` as the hex of its bit pattern (`{:016x}` of `to_bits`).
    fn f64(&mut self, v: f64) -> &mut Self {
        self.hex(v.to_bits(), 16)
    }

    /// `values` separated by spaces.
    fn words(&mut self, values: &[u64]) -> &mut Self {
        for (i, &v) in values.iter().enumerate() {
            if i > 0 {
                self.sp();
            }
            self.u64(v);
        }
        self
    }

    /// `items` separated by commas, or `-` when there are none.
    fn list<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut item: impl FnMut(&mut Self, T) -> &mut Self,
    ) -> &mut Self {
        let mut empty = true;
        for v in items {
            if !empty {
                self.bytes(b",");
            }
            item(self, v);
            empty = false;
        }
        if empty {
            self.bytes(b"-");
        }
        self
    }

    /// Append what `line` writes outside every section: the header, a
    /// CRC trailer, the end marker.
    fn uncovered(&mut self, line: impl FnOnce(&mut Self)) {
        self.fold();
        self.covering = false;
        line(self);
        self.fold();
        self.covering = true;
    }

    /// Close the open section with its `crc NAME HEX` trailer.
    fn seal(&mut self, name: &str) {
        self.fold();
        let crc = std::mem::take(&mut self.crc);
        self.uncovered(|s| {
            s.bytes(b"crc ")
                .bytes(name.as_bytes())
                .sp()
                .hex(crc.into(), 8)
                .nl();
        });
    }

    /// Write out what is buffered; the byte count, or the first error.
    fn finish(mut self) -> io::Result<u64> {
        self.flush();
        match self.err {
            Some(e) => Err(e),
            None => Ok(self.written),
        }
    }
}

/// Stream the checkpoint of `analyzer` at `resume` into `out`; returns
/// the number of bytes written.
fn render<W: Write>(out: W, analyzer: &StreamAnalyzer, resume: &ResumePoint) -> io::Result<u64> {
    let mut s = Sink::new(out);
    s.uncovered(|s| {
        s.bytes(HEADER.as_bytes()).nl();
    });

    s.bytes(b"racks ").u64(analyzer.system.racks.into()).nl();
    s.bytes(b"consumed ").u64(resume.consumed).nl();
    render_position(&mut s, &resume.log);
    s.seal("meta");

    // Coalesce: every footprint, grouped, groups in key order.
    s.bytes(b"coalesce.ces ").u64(analyzer.coalesce.ces).nl();
    let mut keys: Vec<_> = analyzer.coalesce.groups.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        let feet = &analyzer.coalesce.groups[&key];
        let (node, slot, rank) = key;
        s.bytes(b"group ")
            .words(&[node.into(), slot.into(), rank.into(), feet.len() as u64])
            .nl();
        for f in feet {
            s.bytes(b"f ")
                .u64(f.idx.into())
                .sp()
                .i64(f.time.0)
                .sp()
                .words(&[f.bank.into(), f.col.into(), f.bit_pos.into(), f.addr])
                .nl();
        }
    }
    s.seal("coalesce");

    render_spatial(&mut s, &analyzer.spatial.counts);
    s.seal("spatial");

    for (&(node, slot, rank), track) in &analyzer.predict.ranks {
        let mut mask = 0u64;
        for (i, &f) in track.fired.iter().enumerate() {
            if f {
                mask |= 1 << i;
            }
        }
        let d = track.state.dump();
        s.bytes(b"predict.rank ")
            .words(&[node.into(), slot.into(), rank.into(), mask])
            .sp()
            .i64(d.first_ce.0)
            .sp()
            .i64(d.last_ce.0)
            .sp()
            .u64(d.total_ces)
            .sp()
            .f64(d.leaky)
            .sp()
            .words(&[d.addrs_saturated.into(), d.escalation_rung.into()])
            .sp()
            .list(&d.banks, |s, &v| s.u64(v.into()))
            .sp()
            .list(&d.cols, |s, &v| s.u64(v.into()))
            .sp()
            .list(&d.addrs, |s, &v| s.u64(v))
            .sp()
            .list(&d.lanes, |s, &(lane, n, m)| {
                s.u64(lane.into())
                    .bytes(b":")
                    .u64(n)
                    .bytes(b":")
                    .u64(m.into())
            })
            .nl();
    }
    for a in &analyzer.predict.alerts {
        let fv = &a.features;
        s.bytes(b"predict.alert ")
            .i64(a.time.0)
            .sp()
            .words(&[
                a.key.node.0.into(),
                a.key.slot.index() as u64,
                a.key.rank.0.into(),
            ])
            .sp()
            .bytes(a.predictor.as_bytes())
            .sp()
            .f64(a.score)
            .sp()
            .f64(fv.window_ces)
            .sp()
            .words(&[
                fv.total_ces,
                fv.distinct_banks.into(),
                fv.distinct_cols.into(),
                fv.distinct_addrs.into(),
                fv.distinct_lanes.into(),
            ])
            .sp()
            .f64(fv.dominant_lane_share)
            .sp()
            .i64(fv.minutes_since_first)
            .sp()
            .u64(fv.escalation.rung().into())
            .nl();
    }
    s.seal("predict");

    s.uncovered(|s| {
        s.bytes(b"end").nl();
    });
    s.finish()
}

/// The name `ce.log` goes by in the `log`, `quarantined` and `sample`
/// lines.
const LOG_NAME: &[u8] = b"ce";

/// The `log ce` line, then its nonzero tally and samples.
fn render_position<W: Write>(s: &mut Sink<W>, pos: &LogPosition) {
    let name = LOG_NAME;
    s.bytes(b"log ").bytes(name);
    match pos.point {
        ReadPoint::Text(_) => s.bytes(b" text "),
        ReadPoint::Bin(_) => s.bytes(b" bin "),
    };
    s.words(&[pos.point.offset(), pos.parsed])
        .sp()
        .hex(pos.tail_crc.into(), 8)
        .sp();
    match pos.point {
        ReadPoint::Text(p) => {
            s.u64(p.lines).sp();
            match p.max_key {
                Some(k) => s.i64(k),
                None => s.bytes(b"-"),
            };
        }
        ReadPoint::Bin(p) => {
            s.words(&[p.decoded, p.dirty.into(), p.ended.into()]);
        }
    }
    s.nl();
    // Each reason's count, then its samples (a quarantine keeps them
    // grouped by reason, in file order within one).
    let q = &pos.quarantine;
    for reason in QuarantineReason::ALL {
        let n = q.count(reason);
        if n == 0 {
            continue;
        }
        let reason_name = reason.name().as_bytes();
        s.bytes(b"quarantined ")
            .bytes(name)
            .sp()
            .bytes(reason_name)
            .sp()
            .u64(n)
            .nl();
        for sample in q.samples.iter().filter(|q| q.reason == reason) {
            s.bytes(b"sample ")
                .bytes(name)
                .sp()
                .bytes(reason_name)
                .sp()
                .u64(sample.line_no)
                .sp();
            if sample.snippet.is_empty() {
                s.bytes(b"-");
            }
            for &b in sample.snippet.as_bytes() {
                s.hex(b.into(), 2);
            }
            s.nl();
        }
    }
}

fn render_spatial<W: Write>(s: &mut Sink<W>, c: &SpatialCounts) {
    let flat: Vec<u64> = c
        .faults_by_rack_region
        .iter()
        .flat_map(|row| row.iter().copied())
        .collect();
    for (name, values) in [
        ("errors_by_socket", &c.errors_by_socket[..]),
        ("faults_by_socket", &c.faults_by_socket[..]),
        ("errors_by_bank", &c.errors_by_bank[..]),
        ("faults_by_bank", &c.faults_by_bank[..]),
        ("errors_by_col", &c.errors_by_col[..]),
        ("faults_by_col", &c.faults_by_col[..]),
        ("errors_by_rank", &c.errors_by_rank[..]),
        ("faults_by_rank", &c.faults_by_rank[..]),
        ("errors_by_slot", &c.errors_by_slot[..]),
        ("faults_by_slot", &c.faults_by_slot[..]),
        ("errors_by_rack", &c.errors_by_rack[..]),
        ("faults_by_rack", &c.faults_by_rack[..]),
        ("errors_by_region", &c.errors_by_region[..]),
        ("faults_by_region", &c.faults_by_region[..]),
        ("faults_by_rack_region", &flat[..]),
    ] {
        s.bytes(b"spatial.")
            .bytes(name.as_bytes())
            .sp()
            .words(values)
            .nl();
    }
    for (name, table) in [
        ("errors_by_node", &c.errors_by_node),
        ("faults_by_node", &c.faults_by_node),
        ("faults_by_bit", &c.faults_by_bit),
        ("faults_by_addr", &c.faults_by_addr),
    ] {
        s.bytes(b"spatial.")
            .bytes(name.as_bytes())
            .sp()
            .list(table.iter(), |s, (k, v)| s.u64(k).bytes(b":").u64(v))
            .nl();
    }
}

/// Deserialize a checkpoint into a restored analyzer plus the resume
/// point, salvaging when necessary. `system` must be the one the
/// checkpointed run used; the machine shape is verified.
///
/// Salvage: both `path` and a leftover `path.tmp` sibling (a write the
/// process died during, or after, without completing the rename) are
/// candidates. Each is validated in full — header, per-section CRCs, end
/// marker — and the *freshest intact* snapshot (most consumed records)
/// wins. Resuming from an older-but-intact checkpoint is always
/// sound (replay is deterministic); resuming from a torn one never is,
/// so a damaged candidate is only an error when no intact one exists.
/// Any salvage decision (torn file skipped, or `.tmp` outrunning the
/// configured file) bumps the `checkpoint.salvaged` counter and says so
/// on stderr.
pub(crate) fn read(
    path: &Path,
    system: &SystemConfig,
) -> Result<(StreamAnalyzer, ResumePoint), StreamError> {
    let _span = astra_obs::span("checkpoint.read");
    let primary = read_one(path, system);
    let tmp = tmp_sibling(path);
    if !tmp.exists() {
        return primary;
    }
    let secondary = read_one(&tmp, system);
    let salvaged = |which: &Path, state: (StreamAnalyzer, ResumePoint), note: &str| {
        astra_obs::global().counter("checkpoint.salvaged").add(1);
        eprintln!(
            "note: salvaged checkpoint from {} ({note})",
            which.display()
        );
        Ok(state)
    };
    match (primary, secondary) {
        (Ok(p), Ok(s)) => {
            // Both intact: freshest wins; ties keep the configured file.
            if s.1.consumed > p.1.consumed {
                salvaged(&tmp, s, "newer than the configured file")
            } else {
                Ok(p)
            }
        }
        (Ok(p), Err(e)) => {
            eprintln!("note: ignoring torn checkpoint {}: {e}", tmp.display());
            astra_obs::global().counter("checkpoint.salvaged").add(1);
            Ok(p)
        }
        (Err(e), Ok(s)) => {
            eprintln!("note: checkpoint {} is damaged: {e}", path.display());
            salvaged(&tmp, s, "configured file is damaged")
        }
        (Err(e), Err(_)) => Err(e),
    }
}

/// Read and fully validate a single checkpoint file.
fn read_one(
    path: &Path,
    system: &SystemConfig,
) -> Result<(StreamAnalyzer, ResumePoint), StreamError> {
    let file = File::open(path).map_err(|e| cerr(path, format!("unreadable: {e}")))?;
    let mut lines = Lines::new(BufReader::with_capacity(BUF_BYTES, file));
    let parsed = parse_lines(path, &mut lines, system);
    astra_obs::global()
        .counter("checkpoint.bytes_read")
        .add(lines.bytes);
    parsed
}

/// The read side of the codec: one line at a time from a buffered
/// reader, without its line ending, numbered from 1.
struct Lines<R> {
    src: R,
    line: Vec<u8>,
    no: usize,
    /// Bytes taken from `src` so far.
    bytes: u64,
}

impl<R: BufRead> Lines<R> {
    fn new(src: R) -> Self {
        Lines {
            src,
            line: Vec::new(),
            no: 0,
            bytes: 0,
        }
    }

    /// The next line and its number, `None` at end of input. Like
    /// `str::lines`, a `\r\n` ending is stripped whole and the last line
    /// needs no ending.
    fn next(&mut self) -> io::Result<Option<(usize, &[u8])>> {
        self.line.clear();
        let n = self.src.read_until(b'\n', &mut self.line)?;
        if n == 0 {
            return Ok(None);
        }
        self.bytes += n as u64;
        self.no += 1;
        let mut line = &self.line[..];
        if let Some(body) = line.strip_suffix(b"\n") {
            line = body.strip_suffix(b"\r").unwrap_or(body);
        }
        Ok(Some((self.no, line)))
    }
}

/// Fold one section line, with the `\n` the writer ended it with, into
/// the section's running CRC.
fn fold_line(crc: u32, line: &[u8]) -> u32 {
    crc32_update(crc32_update(crc, line), b"\n")
}

/// Whitespace-separated tokens of one line, with the field parsers the
/// format needs.
struct Toks<'a>(&'a [u8]);

impl<'a> Iterator for Toks<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let start = self.0.iter().position(|b| !b.is_ascii_whitespace())?;
        let rest = &self.0[start..];
        let end = rest
            .iter()
            .position(u8::is_ascii_whitespace)
            .unwrap_or(rest.len());
        self.0 = &rest[end..];
        Some(&rest[..end])
    }
}

impl Toks<'_> {
    fn u64(&mut self) -> Option<u64> {
        dec_u64(self.next()?)
    }

    /// An unsigned field of a narrower type; out of range is `None`.
    fn uint<T: TryFrom<u64>>(&mut self) -> Option<T> {
        dec_uint(self.next()?)
    }

    fn i64(&mut self) -> Option<i64> {
        dec_i64(self.next()?)
    }

    fn f64(&mut self) -> Option<f64> {
        hex_f64(self.next()?)
    }
}

fn hex_f64(tok: &[u8]) -> Option<f64> {
    hex_u64(tok).map(f64::from_bits)
}

/// A comma-separated list, `-` for none.
fn dec_list<T: TryFrom<u64>>(tok: &[u8]) -> Option<Vec<T>> {
    if tok == b"-" {
        return Some(Vec::new());
    }
    tok.split(|&b| b == b',').map(dec_uint).collect()
}

fn dec_lanes(tok: &[u8]) -> Option<Vec<(u16, u64, u16)>> {
    if tok == b"-" {
        return Some(Vec::new());
    }
    tok.split(|&b| b == b',')
        .map(|item| {
            let mut parts = item.split(|&b| b == b':');
            let lane = dec_uint(parts.next()?)?;
            let count = dec_u64(parts.next()?)?;
            let mask = dec_uint(parts.next()?)?;
            parts.next().is_none().then_some((lane, count, mask))
        })
        .collect()
}

/// Whether a first line is the header of another checkpoint version.
fn is_other_version(line: &[u8]) -> bool {
    line.strip_prefix(HEADER_STEM.as_bytes())
        .is_some_and(|v| !v.is_empty() && v.iter().all(u8::is_ascii_digit))
}

/// Whether a log token names `ce.log`, the one log a checkpoint tracks.
fn is_ce_log(tok: Option<&[u8]>) -> bool {
    tok == Some(LOG_NAME)
}

fn quarantine_reason(tok: Option<&[u8]>) -> Option<QuarantineReason> {
    let tok = tok?;
    QuarantineReason::ALL
        .into_iter()
        .find(|r| r.name().as_bytes() == tok)
}

fn flag(tok: Option<&[u8]>) -> Option<bool> {
    match tok? {
        b"0" => Some(false),
        b"1" => Some(true),
        _ => None,
    }
}

/// A sample's text: hex of its UTF-8 bytes, `-` for none.
fn hex_text(tok: &[u8]) -> Option<String> {
    if tok == b"-" {
        return Some(String::new());
    }
    if !tok.len().is_multiple_of(2) {
        return None;
    }
    let bytes = tok
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).ok()?, 16).ok())
        .collect::<Option<Vec<u8>>>()?;
    String::from_utf8(bytes).ok()
}

/// The rest of a `log NAME` line: format, offset, records parsed, tail
/// CRC, then the format's reader state.
fn parse_position(toks: &mut Toks<'_>, pos: &mut LogPosition) -> Result<(), String> {
    let kind = toks.next().ok_or("missing log format")?;
    let offset = toks.u64().ok_or("bad or missing offset")?;
    pos.parsed = toks.u64().ok_or("bad or missing parsed count")?;
    pos.tail_crc = toks
        .next()
        .and_then(|t| u32::from_str_radix(std::str::from_utf8(t).ok()?, 16).ok())
        .ok_or("bad or missing tail crc")?;
    pos.point = match kind {
        b"text" => ReadPoint::Text(TextPoint {
            offset,
            lines: toks.u64().ok_or("bad or missing line count")?,
            max_key: match toks.next().ok_or("missing ordering maximum")? {
                b"-" => None,
                t => Some(dec_i64(t).ok_or("bad ordering maximum")?),
            },
        }),
        b"bin" => ReadPoint::Bin(BinPoint {
            offset,
            decoded: toks.u64().ok_or("bad or missing decoded count")?,
            dirty: flag(toks.next()).ok_or("bad or missing dirty flag")?,
            ended: flag(toks.next()).ok_or("bad or missing ended flag")?,
        }),
        other => {
            return Err(format!(
                "unknown log format {:?}",
                String::from_utf8_lossy(other)
            ))
        }
    };
    Ok(())
}

fn parse_lines<R: BufRead>(
    path: &Path,
    lines: &mut Lines<R>,
    system: &SystemConfig,
) -> Result<(StreamAnalyzer, ResumePoint), StreamError> {
    let mut analyzer =
        StreamAnalyzer::new(*system, CoalesceConfig::default(), PredictConfig::default());
    let mut consumed: Option<u64> = None;
    let mut resume = ResumePoint::default();
    let mut positioned = false;
    let mut saw_racks = false;
    let mut saw_end = false;
    // CRC-32 of the current section's lines so far, and whether it has
    // any: its `crc NAME HEX` trailer must match.
    let mut crc = 0u32;
    let mut open = false;

    let bad = |no: usize, detail: String| cerr(path, format!("line {no}: {detail}"));
    let io_err = |e: io::Error| cerr(path, format!("unreadable: {e}"));

    match lines.next().map_err(io_err)? {
        Some((_, line)) if line == HEADER.as_bytes() => {}
        Some((_, line)) if is_other_version(line) => {
            return Err(StreamError::Version {
                path: path.to_path_buf(),
                header: String::from_utf8_lossy(line).into_owned(),
            })
        }
        _ => {
            return Err(cerr(
                path,
                format!("not a checkpoint (expected {HEADER:?})"),
            ))
        }
    }

    while let Some((no, line)) = lines.next().map_err(io_err)? {
        let mut toks = Toks(line);
        let Some(tag) = toks.next() else { continue };
        if tag == b"crc" {
            let name = toks
                .next()
                .map(String::from_utf8_lossy)
                .ok_or_else(|| bad(no, "crc line missing section name".into()))?;
            let stored = toks
                .next()
                .and_then(|t| u32::from_str_radix(std::str::from_utf8(t).ok()?, 16).ok())
                .ok_or_else(|| bad(no, format!("bad crc value for section {name}")))?;
            if crc != stored {
                return Err(bad(
                    no,
                    format!(
                        "section {name} CRC mismatch (stored {stored:08x}, computed {crc:08x})"
                    ),
                ));
            }
            crc = 0;
            open = false;
            continue;
        }
        if tag == b"end" {
            if open {
                return Err(bad(
                    no,
                    "lines before end not covered by a section CRC".into(),
                ));
            }
        } else {
            crc = fold_line(crc, line);
            open = true;
        }
        match tag {
            b"racks" => {
                let racks = toks
                    .u64()
                    .ok_or_else(|| bad(no, "bad or missing racks".into()))?;
                if racks != u64::from(system.racks) {
                    return Err(bad(
                        no,
                        format!(
                            "checkpoint is for a {racks}-rack machine, this run is {} racks",
                            system.racks
                        ),
                    ));
                }
                saw_racks = true;
            }
            b"consumed" => {
                consumed = Some(
                    toks.u64()
                        .ok_or_else(|| bad(no, "bad or missing consumed count".into()))?,
                );
            }
            b"log" => {
                if !is_ce_log(toks.next()) {
                    return Err(bad(no, "bad or missing log".into()));
                }
                parse_position(&mut toks, &mut resume.log).map_err(|detail| bad(no, detail))?;
                positioned = true;
            }
            b"quarantined" => {
                if !is_ce_log(toks.next()) {
                    return Err(bad(no, "bad or missing log".into()));
                }
                let reason = quarantine_reason(toks.next())
                    .ok_or_else(|| bad(no, "bad or missing reason".into()))?;
                resume.log.quarantine.counts[reason.index()] = toks
                    .u64()
                    .ok_or_else(|| bad(no, "bad or missing count".into()))?;
            }
            b"sample" => {
                if !is_ce_log(toks.next()) {
                    return Err(bad(no, "bad or missing log".into()));
                }
                let reason = quarantine_reason(toks.next())
                    .ok_or_else(|| bad(no, "bad or missing reason".into()))?;
                let line_no = toks
                    .u64()
                    .ok_or_else(|| bad(no, "bad or missing line number".into()))?;
                let snippet = toks
                    .next()
                    .and_then(hex_text)
                    .ok_or_else(|| bad(no, "bad or missing sample text".into()))?;
                resume.log.quarantine.keep_sample(QuarantinedLine {
                    line_no,
                    reason,
                    snippet,
                });
            }
            b"coalesce.ces" => {
                analyzer.coalesce.ces = toks
                    .u64()
                    .ok_or_else(|| bad(no, "bad or missing ce count".into()))?
            }
            b"group" => {
                let key = (
                    toks.u64()
                        .ok_or_else(|| bad(no, "bad or missing node".into()))?
                        as u32,
                    toks.u64()
                        .ok_or_else(|| bad(no, "bad or missing slot".into()))?
                        as u8,
                    toks.u64()
                        .ok_or_else(|| bad(no, "bad or missing rank".into()))?
                        as u8,
                );
                let n = toks
                    .u64()
                    .ok_or_else(|| bad(no, "bad or missing footprint count".into()))?;
                let reserve = usize::try_from(n)
                    .map_or(MAX_PREALLOC_FOOTPRINTS, |n| n.min(MAX_PREALLOC_FOOTPRINTS));
                let mut feet = Vec::with_capacity(reserve);
                for _ in 0..n {
                    let Some((fno, fline)) = lines.next().map_err(io_err)? else {
                        return Err(bad(no, format!("truncated group (claims {n} footprints)")));
                    };
                    crc = fold_line(crc, fline);
                    let mut ft = Toks(fline);
                    if ft.next() != Some(b"f") {
                        return Err(bad(
                            fno,
                            format!("expected footprint line (group at line {no} claims {n})"),
                        ));
                    }
                    feet.push(crate::coalesce::CeFootprint {
                        idx: ft
                            .uint()
                            .ok_or_else(|| bad(fno, "bad footprint idx".into()))?,
                        time: Minute(
                            ft.i64()
                                .ok_or_else(|| bad(fno, "bad footprint time".into()))?,
                        ),
                        bank: ft
                            .uint()
                            .ok_or_else(|| bad(fno, "bad footprint bank".into()))?,
                        col: ft
                            .uint()
                            .ok_or_else(|| bad(fno, "bad footprint col".into()))?,
                        bit_pos: ft
                            .uint()
                            .ok_or_else(|| bad(fno, "bad footprint bit_pos".into()))?,
                        addr: ft
                            .u64()
                            .ok_or_else(|| bad(fno, "bad footprint addr".into()))?,
                    });
                }
                analyzer.coalesce.groups.insert(key, feet);
            }
            b"predict.rank" => {
                let key = (
                    toks.u64()
                        .ok_or_else(|| bad(no, "bad or missing node".into()))?
                        as u32,
                    toks.u64()
                        .ok_or_else(|| bad(no, "bad or missing slot".into()))?
                        as u8,
                    toks.u64()
                        .ok_or_else(|| bad(no, "bad or missing rank".into()))?
                        as u8,
                );
                let mask = toks
                    .u64()
                    .ok_or_else(|| bad(no, "bad or missing fired mask".into()))?;
                let dump = FeatureStateDump {
                    first_ce: Minute(toks.i64().ok_or_else(|| bad(no, "bad first_ce".into()))?),
                    last_ce: Minute(toks.i64().ok_or_else(|| bad(no, "bad last_ce".into()))?),
                    total_ces: toks
                        .u64()
                        .ok_or_else(|| bad(no, "bad or missing total_ces".into()))?,
                    leaky: toks.f64().ok_or_else(|| bad(no, "bad leaky".into()))?,
                    addrs_saturated: toks
                        .u64()
                        .ok_or_else(|| bad(no, "bad or missing addrs_saturated".into()))?
                        != 0,
                    escalation_rung: toks
                        .u64()
                        .ok_or_else(|| bad(no, "bad or missing escalation rung".into()))?
                        as u8,
                    banks: toks
                        .next()
                        .and_then(dec_list)
                        .ok_or_else(|| bad(no, "bad banks".into()))?,
                    cols: toks
                        .next()
                        .and_then(dec_list)
                        .ok_or_else(|| bad(no, "bad cols".into()))?,
                    addrs: toks
                        .next()
                        .and_then(dec_list)
                        .ok_or_else(|| bad(no, "bad addrs".into()))?,
                    lanes: toks
                        .next()
                        .and_then(dec_lanes)
                        .ok_or_else(|| bad(no, "bad lanes".into()))?,
                };
                let config = &analyzer.predict.config;
                let state = FeatureState::restore(
                    &dump,
                    config.half_life_minutes,
                    config.pin_bank_threshold,
                    config.bank_dispersion_cols,
                )
                .ok_or_else(|| bad(no, "unrestorable feature state".into()))?;
                let fired = (0..analyzer.predict.predictors.len())
                    .map(|i| mask & (1 << i) != 0)
                    .collect();
                analyzer
                    .predict
                    .ranks
                    .insert(key, RankTrack { state, fired });
            }
            b"predict.alert" => {
                let time = Minute(toks.i64().ok_or_else(|| bad(no, "bad time".into()))?);
                let node = NodeId(
                    toks.u64()
                        .ok_or_else(|| bad(no, "bad or missing node".into()))?
                        as u32,
                );
                let slot = DimmSlot::from_index(
                    toks.u64()
                        .ok_or_else(|| bad(no, "bad or missing slot".into()))?
                        as u8,
                )
                .ok_or_else(|| bad(no, "bad slot".into()))?;
                let rank = RankId(
                    toks.u64()
                        .ok_or_else(|| bad(no, "bad or missing rank".into()))?
                        as u8,
                );
                let name = toks
                    .next()
                    .ok_or_else(|| bad(no, "missing predictor name".into()))?;
                let predictor = analyzer
                    .predict
                    .predictors
                    .iter()
                    .find(|p| p.name().as_bytes() == name)
                    .map(|p| p.name())
                    .ok_or_else(|| {
                        bad(
                            no,
                            format!("unknown predictor {:?}", String::from_utf8_lossy(name)),
                        )
                    })?;
                let score = toks.f64().ok_or_else(|| bad(no, "bad score".into()))?;
                let window_ces = toks.f64().ok_or_else(|| bad(no, "bad window_ces".into()))?;
                let total_ces = toks
                    .u64()
                    .ok_or_else(|| bad(no, "bad or missing total_ces".into()))?;
                let distinct_banks = toks
                    .u64()
                    .ok_or_else(|| bad(no, "bad or missing distinct_banks".into()))?
                    as u32;
                let distinct_cols = toks
                    .u64()
                    .ok_or_else(|| bad(no, "bad or missing distinct_cols".into()))?
                    as u32;
                let distinct_addrs = toks
                    .u64()
                    .ok_or_else(|| bad(no, "bad or missing distinct_addrs".into()))?
                    as u32;
                let distinct_lanes = toks
                    .u64()
                    .ok_or_else(|| bad(no, "bad or missing distinct_lanes".into()))?
                    as u32;
                let dominant_lane_share =
                    toks.f64().ok_or_else(|| bad(no, "bad lane share".into()))?;
                let minutes_since_first = toks
                    .i64()
                    .ok_or_else(|| bad(no, "bad minutes_since_first".into()))?;
                let escalation = astra_predict::EscalationLevel::from_rung(
                    toks.u64()
                        .ok_or_else(|| bad(no, "bad or missing escalation rung".into()))?
                        as u8,
                )
                .ok_or_else(|| bad(no, "bad escalation rung".into()))?;
                analyzer.predict.alerts.push(Alert {
                    time,
                    key: DimmKey { node, slot, rank },
                    predictor,
                    score,
                    features: FeatureVector {
                        window_ces,
                        total_ces,
                        distinct_banks,
                        distinct_cols,
                        distinct_addrs,
                        distinct_lanes,
                        dominant_lane_share,
                        minutes_since_first,
                        escalation,
                    },
                });
            }
            b"end" => {
                saw_end = true;
                break;
            }
            other => match other.strip_prefix(b"spatial.") {
                Some(field) => parse_spatial(
                    &analyzer.system,
                    &mut analyzer.spatial.counts,
                    &String::from_utf8_lossy(field),
                    toks,
                )
                .map_err(|detail| bad(no, detail))?,
                None => {
                    let other = String::from_utf8_lossy(other);
                    return Err(bad(no, format!("unknown section {other:?}")));
                }
            },
        }
    }

    if !saw_racks {
        return Err(cerr(path, "missing racks guard"));
    }
    if !saw_end {
        return Err(cerr(path, "truncated checkpoint (no end marker)"));
    }
    let consumed = consumed.ok_or_else(|| cerr(path, "missing consumed count"))?;
    if !positioned {
        return Err(cerr(path, "missing position of ce"));
    }
    if resume.log.parsed > consumed {
        return Err(cerr(
            path,
            format!(
                "position of ce follows {} parsed records, more than the {consumed} consumed",
                resume.log.parsed
            ),
        ));
    }
    resume.consumed = consumed;
    Ok((analyzer, resume))
}

fn parse_spatial(
    system: &SystemConfig,
    c: &mut SpatialCounts,
    field: &str,
    mut toks: Toks<'_>,
) -> Result<(), String> {
    let fill = |dst: &mut [u64], toks: Toks<'_>| -> Result<(), String> {
        let mut n = 0;
        for tok in toks {
            let v = dec_u64(tok).ok_or_else(|| format!("bad {field} values"))?;
            if let Some(slot) = dst.get_mut(n) {
                *slot = v;
            }
            n += 1;
        }
        if n != dst.len() {
            return Err(format!(
                "{field} has {n} values, machine shape needs {}",
                dst.len()
            ));
        }
        Ok(())
    };
    match field {
        "errors_by_socket" => fill(&mut c.errors_by_socket, toks),
        "faults_by_socket" => fill(&mut c.faults_by_socket, toks),
        "errors_by_bank" => fill(&mut c.errors_by_bank, toks),
        "faults_by_bank" => fill(&mut c.faults_by_bank, toks),
        "errors_by_col" => fill(&mut c.errors_by_col, toks),
        "faults_by_col" => fill(&mut c.faults_by_col, toks),
        "errors_by_rank" => fill(&mut c.errors_by_rank, toks),
        "faults_by_rank" => fill(&mut c.faults_by_rank, toks),
        "errors_by_slot" => fill(&mut c.errors_by_slot, toks),
        "faults_by_slot" => fill(&mut c.faults_by_slot, toks),
        "errors_by_rack" => fill(&mut c.errors_by_rack, toks),
        "faults_by_rack" => fill(&mut c.faults_by_rack, toks),
        "errors_by_region" => fill(&mut c.errors_by_region, toks),
        "faults_by_region" => fill(&mut c.faults_by_region, toks),
        "faults_by_rack_region" => {
            let mut flat = vec![0u64; system.racks as usize * 3];
            fill(&mut flat, toks)?;
            for (row, chunk) in c.faults_by_rack_region.iter_mut().zip(flat.chunks(3)) {
                row.copy_from_slice(chunk);
            }
            Ok(())
        }
        "errors_by_node" | "faults_by_node" | "faults_by_bit" | "faults_by_addr" => {
            let table = match field {
                "errors_by_node" => &mut c.errors_by_node,
                "faults_by_node" => &mut c.faults_by_node,
                "faults_by_bit" => &mut c.faults_by_bit,
                _ => &mut c.faults_by_addr,
            };
            let tok = toks.next().ok_or_else(|| format!("missing {field}"))?;
            if tok != b"-" {
                for pair in tok.split(|&b| b == b',') {
                    let mut kv = pair.splitn(2, |&b| b == b':');
                    let (Some(k), Some(v)) = (kv.next(), kv.next()) else {
                        let pair = String::from_utf8_lossy(pair);
                        return Err(format!("bad {field} pair {pair:?}"));
                    };
                    let k = dec_u64(k).ok_or_else(|| format!("bad {field} key"))?;
                    let v = dec_u64(v).ok_or_else(|| format!("bad {field} count"))?;
                    table.add(k, v);
                }
            }
            Ok(())
        }
        other => Err(format!("unknown spatial field {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Dataset;
    use crate::stream::{Analyzer, MemEvent};
    use astra_logs::binfmt;
    use std::fmt::Write as _;
    use std::sync::OnceLock;

    /// The `core::fmt` renderer the codec replaced, kept as the oracle
    /// for the streamed bytes.
    fn render_fmt(analyzer: &StreamAnalyzer, resume: &ResumePoint) -> String {
        fn hex(v: f64) -> String {
            format!("{:016x}", v.to_bits())
        }
        fn list<T: std::fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
            let joined = items
                .into_iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",");
            if joined.is_empty() {
                "-".into()
            } else {
                joined
            }
        }
        fn seal_section(out: &mut String, name: &str, body: String) {
            out.push_str(&body);
            let _ = writeln!(out, "crc {name} {:08x}", astra_util::crc32(body.as_bytes()));
        }

        let mut out = String::new();
        let _ = writeln!(out, "{HEADER}");
        let mut body = String::new();
        let w = &mut body;
        let _ = writeln!(w, "racks {}", analyzer.system.racks);
        let _ = writeln!(w, "consumed {}", resume.consumed);
        let pos = &resume.log;
        let (offset, parsed, crc) = (pos.point.offset(), pos.parsed, pos.tail_crc);
        let _ = match pos.point {
            ReadPoint::Text(p) => writeln!(
                w,
                "log ce text {offset} {parsed} {crc:08x} {} {}",
                p.lines,
                p.max_key.map_or("-".to_string(), |k| k.to_string())
            ),
            ReadPoint::Bin(p) => writeln!(
                w,
                "log ce bin {offset} {parsed} {crc:08x} {} {} {}",
                p.decoded,
                u8::from(p.dirty),
                u8::from(p.ended)
            ),
        };
        for reason in QuarantineReason::ALL {
            let n = pos.quarantine.count(reason);
            if n > 0 {
                let _ = writeln!(w, "quarantined ce {reason} {n}");
            }
            for q in pos.quarantine.samples.iter().filter(|q| q.reason == reason) {
                let hex: String = q.snippet.bytes().map(|b| format!("{b:02x}")).collect();
                let hex = if hex.is_empty() { "-".into() } else { hex };
                let _ = writeln!(w, "sample ce {reason} {} {hex}", q.line_no);
            }
        }
        seal_section(&mut out, "meta", std::mem::take(&mut body));

        let w = &mut body;
        let _ = writeln!(w, "coalesce.ces {}", analyzer.coalesce.ces);
        let mut keys: Vec<_> = analyzer.coalesce.groups.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let feet = &analyzer.coalesce.groups[&key];
            let _ = writeln!(w, "group {} {} {} {}", key.0, key.1, key.2, feet.len());
            for f in feet {
                let _ = writeln!(
                    w,
                    "f {} {} {} {} {} {}",
                    f.idx, f.time.0, f.bank, f.col, f.bit_pos, f.addr
                );
            }
        }
        seal_section(&mut out, "coalesce", std::mem::take(&mut body));

        let c = &analyzer.spatial.counts;
        let w = &mut body;
        let flat: Vec<u64> = c
            .faults_by_rack_region
            .iter()
            .flat_map(|row| row.iter().copied())
            .collect();
        for (name, values) in [
            ("errors_by_socket", &c.errors_by_socket[..]),
            ("faults_by_socket", &c.faults_by_socket[..]),
            ("errors_by_bank", &c.errors_by_bank[..]),
            ("faults_by_bank", &c.faults_by_bank[..]),
            ("errors_by_col", &c.errors_by_col[..]),
            ("faults_by_col", &c.faults_by_col[..]),
            ("errors_by_rank", &c.errors_by_rank[..]),
            ("faults_by_rank", &c.faults_by_rank[..]),
            ("errors_by_slot", &c.errors_by_slot[..]),
            ("faults_by_slot", &c.faults_by_slot[..]),
            ("errors_by_rack", &c.errors_by_rack[..]),
            ("faults_by_rack", &c.faults_by_rack[..]),
            ("errors_by_region", &c.errors_by_region[..]),
            ("faults_by_region", &c.faults_by_region[..]),
            ("faults_by_rack_region", &flat[..]),
        ] {
            let values: Vec<String> = values.iter().map(|v| v.to_string()).collect();
            let _ = writeln!(w, "spatial.{name} {}", values.join(" "));
        }
        for (name, table) in [
            ("errors_by_node", &c.errors_by_node),
            ("faults_by_node", &c.faults_by_node),
            ("faults_by_bit", &c.faults_by_bit),
            ("faults_by_addr", &c.faults_by_addr),
        ] {
            let _ = writeln!(
                w,
                "spatial.{name} {}",
                list(table.iter().map(|(k, v)| format!("{k}:{v}")))
            );
        }
        seal_section(&mut out, "spatial", std::mem::take(&mut body));

        let w = &mut body;
        for (&(node, slot, rank), track) in &analyzer.predict.ranks {
            let mut mask = 0u64;
            for (i, &f) in track.fired.iter().enumerate() {
                if f {
                    mask |= 1 << i;
                }
            }
            let d = track.state.dump();
            let _ = writeln!(
                w,
                "predict.rank {node} {slot} {rank} {mask} {} {} {} {} {} {} {} {} {} {}",
                d.first_ce.0,
                d.last_ce.0,
                d.total_ces,
                hex(d.leaky),
                u8::from(d.addrs_saturated),
                d.escalation_rung,
                list(&d.banks),
                list(&d.cols),
                list(&d.addrs),
                list(
                    d.lanes
                        .iter()
                        .map(|&(lane, n, m)| format!("{lane}:{n}:{m}"))
                ),
            );
        }
        for a in &analyzer.predict.alerts {
            let fv = &a.features;
            let _ = writeln!(
                w,
                "predict.alert {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
                a.time.0,
                a.key.node.0,
                a.key.slot.index(),
                a.key.rank.0,
                a.predictor,
                hex(a.score),
                hex(fv.window_ces),
                fv.total_ces,
                fv.distinct_banks,
                fv.distinct_cols,
                fv.distinct_addrs,
                fv.distinct_lanes,
                hex(fv.dominant_lane_share),
                fv.minutes_since_first,
                fv.escalation.rung(),
            );
        }
        seal_section(&mut out, "predict", body);
        let _ = writeln!(out, "end");
        out
    }

    /// The streamed bytes of a checkpoint, rendered into memory.
    fn render_bytes(analyzer: &StreamAnalyzer, resume: &ResumePoint) -> Vec<u8> {
        let mut out = Vec::new();
        let n = render(&mut out, analyzer, resume).unwrap();
        assert_eq!(n, out.len() as u64, "byte count must match the output");
        out
    }

    /// A resume point at byte 0 after `consumed` records (what a shard
    /// worker's snapshot saves).
    fn at_start(consumed: u64) -> ResumePoint {
        ResumePoint {
            consumed,
            log: LogPosition::default(),
        }
    }

    /// A checkpoint of `analyzer` at a byte-0 position.
    fn start_bytes(analyzer: &StreamAnalyzer) -> Vec<u8> {
        render_bytes(analyzer, &at_start(analyzer.coalesce.ces))
    }

    /// Resume points with every kind of position, in that order: a text
    /// log inside a chunk with a tally and samples (one empty, one
    /// multi-byte), a dirty binary log, byte 0, and a binary log that had
    /// ended.
    fn positioned(consumed: u64) -> [ResumePoint; 4] {
        // Noted out of reason order: samples are kept grouped by reason,
        // the order a checkpoint writes and parses them in.
        let mut quarantine = astra_logs::Quarantine::default();
        quarantine.note(7, QuarantineReason::UnknownFormat, b"ntpd[9]: clock step");
        quarantine.note(9, QuarantineReason::UnknownFormat, b"");
        quarantine.note(
            12,
            QuarantineReason::BadUtf8,
            &[0xc3, 0x28, b' ', 0xe2, 0x82, 0xac],
        );
        quarantine.note(40, QuarantineReason::OutOfOrder, b"x");
        let mut dirty = astra_logs::Quarantine::default();
        dirty.note(1_234, QuarantineReason::BlockCrc, b"block crc mismatch");
        [
            LogPosition {
                point: ReadPoint::Text(TextPoint {
                    offset: 7_294_894,
                    lines: 123_456,
                    max_key: Some(-27_123_456),
                }),
                parsed: consumed / 2,
                quarantine,
                tail_crc: 0xdead_beef,
            },
            LogPosition {
                point: ReadPoint::Bin(BinPoint {
                    offset: 1_234,
                    decoded: 65_536,
                    dirty: true,
                    ended: false,
                }),
                parsed: consumed,
                quarantine: dirty,
                tail_crc: 7,
            },
            LogPosition::default(),
            LogPosition {
                point: ReadPoint::Bin(BinPoint {
                    offset: 24,
                    decoded: 0,
                    dirty: true,
                    ended: true,
                }),
                ..LogPosition::default()
            },
        ]
        .map(|log| ResumePoint { consumed, log })
    }

    fn parse(
        bytes: &[u8],
        system: &SystemConfig,
    ) -> Result<(StreamAnalyzer, ResumePoint), StreamError> {
        let mut lines = Lines::new(bytes);
        parse_lines(Path::new("test"), &mut lines, system)
    }

    fn dataset(racks: u32) -> &'static Dataset {
        static ONE: OnceLock<Dataset> = OnceLock::new();
        static TWO: OnceLock<Dataset> = OnceLock::new();
        match racks {
            1 => ONE.get_or_init(|| Dataset::generate(1, 42)),
            2 => TWO.get_or_init(|| Dataset::generate(2, 42)),
            _ => unreachable!("tests use 1 or 2 racks"),
        }
    }

    /// Fold a dataset's CEs (at most `max_ces`) into a fresh analyzer,
    /// keeping only those on racks `racks` as a shard worker does.
    fn fold(ds: &Dataset, racks: std::ops::Range<u32>, max_ces: usize) -> StreamAnalyzer {
        let mut a = StreamAnalyzer::new(
            ds.system,
            CoalesceConfig::default(),
            PredictConfig::default(),
        );
        let per_rack = ds.system.nodes_per_rack();
        let keep = |node: NodeId| racks.contains(&node.rack(per_rack).0);
        let ces = ds
            .sim
            .ce_log
            .iter()
            .enumerate()
            .filter(|(_, r)| keep(r.node));
        for (i, rec) in ces.take(max_ces) {
            a.consume(&MemEvent::Ce {
                seq: i as u64,
                rec: *rec,
            });
        }
        a
    }

    fn analyzer_with_state() -> (StreamAnalyzer, SystemConfig) {
        let ds = dataset(1);
        (fold(ds, 0..1, usize::MAX), ds.system)
    }

    /// A shard worker's state for rack 1 of 2, cut to a few thousand CEs
    /// so that sweeps over its bytes stay cheap.
    fn small_shard_state() -> (StreamAnalyzer, SystemConfig) {
        let ds = dataset(2);
        (fold(ds, 1..2, 3_000), ds.system)
    }

    #[test]
    fn streamed_bytes_equal_the_fmt_oracle() {
        let empty = StreamAnalyzer::new(
            SystemConfig::scaled(1),
            CoalesceConfig::default(),
            PredictConfig::default(),
        );
        let (full, _) = analyzer_with_state();
        let (shard, _) = small_shard_state();
        assert!(shard.coalesce.ces > 0 && !shard.predict.ranks.is_empty());
        let cases = std::iter::once(("empty", &empty, ResumePoint::default()))
            .chain(positioned(full.coalesce.ces).map(|r| ("1 rack", &full, r)))
            .chain(positioned(u64::MAX).map(|r| ("rack 1 of 2", &shard, r)));
        for (what, analyzer, resume) in cases {
            let streamed = render_bytes(analyzer, &resume);
            let oracle = render_fmt(analyzer, &resume);
            assert!(
                streamed == oracle.as_bytes(),
                "{what}: streamed checkpoint differs from the fmt renderer"
            );
        }
    }

    #[test]
    fn render_parse_render_is_identity() {
        let (analyzer, system) = analyzer_with_state();
        for resume in positioned(analyzer.coalesce.ces) {
            let bytes = render_bytes(&analyzer, &resume);
            let (restored, resume2) = parse(&bytes, &system).unwrap();
            assert_eq!(resume2, resume);
            // Byte-identical reserialization covers every serialized field.
            assert!(render_bytes(&restored, &resume2) == bytes);
        }
    }

    #[test]
    fn v2_and_v3_checkpoints_are_refused() {
        let (analyzer, system) = analyzer_with_state();
        let v4 = String::from_utf8(start_bytes(&analyzer)).unwrap();
        // An older file is refused by its header, whatever follows it,
        // with an error naming the version it was written as.
        for old in ["astra-stream-checkpoint v2", "astra-stream-checkpoint v3"] {
            let bytes = v4.replacen(HEADER, old, 1);
            match parse(bytes.as_bytes(), &system) {
                Err(e @ StreamError::Version { .. }) => {
                    let msg = e.to_string();
                    assert!(msg.contains(old) && msg.contains("test"), "{msg}");
                }
                Err(e) => panic!("{old}: not a version error: {e}"),
                Ok(_) => panic!("{old} was accepted"),
            }
        }
        // v4 must carry the position of ce.log.
        let cut = v4.replace("log ce text 0 0 00000000 0 -\n", "");
        let crc = |t: &str| {
            let meta: String = t
                .lines()
                .skip(1)
                .take_while(|l| !l.starts_with("crc "))
                .map(|l| format!("{l}\n"))
                .collect();
            astra_util::crc32(meta.as_bytes())
        };
        let resealed = cut.replacen(
            &format!("crc meta {:08x}", crc(&v4)),
            &format!("crc meta {:08x}", crc(&cut)),
            1,
        );
        match parse(resealed.as_bytes(), &system) {
            Err(StreamError::Checkpoint { detail, .. }) => {
                assert!(detail.contains("position of ce"), "{detail}")
            }
            Err(e) => panic!("untyped error {e}"),
            Ok(_) => panic!("a checkpoint without a ce position was accepted"),
        }
    }

    #[test]
    fn restored_analyzer_produces_identical_report() {
        let (analyzer, system) = analyzer_with_state();
        let bytes = start_bytes(&analyzer);
        let (restored, _) = parse(&bytes, &system).unwrap();
        let a = analyzer.snapshot();
        let b = restored.snapshot();
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.spatial, b.spatial);
        assert_eq!(a.alerts, b.alerts);
        assert_eq!(a.ces, b.ces);
    }

    #[test]
    fn rack_mismatch_names_both_shapes() {
        let (analyzer, _) = analyzer_with_state();
        let bytes = start_bytes(&analyzer);
        let err = match parse(&bytes, &SystemConfig::scaled(2)) {
            Err(e) => e,
            Ok(_) => panic!("rack mismatch accepted"),
        };
        let msg = err.to_string();
        // The operator needs both sides of the mismatch to fix the flag.
        assert!(
            msg.contains("1-rack") && msg.contains("2 racks"),
            "error must name the checkpoint's shape and the run's: {msg}"
        );
    }

    #[test]
    fn section_crc_mismatch_is_detected_and_named() {
        let (analyzer, system) = analyzer_with_state();
        let text = String::from_utf8(start_bytes(&analyzer)).unwrap();
        // Corrupt one digit inside the coalesce section without touching
        // line structure: the stored CRC no longer matches.
        let victim = text
            .lines()
            .find(|l| l.starts_with("coalesce.ces "))
            .expect("coalesce.ces line");
        let flipped = if victim.ends_with('0') {
            victim.replacen(" ", " 1", 1)
        } else {
            format!("{}0", victim)
        };
        let corrupted = text.replacen(victim, &flipped, 1);
        let err = match parse(corrupted.as_bytes(), &system) {
            Err(e) => e,
            Ok(_) => panic!("corrupted section accepted"),
        };
        let msg = err.to_string();
        assert!(
            msg.contains("CRC mismatch") && msg.contains("coalesce"),
            "error must name the damaged section: {msg}"
        );
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error() {
        let (analyzer, system) = small_shard_state();
        let [resume, ..] = positioned(analyzer.coalesce.ces);
        let bytes = render_bytes(&analyzer, &resume);
        let len = bytes.len();
        // Every section boundary (the end of each line around a CRC
        // trailer), a sweep of offsets, and the file's last bytes.
        let mut cuts: Vec<usize> = Vec::new();
        let mut at = 0;
        for line in bytes.split_inclusive(|&b| b == b'\n') {
            if line.starts_with(b"crc ") || line.starts_with(HEADER.as_bytes()) {
                cuts.extend([at, at + 4, at + line.len() - 1, at + line.len()]);
            }
            at += line.len();
        }
        cuts.extend((0..len).step_by(len / 251 + 1));
        cuts.extend(len - 64..len - 1);
        assert!(cuts.len() > 300, "sweep too small: {} cuts", cuts.len());
        for &cut in &cuts {
            match parse(&bytes[..cut], &system) {
                Err(StreamError::Checkpoint { .. }) => {}
                Err(e) => panic!("cut at {cut}/{len}: untyped error {e}"),
                Ok(_) => panic!("cut at {cut}/{len} accepted"),
            }
        }
        // Only the final newline missing: every line is still whole.
        let (_, parsed) = parse(&bytes[..len - 1], &system).unwrap();
        assert_eq!(parsed, resume);
    }

    struct TempDirGuard(PathBuf);

    impl TempDirGuard {
        fn new(tag: &str) -> TempDirGuard {
            use std::sync::atomic::{AtomicU64, Ordering};
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "astra-{tag}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDirGuard(dir)
        }
    }

    impl Drop for TempDirGuard {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    #[test]
    fn damaged_footprint_count_is_a_typed_error_and_salvage_takes_the_tmp() {
        let (analyzer, system) = small_shard_state();
        let text = String::from_utf8(start_bytes(&analyzer)).unwrap();
        let group = text
            .lines()
            .find(|l| l.starts_with("group "))
            .expect("a group line");
        let (head, _count) = group.rsplit_once(' ').unwrap();
        let damaged = text.replacen(group, &format!("{head} 99999999999999999"), 1);

        let guard = TempDirGuard::new("ckpt-count");
        let path = guard.0.join("ck.txt");
        std::fs::write(&path, &damaged).unwrap();
        match read(&path, &system) {
            Err(StreamError::Checkpoint { detail, .. }) => {
                assert!(detail.starts_with("line "), "must name the line: {detail}")
            }
            Err(e) => panic!("untyped error {e}"),
            Ok(_) => panic!("damaged count accepted"),
        }
        // An intact `.tmp` sibling is then the one to resume.
        std::fs::write(path.with_extension("txt.tmp"), &text).unwrap();
        let (_, resume) = read(&path, &system).unwrap();
        assert_eq!(resume.consumed, analyzer.coalesce.ces);
    }

    #[test]
    fn a_failed_write_is_reported() {
        struct Full(usize);
        impl Write for Full {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 < buf.len() {
                    return Err(io::Error::other("device full"));
                }
                self.0 -= buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let (analyzer, _) = small_shard_state();
        let err = render(Full(BUF_BYTES), &analyzer, &at_start(analyzer.coalesce.ces)).unwrap_err();
        assert_eq!(err.to_string(), "device full");
    }

    #[test]
    fn salvage_ignores_torn_tmp_and_resumes_primary() {
        let (analyzer, system) = analyzer_with_state();
        let guard = TempDirGuard::new("ckpt-torn");
        let path = guard.0.join("ck.txt");
        let ces = analyzer.coalesce.ces;
        write(&path, &analyzer, &at_start(ces)).unwrap();
        // A crash mid-write leaves a truncated next snapshot in `.tmp`.
        let next = render_bytes(&analyzer, &at_start(ces + 500));
        std::fs::write(path.with_extension("txt.tmp"), &next[..next.len() / 2]).unwrap();
        let (_, resume) = read(&path, &system).unwrap();
        assert_eq!(resume.consumed, ces, "must resume the intact file");
    }

    #[test]
    fn salvage_prefers_fresher_intact_tmp() {
        let (analyzer, system) = analyzer_with_state();
        let guard = TempDirGuard::new("ckpt-fresh");
        let path = guard.0.join("ck.txt");
        write(&path, &analyzer, &at_start(analyzer.coalesce.ces)).unwrap();
        // The rename never happened, but the `.tmp` snapshot is complete
        // and strictly further along: it is the one to resume.
        let newer = analyzer.coalesce.ces + 500;
        std::fs::write(
            path.with_extension("txt.tmp"),
            render_bytes(&analyzer, &at_start(newer)),
        )
        .unwrap();
        let (_, resume) = read(&path, &system).unwrap();
        assert_eq!(resume.consumed, newer, "must salvage the fresher snapshot");
    }

    #[test]
    fn salvage_recovers_from_damaged_primary() {
        let (analyzer, system) = analyzer_with_state();
        let guard = TempDirGuard::new("ckpt-damaged");
        let path = guard.0.join("ck.txt");
        let bytes = start_bytes(&analyzer);
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        std::fs::write(path.with_extension("txt.tmp"), &bytes).unwrap();
        let (_, resume) = read(&path, &system).unwrap();
        assert_eq!(resume.consumed, analyzer.coalesce.ces);
        // Both torn: the primary's error surfaces.
        std::fs::write(path.with_extension("txt.tmp"), &bytes[..10]).unwrap();
        assert!(read(&path, &system).is_err());
    }

    #[test]
    fn truncated_and_foreign_files_are_rejected() {
        let system = SystemConfig::scaled(1);
        assert!(parse(b"not a checkpoint\n", &system).is_err());
        let (analyzer, _) = analyzer_with_state();
        let bytes = start_bytes(&analyzer);
        assert!(parse(&bytes[..bytes.len() - 10], &system).is_err());
        // A file in the binlog container, even one wrapping intact
        // checkpoint text, is a typed checkpoint error, not a panic.
        let guard = TempDirGuard::new("ckpt-binlog");
        let path = guard.0.join("ck.txt");
        let mut binlog = Vec::from(binfmt::header_bytes(binfmt::KIND_CE, 1));
        binfmt::append_block(&mut binlog, &bytes);
        std::fs::write(&path, binlog).unwrap();
        match read(&path, &system) {
            Err(StreamError::Checkpoint { .. }) => {}
            Err(e) => panic!("binlog rejected with an untyped error: {e}"),
            Ok(_) => panic!("binlog accepted as a checkpoint"),
        }
    }
}
