//! `astra-binlog`: the binary columnar on-disk format.
//!
//! At the 36-rack scale the text formats are the pipeline wall clock —
//! serialize + parse + fsck of ~1 GB of syslog-shaped text dwarfs the
//! actual analysis. This module adds a compact binary peer for each of
//! the four log formats, built on the varint/zigzag/delta codecs in
//! [`astra_util::codec`].
//!
//! ## Container layout
//!
//! Every `astra-binlog` file is a 24-byte header followed by zero or
//! more CRC-framed column blocks:
//!
//! ```text
//! header:  magic[8] = "ASTRBLG\0"
//!          version  u16 LE (currently 1)
//!          kind     u8     (1=ce 2=het 3=inventory 4=sensor)
//!          flags    u8     (0)
//!          count    u64 LE (total records; exact pre-sizing on read)
//!          crc      u32 LE (crc32 of the 20 bytes above)
//! block:   len      u32 LE (payload length in bytes)
//!          payload  len bytes
//!          crc      u32 LE (crc32 of payload)
//! ```
//!
//! Every block payload starts with a varint record count, so
//! `fsck` can verify a file with a CRC sweep plus a one-varint peek per
//! block — no column decode, no text reparse. Blocks hold at most
//! [`BLOCK_RECORDS`] records; a flipped bit damages (and quarantines)
//! one block, not the file.
//!
//! ## Column encodings
//!
//! Within a block, each field is a column: timestamps are delta+zigzag
//! varints, node ids are dictionary-coded (sorted distinct ids as varint
//! deltas, then per-record varint indices), slot/rank/kind/severity are
//! byte columns, numeric fields are fixed-width little-endian arrays,
//! and `Option` columns are a presence bitmap followed by the present
//! values. Sensor values are stored as raw `f64` bit patterns, so the
//! parsed value round-trips exactly.
//!
//! ## Corruption handling
//!
//! The binary read path speaks the same [`Quarantine`] taxonomy as the
//! text readers, with binary-specific reasons: [`QuarantineReason::BadMagic`],
//! [`QuarantineReason::BadVersion`], [`QuarantineReason::BlockCrc`], and
//! [`QuarantineReason::TruncatedBlock`]. Sample positions are byte
//! offsets rather than line numbers. Strict ingest aborts on the first
//! quarantined unit; lenient ingest skips damaged blocks and checks the
//! `--max-bad-frac` budget at EOF, where a damaged block counts as one
//! quarantined unit against the successfully decoded records.

use std::io::{self, Read, Write};
use std::path::Path;

use astra_topology::{DimmSlot, NodeId, PhysAddr, RankId, SensorId};
use astra_util::codec::{
    read_deltas, read_presence, read_u16_le, read_u32_le, read_u64_le, read_uvarint, write_deltas,
    write_presence, write_u16_le, write_u32_le, write_u64_le, write_uvarint,
};
use astra_util::{crc32, CalDate, Minute};

use crate::ce::CeRecord;
use crate::het::{HetKind, HetRecord, HetSeverity};
use crate::inventory::{Component, ReplacementRecord};
use crate::io::{parse_file_streaming, publish_quarantine, IngestChunk, IngestError, ParsedLog};
use crate::quarantine::{IngestOptions, LineFormat, Quarantine, QuarantineReason, RetryPolicy};
use crate::sensor::SensorRecord;

/// Leading magic bytes of every `astra-binlog` file.
pub const MAGIC: [u8; 8] = *b"ASTRBLG\0";

/// Current container version.
pub const VERSION: u16 = 1;

/// Header length in bytes: magic + version + kind + flags + count + crc.
pub const HEADER_LEN: usize = 24;

/// Record-kind byte for `ce.log`.
pub const KIND_CE: u8 = 1;
/// Record-kind byte for `het.log`.
pub const KIND_HET: u8 = 2;
/// Record-kind byte for `inventory.log`.
pub const KIND_INVENTORY: u8 = 3;
/// Record-kind byte for `sensors.log`.
pub const KIND_SENSOR: u8 = 4;

/// Maximum records per column block. Keeps per-block state small and
/// bounds the blast radius of a damaged block.
pub const BLOCK_RECORDS: usize = 65_536;

/// Largest credible block payload; a length field beyond this is treated
/// as corruption (the framing is lost) rather than allocated.
pub const MAX_BLOCK_BYTES: usize = 1 << 26;

/// On-disk format choice, as selected by `generate --format` and
/// `convert --to`. Readers never need this: every read path sniffs the
/// magic bytes ([`file_is_binlog`]) and dispatches per file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LogFormat {
    /// The line-oriented text formats (the published-dataset shape).
    #[default]
    Text,
    /// The `astra-binlog` binary columnar format.
    Binary,
}

impl LogFormat {
    /// Parse a CLI value (`text` or `binary`).
    pub fn parse(s: &str) -> Option<LogFormat> {
        match s {
            "text" => Some(LogFormat::Text),
            "binary" => Some(LogFormat::Binary),
            _ => None,
        }
    }

    /// The CLI-facing name.
    pub fn name(self) -> &'static str {
        match self {
            LogFormat::Text => "text",
            LogFormat::Binary => "binary",
        }
    }
}

/// Binary-format descriptor for one record type: the container kind byte
/// plus the column block encoder/decoder. The binary peer of
/// [`LineFormat`] — plain function pointers, so it is `Copy`.
pub struct BinFormat<T> {
    /// Record-kind byte stored in the file header.
    pub kind: u8,
    /// Encode a batch of records (at most [`BLOCK_RECORDS`]) as one
    /// column block payload, starting with a varint record count.
    pub encode: fn(&[T], &mut Vec<u8>),
    /// Decode one block payload, appending records to `out`. Returns
    /// `None` if the payload is malformed or any value fails validation;
    /// the whole payload must be consumed.
    pub decode: fn(&[u8], &mut Vec<T>) -> Option<()>,
}

impl<T> Clone for BinFormat<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for BinFormat<T> {}

impl<T> std::fmt::Debug for BinFormat<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BinFormat")
            .field("kind", &self.kind)
            .finish()
    }
}

/// Binary descriptor for `ce.log`.
pub const CE: BinFormat<CeRecord> = BinFormat {
    kind: KIND_CE,
    encode: encode_ce,
    decode: decode_ce,
};

/// Binary descriptor for `het.log`.
pub const HET: BinFormat<HetRecord> = BinFormat {
    kind: KIND_HET,
    encode: encode_het,
    decode: decode_het,
};

/// Binary descriptor for `inventory.log`.
pub const INVENTORY: BinFormat<ReplacementRecord> = BinFormat {
    kind: KIND_INVENTORY,
    encode: encode_inventory,
    decode: decode_inventory,
};

/// Binary descriptor for `sensors.log`.
pub const SENSOR: BinFormat<SensorRecord> = BinFormat {
    kind: KIND_SENSOR,
    encode: encode_sensor,
    decode: decode_sensor,
};

// ---------------------------------------------------------------------
// Column helpers
// ---------------------------------------------------------------------

/// Dictionary-code a node-id column: sorted distinct ids as varint
/// deltas, then one varint dictionary index per record.
fn write_nodes(out: &mut Vec<u8>, nodes: &[u32]) {
    let mut dict: Vec<u32> = nodes.to_vec();
    dict.sort_unstable();
    dict.dedup();
    write_uvarint(out, dict.len() as u64);
    let mut prev = 0u64;
    for &d in &dict {
        write_uvarint(out, u64::from(d) - prev);
        prev = u64::from(d);
    }
    for &v in nodes {
        let idx = dict.partition_point(|&d| d < v);
        write_uvarint(out, idx as u64);
    }
}

/// Inverse of [`write_nodes`] for `n` records.
fn read_nodes(buf: &[u8], pos: &mut usize, n: usize) -> Option<Vec<u32>> {
    let dlen = read_uvarint(buf, pos)? as usize;
    if dlen > n {
        return None; // a dictionary cannot outgrow the column
    }
    let mut dict: Vec<u32> = Vec::with_capacity(dlen);
    let mut prev = 0u64;
    for i in 0..dlen {
        let d = read_uvarint(buf, pos)?;
        if i > 0 && d == 0 {
            return None; // entries must be strictly increasing
        }
        prev = prev.checked_add(d)?;
        dict.push(u32::try_from(prev).ok()?);
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let idx = read_uvarint(buf, pos)? as usize;
        out.push(*dict.get(idx)?);
    }
    Some(out)
}

fn take_bytes<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Option<&'a [u8]> {
    let b = buf.get(*pos..*pos + n)?;
    *pos += n;
    Some(b)
}

fn read_u16s(buf: &[u8], pos: &mut usize, n: usize) -> Option<Vec<u16>> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_u16_le(buf, pos)?);
    }
    Some(out)
}

fn read_u32s(buf: &[u8], pos: &mut usize, n: usize) -> Option<Vec<u32>> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_u32_le(buf, pos)?);
    }
    Some(out)
}

fn read_u64s(buf: &[u8], pos: &mut usize, n: usize) -> Option<Vec<u64>> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_u64_le(buf, pos)?);
    }
    Some(out)
}

/// Read the varint record count that leads every log-kind payload,
/// bounded by [`BLOCK_RECORDS`].
fn read_count(buf: &[u8], pos: &mut usize) -> Option<usize> {
    let n = read_uvarint(buf, pos)?;
    (n <= BLOCK_RECORDS as u64).then_some(n as usize)
}

// ---------------------------------------------------------------------
// Per-record-type column blocks
// ---------------------------------------------------------------------

fn encode_ce(records: &[CeRecord], out: &mut Vec<u8>) {
    write_uvarint(out, records.len() as u64);
    let times: Vec<i64> = records.iter().map(|r| r.time.0).collect();
    write_deltas(out, 0, &times);
    let nodes: Vec<u32> = records.iter().map(|r| r.node.0).collect();
    write_nodes(out, &nodes);
    for r in records {
        out.push(r.slot.index() as u8);
    }
    for r in records {
        out.push(r.rank.0);
    }
    for r in records {
        write_u16_le(out, r.bank);
    }
    for r in records {
        write_u16_le(out, r.col);
    }
    for r in records {
        write_u16_le(out, r.bit_pos);
    }
    let rows: Vec<Option<u32>> = records.iter().map(|r| r.row).collect();
    write_presence(out, &rows);
    for row in rows.iter().flatten() {
        write_u32_le(out, *row);
    }
    for r in records {
        write_u64_le(out, r.addr.0);
    }
    for r in records {
        write_u32_le(out, r.syndrome);
    }
}

fn decode_ce(buf: &[u8], out: &mut Vec<CeRecord>) -> Option<()> {
    let mut pos = 0usize;
    let n = read_count(buf, &mut pos)?;
    let times = read_deltas(buf, &mut pos, 0, n)?;
    let nodes = read_nodes(buf, &mut pos, n)?;
    let slots = take_bytes(buf, &mut pos, n)?;
    let ranks = take_bytes(buf, &mut pos, n)?;
    let banks = read_u16s(buf, &mut pos, n)?;
    let cols = read_u16s(buf, &mut pos, n)?;
    let bits = read_u16s(buf, &mut pos, n)?;
    let row_present = read_presence(buf, &mut pos, n)?;
    let mut rows: Vec<Option<u32>> = Vec::with_capacity(n);
    for &present in &row_present {
        rows.push(if present {
            Some(read_u32_le(buf, &mut pos)?)
        } else {
            None
        });
    }
    let addrs = read_u64s(buf, &mut pos, n)?;
    let synds = read_u32s(buf, &mut pos, n)?;
    for i in 0..n {
        let slot = DimmSlot::from_index(slots[i])?;
        if ranks[i] > 1 {
            return None;
        }
        out.push(CeRecord {
            time: Minute(times[i]),
            node: NodeId(nodes[i]),
            socket: slot.socket(),
            slot,
            rank: RankId(ranks[i]),
            bank: banks[i],
            row: rows[i],
            col: cols[i],
            bit_pos: bits[i],
            addr: PhysAddr(addrs[i]),
            syndrome: synds[i],
        });
    }
    (pos == buf.len()).then_some(())
}

fn het_severity_index(s: HetSeverity) -> u8 {
    match s {
        HetSeverity::Warning => 0,
        HetSeverity::Critical => 1,
        HetSeverity::NonRecoverable => 2,
    }
}

fn het_severity_from_index(i: u8) -> Option<HetSeverity> {
    match i {
        0 => Some(HetSeverity::Warning),
        1 => Some(HetSeverity::Critical),
        2 => Some(HetSeverity::NonRecoverable),
        _ => None,
    }
}

fn encode_het(records: &[HetRecord], out: &mut Vec<u8>) {
    write_uvarint(out, records.len() as u64);
    let times: Vec<i64> = records.iter().map(|r| r.time.0).collect();
    write_deltas(out, 0, &times);
    let nodes: Vec<u32> = records.iter().map(|r| r.node.0).collect();
    write_nodes(out, &nodes);
    for r in records {
        let kind = HetKind::ALL
            .iter()
            .position(|k| *k == r.kind)
            .expect("HetKind::ALL is exhaustive");
        out.push(kind as u8);
    }
    for r in records {
        out.push(het_severity_index(r.severity));
    }
    let slots: Vec<Option<u8>> = records
        .iter()
        .map(|r| r.slot.map(|s| s.index() as u8))
        .collect();
    write_presence(out, &slots);
    for slot in slots.iter().flatten() {
        out.push(*slot);
    }
}

fn decode_het(buf: &[u8], out: &mut Vec<HetRecord>) -> Option<()> {
    let mut pos = 0usize;
    let n = read_count(buf, &mut pos)?;
    let times = read_deltas(buf, &mut pos, 0, n)?;
    let nodes = read_nodes(buf, &mut pos, n)?;
    let kinds = take_bytes(buf, &mut pos, n)?;
    let sevs = take_bytes(buf, &mut pos, n)?;
    let slot_present = read_presence(buf, &mut pos, n)?;
    let mut slots: Vec<Option<DimmSlot>> = Vec::with_capacity(n);
    for &present in &slot_present {
        slots.push(if present {
            let idx = *take_bytes(buf, &mut pos, 1)?.first()?;
            Some(DimmSlot::from_index(idx)?)
        } else {
            None
        });
    }
    for i in 0..n {
        out.push(HetRecord {
            time: Minute(times[i]),
            node: NodeId(nodes[i]),
            kind: *HetKind::ALL.get(usize::from(kinds[i]))?,
            severity: het_severity_from_index(sevs[i])?,
            slot: slots[i],
        });
    }
    (pos == buf.len()).then_some(())
}

fn encode_inventory(records: &[ReplacementRecord], out: &mut Vec<u8>) {
    write_uvarint(out, records.len() as u64);
    let days: Vec<i64> = records.iter().map(|r| r.date.day_index()).collect();
    write_deltas(out, 0, &days);
    let nodes: Vec<u32> = records.iter().map(|r| r.node.0).collect();
    write_nodes(out, &nodes);
    for r in records {
        let (tag, arg) = match r.component {
            Component::Processor(socket) => (0u8, socket.0),
            Component::Motherboard => (1, 0),
            Component::Dimm(slot) => (2, slot.index() as u8),
        };
        out.push(tag);
        out.push(arg);
    }
}

fn decode_inventory(buf: &[u8], out: &mut Vec<ReplacementRecord>) -> Option<()> {
    let mut pos = 0usize;
    let n = read_count(buf, &mut pos)?;
    let days = read_deltas(buf, &mut pos, 0, n)?;
    let nodes = read_nodes(buf, &mut pos, n)?;
    for i in 0..n {
        let pair = take_bytes(buf, &mut pos, 2)?;
        let component = match (pair[0], pair[1]) {
            (0, socket @ 0..=1) => Component::Processor(astra_topology::SocketId(socket)),
            (1, 0) => Component::Motherboard,
            (2, idx) => Component::Dimm(DimmSlot::from_index(idx)?),
            _ => return None,
        };
        out.push(ReplacementRecord {
            date: CalDate::from_day_index(days[i]),
            node: NodeId(nodes[i]),
            component,
        });
    }
    (pos == buf.len()).then_some(())
}

fn encode_sensor(records: &[SensorRecord], out: &mut Vec<u8>) {
    write_uvarint(out, records.len() as u64);
    let times: Vec<i64> = records.iter().map(|r| r.time.0).collect();
    write_deltas(out, 0, &times);
    let nodes: Vec<u32> = records.iter().map(|r| r.node.0).collect();
    write_nodes(out, &nodes);
    for r in records {
        out.push(r.sensor.index() as u8);
    }
    let values: Vec<Option<f64>> = records.iter().map(|r| r.value).collect();
    write_presence(out, &values);
    for v in values.iter().flatten() {
        write_u64_le(out, quantize_tenths(*v).to_bits());
    }
}

/// Quantize to one decimal digit exactly as the text format does: the
/// stored value must equal `format!("value={v:.1}")` parsed back, so the
/// two formats decode bit-identical records whatever precision the writer
/// held in memory.
///
/// The arithmetic fast path is safe when the scaled value sits clearly
/// away from a rounding boundary: exact decimal ties (`v * 10` a real
/// half-integer) would need `v = odd/20`, which no binary f64 can hold,
/// and for `|v*10| < 1e9` the product's rounding error (≤ half an ulp,
/// under 1.2e-7) cannot carry it across a boundary it is more than 1e-6
/// from. Everything else — near-ties, huge values, non-finite — takes the
/// formatter, the authority being matched.
fn quantize_tenths(v: f64) -> f64 {
    let p = v * 10.0;
    let r = p.round();
    if p.abs() < 1e9 && 0.5 - (p - r).abs() > 1e-6 {
        r / 10.0
    } else {
        format!("{v:.1}").parse().unwrap_or(v)
    }
}

fn decode_sensor(buf: &[u8], out: &mut Vec<SensorRecord>) -> Option<()> {
    let mut pos = 0usize;
    let n = read_count(buf, &mut pos)?;
    let times = read_deltas(buf, &mut pos, 0, n)?;
    let nodes = read_nodes(buf, &mut pos, n)?;
    let sensors = take_bytes(buf, &mut pos, n)?;
    let present = read_presence(buf, &mut pos, n)?;
    let mut values: Vec<Option<f64>> = Vec::with_capacity(n);
    for &p in &present {
        values.push(if p {
            Some(f64::from_bits(read_u64_le(buf, &mut pos)?))
        } else {
            None
        });
    }
    for i in 0..n {
        out.push(SensorRecord {
            time: Minute(times[i]),
            node: NodeId(nodes[i]),
            sensor: SensorId::from_index(sensors[i])?,
            value: values[i],
        });
    }
    (pos == buf.len()).then_some(())
}

// ---------------------------------------------------------------------
// Container write
// ---------------------------------------------------------------------

/// Build the 24-byte file header for `kind` declaring `count` records.
pub fn header_bytes(kind: u8, count: u64) -> [u8; HEADER_LEN] {
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(&MAGIC);
    write_u16_le(&mut out, VERSION);
    out.push(kind);
    out.push(0); // flags
    write_u64_le(&mut out, count);
    let crc = crc32(&out);
    write_u32_le(&mut out, crc);
    out.try_into().expect("header is exactly HEADER_LEN bytes")
}

/// Append one CRC-framed block (`len`, payload, `crc32(payload)`).
pub fn append_block(out: &mut Vec<u8>, payload: &[u8]) {
    write_u32_le(out, payload.len() as u32);
    out.extend_from_slice(payload);
    write_u32_le(out, crc32(payload));
}

/// Write `records` to `sink` as a complete `astra-binlog` file. Returns
/// the record count.
pub fn write_records<W, T>(sink: &mut W, bin: BinFormat<T>, records: &[T]) -> io::Result<u64>
where
    W: Write,
{
    sink.write_all(&header_bytes(bin.kind, records.len() as u64))?;
    let mut payload = Vec::new();
    for chunk in records.chunks(BLOCK_RECORDS) {
        payload.clear();
        (bin.encode)(chunk, &mut payload);
        sink.write_all(&(payload.len() as u32).to_le_bytes())?;
        sink.write_all(&payload)?;
        sink.write_all(&crc32(&payload).to_le_bytes())?;
    }
    Ok(records.len() as u64)
}

// ---------------------------------------------------------------------
// Container read
// ---------------------------------------------------------------------

/// Whether a byte prefix carries the `astra-binlog` magic.
pub fn sniff_is_binlog(first: &[u8]) -> bool {
    first.len() >= MAGIC.len() && first[..MAGIC.len()] == MAGIC
}

/// Whether the file at `path` starts with the `astra-binlog` magic.
/// Short and empty files are not binlogs (they take the text path).
pub fn file_is_binlog(path: &Path) -> io::Result<bool> {
    let mut f = std::fs::File::open(path)?;
    let mut head = [0u8; 8];
    let mut filled = 0usize;
    while filled < head.len() {
        match f.read(&mut head[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(sniff_is_binlog(&head[..filled]))
}

/// Validate a (possibly short) header read against `expected_kind`.
/// Returns the declared record count.
fn validate_header(hdr: &[u8], expected_kind: u8) -> Result<u64, (QuarantineReason, String)> {
    if !sniff_is_binlog(hdr) {
        return Err((
            QuarantineReason::BadMagic,
            format!("not an astra-binlog header ({} bytes)", hdr.len()),
        ));
    }
    if hdr.len() < HEADER_LEN {
        return Err((
            QuarantineReason::BadVersion,
            format!("header cut short at {} of {HEADER_LEN} bytes", hdr.len()),
        ));
    }
    let mut pos = MAGIC.len();
    let version = read_u16_le(hdr, &mut pos).expect("length checked");
    let kind = hdr[pos];
    pos += 2; // kind + flags
    let count = read_u64_le(hdr, &mut pos).expect("length checked");
    let stored_crc = read_u32_le(hdr, &mut pos).expect("length checked");
    let actual_crc = crc32(&hdr[..HEADER_LEN - 4]);
    if actual_crc != stored_crc {
        return Err((
            QuarantineReason::BadVersion,
            format!("header crc mismatch: stored {stored_crc:08x}, computed {actual_crc:08x}"),
        ));
    }
    if version != VERSION {
        return Err((
            QuarantineReason::BadVersion,
            format!("unsupported version {version} (expected {VERSION})"),
        ));
    }
    if kind != expected_kind {
        return Err((
            QuarantineReason::BadVersion,
            format!("record kind {kind} (expected {expected_kind})"),
        ));
    }
    Ok(count)
}

/// Where a [`BinReader`] stands in its file: enough for a new reader to
/// carry on from there ([`BinReader::starting_at`]) instead of from
/// byte 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BinPoint {
    /// File offset of the next block frame.
    pub offset: u64,
    /// Records decoded before `offset`, for the header's count check.
    pub decoded: u64,
    /// Something before `offset` was quarantined, which turns that check
    /// off.
    pub dirty: bool,
    /// The reader had stopped for good (a bad header, lost framing, or
    /// a file ending short of its declared count): nothing after
    /// `offset` is read. A clean end on a block boundary is not one:
    /// blocks appended later are read.
    pub ended: bool,
}

/// Streaming block reader over any `Read`: the binary peer of
/// [`crate::io::ChunkReader`]. Each [`BinReader::next_chunk`] yields the
/// records of one column block (with any corruption quarantined), until
/// the reader is exhausted.
///
/// A block whose CRC trailer fails is skipped — the framing is intact,
/// so subsequent blocks still parse. Truncation or an implausible length
/// field loses the framing and ends the file.
pub struct BinReader<R, T> {
    reader: R,
    bin: BinFormat<T>,
    retry: RetryPolicy,
    header_done: bool,
    declared: u64,
    decoded: u64,
    /// File offset of the next byte to read.
    offset: u64,
    /// File offset the reader started at (0 unless `starting_at`).
    base: u64,
    blocks: u64,
    dirty: bool,
    done: bool,
    /// Tail mode: the file may still be growing, so a frame cut short at
    /// EOF is an append in progress, not corruption. The partial frame's
    /// bytes wait in `stash` and the next call resumes from the same
    /// logical offset once the writer has caught up.
    tail: bool,
    /// Bytes read from the file but not yet consumed into a complete
    /// frame (tail mode only; always empty otherwise).
    stash: Vec<u8>,
}

impl<R, T> BinReader<R, T>
where
    R: Read,
{
    /// Wrap `reader`, decoding blocks per `bin`, with the default
    /// [`RetryPolicy`].
    pub fn new(reader: R, bin: BinFormat<T>) -> Self {
        BinReader {
            reader,
            bin,
            retry: RetryPolicy::default(),
            header_done: false,
            declared: 0,
            decoded: 0,
            offset: 0,
            base: 0,
            blocks: 0,
            dirty: false,
            done: false,
            tail: false,
            stash: Vec::new(),
        }
    }

    /// Replace the transient-I/O retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Carry on from `point`, which [`BinReader::point`] gave for an
    /// earlier reader over the same file; the wrapped reader must already
    /// be positioned at `point.offset`. `header` is the file's first
    /// [`HEADER_LEN`] bytes, validated as a fresh read would validate
    /// them, for the declared count; the error says why they fail. A
    /// point at offset 0 that has not ended is a fresh start, which
    /// reads the header itself.
    pub fn starting_at(mut self, point: BinPoint, header: &[u8]) -> Result<Self, String> {
        if point.offset == 0 && !point.ended {
            return Ok(self);
        }
        if !point.ended {
            self.declared = validate_header(header, self.bin.kind).map_err(|(_, msg)| msg)?;
        }
        self.header_done = true;
        self.offset = point.offset;
        self.base = point.offset;
        self.decoded = point.decoded;
        self.dirty = point.dirty;
        self.done = point.ended;
        Ok(self)
    }

    /// Enable or disable tail (growing-file) mode.
    pub fn with_tail(mut self, tail: bool) -> Self {
        self.set_tail(tail);
        self
    }

    /// Switch tail mode at runtime. Note the header's declared record
    /// count is only cross-checked against what decoded in non-tail mode
    /// — a growing file legitimately holds fewer records than its header
    /// promises until the writer finishes.
    pub fn set_tail(&mut self, tail: bool) {
        self.tail = tail;
    }

    /// Fill as much of `buf` as the reader allows (short only at EOF),
    /// applying the retry policy to transient errors.
    fn read_fill(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut filled = 0usize;
        while filled < buf.len() {
            let mut attempt = 0u32;
            let n = loop {
                match self.reader.read(&mut buf[filled..]) {
                    Ok(n) => break n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        if attempt >= self.retry.max_retries {
                            return Err(e);
                        }
                        let backoff_ms = self.retry.backoff_base_ms << attempt;
                        attempt += 1;
                        astra_obs::global().counter("ingest.io_retries").add(1);
                        if backoff_ms > 0 {
                            std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
                        }
                    }
                }
            };
            if n == 0 {
                break;
            }
            filled += n;
        }
        self.offset += filled as u64;
        Ok(filled)
    }

    /// Record count declared by the file header (0 until the header has
    /// been read) — the exact pre-sizing hint for readers.
    pub fn declared(&self) -> u64 {
        self.declared
    }

    /// Bytes this reader has consumed into frames so far (stashed bytes
    /// of a frame still being assembled in tail mode don't count yet).
    pub fn bytes_consumed(&self) -> usize {
        (self.offset - self.base) as usize - self.stash.len()
    }

    /// Where the next block frame starts, with the decode state there.
    pub fn point(&self) -> BinPoint {
        BinPoint {
            offset: self.offset - self.stash.len() as u64,
            decoded: self.decoded,
            dirty: self.dirty,
            ended: self.done,
        }
    }

    /// Blocks fully framed (read through their CRC trailer) so far.
    pub fn blocks_read(&self) -> u64 {
        self.blocks
    }

    /// Tail-mode buffered read: grow the stash to at least `need` bytes,
    /// returning whether it got there. Stashed bytes stay put until a
    /// whole frame is present, so a short read never loses position —
    /// the re-read from the last known-good offset happens for free.
    fn stash_fill(&mut self, need: usize) -> io::Result<bool> {
        if self.stash.len() >= need {
            return Ok(true);
        }
        let mut stash = std::mem::take(&mut self.stash);
        let at = stash.len();
        stash.resize(need, 0);
        match self.read_fill(&mut stash[at..]) {
            Ok(got) => {
                stash.truncate(at + got);
                let full = stash.len() >= need;
                self.stash = stash;
                Ok(full)
            }
            Err(e) => {
                stash.truncate(at);
                self.stash = stash;
                Err(e)
            }
        }
    }

    /// Decode the next block, or `None` once the file is exhausted.
    /// Damaged headers/blocks come back as chunks with empty records and
    /// a populated quarantine, mirroring the text reader's behaviour.
    pub fn next_chunk(&mut self) -> io::Result<Option<IngestChunk<T>>> {
        if self.done {
            return Ok(None);
        }
        if self.tail {
            return self.next_chunk_tail();
        }
        let mut quarantine = Quarantine::default();
        let empty = |q: Quarantine| IngestChunk {
            records: Vec::new(),
            quarantine: q,
        };
        if !self.stash.is_empty() {
            // Tail mode ended with a frame still incomplete: the file
            // really does stop mid-block.
            let block_off = self.offset - self.stash.len() as u64;
            quarantine.note(
                block_off,
                QuarantineReason::TruncatedBlock,
                format!("file ends inside a block ({} bytes)", self.stash.len()).as_bytes(),
            );
            self.stash.clear();
            self.dirty = true;
            self.done = true;
            return Ok(Some(empty(quarantine)));
        }
        if !self.header_done {
            let mut hdr = [0u8; HEADER_LEN];
            let n = self.read_fill(&mut hdr)?;
            match validate_header(&hdr[..n], self.bin.kind) {
                Ok(count) => {
                    self.declared = count;
                    self.header_done = true;
                }
                Err((reason, msg)) => {
                    quarantine.note(0, reason, msg.as_bytes());
                    self.dirty = true;
                    self.done = true;
                    return Ok(Some(empty(quarantine)));
                }
            }
        }
        let block_off = self.offset;
        let mut lenb = [0u8; 4];
        let n = self.read_fill(&mut lenb)?;
        if n == 0 {
            // EOF on a block boundary: cross-check the header's declared
            // count against what actually decoded. When it holds, the
            // reader has not stopped for good: a reader resumed from
            // here reads whatever blocks a writer appends.
            if !self.dirty && self.decoded != self.declared {
                self.done = true;
                quarantine.note(
                    block_off,
                    QuarantineReason::TruncatedBlock,
                    format!(
                        "file ends after {} of {} declared records",
                        self.decoded, self.declared
                    )
                    .as_bytes(),
                );
                return Ok(Some(empty(quarantine)));
            }
            return Ok(None);
        }
        if n < 4 {
            quarantine.note(
                block_off,
                QuarantineReason::TruncatedBlock,
                format!("block length cut short at EOF ({n} of 4 bytes)").as_bytes(),
            );
            self.dirty = true;
            self.done = true;
            return Ok(Some(empty(quarantine)));
        }
        let len = u32::from_le_bytes(lenb) as usize;
        if len > MAX_BLOCK_BYTES {
            quarantine.note(
                block_off,
                QuarantineReason::BlockCrc,
                format!("implausible block length {len}").as_bytes(),
            );
            self.dirty = true;
            self.done = true; // framing lost
            return Ok(Some(empty(quarantine)));
        }
        let mut payload = vec![0u8; len];
        let n = self.read_fill(&mut payload)?;
        if n < len {
            quarantine.note(
                block_off,
                QuarantineReason::TruncatedBlock,
                format!("block payload cut short at EOF ({n} of {len} bytes)").as_bytes(),
            );
            self.dirty = true;
            self.done = true;
            return Ok(Some(empty(quarantine)));
        }
        let mut crcb = [0u8; 4];
        let n = self.read_fill(&mut crcb)?;
        if n < 4 {
            quarantine.note(
                block_off,
                QuarantineReason::TruncatedBlock,
                format!("block crc trailer cut short at EOF ({n} of 4 bytes)").as_bytes(),
            );
            self.dirty = true;
            self.done = true;
            return Ok(Some(empty(quarantine)));
        }
        self.blocks += 1;
        let stored = u32::from_le_bytes(crcb);
        let actual = crc32(&payload);
        if actual != stored {
            quarantine.note(
                block_off,
                QuarantineReason::BlockCrc,
                format!("block crc mismatch: stored {stored:08x}, computed {actual:08x}")
                    .as_bytes(),
            );
            self.dirty = true;
            return Ok(Some(empty(quarantine))); // framing intact: keep going
        }
        let mut records = Vec::new();
        if (self.bin.decode)(&payload, &mut records).is_none() {
            quarantine.note(
                block_off,
                QuarantineReason::BlockCrc,
                format!("block payload fails to decode ({len} bytes)").as_bytes(),
            );
            self.dirty = true;
            return Ok(Some(empty(quarantine)));
        }
        self.decoded += records.len() as u64;
        Ok(Some(IngestChunk {
            records,
            quarantine,
        }))
    }

    /// Tail-mode [`BinReader::next_chunk`]: a frame cut short at EOF is
    /// held in the stash and retried on the next call instead of being
    /// quarantined as truncation — the writer may simply not have
    /// finished the append. `Ok(None)` means "dry for now", not end of
    /// file, and the declared-count cross-check is skipped (a growing
    /// file holds fewer records than its header promises until the
    /// writer is done).
    fn next_chunk_tail(&mut self) -> io::Result<Option<IngestChunk<T>>> {
        let mut quarantine = Quarantine::default();
        let empty = |q: Quarantine| IngestChunk {
            records: Vec::new(),
            quarantine: q,
        };
        if !self.header_done {
            if !self.stash_fill(HEADER_LEN)? {
                return Ok(None); // header still being written
            }
            match validate_header(&self.stash[..HEADER_LEN], self.bin.kind) {
                Ok(count) => {
                    self.declared = count;
                    self.header_done = true;
                    self.stash.drain(..HEADER_LEN);
                }
                Err((reason, msg)) => {
                    quarantine.note(0, reason, msg.as_bytes());
                    self.dirty = true;
                    self.done = true;
                    return Ok(Some(empty(quarantine)));
                }
            }
        }
        // First byte of the frame being assembled (stashed bytes were
        // read from the file but not yet consumed).
        let block_off = self.offset - self.stash.len() as u64;
        if !self.stash_fill(4)? {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.stash[..4].try_into().unwrap()) as usize;
        if len > MAX_BLOCK_BYTES {
            quarantine.note(
                block_off,
                QuarantineReason::BlockCrc,
                format!("implausible block length {len}").as_bytes(),
            );
            self.dirty = true;
            self.done = true; // framing lost
            return Ok(Some(empty(quarantine)));
        }
        let frame = 4 + len + 4;
        if !self.stash_fill(frame)? {
            return Ok(None); // payload or crc trailer still being written
        }
        self.blocks += 1;
        let payload = &self.stash[4..4 + len];
        let stored = u32::from_le_bytes(self.stash[4 + len..frame].try_into().unwrap());
        let actual = crc32(payload);
        if actual != stored {
            quarantine.note(
                block_off,
                QuarantineReason::BlockCrc,
                format!("block crc mismatch: stored {stored:08x}, computed {actual:08x}")
                    .as_bytes(),
            );
            self.dirty = true;
            self.stash.drain(..frame);
            return Ok(Some(empty(quarantine))); // framing intact: keep going
        }
        let mut records = Vec::new();
        let decoded_ok = (self.bin.decode)(payload, &mut records).is_some();
        self.stash.drain(..frame);
        if !decoded_ok {
            quarantine.note(
                block_off,
                QuarantineReason::BlockCrc,
                format!("block payload fails to decode ({len} bytes)").as_bytes(),
            );
            self.dirty = true;
            return Ok(Some(empty(quarantine)));
        }
        self.decoded += records.len() as u64;
        Ok(Some(IngestChunk {
            records,
            quarantine,
        }))
    }
}

/// Drain a binary reader under an ingest policy: the binary peer of
/// [`crate::io::parse_stream_chunked`]. Strict mode aborts on the first
/// quarantined unit; lenient mode checks the `max_bad_frac` budget at
/// EOF (each damaged header/block is one quarantined unit against the
/// decoded records). Returns the parsed log, the quarantine report, and
/// the bytes/blocks consumed.
pub fn parse_binary_stream<R, T>(
    reader: R,
    bin: BinFormat<T>,
    opts: &IngestOptions,
) -> Result<(ParsedLog<T>, Quarantine, usize, u64), IngestError>
where
    R: Read,
{
    let mut chunked = BinReader::new(reader, bin).with_retry(opts.retry);
    let mut records: Vec<T> = Vec::new();
    let mut quarantine = Quarantine::default();
    let mut presized = false;
    while let Some(chunk) = chunked.next_chunk()? {
        if !presized && chunked.declared() > 0 {
            // The header's record count makes the read single-allocation.
            records.reserve_exact(chunked.declared().min(1 << 28) as usize);
            presized = true;
        }
        records.extend(chunk.records);
        quarantine.merge(&chunk.quarantine);
        if opts.is_strict() && !quarantine.is_empty() {
            return Err(IngestError::Corrupt {
                quarantine,
                lines_ok: records.len() as u64,
            });
        }
    }
    let total = records.len() as u64 + quarantine.total();
    if total > 0 && quarantine.total() as f64 / total as f64 > opts.max_bad_frac() {
        return Err(IngestError::Corrupt {
            quarantine,
            lines_ok: records.len() as u64,
        });
    }
    let (bytes, blocks) = (chunked.bytes_consumed(), chunked.blocks_read());
    Ok((ParsedLog { records }, quarantine, bytes, blocks))
}

/// Parse a log file in whichever format it is stored: sniffs the magic
/// bytes and dispatches to the binary block reader or the text
/// [`parse_file_streaming`] path. Both publish the same `parse.<stage>.*`
/// metrics and `ingest.quarantined.*` counters, so downstream
/// accounting is format-blind.
pub fn parse_file_auto<T>(
    path: &Path,
    line: LineFormat<T>,
    bin: BinFormat<T>,
    opts: &IngestOptions,
    stage: &str,
) -> Result<(ParsedLog<T>, Quarantine), IngestError>
where
    T: Send,
{
    if !file_is_binlog(path)? {
        return parse_file_streaming(path, line, opts, stage);
    }
    let mut span = astra_obs::span(&format!("parse.{stage}"));
    let file = std::fs::File::open(path)?;
    let (parsed, quarantine, bytes, blocks) = parse_binary_stream(file, bin, opts)?;
    span.attach("lines_ok", parsed.records.len() as i64);
    span.attach("lines_quarantined", quarantine.total() as i64);
    span.attach("bytes", bytes as i64);
    parsed.publish(stage, &quarantine, bytes);
    astra_obs::global()
        .counter(&format!("parse.{stage}.blocks"))
        .add(blocks);
    publish_quarantine(&quarantine);
    Ok((parsed, quarantine))
}

/// CRC-sweep a binary log file without decoding its columns: header
/// validation, per-block CRC verification, and a one-varint peek at each
/// payload's record count, cross-checked against the header's declared
/// total. This is what makes `fsck` of binary logs cheap — no column
/// decode, no record construction.
pub fn fsck_scan(path: &Path, expected_kind: u8) -> io::Result<Quarantine> {
    let mut file = std::fs::File::open(path)?;
    let mut quarantine = Quarantine::default();
    let mut hdr = [0u8; HEADER_LEN];
    let n = read_fill_plain(&mut file, &mut hdr)?;
    let declared = match validate_header(&hdr[..n], expected_kind) {
        Ok(count) => count,
        Err((reason, msg)) => {
            quarantine.note(0, reason, msg.as_bytes());
            return Ok(quarantine);
        }
    };
    let mut offset = n as u64;
    let mut counted = 0u64;
    let mut payload = Vec::new();
    loop {
        let block_off = offset;
        let mut lenb = [0u8; 4];
        let n = read_fill_plain(&mut file, &mut lenb)?;
        offset += n as u64;
        if n == 0 {
            if quarantine.is_empty() && counted != declared {
                quarantine.note(
                    block_off,
                    QuarantineReason::TruncatedBlock,
                    format!("file ends after {counted} of {declared} declared records").as_bytes(),
                );
            }
            return Ok(quarantine);
        }
        if n < 4 {
            quarantine.note(
                block_off,
                QuarantineReason::TruncatedBlock,
                format!("block length cut short at EOF ({n} of 4 bytes)").as_bytes(),
            );
            return Ok(quarantine);
        }
        let len = u32::from_le_bytes(lenb) as usize;
        if len > MAX_BLOCK_BYTES {
            quarantine.note(
                block_off,
                QuarantineReason::BlockCrc,
                format!("implausible block length {len}").as_bytes(),
            );
            return Ok(quarantine);
        }
        payload.clear();
        payload.resize(len, 0);
        let n = read_fill_plain(&mut file, &mut payload)?;
        offset += n as u64;
        if n < len {
            quarantine.note(
                block_off,
                QuarantineReason::TruncatedBlock,
                format!("block payload cut short at EOF ({n} of {len} bytes)").as_bytes(),
            );
            return Ok(quarantine);
        }
        let mut crcb = [0u8; 4];
        let n = read_fill_plain(&mut file, &mut crcb)?;
        offset += n as u64;
        if n < 4 {
            quarantine.note(
                block_off,
                QuarantineReason::TruncatedBlock,
                format!("block crc trailer cut short at EOF ({n} of 4 bytes)").as_bytes(),
            );
            return Ok(quarantine);
        }
        let stored = u32::from_le_bytes(crcb);
        let actual = crc32(&payload);
        if actual != stored {
            quarantine.note(
                block_off,
                QuarantineReason::BlockCrc,
                format!("block crc mismatch: stored {stored:08x}, computed {actual:08x}")
                    .as_bytes(),
            );
            continue; // framing intact: sweep the rest
        }
        let mut pos = 0usize;
        match read_count(&payload, &mut pos) {
            Some(c) => counted += c as u64,
            None => quarantine.note(
                block_off,
                QuarantineReason::BlockCrc,
                "block payload fails to decode (bad record count)".as_bytes(),
            ),
        }
    }
}

fn read_fill_plain<R: Read>(reader: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Slice-based block walk for small files held in memory: validates the
/// header against `expected_kind` and every block CRC, returning the
/// declared record count and the block payload slices. Any damage comes
/// back as a one-line description.
pub fn read_blocks(data: &[u8], expected_kind: u8) -> Result<(u64, Vec<&[u8]>), String> {
    let count = validate_header(data.get(..HEADER_LEN).unwrap_or(data), expected_kind)
        .map_err(|(reason, msg)| format!("{reason}: {msg}"))?;
    let mut payloads = Vec::new();
    let mut pos = HEADER_LEN;
    while pos < data.len() {
        let mut cursor = pos;
        let len = read_u32_le(data, &mut cursor)
            .ok_or_else(|| format!("truncated-block: block length cut short at offset {pos:#x}"))?
            as usize;
        let payload = data.get(cursor..cursor + len).ok_or_else(|| {
            format!("truncated-block: block payload cut short at offset {pos:#x}")
        })?;
        cursor += len;
        let stored = read_u32_le(data, &mut cursor)
            .ok_or_else(|| format!("truncated-block: block crc cut short at offset {pos:#x}"))?;
        let actual = crc32(payload);
        if actual != stored {
            return Err(format!(
                "block-crc: mismatch at offset {pos:#x}: stored {stored:08x}, computed {actual:08x}"
            ));
        }
        payloads.push(payload);
        pos = cursor;
    }
    Ok((count, payloads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_topology::SocketId;

    #[test]
    fn quantize_matches_the_text_formatter() {
        // The fast path must agree bit-for-bit with format!/parse — the
        // cross-format identity depends on it. Sweep magnitudes, signs,
        // boundary-adjacent values (x.?5 neighborhoods), and exact tenths.
        let mut probes: Vec<f64> = Vec::new();
        for i in -2000i64..2000 {
            probes.push(i as f64 / 10.0); // exact tenths
            probes.push(i as f64 / 20.0); // decimal ties (odd/20)
            probes.push(i as f64 * 0.0501 - 3.3);
            probes.push(i as f64 * 17.7701);
        }
        for e in [-3, 0, 3, 6, 9, 12] {
            let m = 10f64.powi(e);
            probes.extend([0.049_999 * m, 0.050_001 * m, 1.25 * m, -1.35 * m]);
        }
        for v in probes {
            let reference: f64 = format!("{v:.1}").parse().unwrap();
            assert_eq!(
                quantize_tenths(v).to_bits(),
                reference.to_bits(),
                "quantize({v:?}) diverged from the formatter"
            );
        }
    }

    fn ce(minute: i64, node: u32) -> CeRecord {
        let slot = DimmSlot::from_letter('E').unwrap();
        CeRecord {
            time: CalDate::new(2019, 3, 4).midnight().plus(minute),
            node: NodeId(node),
            socket: slot.socket(),
            slot,
            rank: RankId(1),
            bank: 3,
            row: None,
            col: 17,
            bit_pos: 133,
            addr: PhysAddr(0xABC0 + minute as u64),
            syndrome: 0x1A2B,
        }
    }

    fn write_to_vec<T>(bin: BinFormat<T>, records: &[T]) -> Vec<u8> {
        let mut out = Vec::new();
        write_records(&mut out, bin, records).unwrap();
        out
    }

    fn tolerant() -> IngestOptions {
        IngestOptions::lenient(Some(1.0))
    }

    #[test]
    fn tail_mode_holds_back_truncated_final_block() {
        // Simulate an append in progress: everything but the last few
        // bytes of the final block is on disk. A tailing reader must
        // wait for the writer instead of quarantining the torn block,
        // and must not flag the declared-count shortfall while growing.
        let records: Vec<CeRecord> = (0..100).map(|i| ce(i, (i as u32 * 3) % 2592)).collect();
        let data = write_to_vec(CE, &records);
        let dir =
            std::env::temp_dir().join(format!("astra-bin-tail-{}-{}", std::process::id(), line!()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ce.log");
        std::fs::write(&path, &data[..data.len() - 7]).unwrap();

        let f = std::fs::File::open(&path).unwrap();
        let mut r = BinReader::new(f, CE).with_tail(true);
        assert!(
            r.next_chunk().unwrap().is_none(),
            "block still being written"
        );
        assert!(r.next_chunk().unwrap().is_none(), "still dry");

        use std::io::Write as _;
        let mut w = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        w.write_all(&data[data.len() - 7..]).unwrap();
        drop(w);
        let chunk = r.next_chunk().unwrap().expect("completed block decodes");
        assert_eq!(chunk.records, records);
        assert!(chunk.quarantine.is_empty());
        assert!(r.next_chunk().unwrap().is_none(), "dry at the new EOF");

        // Once tailing ends, the clean EOF passes the declared-count
        // cross-check (everything promised by the header decoded).
        r.set_tail(false);
        assert!(r.next_chunk().unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tail_end_surfaces_real_truncation() {
        // If tailing stops while a frame is still incomplete, the file
        // really is truncated and the next non-tail read must say so.
        let records: Vec<CeRecord> = (0..50).map(|i| ce(i, i as u32)).collect();
        let data = write_to_vec(CE, &records);
        let dir = std::env::temp_dir().join(format!(
            "astra-bin-tailend-{}-{}",
            std::process::id(),
            line!()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ce.log");
        std::fs::write(&path, &data[..data.len() - 9]).unwrap();

        let f = std::fs::File::open(&path).unwrap();
        let mut r = BinReader::new(f, CE).with_tail(true);
        assert!(r.next_chunk().unwrap().is_none(), "held back while tailing");
        r.set_tail(false);
        let chunk = r.next_chunk().unwrap().expect("truncation surfaces");
        assert!(chunk.records.is_empty());
        assert_eq!(chunk.quarantine.count(QuarantineReason::TruncatedBlock), 1);
        assert!(r.next_chunk().unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ce_roundtrip_through_container() {
        let records: Vec<CeRecord> = (0..500).map(|i| ce(i, (i as u32 * 7) % 2592)).collect();
        let data = write_to_vec(CE, &records);
        let (parsed, quarantine, bytes, blocks) =
            parse_binary_stream(data.as_slice(), CE, &IngestOptions::default()).unwrap();
        assert_eq!(parsed.records, records);
        assert!(quarantine.is_empty());
        assert_eq!(bytes, data.len());
        assert_eq!(blocks, 1);
    }

    #[test]
    fn empty_file_roundtrip() {
        let data = write_to_vec(CE, &[]);
        assert_eq!(data.len(), HEADER_LEN);
        let (parsed, quarantine, ..) =
            parse_binary_stream(data.as_slice(), CE, &IngestOptions::default()).unwrap();
        assert!(parsed.records.is_empty());
        assert!(quarantine.is_empty());
    }

    #[test]
    fn multi_block_files_roundtrip() {
        let records: Vec<CeRecord> = (0..(BLOCK_RECORDS as i64 + 100))
            .map(|i| ce(i % 10_000, 3))
            .collect();
        let data = write_to_vec(CE, &records);
        let (parsed, _, _, blocks) =
            parse_binary_stream(data.as_slice(), CE, &IngestOptions::default()).unwrap();
        assert_eq!(parsed.records, records);
        assert_eq!(blocks, 2);
    }

    #[test]
    fn binary_is_much_smaller_than_text() {
        let records: Vec<CeRecord> = (0..2000).map(|i| ce(i, (i as u32) % 100)).collect();
        let data = write_to_vec(CE, &records);
        let text: usize = records.iter().map(|r| r.to_line().len() + 1).sum();
        assert!(
            data.len() * 4 < text,
            "binary {} should be >4x smaller than text {}",
            data.len(),
            text
        );
    }

    #[test]
    fn het_inventory_sensor_roundtrip() {
        let hets: Vec<HetRecord> = (0..100)
            .map(|i| HetRecord {
                time: CalDate::new(2019, 8, 23).midnight().plus(i),
                node: NodeId(i as u32),
                kind: HetKind::ALL[(i as usize) % 8],
                severity: HetKind::ALL[(i as usize) % 8].severity(),
                slot: (i % 3 == 0).then(|| DimmSlot::from_index((i % 16) as u8).unwrap()),
            })
            .collect();
        let data = write_to_vec(HET, &hets);
        let (parsed, ..) =
            parse_binary_stream(data.as_slice(), HET, &IngestOptions::default()).unwrap();
        assert_eq!(parsed.records, hets);

        let invs: Vec<ReplacementRecord> = (0..50)
            .map(|i| ReplacementRecord {
                date: CalDate::new(2019, 2, 18).plus_days(i),
                node: NodeId(5 + i as u32),
                component: match i % 3 {
                    0 => Component::Processor(SocketId((i % 2) as u8)),
                    1 => Component::Motherboard,
                    _ => Component::Dimm(DimmSlot::from_index((i % 16) as u8).unwrap()),
                },
            })
            .collect();
        let data = write_to_vec(INVENTORY, &invs);
        let (parsed, ..) =
            parse_binary_stream(data.as_slice(), INVENTORY, &IngestOptions::default()).unwrap();
        assert_eq!(parsed.records, invs);

        let sensors: Vec<SensorRecord> = (0..200)
            .map(|i| SensorRecord {
                time: CalDate::new(2019, 5, 20).midnight().plus(i),
                node: NodeId((i % 8) as u32 * 8),
                sensor: SensorId::from_index((i % 7) as u8).unwrap(),
                value: (i % 5 != 0).then(|| 40.0 + (i % 60) as f64 / 2.0),
            })
            .collect();
        let data = write_to_vec(SENSOR, &sensors);
        let (parsed, ..) =
            parse_binary_stream(data.as_slice(), SENSOR, &IngestOptions::default()).unwrap();
        assert_eq!(parsed.records, sensors);
    }

    #[test]
    fn flipped_bit_quarantines_one_block_lenient() {
        let records: Vec<CeRecord> = (0..(BLOCK_RECORDS as i64 * 2))
            .map(|i| ce(i % 10_000, 9))
            .collect();
        let mut data = write_to_vec(CE, &records);
        // Flip one payload bit inside the first block.
        data[HEADER_LEN + 4 + 100] ^= 0x40;
        let (parsed, quarantine, ..) =
            parse_binary_stream(data.as_slice(), CE, &tolerant()).unwrap();
        assert_eq!(quarantine.count(QuarantineReason::BlockCrc), 1);
        assert_eq!(
            parsed.records,
            records[BLOCK_RECORDS..],
            "second block must survive"
        );
        assert_eq!(quarantine.samples[0].line_no, HEADER_LEN as u64);
    }

    #[test]
    fn flipped_bit_aborts_strict() {
        let records: Vec<CeRecord> = (0..100).map(|i| ce(i, 9)).collect();
        let mut data = write_to_vec(CE, &records);
        let n = data.len();
        data[n - 20] ^= 0x01;
        let err = parse_binary_stream(data.as_slice(), CE, &IngestOptions::default()).unwrap_err();
        match err {
            IngestError::Corrupt { quarantine, .. } => {
                assert_eq!(quarantine.count(QuarantineReason::BlockCrc), 1);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncated_tail_is_quarantined() {
        let records: Vec<CeRecord> = (0..100).map(|i| ce(i, 9)).collect();
        let data = write_to_vec(CE, &records);
        let cut = &data[..data.len() - 7];
        let (parsed, quarantine, ..) = parse_binary_stream(cut, CE, &tolerant()).unwrap();
        assert!(parsed.records.is_empty());
        assert_eq!(quarantine.count(QuarantineReason::TruncatedBlock), 1);
    }

    #[test]
    fn truncated_header_and_wrong_magic() {
        let data = write_to_vec(CE, &[ce(1, 1)]);
        let (_, quarantine, ..) = parse_binary_stream(&data[..10], CE, &tolerant()).unwrap();
        assert_eq!(quarantine.count(QuarantineReason::BadVersion), 1);

        let mut wrong = data.clone();
        wrong[0] = b'X';
        let (_, quarantine, ..) = parse_binary_stream(wrong.as_slice(), CE, &tolerant()).unwrap();
        assert_eq!(quarantine.count(QuarantineReason::BadMagic), 1);
    }

    #[test]
    fn wrong_kind_is_bad_version() {
        let data = write_to_vec(CE, &[ce(1, 1)]);
        match parse_binary_stream(data.as_slice(), HET, &IngestOptions::default()) {
            Err(IngestError::Corrupt { quarantine, .. }) => {
                assert_eq!(quarantine.count(QuarantineReason::BadVersion), 1);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn header_crc_detects_count_tamper() {
        let mut data = write_to_vec(CE, &[ce(1, 1), ce(2, 1)]);
        data[12] ^= 0xFF; // count field
        let (_, quarantine, ..) = parse_binary_stream(data.as_slice(), CE, &tolerant()).unwrap();
        assert_eq!(quarantine.count(QuarantineReason::BadVersion), 1);
    }

    #[test]
    fn a_reader_started_at_a_saved_point_reads_on_as_one_pass_would() {
        // Three blocks, the first damaged, under a header that promises
        // more records than decode: a one-pass read quarantines the bad
        // block and, the file being dirty, skips the count check. A cut
        // after every block (and after the end) must read the same.
        let records: Vec<CeRecord> = (0..(BLOCK_RECORDS as i64 * 2 + 10))
            .map(|i| ce(i % 10_000, 4))
            .collect();
        let mut data = write_to_vec(CE, &records);
        data[HEADER_LEN + 4 + 100] ^= 0x40;
        let drain = |r: &mut BinReader<&[u8], CeRecord>,
                     n: usize,
                     recs: &mut Vec<_>,
                     q: &mut Quarantine| {
            for _ in 0..n {
                let Some(chunk) = r.next_chunk().unwrap() else {
                    return;
                };
                recs.extend(chunk.records);
                q.merge(&chunk.quarantine);
            }
        };
        let (mut want, mut want_q) = (Vec::new(), Quarantine::default());
        drain(
            &mut BinReader::new(&data[..], CE),
            usize::MAX,
            &mut want,
            &mut want_q,
        );
        assert_eq!(want_q.total(), 1, "the bad block only: {want_q:?}");
        for blocks in 0..=4 {
            let (mut got, mut got_q) = (Vec::new(), Quarantine::default());
            let mut head = BinReader::new(&data[..], CE);
            drain(&mut head, blocks, &mut got, &mut got_q);
            let point = head.point();
            // Even at the clean end: a resumed reader would read what a
            // writer appends.
            assert!(!point.ended);
            let mut tail = BinReader::new(&data[point.offset as usize..], CE)
                .starting_at(point, &data[..HEADER_LEN])
                .unwrap();
            drain(&mut tail, usize::MAX, &mut got, &mut got_q);
            assert_eq!(got, want, "after {blocks} blocks");
            assert_eq!(got_q, want_q, "after {blocks} blocks");
            let rest = if point.ended {
                0
            } else {
                data.len() - point.offset as usize
            };
            assert_eq!(tail.bytes_consumed(), rest, "after {blocks} blocks");
        }
        // A header that no longer validates is refused.
        let point = BinPoint {
            offset: HEADER_LEN as u64,
            ..BinPoint::default()
        };
        assert!(BinReader::new(&data[HEADER_LEN..], HET)
            .starting_at(point, &data[..HEADER_LEN])
            .is_err());
    }

    #[test]
    fn declared_count_mismatch_is_truncated_block() {
        // A file cut exactly on a block boundary: every CRC passes, but
        // the header count catches the missing tail.
        let records: Vec<CeRecord> = (0..(BLOCK_RECORDS as i64 + 50))
            .map(|i| ce(i % 10_000, 2))
            .collect();
        let data = write_to_vec(CE, &records);
        // Find the end of the first block.
        let mut pos = HEADER_LEN;
        let mut cur = pos;
        let len = read_u32_le(&data, &mut cur).unwrap() as usize;
        pos = cur + len + 4;
        let (parsed, quarantine, ..) = parse_binary_stream(&data[..pos], CE, &tolerant()).unwrap();
        assert_eq!(parsed.records.len(), BLOCK_RECORDS);
        assert_eq!(quarantine.count(QuarantineReason::TruncatedBlock), 1);
    }

    #[test]
    fn fsck_scan_matches_full_decode_verdicts() {
        let records: Vec<CeRecord> = (0..5000).map(|i| ce(i, 4)).collect();
        let dir = std::env::temp_dir().join(format!("binfmt-fsck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ce.log");

        // Clean file: clean sweep.
        std::fs::write(&path, write_to_vec(CE, &records)).unwrap();
        let q = fsck_scan(&path, KIND_CE).unwrap();
        assert!(q.is_empty(), "{}", q.summary());

        // Flip a payload bit: both paths report exactly one block-crc.
        let mut data = write_to_vec(CE, &records);
        data[HEADER_LEN + 4 + 1000] ^= 0x10;
        std::fs::write(&path, &data).unwrap();
        let sweep = fsck_scan(&path, KIND_CE).unwrap();
        let (_, full, ..) = parse_binary_stream(data.as_slice(), CE, &tolerant()).unwrap();
        assert_eq!(sweep.counts, full.counts);
        assert_eq!(sweep.count(QuarantineReason::BlockCrc), 1);

        // Truncate the tail: both paths report truncated-block.
        let cut = &data[..data.len() - 9];
        std::fs::write(&path, cut).unwrap();
        let sweep = fsck_scan(&path, KIND_CE).unwrap();
        assert_eq!(sweep.count(QuarantineReason::TruncatedBlock), 1);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_blocks_slice_walk() {
        let mut data = Vec::from(header_bytes(KIND_HET, 2));
        append_block(&mut data, b"section one");
        append_block(&mut data, b"section two");
        let (count, payloads) = read_blocks(&data, KIND_HET).unwrap();
        assert_eq!(count, 2);
        assert_eq!(payloads, vec![&b"section one"[..], &b"section two"[..]]);

        // Tamper with a payload byte.
        let idx = HEADER_LEN + 4 + 2;
        data[idx] ^= 0xFF;
        assert!(read_blocks(&data, KIND_HET)
            .unwrap_err()
            .contains("block-crc"));
        data[idx] ^= 0xFF;
        // Truncate mid-block.
        assert!(read_blocks(&data[..data.len() - 2], KIND_HET)
            .unwrap_err()
            .contains("truncated-block"));
        // Wrong kind.
        assert!(read_blocks(&data, KIND_CE)
            .unwrap_err()
            .contains("bad-version"));
    }

    #[test]
    fn sniffing() {
        let data = write_to_vec(CE, &[ce(1, 1)]);
        assert!(sniff_is_binlog(&data));
        assert!(!sniff_is_binlog(b"2019-03-04T12:01:00 node0123 kernel:"));
        assert!(!sniff_is_binlog(b"ASTR"));
    }
}
