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
//! ## Reading and corruption handling
//!
//! One function parses a block frame (length word, [`MAX_BLOCK_BYTES`]
//! bound, payload, CRC trailer), and one walk over the header and frames
//! serves [`BinReader`] and [`fsck_scan`], which peeks at each intact
//! payload's record count instead of decoding it. In tail mode a header
//! or frame cut short at EOF waits for the writer; otherwise it is
//! `truncated-block`. Commands reach the block reader through
//! [`crate::io::LogReader`], which sniffs the magic once.
//!
//!
//! The binary read path speaks the same [`Quarantine`] taxonomy as the
//! text readers, with binary-specific reasons: [`QuarantineReason::BadMagic`],
//! [`QuarantineReason::BadVersion`], [`QuarantineReason::BlockCrc`], and
//! [`QuarantineReason::TruncatedBlock`]. Sample positions are byte
//! offsets rather than line numbers. The ingest policy is the text
//! readers' ([`IngestOptions::refuses`]): strict aborts on the first
//! quarantined unit; lenient skips damaged blocks and checks the
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
use crate::io::{
    publish_quarantine, read_fill, read_to_end, IngestChunk, IngestError, LogReader, ParsedLog,
    ReadPoint,
};
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
/// magic bytes ([`crate::io::LogReader`]) and dispatches per file.
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

/// `n` fixed-width values, each read by `read`.
fn read_array<V>(
    buf: &[u8],
    pos: &mut usize,
    n: usize,
    read: impl Fn(&[u8], &mut usize) -> Option<V>,
) -> Option<Vec<V>> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read(buf, pos)?);
    }
    Some(out)
}

/// Read the varint record count that leads every log-kind payload,
/// bounded by [`BLOCK_RECORDS`].
pub(crate) fn read_count(buf: &[u8], pos: &mut usize) -> Option<usize> {
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
    let banks = read_array(buf, &mut pos, n, read_u16_le)?;
    let cols = read_array(buf, &mut pos, n, read_u16_le)?;
    let bits = read_array(buf, &mut pos, n, read_u16_le)?;
    let row_present = read_presence(buf, &mut pos, n)?;
    let mut rows: Vec<Option<u32>> = Vec::with_capacity(n);
    for &present in &row_present {
        rows.push(if present {
            Some(read_u32_le(buf, &mut pos)?)
        } else {
            None
        });
    }
    let addrs = read_array(buf, &mut pos, n, read_u64_le)?;
    let synds = read_array(buf, &mut pos, n, read_u32_le)?;
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
    let mut head = [0u8; MAGIC.len()];
    let n = read_fill(
        &mut std::fs::File::open(path)?,
        &mut head,
        RetryPolicy::default(),
    )?;
    Ok(sniff_is_binlog(&head[..n]))
}

/// Validate a (possibly short) header read against `expected_kind`.
/// Returns the declared record count.
pub(crate) fn validate_header(
    hdr: &[u8],
    expected_kind: u8,
) -> Result<u64, (QuarantineReason, String)> {
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

/// Why the bytes at a block boundary are not one whole, intact frame.
#[derive(Debug, Clone, Copy)]
enum FrameFault {
    /// The bytes end inside the frame, which is this long as far as is
    /// known (4 bytes until its length word is whole).
    Short(usize),
    /// A length word beyond [`MAX_BLOCK_BYTES`]: the framing is lost.
    Lost(usize),
    /// The payload fails its CRC trailer. The frame itself is whole, so
    /// the next one can be read.
    Crc {
        /// Stored trailer.
        stored: u32,
        /// CRC of the payload as read.
        actual: u32,
    },
}

impl FrameFault {
    /// The quarantine reason and message of this fault, with `have`
    /// bytes of the frame there.
    fn describe(self, have: usize) -> (QuarantineReason, String) {
        use QuarantineReason::{BlockCrc, TruncatedBlock};
        match self {
            FrameFault::Short(_) if have < 4 => (
                TruncatedBlock,
                format!("block length cut short at EOF ({have} of 4 bytes)"),
            ),
            FrameFault::Short(size) if have < size - 4 => (
                TruncatedBlock,
                format!(
                    "block payload cut short at EOF ({} of {} bytes)",
                    have - 4,
                    size - 8
                ),
            ),
            FrameFault::Short(size) => (
                TruncatedBlock,
                format!(
                    "block crc trailer cut short at EOF ({} of 4 bytes)",
                    have + 4 - size
                ),
            ),
            FrameFault::Lost(len) => (BlockCrc, format!("implausible block length {len}")),
            FrameFault::Crc { stored, actual } => (
                BlockCrc,
                format!("block crc mismatch: stored {stored:08x}, computed {actual:08x}"),
            ),
        }
    }
}

/// Parse the block frame at the front of `buf`: a `u32` LE payload
/// length, the payload, then its CRC-32. Returns the payload length of a
/// whole frame whose trailer matches. Every reader of the framing parses
/// it here: the block reader in both modes (and with it the chaos
/// harness's block map), `fsck`'s sweep and [`read_blocks`].
fn frame(buf: &[u8]) -> Result<usize, FrameFault> {
    let mut pos = 0;
    let len = read_u32_le(buf, &mut pos).ok_or(FrameFault::Short(4))? as usize;
    if len > MAX_BLOCK_BYTES {
        return Err(FrameFault::Lost(len));
    }
    let payload = buf.get(4..4 + len).ok_or(FrameFault::Short(len + 8))?;
    let mut pos = 4 + len;
    let stored = read_u32_le(buf, &mut pos).ok_or(FrameFault::Short(len + 8))?;
    let actual = crc32(payload);
    if actual != stored {
        return Err(FrameFault::Crc { stored, actual });
    }
    Ok(len)
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

/// The walk over a binlog's header and block frames from a reader, which
/// [`BinReader`] decodes and `fsck`'s sweep peeks at. The read modes
/// differ in one thing: in tail mode a header or frame cut short at EOF
/// is an append in progress, whose bytes wait in `stash` for the writer;
/// otherwise it is `truncated-block` (or a bad header), and a clean end
/// is checked against the header's declared count. A CRC-failed block is
/// skipped, the framing being intact; truncation or an implausible
/// length word loses the framing and ends the walk.
struct Frames<R> {
    reader: R,
    kind: u8,
    retry: RetryPolicy,
    tail: bool,
    header_done: bool,
    declared: u64,
    /// Records in the blocks read so far.
    decoded: u64,
    /// File offset of the next byte to read.
    offset: u64,
    /// File offset the walk started at (0 unless `starting_at`).
    base: u64,
    blocks: u64,
    dirty: bool,
    done: bool,
    /// Bytes read but not yet walked past: part of the header or of one
    /// frame.
    stash: Vec<u8>,
}

impl<R: Read> Frames<R> {
    fn new(reader: R, kind: u8) -> Self {
        Frames {
            reader,
            kind,
            retry: RetryPolicy::default(),
            tail: false,
            header_done: false,
            declared: 0,
            decoded: 0,
            offset: 0,
            base: 0,
            blocks: 0,
            dirty: false,
            done: false,
            stash: Vec::new(),
        }
    }

    /// Read on until the stash holds `need` bytes; whether it got there
    /// (short only at the reader's end).
    fn fill(&mut self, need: usize) -> io::Result<bool> {
        let have = self.stash.len();
        if have < need {
            self.stash.resize(need, 0);
            match read_fill(&mut self.reader, &mut self.stash[have..], self.retry) {
                Ok(got) => {
                    self.stash.truncate(have + got);
                    self.offset += got as u64;
                }
                Err(e) => {
                    self.stash.truncate(have);
                    return Err(e);
                }
            }
        }
        Ok(self.stash.len() >= need)
    }

    /// Walk past the header if need be and the next frame, handing the
    /// payload of an intact one to `take`, which returns the records it
    /// holds or why it cannot be read. Returns what the step quarantined
    /// (nothing for a good block), or `None` at the end of the file; in
    /// tail mode, at the end of what is there so far.
    fn next(
        &mut self,
        take: impl FnOnce(&[u8]) -> Result<u64, String>,
    ) -> io::Result<Option<Quarantine>> {
        if self.done {
            return Ok(None);
        }
        let mut quarantine = Quarantine::default();
        if !self.header_done {
            if !self.fill(HEADER_LEN)? && self.tail {
                return Ok(None);
            }
            match validate_header(&self.stash, self.kind) {
                Ok(count) => {
                    self.declared = count;
                    self.header_done = true;
                    self.stash.clear();
                }
                Err((reason, msg)) => {
                    quarantine.note(0, reason, msg.as_bytes());
                    self.stash.clear();
                    self.dirty = true;
                    self.done = true;
                    return Ok(Some(quarantine));
                }
            }
        }
        let at = self.offset - self.stash.len() as u64;
        let mut walked = frame(&self.stash);
        while let Err(FrameFault::Short(size)) = walked {
            if !self.fill(size)? {
                break;
            }
            walked = frame(&self.stash);
        }
        match walked {
            Ok(len) => {
                self.blocks += 1;
                match take(&self.stash[4..4 + len]) {
                    Ok(records) => self.decoded += records,
                    Err(msg) => {
                        quarantine.note(at, QuarantineReason::BlockCrc, msg.as_bytes());
                        self.dirty = true;
                    }
                }
            }
            Err(FrameFault::Short(_)) if self.tail => return Ok(None),
            Err(FrameFault::Short(_)) if self.stash.is_empty() => {
                // A clean end on a block boundary. When the declared count
                // decoded (or something was quarantined, which turns the
                // check off), the walk has not stopped for good: a reader
                // resumed here reads whatever blocks a writer appends.
                if self.dirty || self.decoded == self.declared {
                    return Ok(None);
                }
                let msg = format!(
                    "file ends after {} of {} declared records",
                    self.decoded, self.declared
                );
                quarantine.note(at, QuarantineReason::TruncatedBlock, msg.as_bytes());
                self.done = true;
            }
            Err(fault) => {
                let (reason, msg) = fault.describe(self.stash.len());
                quarantine.note(at, reason, msg.as_bytes());
                self.dirty = true;
                match fault {
                    FrameFault::Crc { .. } => self.blocks += 1,
                    _ => self.done = true,
                }
            }
        }
        self.stash.clear();
        Ok(Some(quarantine))
    }
}

/// Streaming block reader over any `Read`: the binary peer of
/// [`crate::io::ChunkReader`]. Each [`BinReader::next_chunk`] yields the
/// records of one column block (with any corruption quarantined), until
/// the reader is exhausted. Commands open logs through
/// [`crate::io::LogReader`], which picks this reader for a binlog.
pub struct BinReader<R, T> {
    frames: Frames<R>,
    bin: BinFormat<T>,
}

impl<R, T> BinReader<R, T>
where
    R: Read,
{
    /// Wrap `reader`, decoding blocks per `bin`, with the default
    /// [`RetryPolicy`].
    pub fn new(reader: R, bin: BinFormat<T>) -> Self {
        BinReader {
            frames: Frames::new(reader, bin.kind),
            bin,
        }
    }

    /// Replace the transient-I/O retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.frames.retry = retry;
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
        let f = &mut self.frames;
        if !point.ended {
            f.declared = validate_header(header, f.kind).map_err(|(_, msg)| msg)?;
        }
        f.header_done = true;
        f.offset = point.offset;
        f.base = point.offset;
        f.decoded = point.decoded;
        f.dirty = point.dirty;
        f.done = point.ended;
        Ok(self)
    }

    /// Set tail (growing-file) mode, for the reader's whole life: a
    /// header or frame cut short at EOF waits for the writer instead of
    /// being quarantined, and the header's declared count is not checked
    /// (a growing file holds fewer records than its header promises until
    /// the writer is done).
    pub fn with_tail(mut self, tail: bool) -> Self {
        self.frames.tail = tail;
        self
    }

    /// Bytes this reader has consumed into frames so far (the bytes of a
    /// frame still being assembled in tail mode don't count yet).
    pub fn bytes_consumed(&self) -> usize {
        let f = &self.frames;
        (f.offset - f.base) as usize - f.stash.len()
    }

    /// Where the next block frame starts, with the decode state there.
    pub fn point(&self) -> BinPoint {
        let f = &self.frames;
        BinPoint {
            offset: f.offset - f.stash.len() as u64,
            decoded: f.decoded,
            dirty: f.dirty,
            ended: f.done,
        }
    }

    /// Blocks fully framed (read through their CRC trailer) so far.
    pub fn blocks_read(&self) -> u64 {
        self.frames.blocks
    }

    /// Decode the next block, or `None` once the file is exhausted (in
    /// tail mode: dry for now). Damaged headers/blocks come back as
    /// chunks with empty records and a populated quarantine, mirroring
    /// the text reader's behaviour.
    pub fn next_chunk(&mut self) -> io::Result<Option<IngestChunk<T>>> {
        let decode = self.bin.decode;
        let mut records = Vec::new();
        let quarantine = self.frames.next(|payload| {
            if decode(payload, &mut records).is_some() {
                return Ok(records.len() as u64);
            }
            records.clear();
            Err(format!(
                "block payload fails to decode ({} bytes)",
                payload.len()
            ))
        })?;
        Ok(quarantine.map(|quarantine| IngestChunk {
            records,
            quarantine,
        }))
    }
}

/// Parse a log file in whichever format it is stored: one
/// [`LogReader`] (a sniff of the magic bytes, then the text or the block
/// reader) drained by [`read_to_end`]. Both formats publish the same
/// `parse.<stage>.*` metrics (`chunks` of text, `blocks` of a binlog) and
/// `ingest.quarantined.*` counters, so downstream accounting is
/// format-blind.
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
    let mut span = astra_obs::span(&format!("parse.{stage}"));
    let file = std::fs::File::open(path)?;
    let start = ReadPoint::default();
    let mut reader = LogReader::open(file, line, bin, opts.retry, false, start)?;
    let (records, quarantine) = read_to_end(opts, || reader.next_chunk())?;
    let parsed = ParsedLog { records };
    let bytes = reader.bytes_consumed();
    span.attach("lines_ok", parsed.records.len() as i64);
    span.attach("lines_quarantined", quarantine.total() as i64);
    span.attach("bytes", bytes as i64);
    parsed.publish(stage, &quarantine, bytes);
    let (unit, read) = reader.units_read();
    astra_obs::global()
        .counter(&format!("parse.{stage}.{unit}"))
        .add(read);
    publish_quarantine(&quarantine);
    Ok((parsed, quarantine))
}

/// CRC-sweep a binary log file without decoding its columns: the block
/// reader's frame walk, with a one-varint peek at each intact payload's
/// record count in place of its decode, cross-checked against the
/// header's declared total. This is what makes `fsck` of binary logs
/// cheap — no column decode, no record construction.
pub fn fsck_scan(path: &Path, expected_kind: u8) -> io::Result<Quarantine> {
    sweep(std::fs::File::open(path)?, expected_kind)
}

/// [`fsck_scan`] over any reader.
fn sweep<R: Read>(reader: R, kind: u8) -> io::Result<Quarantine> {
    let mut frames = Frames::new(reader, kind);
    let mut quarantine = Quarantine::default();
    let peek = |payload: &[u8]| {
        read_count(payload, &mut 0)
            .map(|n| n as u64)
            .ok_or_else(|| "block payload fails to decode (bad record count)".to_string())
    };
    while let Some(q) = frames.next(peek)? {
        quarantine.merge(&q);
    }
    Ok(quarantine)
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
        let len = frame(&data[pos..]).map_err(|fault| {
            let (reason, msg) = fault.describe(data.len() - pos);
            format!("{reason}: {msg}, block at offset {pos:#x}")
        })?;
        payloads.push(&data[pos + 4..pos + 4 + len]);
        pos += len + 8;
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

    /// Drain a binlog held in memory under `opts`: the records, the
    /// quarantine, and the bytes and blocks read.
    fn drain<T>(
        data: &[u8],
        bin: BinFormat<T>,
        opts: &IngestOptions,
    ) -> Result<(ParsedLog<T>, Quarantine, usize, u64), IngestError> {
        let mut reader = BinReader::new(data, bin);
        let (records, quarantine) = read_to_end(opts, || reader.next_chunk())?;
        let (bytes, blocks) = (reader.bytes_consumed(), reader.blocks_read());
        Ok((ParsedLog { records }, quarantine, bytes, blocks))
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

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ce_roundtrip_through_container() {
        let records: Vec<CeRecord> = (0..500).map(|i| ce(i, (i as u32 * 7) % 2592)).collect();
        let data = write_to_vec(CE, &records);
        let (parsed, quarantine, bytes, blocks) =
            drain(data.as_slice(), CE, &IngestOptions::default()).unwrap();
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
            drain(data.as_slice(), CE, &IngestOptions::default()).unwrap();
        assert!(parsed.records.is_empty());
        assert!(quarantine.is_empty());
    }

    #[test]
    fn multi_block_files_roundtrip() {
        let records: Vec<CeRecord> = (0..(BLOCK_RECORDS as i64 + 100))
            .map(|i| ce(i % 10_000, 3))
            .collect();
        let data = write_to_vec(CE, &records);
        let (parsed, _, _, blocks) = drain(data.as_slice(), CE, &IngestOptions::default()).unwrap();
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

    fn hets(n: i64) -> Vec<HetRecord> {
        (0..n)
            .map(|i| HetRecord {
                time: CalDate::new(2019, 8, 23).midnight().plus(i),
                node: NodeId(i as u32),
                kind: HetKind::ALL[(i as usize) % 8],
                severity: HetKind::ALL[(i as usize) % 8].severity(),
                slot: (i % 3 == 0).then(|| DimmSlot::from_index((i % 16) as u8).unwrap()),
            })
            .collect()
    }

    fn replacements(n: i64) -> Vec<ReplacementRecord> {
        (0..n)
            .map(|i| ReplacementRecord {
                date: CalDate::new(2019, 2, 18).plus_days(i),
                node: NodeId(5 + i as u32),
                component: match i % 3 {
                    0 => Component::Processor(SocketId((i % 2) as u8)),
                    1 => Component::Motherboard,
                    _ => Component::Dimm(DimmSlot::from_index((i % 16) as u8).unwrap()),
                },
            })
            .collect()
    }

    fn sensors(n: i64) -> Vec<SensorRecord> {
        (0..n)
            .map(|i| SensorRecord {
                time: CalDate::new(2019, 5, 20).midnight().plus(i),
                node: NodeId((i % 8) as u32 * 8),
                sensor: SensorId::from_index((i % 7) as u8).unwrap(),
                value: (i % 5 != 0).then(|| 40.0 + (i % 60) as f64 / 2.0),
            })
            .collect()
    }

    #[test]
    fn het_inventory_sensor_roundtrip() {
        let hets = hets(100);
        let data = write_to_vec(HET, &hets);
        let (parsed, ..) = drain(data.as_slice(), HET, &IngestOptions::default()).unwrap();
        assert_eq!(parsed.records, hets);

        let invs = replacements(50);
        let data = write_to_vec(INVENTORY, &invs);
        let (parsed, ..) = drain(data.as_slice(), INVENTORY, &IngestOptions::default()).unwrap();
        assert_eq!(parsed.records, invs);

        let sensors = sensors(200);
        let data = write_to_vec(SENSOR, &sensors);
        let (parsed, ..) = drain(data.as_slice(), SENSOR, &IngestOptions::default()).unwrap();
        assert_eq!(parsed.records, sensors);
    }

    /// A binlog of `records` in blocks of three: several small blocks,
    /// so damage can land in any part of any frame.
    fn small_binlog<T>(bin: BinFormat<T>, records: &[T]) -> Vec<u8> {
        let mut data = Vec::from(header_bytes(bin.kind, records.len() as u64));
        for block in records.chunks(3) {
            let mut payload = Vec::new();
            (bin.encode)(block, &mut payload);
            append_block(&mut data, &payload);
        }
        data
    }

    /// Read `data` with the frame walker and with the readers it
    /// replaced, step by step, in one mode: the same chunks (records,
    /// quarantine counts and samples) and, after every step, the same
    /// `point()` and `bytes_consumed()`. Off tail mode, `fsck`'s sweep
    /// must also quarantine what the old sweep did.
    fn agrees_with_the_oracle<T: PartialEq + std::fmt::Debug>(
        bin: BinFormat<T>,
        data: &[u8],
        tail: bool,
        case: &str,
    ) {
        let mut new = BinReader::new(data, bin).with_tail(tail);
        let mut old = crate::frame_oracle::OldBinReader::new(data, bin, tail);
        loop {
            match (new.next_chunk().unwrap(), old.next_chunk().unwrap()) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert_eq!(a.records, b.records, "{case}");
                    assert_eq!(a.quarantine, b.quarantine, "{case}");
                }
                (a, b) => panic!("{case}: one reader ended: {:?} vs {:?}", a.is_some(), b),
            }
            assert_eq!(new.point(), old.point(), "{case}");
            assert_eq!(new.bytes_consumed(), old.bytes_consumed(), "{case}");
        }
        if !tail {
            let want = crate::frame_oracle::old_fsck_scan(data, bin.kind).unwrap();
            assert_eq!(sweep(data, bin.kind).unwrap(), want, "{case}");
        }
    }

    /// Cut `data` at every offset and flip one bit at every offset
    /// (header, length words, payloads and trailers alike).
    fn damage_everywhere<T: PartialEq + std::fmt::Debug>(bin: BinFormat<T>, data: &[u8]) {
        for cut in 0..=data.len() {
            agrees_with_the_oracle(bin, &data[..cut], false, &format!("cut at {cut}"));
        }
        for at in 0..data.len() {
            let mut flipped = data.to_vec();
            flipped[at] ^= 1 << (at % 8);
            agrees_with_the_oracle(bin, &flipped, false, &format!("bit flip at {at}"));
        }
    }

    #[test]
    fn the_frame_walker_reads_every_damaged_file_as_the_old_readers_did() {
        let ces: Vec<CeRecord> = (0..8).map(|i| ce(i, (i as u32 * 7) % 2592)).collect();
        damage_everywhere(CE, &small_binlog(CE, &ces));
        damage_everywhere(HET, &small_binlog(HET, &hets(8)));
        damage_everywhere(INVENTORY, &small_binlog(INVENTORY, &replacements(8)));
        damage_everywhere(SENSOR, &small_binlog(SENSOR, &sensors(8)));
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
    fn a_tailing_reader_given_a_binlog_in_two_writes_reads_it_whole() {
        let ces: Vec<CeRecord> = (0..8).map(|i| ce(i, (i as u32 * 7) % 2592)).collect();
        let data = small_binlog(CE, &ces);
        for cut in 0..=data.len() {
            let written = std::rc::Rc::new(std::cell::RefCell::new(data[..cut].to_vec()));
            let grow = || Growing {
                data: written.clone(),
                pos: 0,
            };
            let mut new = BinReader::new(grow(), CE).with_tail(true);
            let mut old = crate::frame_oracle::OldBinReader::new(grow(), CE, true);
            let mut got = Vec::new();
            for write in [&data[cut..], &[][..]] {
                loop {
                    let (a, b) = (new.next_chunk().unwrap(), old.next_chunk().unwrap());
                    let (Some(a), Some(b)) = (a, b) else {
                        break;
                    };
                    assert!(a.quarantine.is_empty(), "cut at {cut}");
                    assert_eq!(a.records, b.records, "cut at {cut}");
                    got.extend(a.records);
                }
                assert_eq!(new.point(), old.point(), "cut at {cut}");
                written.borrow_mut().extend_from_slice(write);
            }
            assert_eq!(got, ces, "cut at {cut}");
            assert_eq!(new.bytes_consumed(), data.len(), "cut at {cut}");
        }
    }

    #[test]
    fn flipped_bit_quarantines_one_block_lenient() {
        let records: Vec<CeRecord> = (0..(BLOCK_RECORDS as i64 * 2))
            .map(|i| ce(i % 10_000, 9))
            .collect();
        let mut data = write_to_vec(CE, &records);
        // Flip one payload bit inside the first block.
        data[HEADER_LEN + 4 + 100] ^= 0x40;
        let (parsed, quarantine, ..) = drain(data.as_slice(), CE, &tolerant()).unwrap();
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
        let err = drain(data.as_slice(), CE, &IngestOptions::default()).unwrap_err();
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
        let (parsed, quarantine, ..) = drain(cut, CE, &tolerant()).unwrap();
        assert!(parsed.records.is_empty());
        assert_eq!(quarantine.count(QuarantineReason::TruncatedBlock), 1);
    }

    #[test]
    fn truncated_header_and_wrong_magic() {
        let data = write_to_vec(CE, &[ce(1, 1)]);
        let (_, quarantine, ..) = drain(&data[..10], CE, &tolerant()).unwrap();
        assert_eq!(quarantine.count(QuarantineReason::BadVersion), 1);

        let mut wrong = data.clone();
        wrong[0] = b'X';
        let (_, quarantine, ..) = drain(wrong.as_slice(), CE, &tolerant()).unwrap();
        assert_eq!(quarantine.count(QuarantineReason::BadMagic), 1);
    }

    #[test]
    fn wrong_kind_is_bad_version() {
        let data = write_to_vec(CE, &[ce(1, 1)]);
        match drain(data.as_slice(), HET, &IngestOptions::default()) {
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
        let (_, quarantine, ..) = drain(data.as_slice(), CE, &tolerant()).unwrap();
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
        let (parsed, quarantine, ..) = drain(&data[..pos], CE, &tolerant()).unwrap();
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
        let (_, full, ..) = drain(data.as_slice(), CE, &tolerant()).unwrap();
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
