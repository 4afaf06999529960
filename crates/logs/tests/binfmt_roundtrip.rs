//! Cross-format round-trip properties for the `astra-binlog` columnar
//! format: for every record type, text→binary→text and
//! binary→text→binary are identities, and corrupt binary containers land
//! in quarantine (lenient) or abort the ingest (strict) exactly like
//! corrupt text logs do.
//!
//! Generators stay inside the canonical record domain the two formats
//! share — valid slots/ranks/sensors, sockets derived from the slot, and
//! sensor values with one decimal digit (the text format's `value={v:.1}`
//! precision, which the binary encoder quantizes to as well).

use astra_logs::binfmt::{self, BinFormat};
use astra_logs::io::{read_to_end, IngestError};
use astra_logs::{
    ce, het, inventory, sensor, IngestOptions, LineFormat, Quarantine, QuarantineReason,
};
use astra_logs::{
    CeRecord, Component, HetKind, HetRecord, HetSeverity, ReplacementRecord, SensorRecord,
};
use astra_topology::{DimmSlot, NodeId, PhysAddr, RankId, SensorId, SocketId};
use astra_util::CalDate;
use proptest::prelude::*;

const SEVERITIES: [HetSeverity; 3] = [
    HetSeverity::Warning,
    HetSeverity::Critical,
    HetSeverity::NonRecoverable,
];

fn minute(day: i64, minute_of_day: i64) -> astra_util::Minute {
    CalDate::new(2019, 1, 1)
        .midnight()
        .plus(day * 1440 + minute_of_day)
}

/// Encode records into a complete container (header + blocks).
fn container<T>(bin: BinFormat<T>, records: &[T]) -> Vec<u8> {
    let mut out = Vec::new();
    binfmt::write_records(&mut out, bin, records).expect("Vec sink cannot fail");
    out
}

/// Drain a container held in memory under `opts`.
fn drain<T>(
    data: &[u8],
    bin: BinFormat<T>,
    opts: &IngestOptions,
) -> Result<(Vec<T>, Quarantine), IngestError> {
    let mut reader = binfmt::BinReader::new(data, bin);
    read_to_end(opts, || reader.next_chunk())
}

/// Strict full decode of a container; panics on any quarantine.
fn decode_all<T: Send>(bin: BinFormat<T>, data: &[u8]) -> Vec<T> {
    let (records, q) =
        drain(data, bin, &IngestOptions::default()).expect("clean container must decode strictly");
    assert!(q.is_empty());
    records
}

/// The two identities, checked from both starting points:
/// text→binary→text compares rendered lines, binary→text→binary
/// compares container bytes.
fn assert_round_trips<T>(records: &[T], format: LineFormat<T>, bin: BinFormat<T>)
where
    T: Clone + PartialEq + std::fmt::Debug + Send,
    T: RenderLine,
{
    // text → binary → text
    let lines: Vec<String> = records.iter().map(RenderLine::line).collect();
    let reparsed: Vec<T> = lines
        .iter()
        .map(|l| (format.parse)(l).expect("canonical record must parse from its own line"))
        .collect();
    let bytes = container(bin, &reparsed);
    let decoded = decode_all(bin, &bytes);
    let lines2: Vec<String> = decoded.iter().map(RenderLine::line).collect();
    assert_eq!(lines, lines2, "text->binary->text must be identity");

    // binary → text → binary
    let bytes1 = container(bin, records);
    let from_bin = decode_all(bin, &bytes1);
    let through_text: Vec<T> = from_bin
        .iter()
        .map(|r| (format.parse)(&r.line()).expect("decoded record must render a parseable line"))
        .collect();
    let bytes2 = container(bin, &through_text);
    assert_eq!(bytes1, bytes2, "binary->text->binary must be identity");
}

/// `to_line` without naming each concrete type at every call site.
trait RenderLine {
    fn line(&self) -> String;
}

impl RenderLine for CeRecord {
    fn line(&self) -> String {
        self.to_line()
    }
}
impl RenderLine for HetRecord {
    fn line(&self) -> String {
        self.to_line()
    }
}
impl RenderLine for ReplacementRecord {
    fn line(&self) -> String {
        self.to_line()
    }
}
impl RenderLine for SensorRecord {
    fn line(&self) -> String {
        self.to_line()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prop_ce_round_trips(
        raws in proptest::collection::vec(
            (
                (0i64..365, 0i64..1440, 0u32..10_000, 0u8..16, 0u8..2),
                (0u16..64, proptest::option::of(0u32..1_000_000), 0u16..2048,
                 0u16..1024, 0u64..(1 << 44)),
                0u32..0x1_0000,
            ),
            1..40,
        ),
    ) {
        let records: Vec<CeRecord> = raws
            .iter()
            .map(|&((day, min, node, slot, rank), (bank, row, col, bit, addr), synd)| {
                let slot = DimmSlot::from_index(slot).unwrap();
                CeRecord {
                    time: minute(day, min),
                    node: NodeId(node),
                    socket: slot.socket(),
                    slot,
                    rank: RankId(rank),
                    bank,
                    row,
                    col,
                    bit_pos: bit,
                    addr: PhysAddr(addr),
                    syndrome: synd,
                }
            })
            .collect();
        assert_round_trips(&records, ce::FORMAT, binfmt::CE);
    }

    #[test]
    fn prop_het_round_trips(
        raws in proptest::collection::vec(
            (0i64..365, 0i64..1440, 0u32..10_000, 0usize..8, 0usize..3,
             proptest::option::of(0u8..16)),
            1..40,
        ),
    ) {
        let records: Vec<HetRecord> = raws
            .iter()
            .map(|&(day, min, node, kind, sev, slot)| HetRecord {
                time: minute(day, min),
                node: NodeId(node),
                kind: HetKind::ALL[kind],
                severity: SEVERITIES[sev],
                slot: slot.map(|s| DimmSlot::from_index(s).unwrap()),
            })
            .collect();
        assert_round_trips(&records, het::FORMAT, binfmt::HET);
    }

    #[test]
    fn prop_inventory_round_trips(
        raws in proptest::collection::vec(
            (0i64..365, 0u32..10_000, 0u8..3, 0u8..16),
            1..40,
        ),
    ) {
        let records: Vec<ReplacementRecord> = raws
            .iter()
            .map(|&(day, node, tag, arg)| ReplacementRecord {
                date: CalDate::from_day_index(CalDate::new(2019, 1, 1).day_index() + day),
                node: NodeId(node),
                component: match tag {
                    0 => Component::Processor(SocketId(arg % 2)),
                    1 => Component::Motherboard,
                    _ => Component::Dimm(DimmSlot::from_index(arg).unwrap()),
                },
            })
            .collect();
        assert_round_trips(&records, inventory::FORMAT, binfmt::INVENTORY);
    }

    #[test]
    fn prop_sensor_round_trips(
        raws in proptest::collection::vec(
            (0i64..365, 0i64..1440, 0u32..10_000, 0u8..7,
             proptest::option::of(0i64..50_000)),
            1..40,
        ),
    ) {
        let records: Vec<SensorRecord> = raws
            .iter()
            .map(|&(day, min, node, sensor_idx, tenths)| SensorRecord {
                time: minute(day, min),
                node: NodeId(node),
                sensor: SensorId::from_index(sensor_idx).unwrap(),
                // One decimal digit: the precision the text format keeps.
                value: tenths.map(|t| t as f64 / 10.0),
            })
            .collect();
        assert_round_trips(&records, sensor::FORMAT, binfmt::SENSOR);
    }

    #[test]
    fn prop_corrupt_containers_quarantine_or_abort(
        n in 20usize..120,
        flip_at in 0usize..1_000_000,
        flip_bit in 0u8..8,
        cut in 1usize..10,
        mode in 0u8..2,
    ) {
        // A multi-block container, so damage can leave survivors.
        let records: Vec<CeRecord> = (0..n as i64)
            .map(|i| {
                let slot = DimmSlot::from_index((i % 16) as u8).unwrap();
                CeRecord {
                    time: minute(i / 1440, i % 1440),
                    node: NodeId(7),
                    socket: slot.socket(),
                    slot,
                    rank: RankId(0),
                    bank: 1,
                    row: None,
                    col: 3,
                    bit_pos: 5,
                    addr: PhysAddr(0x1000 + i as u64),
                    syndrome: 0xABCD,
                }
            })
            .collect();
        let mut data = Vec::from(binfmt::header_bytes(binfmt::KIND_CE, n as u64));
        for chunk in records.chunks(n / 4 + 1) {
            let mut payload = Vec::new();
            (binfmt::CE.encode)(chunk, &mut payload);
            binfmt::append_block(&mut data, &payload);
        }

        let damaged = if mode == 0 {
            // Single-bit flip anywhere past the magic: whatever it hits
            // (header CRC, framing, payload) must be caught.
            let mut d = data.clone();
            let at = 8 + flip_at % (d.len() - 8);
            d[at] ^= 1 << flip_bit;
            d
        } else {
            // Torn tail.
            data[..data.len() - cut.min(data.len() - binfmt::HEADER_LEN - 1)].to_vec()
        };

        // Strict: abort, exactly like a corrupt text log.
        let strict = drain(damaged.as_slice(), binfmt::CE, &IngestOptions::default());
        prop_assert!(strict.is_err(), "strict ingest must abort on corruption");

        // Lenient: quarantined under a binary reason, never dropped
        // silently, and survivors are a prefix-union of clean blocks.
        let (parsed, q) = drain(
            damaged.as_slice(), binfmt::CE, &IngestOptions::lenient(Some(1.0)))
            .expect("unbounded lenient ingest must not abort");
        prop_assert!(!q.is_empty(), "corruption must be quarantined");
        for reason in QuarantineReason::ALL {
            if q.count(reason) > 0 {
                prop_assert!(reason.is_binary(), "binary file, binary reason: {reason}");
            }
        }
        prop_assert!(parsed.len() <= n);
        prop_assert!(parsed.iter().all(|r| records.contains(r)),
            "lenient ingest must never invent records");
    }
}
