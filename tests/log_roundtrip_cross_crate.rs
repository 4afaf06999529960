//! Integration: log formats across crates — mixed logs, corruption, and
//! property-based roundtrips at the integration boundary.

use astra_core::pipeline::{AnalysisInput, Dataset, Log};
use astra_logs::{
    ce, het, inventory, io as logio, sensor, CeRecord, Component, HetKind, HetRecord, HetSeverity,
    IngestOptions, LineFormat, Quarantine, ReplacementRecord, SensorRecord,
};
use astra_topology::{NodeId, SensorId};
use astra_util::time::sensor_span;
use proptest::prelude::*;

/// The `str` parsers that the one-pass byte parsers replaced, kept by
/// `astra-logs` as their test oracle; it takes the record types from
/// the imports above.
#[path = "../crates/logs/src/oracle.rs"]
mod oracle;

/// Parse `text` as one log of `format`, quarantining (not refusing)
/// whatever does not parse.
fn parse<T: Send>(text: &str, format: LineFormat<T>) -> (Vec<T>, Quarantine) {
    let tolerant = IngestOptions::lenient(Some(1.0));
    let mut reader = logio::ChunkReader::new(text.as_bytes(), format, logio::STREAM_CHUNK_BYTES);
    logio::read_to_end(&tolerant, || reader.next_chunk()).unwrap()
}

#[test]
fn mixed_log_file_separates_cleanly() {
    // A single interleaved "syslog" with all record kinds: each parser
    // must extract exactly its own lines.
    let ds = Dataset::generate(1, 7);
    let telemetry_records = ds.telemetry.records(
        [NodeId(0), NodeId(1)],
        astra_util::time::TimeSpan::new(sensor_span().start, sensor_span().start.plus(30)),
        10,
    );

    let mut mixed = String::new();
    let ce_count = ds.sim.ce_log.len().min(500);
    for rec in ds.sim.ce_log.iter().take(ce_count) {
        mixed.push_str(&rec.to_line());
        mixed.push('\n');
    }
    for rec in &ds.sim.het_log {
        mixed.push_str(&rec.to_line());
        mixed.push('\n');
    }
    for rec in &telemetry_records {
        mixed.push_str(&rec.to_line());
        mixed.push('\n');
    }
    for rec in ds.replacements.iter().take(100) {
        mixed.push_str(&rec.to_line());
        mixed.push('\n');
    }
    mixed.push_str("garbage line that parses as nothing\n\n");

    let (ces, _) = parse(&mixed, ce::FORMAT);
    let (hets, _) = parse(&mixed, het::FORMAT);
    let (sensors, _) = parse(&mixed, sensor::FORMAT);
    let (invs, _) = parse(&mixed, inventory::FORMAT);

    assert_eq!(ces, ds.sim.ce_log[..ce_count]);
    assert_eq!(hets, ds.sim.het_log);
    // Sensor values round to one decimal on write; the records line up.
    assert_eq!(sensors.len(), telemetry_records.len());
    assert_eq!(invs, ds.replacements[..100.min(ds.replacements.len())]);
}

#[test]
fn truncated_log_degrades_gracefully() {
    // Chop the CE log mid-line: the damaged line is skipped, everything
    // before it parses.
    let ds = Dataset::generate(1, 9);
    let ce: String = ds.sim.ce_log.iter().map(|r| r.to_line() + "\n").collect();
    let cut = ce.len() * 2 / 3;
    // Find a safe UTF-8 boundary.
    let mut cut = cut;
    while !ce.is_char_boundary(cut) {
        cut -= 1;
    }
    let truncated = &ce[..cut];
    let full_lines = truncated.lines().count().saturating_sub(1);
    let (parsed, quarantine) = parse(truncated, ce::FORMAT);
    assert!(parsed.len() >= full_lines);
    assert!(quarantine.total() <= 1);
}

#[test]
fn every_line_of_a_two_rack_dataset_parses_as_the_oracle_does() {
    let ds = Dataset::generate(2, 5);
    let dir = std::env::temp_dir().join(format!("astra-oracle-{}", std::process::id()));
    ds.write_logs(&dir).unwrap();
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap();
    let (ce, het, inv, sensors) = (
        read("ce.log"),
        read("het.log"),
        read("inventory.log"),
        read("sensors.log"),
    );
    std::fs::remove_dir_all(&dir).ok();
    fn check_all<T: std::fmt::Debug>(
        text: &str,
        format: LineFormat<T>,
        oracle: fn(&str) -> Option<T>,
        same: fn(&T, &T) -> bool,
    ) -> usize {
        for line in text.lines() {
            assert!(!oracle::check_line(line, format.parse, oracle, same));
        }
        text.lines().count()
    }
    let sensor_bits = |a: &SensorRecord, b: &SensorRecord| {
        (a.time, a.node, a.sensor) == (b.time, b.node, b.sensor)
            && a.value.map(f64::to_bits) == b.value.map(f64::to_bits)
    };
    let counts = [
        check_all(&ce, ce::FORMAT, oracle::parse_ce, PartialEq::eq),
        check_all(&het, het::FORMAT, oracle::parse_het, PartialEq::eq),
        check_all(
            &inv,
            inventory::FORMAT,
            oracle::parse_inventory,
            PartialEq::eq,
        ),
        check_all(&sensors, sensor::FORMAT, oracle::parse_sensor, sensor_bits),
    ];
    assert_eq!(counts[0], ds.sim.ce_log.len());
    assert_eq!(counts[2], ds.replacements.len());
    assert!(counts.iter().all(|&n| n > 0), "{counts:?}");
}

#[test]
fn analysis_input_counts_skips_across_logs() {
    use std::io::Write as _;
    let ds = Dataset::generate(1, 11);
    let dir = std::env::temp_dir().join(format!("astra-skips-{}", std::process::id()));
    ds.write_logs(&dir).unwrap();
    for name in ["ce.log", "het.log", "inventory.log"] {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(name))
            .unwrap();
        writeln!(f, "broken {name}").unwrap();
    }
    let input = AnalysisInput::from_dir_with(&dir, &IngestOptions::lenient(Some(1.0)), &Log::ALL);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(input.unwrap().quarantine.total(), 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_sensor_line_roundtrip(
        node in 0u32..2592,
        sensor_idx in 0u8..7,
        minutes in 0i64..(300 * 1440),
        raw in proptest::option::of(0u32..6000),
    ) {
        let rec = SensorRecord {
            time: astra_util::Minute::from_i64(minutes),
            node: NodeId(node),
            sensor: SensorId::from_index(sensor_idx).unwrap(),
            // One decimal place, as the format emits.
            value: raw.map(|v| f64::from(v) / 10.0),
        };
        prop_assert_eq!(SensorRecord::parse_line(&rec.to_line()), Some(rec));
    }

    #[test]
    fn prop_random_lines_never_panic_parsers(line in "\\PC{0,120}") {
        // Fuzz: arbitrary printable junk must be rejected, not panic.
        let _ = CeRecord::parse_line(&line);
        let _ = HetRecord::parse_line(&line);
        let _ = SensorRecord::parse_line(&line);
        let _ = ReplacementRecord::parse_line(&line);
    }

    #[test]
    fn prop_near_miss_lines_never_panic(
        ts in "2019-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:00",
        node in "node[0-9]{1,6}",
        tail in "[a-zA-Z0-9=: xX-]{0,60}",
        date in "2019-0[1-9]-[23][0-9]",
    ) {
        // Lines that look like records but have corrupted fields.
        let line = format!("{ts} {node} kernel: EDAC MC0: CE {tail}");
        let _ = CeRecord::parse_line(&line);
        let line = format!("{ts} {node} HET: {tail}");
        let _ = HetRecord::parse_line(&line);
        let line = format!("{ts} {node} BMC: {tail}");
        let _ = SensorRecord::parse_line(&line);
        // Month ends, including days the month lacks (`2019-02-30`).
        let line = format!("{date} {node} inventory: component=motherboard");
        let _ = ReplacementRecord::parse_line(&line);
        let line = format!("{date} {node} inventory: {tail}");
        let _ = ReplacementRecord::parse_line(&line);
    }
}
