//! Property fuzz for the ingest path: random byte mutations of valid log
//! lines, fed through the real chunked reader, must either parse or land
//! in a typed quarantine bucket — never panic, and never vanish: every
//! non-blank line is accounted for as exactly one record or one
//! quarantined line, at any chunk size, for all four log formats.

use std::io::Cursor;

use astra_logs::chaos::FailingReader;
use astra_logs::io::ChunkReader;
use astra_logs::{ce, het, inventory, sensor, LineFormat, RetryPolicy};
use proptest::prelude::*;

/// One known-good line per format (the `to_line` shapes the parsers'
/// own unit tests pin down).
const CE_LINE: &str = "2019-03-04T12:01:00 node0123 kernel: EDAC MC0: CE slot=E rank=1 \
                       bank=3 row=- col=17 bit=133 addr=0x000000abc0 synd=0x1a2b";
const HET_LINE: &str =
    "2019-08-25T03:10:00 node0012 HET: event=uncorrectableECC severity=NON-RECOVERABLE slot=D";
const INV_LINE: &str = "2019-02-18 node0005 inventory: component=dimm slot=J";
const SENSOR_LINE: &str = "2019-05-20T00:00:00 node0001 BMC: sensor=power value=312.5";

/// Overwrite bytes of `base` at the given (wrapped) positions. Mutations
/// may hit newlines — joining lines is corruption too.
fn mutate(base: &[u8], edits: &[(usize, u8)]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    for &(pos, val) in edits {
        let i = pos % bytes.len();
        bytes[i] = val;
    }
    bytes
}

/// The number of lines the ingest contract must account for: split on
/// `\n`, strip one trailing `\r`, skip valid-UTF-8 whitespace-only
/// segments (invalid UTF-8 is never blank — it quarantines).
fn nonblank_lines(buf: &[u8]) -> u64 {
    buf.split(|&b| b == b'\n')
        .filter(|seg| {
            let seg = if let [head @ .., b'\r'] = seg {
                head
            } else {
                seg
            };
            std::str::from_utf8(seg).map_or(true, |s| !s.trim().is_empty())
        })
        .count() as u64
}

/// Drain a reader through `ChunkReader`, returning
/// `(records, quarantined, lines)` (lines consumed, blank ones included).
fn drain<R: std::io::Read, T: Send>(
    reader: R,
    format: LineFormat<T>,
    chunk_bytes: usize,
    retry: RetryPolicy,
) -> (u64, u64, u64) {
    let mut reader = ChunkReader::new(reader, format, chunk_bytes).with_retry(retry);
    let mut records = 0u64;
    let mut quarantined = 0u64;
    loop {
        match reader.next_chunk() {
            Ok(Some(chunk)) => {
                records += chunk.records.len() as u64;
                quarantined += chunk.quarantine.total();
            }
            Ok(None) => break,
            Err(e) => panic!("in-memory ingest must not fail: {e}"),
        }
    }
    (records, quarantined, reader.point().lines)
}

/// The core property: parse-or-quarantine, nothing lost, nothing extra.
fn assert_accounted<T: Send>(buf: &[u8], format: LineFormat<T>, chunk_bytes: usize) {
    let expected = nonblank_lines(buf);
    let (records, quarantined, lines) = drain(
        Cursor::new(buf.to_vec()),
        format,
        chunk_bytes,
        RetryPolicy::default(),
    );
    assert_eq!(
        records + quarantined,
        expected,
        "records {records} + quarantined {quarantined} != {expected} non-blank lines \
         (chunk_bytes {chunk_bytes}, buffer {:?})",
        String::from_utf8_lossy(buf)
    );
    assert_eq!(
        lines,
        buf.split(|&b| b == b'\n').count() as u64 - u64::from(buf.last() == Some(&b'\n')),
        "the reader's line count must count every physical line"
    );
}

/// Apply the property to one format: a buffer of valid lines, mutated.
fn check_format<T: Send>(
    line: &str,
    format: LineFormat<T>,
    copies: usize,
    edits: &[(usize, u8)],
    chunk_bytes: usize,
) {
    let mut base = Vec::new();
    for _ in 0..copies {
        base.extend_from_slice(line.as_bytes());
        base.push(b'\n');
    }
    let buf = mutate(&base, edits);
    assert_accounted(&buf, format, chunk_bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn prop_mutated_ce_lines_parse_or_quarantine(
        copies in 1usize..6,
        edits in proptest::collection::vec((0usize..4096, 0u32..256), 1..8),
        chunk_bytes in 1usize..192,
    ) {
        let edits: Vec<(usize, u8)> = edits.iter().map(|&(p, v)| (p, v as u8)).collect();
        check_format(CE_LINE, ce::FORMAT, copies, &edits, chunk_bytes);
    }

    #[test]
    fn prop_mutated_het_lines_parse_or_quarantine(
        copies in 1usize..6,
        edits in proptest::collection::vec((0usize..4096, 0u32..256), 1..8),
        chunk_bytes in 1usize..192,
    ) {
        let edits: Vec<(usize, u8)> = edits.iter().map(|&(p, v)| (p, v as u8)).collect();
        check_format(HET_LINE, het::FORMAT, copies, &edits, chunk_bytes);
    }

    #[test]
    fn prop_mutated_inventory_lines_parse_or_quarantine(
        copies in 1usize..6,
        edits in proptest::collection::vec((0usize..4096, 0u32..256), 1..8),
        chunk_bytes in 1usize..192,
    ) {
        let edits: Vec<(usize, u8)> = edits.iter().map(|&(p, v)| (p, v as u8)).collect();
        check_format(INV_LINE, inventory::FORMAT, copies, &edits, chunk_bytes);
    }

    #[test]
    fn prop_mutated_sensor_lines_parse_or_quarantine(
        copies in 1usize..6,
        edits in proptest::collection::vec((0usize..4096, 0u32..256), 1..8),
        chunk_bytes in 1usize..192,
    ) {
        let edits: Vec<(usize, u8)> = edits.iter().map(|&(p, v)| (p, v as u8)).collect();
        check_format(SENSOR_LINE, sensor::FORMAT, copies, &edits, chunk_bytes);
    }

    #[test]
    fn prop_flaky_reads_change_nothing(
        seed in 0u64..1_000_000,
        edits in proptest::collection::vec((0usize..4096, 0u32..256), 0..6),
        chunk_bytes in 1usize..128,
    ) {
        // A flaky transport (transient errors + short reads) under the
        // bounded retry policy must yield byte-for-byte the same ingest
        // as a perfect read of the same mutated buffer.
        let edits: Vec<(usize, u8)> = edits.iter().map(|&(p, v)| (p, v as u8)).collect();
        let mut base = Vec::new();
        for _ in 0..4 {
            base.extend_from_slice(CE_LINE.as_bytes());
            base.push(b'\n');
        }
        let buf = mutate(&base, &edits);
        // Zero backoff: FailingReader bounds consecutive failures below
        // the retry budget, so sleeping would only slow the test down.
        let retry = RetryPolicy { max_retries: 4, backoff_base_ms: 0 };
        let direct = drain(Cursor::new(buf.clone()), ce::FORMAT, chunk_bytes, retry);
        let flaky = drain(
            FailingReader::new(Cursor::new(buf), seed),
            ce::FORMAT,
            chunk_bytes,
            retry,
        );
        prop_assert_eq!(direct, flaky);
    }
}
