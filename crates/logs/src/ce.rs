//! Correctable-error (CE) syslog records.
//!
//! The paper's published failure data carries: timestamp, node ID, socket,
//! type of failure, DIMM slot, row, rank, bank, bit position, physical
//! address and vendor-specific syndrome (§2.4). Two quirks from the paper
//! are modeled faithfully:
//!
//! * **Row is not populated** — "the system does not provide proper row
//!   information in the correctable error record passed to the syslog"
//!   (§3.2). The field exists in the format but is `-` on Astra, so the
//!   analyzer cannot classify single-row faults, exactly as in the paper.
//! * **Bit position carries extra encoding** — footnote 1 notes the bit
//!   position field "seemed to encode additional data besides the actual
//!   failed bit position", consistently. We reproduce that: the logged
//!   value is `bit | (syndrome-class << 9)`, a consistent reversible
//!   encoding the analyzer does *not* reverse (it treats bit positions as
//!   opaque labels, as the paper did).

use astra_topology::{DimmSlot, NodeId, PhysAddr, RankId, SocketId};
use astra_util::{ascii, Minute};

use crate::kv;
use crate::quarantine::{LineFormat, QuarantineReason};

/// One correctable-error record as it appears in the syslog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CeRecord {
    /// When the OS polled the error out of the hardware log.
    pub time: Minute,
    /// Node that reported the error.
    pub node: NodeId,
    /// Socket whose memory controller logged it.
    pub socket: SocketId,
    /// DIMM slot.
    pub slot: DimmSlot,
    /// Rank within the DIMM.
    pub rank: RankId,
    /// Bank within the rank.
    pub bank: u16,
    /// Row — `None` on Astra (present in the format, never populated).
    pub row: Option<u32>,
    /// Cache-line column within the row.
    pub col: u16,
    /// Bit position within the cache line, with vendor encoding in the
    /// high bits (opaque; see module docs).
    pub bit_pos: u16,
    /// Node-local physical address of the failing cache line.
    pub addr: PhysAddr,
    /// Vendor-specific syndrome word.
    pub syndrome: u32,
}

impl CeRecord {
    /// Serialize to the one-line syslog format.
    pub fn to_line(&self) -> String {
        let mut line = String::with_capacity(112);
        self.to_line_into(&mut line);
        line
    }

    /// Append the one-line syslog form to `out`, so bulk serialization can
    /// reuse one buffer instead of allocating a `String` per record.
    pub fn to_line_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        write!(
            out,
            "{} {} kernel: EDAC MC{}: CE slot={} rank={} bank={} row=",
            self.time.rfc3339(),
            self.node,
            self.socket.0,
            self.slot,
            self.rank.0,
            self.bank,
        )
        .expect("write to String cannot fail");
        match self.row {
            Some(r) => write!(out, "{r}"),
            None => write!(out, "-"),
        }
        .expect("write to String cannot fail");
        write!(
            out,
            " col={} bit={} addr={} synd={:#06x}",
            self.col,
            self.bit_pos,
            self.addr.hex(),
            self.syndrome,
        )
        .expect("write to String cannot fail");
    }

    /// Parse a line produced by [`CeRecord::to_line`], in one pass over
    /// its bytes.
    ///
    /// Returns `None` for lines that are not CE records or are corrupted.
    pub fn parse_line(line: &str) -> Option<Self> {
        let (ts, node, tail) = kv::split_line(line.as_bytes(), b"kernel")?;
        // Tail looks like: "EDAC MC0: CE slot=… rank=…".
        let (mc, rest) = ascii::lead_u64(tail.strip_prefix(b"EDAC MC")?)?;
        let rest = rest.strip_prefix(b": CE ")?;
        if mc > 1 {
            return None;
        }
        let socket = SocketId(mc as u8);
        let [slot, rank, bank, row, col, bit, addr, synd] = kv::fields(
            rest,
            &[
                b"slot", b"rank", b"bank", b"row", b"col", b"bit", b"addr", b"synd",
            ],
        );
        let slot = kv::parse_slot(slot?)?;
        // Cross-check: the slot's socket must match the reporting MC.
        if slot.socket() != socket {
            return None;
        }
        let rank: u8 = ascii::dec_uint(rank?)?;
        if rank > 1 {
            return None;
        }
        let row = match row? {
            b"-" => None,
            r => Some(ascii::dec_uint(r)?),
        };
        let syndrome = u32::try_from(ascii::hex_u64(synd?.strip_prefix(b"0x")?)?).ok()?;
        Some(CeRecord {
            time: Minute::parse_rfc3339(ts)?,
            node: NodeId(kv::parse_node(node)?),
            socket,
            slot,
            rank: RankId(rank),
            bank: ascii::dec_uint(bank?)?,
            row,
            col: ascii::dec_uint(col?)?,
            bit_pos: ascii::dec_uint(bit?)?,
            addr: PhysAddr::parse_hex(addr?)?,
            syndrome,
        })
    }

    /// Classify a line [`CeRecord::parse_line`] rejected.
    ///
    /// Heuristic, like any post-hoc triage of corrupt text: a line
    /// carrying the `EDAC MC` marker is one of ours — if every required
    /// token is still present the values must be bad
    /// ([`QuarantineReason::FieldOutOfRange`]), otherwise the line lost
    /// its tail ([`QuarantineReason::Truncated`]). Lines without the
    /// marker are foreign ([`QuarantineReason::UnknownFormat`]).
    pub fn classify_bad_line(line: &str) -> QuarantineReason {
        if !line.contains("EDAC MC") {
            return QuarantineReason::UnknownFormat;
        }
        const REQUIRED: [&str; 9] = [
            ": CE ", "slot=", "rank=", "bank=", "row=", "col=", "bit=", "addr=", "synd=",
        ];
        if REQUIRED.iter().all(|m| line.contains(m)) {
            QuarantineReason::FieldOutOfRange
        } else {
            QuarantineReason::Truncated
        }
    }

    /// The raw failed-bit position with the vendor encoding stripped
    /// (bits 0–8: bit within the 512-bit cache line).
    ///
    /// The analyzer does not use this — per the paper the encoding was not
    /// deciphered — but the simulator tests use it to validate that the
    /// encoding is consistent and reversible.
    pub fn decoded_bit(&self) -> u16 {
        self.bit_pos & 0x1FF
    }
}

fn order_key(r: &CeRecord) -> i64 {
    r.time.0
}

/// Ingest descriptor for `ce.log`: time-sorted, one record per line.
pub const FORMAT: LineFormat<CeRecord> = LineFormat {
    parse: CeRecord::parse_line,
    classify: CeRecord::classify_bad_line,
    order_key: Some(order_key),
};

#[cfg(test)]
mod tests {
    use super::*;
    use astra_util::CalDate;
    use proptest::prelude::*;

    fn sample() -> CeRecord {
        CeRecord {
            time: CalDate::new(2019, 3, 4).midnight().plus(721),
            node: NodeId(123),
            socket: SocketId(0),
            slot: DimmSlot::from_letter('E').unwrap(),
            rank: RankId(1),
            bank: 3,
            row: None,
            col: 17,
            bit_pos: 133,
            addr: PhysAddr(0xABC0),
            syndrome: 0x1A2B,
        }
    }

    #[test]
    fn line_roundtrip() {
        let rec = sample();
        let line = rec.to_line();
        assert_eq!(CeRecord::parse_line(&line), Some(rec));
    }

    #[test]
    fn line_shape_is_stable() {
        assert_eq!(
            sample().to_line(),
            "2019-03-04T12:01:00 node0123 kernel: EDAC MC0: CE slot=E rank=1 \
             bank=3 row=- col=17 bit=133 addr=0x000000abc0 synd=0x1a2b"
        );
    }

    #[test]
    fn row_roundtrip_when_present() {
        let rec = CeRecord {
            row: Some(4321),
            ..sample()
        };
        assert_eq!(CeRecord::parse_line(&rec.to_line()), Some(rec));
    }

    #[test]
    fn rejects_non_ce_lines() {
        assert_eq!(CeRecord::parse_line(""), None);
        assert_eq!(
            CeRecord::parse_line("2019-03-04T12:01:00 node0001 BMC: sensor=cpu0 value=55"),
            None
        );
        assert_eq!(
            CeRecord::parse_line("2019-03-04T12:01:00 node0001 kernel: something else"),
            None
        );
    }

    #[test]
    fn rejects_socket_slot_mismatch() {
        // Slot E is socket 0; claim it came from MC1.
        let line = sample().to_line().replace("MC0", "MC1");
        assert_eq!(CeRecord::parse_line(&line), None);
    }

    #[test]
    fn rejects_corrupt_fields() {
        let good = sample().to_line();
        for (from, to) in [
            ("rank=1", "rank=7"),
            ("addr=0x000000abc0", "addr=bogus"),
            ("bit=133", "bit=xyz"),
            ("slot=E", "slot=Z"),
            ("2019-", "10000-"),
            ("2019-", "999999999999999999-"),
        ] {
            let bad = good.replace(from, to);
            assert_eq!(CeRecord::parse_line(&bad), None, "line: {bad}");
        }
    }

    #[test]
    fn classifier_taxonomy() {
        let good = sample().to_line();
        // Lost tail: required tokens missing.
        assert_eq!(
            CeRecord::classify_bad_line(&good[..good.len() - 20]),
            QuarantineReason::Truncated
        );
        // All tokens present, a value is garbage.
        assert_eq!(
            CeRecord::classify_bad_line(&good.replace("rank=1", "rank=7")),
            QuarantineReason::FieldOutOfRange
        );
        // Not one of ours at all.
        assert_eq!(
            CeRecord::classify_bad_line("Mar  4 12:01:00 host sshd[22]: session opened"),
            QuarantineReason::UnknownFormat
        );
    }

    #[test]
    fn decoded_bit_strips_encoding() {
        let rec = CeRecord {
            bit_pos: 0b1100_1000_0101,
            ..sample()
        };
        assert_eq!(rec.decoded_bit(), 0b0_1000_0101);
    }

    /// Differential: the byte parser against the `str` parser it replaced,
    /// on lines of each shape the writer emits and on every mutation
    /// and structured variant of them (see `crate::oracle`).
    #[test]
    fn matches_the_oracle_on_a_mutation_corpus() {
        let bases: Vec<String> = [
            sample(),
            CeRecord {
                time: CalDate::new(2020, 2, 29).midnight().plus(23 * 60 + 59),
                node: NodeId(2591),
                socket: SocketId(1),
                slot: DimmSlot::from_letter('P').unwrap(),
                rank: RankId(0),
                bank: 15,
                row: Some(65535),
                col: 127,
                bit_pos: 4095,
                addr: PhysAddr(0x1f_ffff_ffc0),
                syndrome: 0xffff,
            },
            CeRecord {
                time: CalDate::new(2019, 4, 30).midnight(),
                slot: DimmSlot::from_letter('A').unwrap(),
                addr: PhysAddr(0),
                syndrome: 0,
                ..sample()
            },
        ]
        .iter()
        .map(CeRecord::to_line)
        .collect();
        let (checked, refused) = crate::oracle::check_corpus(
            &bases,
            CeRecord::parse_line,
            crate::oracle::parse_ce,
            PartialEq::eq,
        );
        assert!(
            checked > 100_000 && refused > 0,
            "{checked} lines, {refused} refused"
        );
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            minutes in 0i64..(366 * 24 * 60),
            node in 0u32..2592,
            slot_idx in 0u8..16,
            rank in 0u8..2,
            bank in 0u16..16,
            col in 0u16..128,
            bit in 0u16..4096,
            addr in 0u64..(1u64 << 37),
            synd in 0u32..0x10000,
        ) {
            let slot = DimmSlot::from_index(slot_idx).unwrap();
            let rec = CeRecord {
                time: Minute::from_i64(minutes),
                node: NodeId(node),
                socket: slot.socket(),
                slot,
                rank: RankId(rank),
                bank,
                row: None,
                col,
                bit_pos: bit,
                addr: PhysAddr(addr),
                syndrome: synd,
            };
            prop_assert_eq!(CeRecord::parse_line(&rec.to_line()), Some(rec));
        }
    }
}
