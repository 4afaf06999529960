//! DRAM device geometry and the physical-address codec.
//!
//! Astra's DIMMs are 8 GB DDR4-2666 dual-rank RDIMMs. We model each rank as
//! 16 banks × 32,768 rows × 128 cacheline-columns of 64-byte lines, which
//! reproduces the structural levels the paper analyzes (rank, bank, column,
//! row, word, bit) without tracking the device-internal x8 chip layout —
//! SEC-DED operates on 64-bit words with 8 check bits, so the word is the
//! smallest unit an error record names, plus the failed bit position within
//! the cache line.
//!
//! The codec packs a [`DramCoord`] into the node-local physical address the
//! CE record reports, in a fixed bit layout:
//!
//! ```text
//!   bit  0..6    byte offset within the 64-byte cache line (0 in CE records)
//!   bit  6..13   column (cache line within the row)
//!   bit 13..17   bank
//!   bit 17..32   row
//!   bit 32..33   rank
//!   bit 33..36   memory channel within the socket
//!   bit 36..37   socket
//! ```
//!
//! Real memory controllers interleave these bits differently, but any fixed
//! bijection preserves the analyses: what matters is that the analyzer can
//! recover the DRAM coordinate the simulator injected.

use crate::ids::{DimmSlot, RankId, SocketId};

/// Geometry of one DRAM rank as modeled in this workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramGeometry {
    /// Banks per rank.
    pub banks: u32,
    /// Rows per bank.
    pub rows: u32,
    /// Cache-line columns per row.
    pub cols: u32,
    /// Data bits per ECC word.
    pub word_bits: u32,
    /// Bits per cache line (the unit the CE record's bit position indexes).
    pub cacheline_bits: u32,
}

impl DramGeometry {
    /// The geometry used throughout the workspace for Astra's DIMMs.
    pub const ASTRA: DramGeometry = DramGeometry {
        banks: 16,
        rows: 32_768,
        cols: 128,
        word_bits: 64,
        cacheline_bits: 512,
    };

    /// ECC words per cache line.
    pub fn words_per_line(&self) -> u32 {
        self.cacheline_bits / self.word_bits
    }
}

/// A full DRAM coordinate within one node: slot (socket + channel), rank,
/// bank, row, and column. This is the granularity at which faults live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DramCoord {
    /// DIMM slot (determines socket and channel).
    pub slot: DimmSlot,
    /// Rank within the DIMM.
    pub rank: RankId,
    /// Bank within the rank.
    pub bank: u16,
    /// Row within the bank.
    pub row: u32,
    /// Cache-line column within the row.
    pub col: u16,
}

impl DramCoord {
    /// The socket this coordinate's channel belongs to.
    pub fn socket(&self) -> SocketId {
        self.slot.socket()
    }

    /// Encode into a node-local physical address (cache-line aligned).
    pub fn encode(&self, geom: &DramGeometry) -> PhysAddr {
        debug_assert!(u32::from(self.bank) < geom.banks);
        debug_assert!(self.row < geom.rows);
        debug_assert!(u32::from(self.col) < geom.cols);
        let mut addr: u64 = 0;
        addr |= u64::from(self.col) << 6;
        addr |= u64::from(self.bank) << 13;
        addr |= u64::from(self.row) << 17;
        addr |= u64::from(self.rank.0) << 32;
        addr |= u64::from(self.slot.channel()) << 33;
        addr |= u64::from(self.slot.socket().0) << 36;
        PhysAddr(addr)
    }

    /// Decode a node-local physical address back to a DRAM coordinate.
    ///
    /// Returns `None` if any field exceeds the geometry (e.g. a corrupted
    /// log line).
    pub fn decode(addr: PhysAddr, geom: &DramGeometry) -> Option<Self> {
        let a = addr.0;
        let col = ((a >> 6) & 0x7F) as u16;
        let bank = ((a >> 13) & 0xF) as u16;
        let row = ((a >> 17) & 0x7FFF) as u32;
        let rank = ((a >> 32) & 0x1) as u8;
        let channel = ((a >> 33) & 0x7) as u8;
        let socket = ((a >> 36) & 0x1) as u8;
        if a >> 37 != 0 {
            return None;
        }
        if u32::from(col) >= geom.cols || u32::from(bank) >= geom.banks || row >= geom.rows {
            return None;
        }
        let slot = DimmSlot::from_index(socket * 8 + channel)?;
        Some(DramCoord {
            slot,
            rank: RankId(rank),
            bank,
            row,
            col,
        })
    }

    /// The same coordinate with a different column (used when a fault spans
    /// a row) — debug-asserts the column is in range.
    #[must_use]
    pub fn with_col(mut self, col: u16, geom: &DramGeometry) -> Self {
        debug_assert!(u32::from(col) < geom.cols);
        self.col = col;
        self
    }

    /// The same coordinate with a different row (used when a fault spans a
    /// column or bank).
    #[must_use]
    pub fn with_row(mut self, row: u32, geom: &DramGeometry) -> Self {
        debug_assert!(row < geom.rows);
        self.row = row;
        self
    }
}

/// Node-local physical address as reported in a CE record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// Format as the `0x…` hex string used in log records.
    pub fn hex(self) -> String {
        format!("{:#012x}", self.0)
    }

    /// Parse a `0x…` hex string (`0X` too; the digits as
    /// `u64::from_str_radix` reads them).
    pub fn parse_hex(s: impl AsRef<[u8]>) -> Option<Self> {
        let s = s.as_ref();
        let digits = s.strip_prefix(b"0x").or_else(|| s.strip_prefix(b"0X"))?;
        astra_util::ascii::hex_u64(digits).map(PhysAddr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const GEOM: DramGeometry = DramGeometry::ASTRA;

    #[test]
    fn astra_geometry_capacity_is_8gb_per_dimm() {
        // 2 ranks x banks x rows x cols x 64 bytes == 8 GiB.
        let per_rank = u64::from(GEOM.banks) * u64::from(GEOM.rows) * u64::from(GEOM.cols) * 64;
        assert_eq!(2 * per_rank, 8 * 1024 * 1024 * 1024);
    }

    #[test]
    fn words_per_line() {
        assert_eq!(GEOM.words_per_line(), 8);
    }

    #[test]
    fn encode_decode_roundtrip_corners() {
        for slot in DimmSlot::all() {
            for rank in RankId::ALL {
                let coord = DramCoord {
                    slot,
                    rank,
                    bank: 15,
                    row: 32_767,
                    col: 127,
                };
                let addr = coord.encode(&GEOM);
                assert_eq!(DramCoord::decode(addr, &GEOM), Some(coord));
            }
        }
    }

    #[test]
    fn decode_rejects_out_of_range() {
        // Bits above the codec's 38-bit space must be rejected.
        assert_eq!(DramCoord::decode(PhysAddr(1 << 37), &GEOM), None);
        assert_eq!(DramCoord::decode(PhysAddr(u64::MAX), &GEOM), None);
    }

    #[test]
    fn hex_roundtrip() {
        let a = PhysAddr(0x1234_ABCD);
        assert_eq!(PhysAddr::parse_hex(a.hex()), Some(a));
        assert_eq!(PhysAddr::parse_hex("garbage"), None);
        assert_eq!(PhysAddr::parse_hex("0xZZZ"), None);
        // The digits follow `u64::from_str_radix`: either case, a `+`.
        assert_eq!(PhysAddr::parse_hex("0X1f"), Some(PhysAddr(0x1f)));
        assert_eq!(PhysAddr::parse_hex("0x+1F"), Some(PhysAddr(0x1f)));
        assert_eq!(PhysAddr::parse_hex("0x"), None);
        assert_eq!(PhysAddr::parse_hex("0x10000000000000000"), None);
    }

    #[test]
    fn socket_bit_matches_slot() {
        let coord = DramCoord {
            slot: DimmSlot::from_letter('K').unwrap(),
            rank: RankId(0),
            bank: 0,
            row: 0,
            col: 0,
        };
        let addr = coord.encode(&GEOM);
        // Slot K is on socket 1: bit 36 set.
        assert_eq!((addr.0 >> 36) & 1, 1);
        assert_eq!(coord.socket(), SocketId(1));
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            slot_idx in 0u8..16,
            rank in 0u8..2,
            bank in 0u16..16,
            row in 0u32..32_768,
            col in 0u16..128,
        ) {
            let coord = DramCoord {
                slot: DimmSlot::from_index(slot_idx).unwrap(),
                rank: RankId(rank),
                bank,
                row,
                col,
            };
            let addr = coord.encode(&GEOM);
            prop_assert_eq!(DramCoord::decode(addr, &GEOM), Some(coord));
        }

        #[test]
        fn prop_encode_is_injective(
            a in (0u8..16, 0u8..2, 0u16..16, 0u32..32_768, 0u16..128),
            b in (0u8..16, 0u8..2, 0u16..16, 0u32..32_768, 0u16..128),
        ) {
            let make = |(s, r, bk, rw, c): (u8, u8, u16, u32, u16)| DramCoord {
                slot: DimmSlot::from_index(s).unwrap(),
                rank: RankId(r),
                bank: bk,
                row: rw,
                col: c,
            };
            let ca = make(a);
            let cb = make(b);
            if ca != cb {
                prop_assert_ne!(ca.encode(&GEOM), cb.encode(&GEOM));
            }
        }
    }
}
