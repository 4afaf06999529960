//! CRC-32 (IEEE 802.3) checksums.
//!
//! Used by the streaming-analysis checkpoint format to guard each section
//! against torn writes: a crash mid-write leaves a section whose stored
//! CRC no longer matches its content, which the salvage path detects
//! without having to interpret the section. [`crc32_update`] extends a
//! CRC over more bytes, so the checkpoint codec folds each section in as
//! it streams through its buffer. The polynomial is the
//! ubiquitous reflected `0xEDB88320` so checkpoints can be checked with
//! standard tools (`python -c 'import zlib; ...'`, `cksum -o 3`, …).

/// Lazily built slicing-by-8 lookup tables for the reflected polynomial.
/// Table 0 is the classic byte-at-a-time table; table `k` advances a byte
/// through `k` further zero bytes, letting the hot loop fold eight input
/// bytes per iteration instead of one.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        for (i, slot) in tables[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        let t0 = tables[0];
        for k in 1..8 {
            let prev = tables[k - 1];
            for (slot, &p) in tables[k].iter_mut().zip(prev.iter()) {
                *slot = (p >> 8) ^ t0[usize::from(p as u8)];
            }
        }
        tables
    })
}

/// CRC-32 of `bytes` (IEEE, reflected, init/final xor `0xFFFF_FFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Extend `crc`, the CRC-32 of some earlier bytes, over `bytes`: the
/// CRC-32 of their concatenation (zlib's `crc32(value, data)`
/// convention, so `crc32_update(0, b) == crc32(b)`). Lets a writer or
/// reader checksum a section buffer by buffer, without holding it whole.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = tables();
    let mut crc = crc ^ 0xFFFF_FFFF;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][usize::from(lo as u8)]
            ^ t[6][usize::from((lo >> 8) as u8)]
            ^ t[5][usize::from((lo >> 16) as u8)]
            ^ t[4][usize::from((lo >> 24) as u8)]
            ^ t[3][usize::from(hi as u8)]
            ^ t[2][usize::from((hi >> 8) as u8)]
            ^ t[1][usize::from((hi >> 16) as u8)]
            ^ t[0][usize::from((hi >> 24) as u8)];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from((crc as u8) ^ b)];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_fold_matches_bytewise_reference() {
        // Byte-at-a-time reference against the slicing-by-8 hot loop, at
        // lengths that hit every chunk/remainder split.
        let data: Vec<u8> = (0u32..4096).map(|i| (i * 31 + 7) as u8).collect();
        for len in (0..64).chain([1000, 4095, 4096]) {
            let bytes = &data[..len];
            let t = tables();
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc = (crc >> 8) ^ t[0][usize::from((crc as u8) ^ b)];
            }
            assert_eq!(crc32(bytes), crc ^ 0xFFFF_FFFF, "len {len}");
        }
    }

    #[test]
    fn any_split_into_updates_matches_one_shot() {
        let data: Vec<u8> = (0u32..300).map(|i| (i * 131 + 17) as u8).collect();
        let whole = crc32(&data);
        // Every two-way split, then a sweep of three-way splits whose
        // pieces straddle the 8-byte fold in every alignment.
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            assert_eq!(crc32_update(crc32_update(0, a), b), whole, "cut {cut}");
        }
        for first in 0..20 {
            for second in first..first + 20 {
                let crc = crc32_update(0, &data[..first]);
                let crc = crc32_update(crc, &data[first..second]);
                let crc = crc32_update(crc, &data[second..]);
                assert_eq!(crc, whole, "cuts {first}/{second}");
            }
        }
        // Empty updates are the identity, including on the empty prefix.
        assert_eq!(crc32_update(whole, b""), whole);
        assert_eq!(crc32_update(0, b""), 0);
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(b"checkpoint section body");
        let b = crc32(b"checkpoint section bodz");
        assert_ne!(a, b);
    }
}
