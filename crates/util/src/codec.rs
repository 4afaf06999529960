//! Varint / zigzag / delta column codecs.
//!
//! The column codecs of the binary log format (`astra-logs::binfmt`):
//! LEB128-style unsigned varints, zigzag mapping for signed values, and
//! delta encoding for sorted-ish integer columns (timestamps, day
//! indices) where consecutive differences are small and compress to one
//! or two bytes each.
//!
//! All readers take `(&[u8], &mut usize)` cursors and return `Option` —
//! `None` means the buffer ended mid-value or a varint overran 64 bits.
//! Decoders never panic on malformed input; the caller (a CRC-verified
//! block reader) treats `None` as corruption.

/// Append `v` as an LEB128 unsigned varint (1–10 bytes).
pub fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read an LEB128 unsigned varint at `*pos`, advancing the cursor.
///
/// Returns `None` on a truncated buffer or a varint longer than ten
/// bytes (i.e. one that does not fit in 64 bits).
pub fn read_uvarint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos)?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return None; // would overflow 64 bits
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Zigzag-map a signed value to unsigned so small magnitudes (of either
/// sign) get short varints: 0, -1, 1, -2, ... → 0, 1, 2, 3, ...
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append `v` as a zigzag varint.
pub fn write_ivarint(out: &mut Vec<u8>, v: i64) {
    write_uvarint(out, zigzag(v));
}

/// Read a zigzag varint at `*pos`.
pub fn read_ivarint(buf: &[u8], pos: &mut usize) -> Option<i64> {
    read_uvarint(buf, pos).map(unzigzag)
}

/// Delta-encode a column of signed values: each element is written as a
/// zigzag varint of its difference from the previous element (the first
/// from `base`). Sorted columns of nearby values collapse to ~1 byte per
/// element; out-of-order values still round-trip via negative deltas.
pub fn write_deltas(out: &mut Vec<u8>, base: i64, values: &[i64]) {
    let mut prev = base;
    for &v in values {
        write_ivarint(out, v.wrapping_sub(prev));
        prev = v;
    }
}

/// Decode `n` delta-encoded values written by [`write_deltas`] with the
/// same `base`. Returns `None` on truncation or varint overflow.
pub fn read_deltas(buf: &[u8], pos: &mut usize, base: i64, n: usize) -> Option<Vec<i64>> {
    let mut out = Vec::with_capacity(n);
    let mut prev = base;
    for _ in 0..n {
        prev = prev.wrapping_add(read_ivarint(buf, pos)?);
        out.push(prev);
    }
    Some(out)
}

/// Append a little-endian `u16`.
pub fn write_u16_le(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u32`.
pub fn write_u32_le(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn write_u64_le(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Read a little-endian `u16` at `*pos`.
pub fn read_u16_le(buf: &[u8], pos: &mut usize) -> Option<u16> {
    let b = buf.get(*pos..*pos + 2)?;
    *pos += 2;
    Some(u16::from_le_bytes([b[0], b[1]]))
}

/// Read a little-endian `u32` at `*pos`.
pub fn read_u32_le(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let b = buf.get(*pos..*pos + 4)?;
    *pos += 4;
    Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// Read a little-endian `u64` at `*pos`.
pub fn read_u64_le(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let b = buf.get(*pos..*pos + 8)?;
    *pos += 8;
    Some(u64::from_le_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]))
}

/// Append a presence bitmap for an `Option` column: bit `i` of byte
/// `i / 8` is set when element `i` is `Some`. `ceil(n / 8)` bytes.
pub fn write_presence<T>(out: &mut Vec<u8>, values: &[Option<T>]) {
    let mut byte = 0u8;
    for (i, v) in values.iter().enumerate() {
        if v.is_some() {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if !values.len().is_multiple_of(8) {
        out.push(byte);
    }
}

/// Read a presence bitmap for `n` elements written by [`write_presence`],
/// returning one `bool` per element.
pub fn read_presence(buf: &[u8], pos: &mut usize, n: usize) -> Option<Vec<bool>> {
    let bytes = n.div_ceil(8);
    let bits = buf.get(*pos..*pos + bytes)?;
    *pos += bytes;
    Some((0..n).map(|i| bits[i / 8] & (1 << (i % 8)) != 0).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uvarint_roundtrip(v: u64) -> usize {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, v);
        let mut pos = 0;
        assert_eq!(read_uvarint(&buf, &mut pos), Some(v), "value {v:#x}");
        assert_eq!(pos, buf.len(), "cursor must land at end for {v:#x}");
        buf.len()
    }

    #[test]
    fn uvarint_boundaries() {
        assert_eq!(uvarint_roundtrip(0), 1);
        assert_eq!(uvarint_roundtrip(0x7F), 1);
        assert_eq!(uvarint_roundtrip(0x80), 2);
        assert_eq!(uvarint_roundtrip(0x3FFF), 2);
        assert_eq!(uvarint_roundtrip(0x4000), 3);
        assert_eq!(uvarint_roundtrip(u64::from(u32::MAX)), 5);
        assert_eq!(uvarint_roundtrip(u64::MAX - 1), 10);
        assert_eq!(uvarint_roundtrip(u64::MAX), 10);
    }

    #[test]
    fn uvarint_rejects_truncation() {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert_eq!(read_uvarint(&buf[..cut], &mut pos), None, "cut {cut}");
        }
    }

    #[test]
    fn uvarint_rejects_overflow() {
        // Eleven continuation bytes can never be a valid u64.
        let buf = [0xFFu8; 11];
        let mut pos = 0;
        assert_eq!(read_uvarint(&buf, &mut pos), None);
        // Ten bytes whose top byte carries more than the single
        // remaining bit also overflow.
        let mut buf = vec![0x80u8; 9];
        buf.push(0x02);
        let mut pos = 0;
        assert_eq!(read_uvarint(&buf, &mut pos), None);
    }

    #[test]
    fn zigzag_boundaries() {
        for v in [0i64, -1, 1, -2, 2, i64::MAX, i64::MIN, i64::MIN + 1] {
            assert_eq!(unzigzag(zigzag(v)), v, "value {v}");
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(i64::MIN), u64::MAX);
    }

    #[test]
    fn ivarint_roundtrip_extremes() {
        for v in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX] {
            let mut buf = Vec::new();
            write_ivarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_ivarint(&buf, &mut pos), Some(v), "value {v}");
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn deltas_empty_column() {
        let mut buf = Vec::new();
        write_deltas(&mut buf, 0, &[]);
        assert!(buf.is_empty(), "empty column writes no bytes");
        let mut pos = 0;
        assert_eq!(read_deltas(&buf, &mut pos, 0, 0), Some(vec![]));
        assert_eq!(pos, 0);
    }

    #[test]
    fn deltas_negative_and_positive() {
        let values = [100i64, 90, 90, 150, -40, i64::MAX, i64::MIN, 0];
        let mut buf = Vec::new();
        write_deltas(&mut buf, 0, &values);
        let mut pos = 0;
        assert_eq!(
            read_deltas(&buf, &mut pos, 0, values.len()),
            Some(values.to_vec())
        );
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn deltas_sorted_column_is_one_byte_per_element() {
        // Minute-resolution timestamps a few minutes apart: the whole
        // point of delta+varint is that these cost ~1 byte each.
        let values: Vec<i64> = (0..1000).map(|i| 500_000 + i * 3).collect();
        let mut buf = Vec::new();
        write_deltas(&mut buf, values[0], &values);
        // First delta is 0 (base = first value), rest are 3.
        assert_eq!(buf.len(), values.len());
        let mut pos = 0;
        assert_eq!(
            read_deltas(&buf, &mut pos, values[0], values.len()),
            Some(values)
        );
    }

    #[test]
    fn deltas_reject_truncation() {
        let mut buf = Vec::new();
        write_deltas(&mut buf, 0, &[1, 2, 3]);
        let mut pos = 0;
        assert_eq!(read_deltas(&buf[..buf.len() - 1], &mut pos, 0, 3), None);
    }

    #[test]
    fn fixed_width_roundtrip() {
        let mut buf = Vec::new();
        write_u16_le(&mut buf, u16::MAX);
        write_u32_le(&mut buf, 0xDEAD_BEEF);
        write_u64_le(&mut buf, u64::MAX - 7);
        let mut pos = 0;
        assert_eq!(read_u16_le(&buf, &mut pos), Some(u16::MAX));
        assert_eq!(read_u32_le(&buf, &mut pos), Some(0xDEAD_BEEF));
        assert_eq!(read_u64_le(&buf, &mut pos), Some(u64::MAX - 7));
        assert_eq!(pos, buf.len());
        assert_eq!(read_u16_le(&buf, &mut pos), None, "reads past end fail");
    }

    #[test]
    fn presence_bitmap_roundtrip() {
        for n in [0usize, 1, 7, 8, 9, 16, 63] {
            let values: Vec<Option<u8>> = (0..n).map(|i| (i % 3 == 0).then_some(i as u8)).collect();
            let mut buf = Vec::new();
            write_presence(&mut buf, &values);
            assert_eq!(buf.len(), n.div_ceil(8));
            let mut pos = 0;
            let bits = read_presence(&buf, &mut pos, n).unwrap();
            assert_eq!(pos, buf.len());
            let expect: Vec<bool> = values.iter().map(|v| v.is_some()).collect();
            assert_eq!(bits, expect, "n = {n}");
        }
    }
}
