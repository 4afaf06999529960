//! The binlog frame readers that the one frame walker replaced, kept as
//! its test oracle: the block reader's non-tail and tail paths (each with
//! its own copy of the frame parse) and `fsck`'s decode-free sweep,
//! exactly as they read before. The differential tests in `binfmt` feed
//! them and the walker the same damaged files.

use std::io::{self, Read};

use astra_util::crc32;

use crate::binfmt::{
    read_count, validate_header, BinFormat, BinPoint, HEADER_LEN, MAX_BLOCK_BYTES,
};
use crate::io::IngestChunk;
use crate::quarantine::{Quarantine, QuarantineReason};

/// The old `BinReader`, without the retry policy (the tests read slices
/// and in-memory growing files, which never fail).
pub(crate) struct OldBinReader<R, T> {
    reader: R,
    bin: BinFormat<T>,
    header_done: bool,
    declared: u64,
    decoded: u64,
    offset: u64,
    base: u64,
    dirty: bool,
    done: bool,
    tail: bool,
    stash: Vec<u8>,
}

impl<R: Read, T> OldBinReader<R, T> {
    pub(crate) fn new(reader: R, bin: BinFormat<T>, tail: bool) -> Self {
        OldBinReader {
            reader,
            bin,
            header_done: false,
            declared: 0,
            decoded: 0,
            offset: 0,
            base: 0,
            dirty: false,
            done: false,
            tail,
            stash: Vec::new(),
        }
    }

    fn read_fill(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let filled = read_fill_plain(&mut self.reader, buf)?;
        self.offset += filled as u64;
        Ok(filled)
    }

    pub(crate) fn bytes_consumed(&self) -> usize {
        (self.offset - self.base) as usize - self.stash.len()
    }

    pub(crate) fn point(&self) -> BinPoint {
        BinPoint {
            offset: self.offset - self.stash.len() as u64,
            decoded: self.decoded,
            dirty: self.dirty,
            ended: self.done,
        }
    }

    fn stash_fill(&mut self, need: usize) -> io::Result<bool> {
        if self.stash.len() >= need {
            return Ok(true);
        }
        let mut stash = std::mem::take(&mut self.stash);
        let at = stash.len();
        stash.resize(need, 0);
        let got = self.read_fill(&mut stash[at..])?;
        stash.truncate(at + got);
        let full = stash.len() >= need;
        self.stash = stash;
        Ok(full)
    }

    pub(crate) fn next_chunk(&mut self) -> io::Result<Option<IngestChunk<T>>> {
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
            self.done = true;
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
            return Ok(Some(empty(quarantine)));
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

    fn next_chunk_tail(&mut self) -> io::Result<Option<IngestChunk<T>>> {
        let mut quarantine = Quarantine::default();
        let empty = |q: Quarantine| IngestChunk {
            records: Vec::new(),
            quarantine: q,
        };
        if !self.header_done {
            if !self.stash_fill(HEADER_LEN)? {
                return Ok(None);
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
            self.done = true;
            return Ok(Some(empty(quarantine)));
        }
        let frame = 4 + len + 4;
        if !self.stash_fill(frame)? {
            return Ok(None);
        }
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
            return Ok(Some(empty(quarantine)));
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

/// The old `fsck_scan`, over any reader instead of a path.
pub(crate) fn old_fsck_scan<R: Read>(mut file: R, expected_kind: u8) -> io::Result<Quarantine> {
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
            continue;
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
