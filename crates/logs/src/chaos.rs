//! Deterministic fault injection for the ingest and checkpoint paths.
//!
//! §2.3 of the paper describes exactly how production telemetry gets
//! dirty: a lossy bounded kernel buffer, mixed producers on one
//! transport, records dropped and truncated mid-write. This module
//! manufactures that dirt on demand — reproducibly, from a seed — so the
//! readers' graceful-degradation claims are *tested*, not asserted:
//!
//! * [`corrupt_dir`] / [`corrupt_file`] damage a clean dataset in place
//!   (truncated final lines, bit flips, non-UTF-8 garbage, duplicated
//!   and displaced records, interleaved foreign syslog lines) and return
//!   a [`ChaosManifest`] of exactly what was injected;
//! * [`corrupt_binary_file`] is the `astra-binlog` peer: payload bit
//!   flips (caught by the per-block CRC) and torn tails, dispatched to
//!   automatically by [`corrupt_dir`] when a log is binary;
//! * [`FailingReader`] wraps any reader with deterministic transient
//!   errors and short reads, exercising the retry path;
//! * [`truncate_file`] / [`tear_checkpoint`] simulate torn checkpoint
//!   writes (partial file, partial `.tmp` with the rename never
//!   happening).
//!
//! The manifest's expected quarantine counts are not book-kept by hand:
//! after corrupting, the file is re-ingested through the very same
//! readers and drain (`io::read_to_end`) the pipeline uses, and the
//! manifest records what *they* quarantined — plus a self-check that the
//! surviving records equal the clean records minus the damaged ones. The
//! binary block map comes from the block reader's own walk of a clean
//! file (`BinReader::point` after each block).
//! `fsck` therefore matches the manifest by construction, and any drift
//! between injector and reader is a hard error here, not a silent test
//! gap.

use std::collections::BTreeSet;
use std::io::{self, Read};
use std::path::Path;

use astra_util::{DetRng, StreamKey};

use crate::binfmt::{self, BinFormat, BinReader, HEADER_LEN};
use crate::io::{read_to_end, ChunkReader, STREAM_CHUNK_BYTES};
use crate::quarantine::{IngestMode, IngestOptions, LineFormat, Quarantine, RetryPolicy};

/// How much of each kind of corruption to inject, per file.
///
/// Counts are upper bounds: each is capped at `lines/16` of the target
/// file so small logs (a three-line `het.log`) are not drowned — the
/// [`ChaosManifest`] records what was actually injected. Duplicate and
/// reorder injection applies only to time-sorted formats, where the
/// reader can detect it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed for the deterministic corruption stream.
    pub seed: u64,
    /// Single-bit flips in record bytes (each verified to break parsing).
    pub bit_flips: u32,
    /// Inserted lines of non-UTF-8 garbage.
    pub garbage_lines: u32,
    /// Inserted foreign syslog lines (sshd, ntpd, cron, …).
    pub foreign_lines: u32,
    /// Records copied to a later, order-violating position.
    pub duplicates: u32,
    /// Records moved to a later, order-violating position.
    pub reorders: u32,
    /// Cut the file's final line mid-record (a torn append).
    pub truncate_tail: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 1,
            bit_flips: 2,
            garbage_lines: 2,
            foreign_lines: 3,
            duplicates: 1,
            reorders: 1,
            truncate_tail: true,
        }
    }
}

impl ChaosConfig {
    /// Default corruption mix with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        ChaosConfig {
            seed,
            ..ChaosConfig::default()
        }
    }
}

/// What [`corrupt_file`] did to one file.
#[derive(Debug, Clone)]
pub struct FileChaos {
    /// File name within the dataset directory.
    pub name: String,
    /// Quarantine the hardened reader produces on this file — measured,
    /// not predicted (see module docs).
    pub expected: Quarantine,
    /// 0-based clean-file line indices whose records no longer reach the
    /// output (bit-flipped, truncated, or displaced lines). The
    /// equivalence test rebuilds the expected clean dataset from these.
    pub damaged_clean_lines: Vec<usize>,
}

/// Everything [`corrupt_dir`] injected, per file.
#[derive(Debug, Clone, Default)]
pub struct ChaosManifest {
    /// Per-file outcomes, in dataset order (ce, het, inventory, sensors).
    pub files: Vec<FileChaos>,
}

impl ChaosManifest {
    /// All expected quarantines merged.
    pub fn total(&self) -> Quarantine {
        let mut q = Quarantine::default();
        for f in &self.files {
            q.merge(&f.expected);
        }
        q
    }

    /// Per-file report in the same line format `fsck` emits, so the two
    /// can be diffed verbatim.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for f in &self.files {
            out.push_str(&f.expected.report_line(&f.name));
            out.push('\n');
        }
        out.push_str(&self.total().report_line("total"));
        out.push('\n');
        out
    }
}

/// Foreign syslog lines as other producers would interleave them. None
/// carries any of our record markers, so every parser classifies them
/// `UnknownFormat`.
const FOREIGN_LINES: [&str; 5] = [
    "Mar  4 12:07:33 login1 sshd[4721]: Accepted publickey for admin from 10.1.0.5 port 50522",
    "Mar  4 12:09:02 login1 ntpd[812]: kernel reports TIME_ERROR: 0x41: Clock Unsynchronized",
    "Mar  4 13:00:00 mgmt01 systemd[1]: Starting Daily apt download activities...",
    "Mar  4 13:12:45 gw0 dhcpd: DHCPACK on 10.4.2.17 to b8:59:9f:aa:12:34 via eth1",
    "Mar  4 14:02:11 login2 CRON[9981]: (root) CMD (/usr/lib/sysstat/sa1 1 1)",
];

/// One line of the working copy: either a (possibly mutated) clean line
/// or an injected one.
struct Entry {
    clean: Option<usize>,
    bytes: Vec<u8>,
}

fn name_stream(name: &str) -> u64 {
    name.bytes()
        .fold(0u64, |a, b| a.wrapping_mul(131).wrapping_add(b as u64))
}

/// Ingest policy used for measuring what a corrupted file yields:
/// unlimited budget, no retry delays.
fn measuring_opts() -> IngestOptions {
    IngestOptions {
        mode: IngestMode::Lenient { max_bad_frac: 1.0 },
        retry: RetryPolicy {
            max_retries: 0,
            backoff_base_ms: 0,
        },
    }
}

/// Corrupt every log of a generated dataset in place.
///
/// Missing files are skipped (e.g. a dataset without `sensors.log`).
/// Each log's format is sniffed by magic bytes: text files take the
/// line-level corruption mix, `astra-binlog` files the block-level one.
pub fn corrupt_dir(dir: &Path, cfg: &ChaosConfig) -> io::Result<ChaosManifest> {
    fn one<T>(
        manifest: &mut ChaosManifest,
        dir: &Path,
        name: &str,
        format: LineFormat<T>,
        bin: BinFormat<T>,
        cfg: &ChaosConfig,
    ) -> io::Result<()>
    where
        T: Clone + PartialEq + Send,
    {
        let path = dir.join(name);
        if !path.exists() {
            return Ok(());
        }
        let chaos = if binfmt::file_is_binlog(&path)? {
            corrupt_binary_file(&path, bin, cfg)?
        } else {
            corrupt_file(&path, format, cfg)?
        };
        manifest.files.push(chaos);
        Ok(())
    }
    let mut manifest = ChaosManifest::default();
    one(
        &mut manifest,
        dir,
        "ce.log",
        crate::ce::FORMAT,
        binfmt::CE,
        cfg,
    )?;
    one(
        &mut manifest,
        dir,
        "het.log",
        crate::het::FORMAT,
        binfmt::HET,
        cfg,
    )?;
    one(
        &mut manifest,
        dir,
        "inventory.log",
        crate::inventory::FORMAT,
        binfmt::INVENTORY,
        cfg,
    )?;
    one(
        &mut manifest,
        dir,
        "sensors.log",
        crate::sensor::FORMAT,
        binfmt::SENSOR,
        cfg,
    )?;
    Ok(manifest)
}

/// Corrupt one clean log file in place and report what was injected.
///
/// The input must be clean (every line parses, time-sorted formats in
/// order, no blank lines) — corruption is injected relative to that
/// baseline, and the post-corruption self-check verifies the hardened
/// reader recovers exactly the undamaged records.
pub fn corrupt_file<T>(
    path: &Path,
    format: LineFormat<T>,
    cfg: &ChaosConfig,
) -> io::Result<FileChaos>
where
    T: Clone + PartialEq + Send,
{
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    let text = std::fs::read_to_string(path)?;
    let not_clean =
        |what: &str| io::Error::other(format!("chaos needs a clean dataset: {name}: {what}"));

    // Baseline: every clean line must parse, in order.
    let clean_lines: Vec<&str> = text.lines().collect();
    let n = clean_lines.len();
    let mut records: Vec<T> = Vec::with_capacity(n);
    let mut keys: Vec<Option<i64>> = Vec::with_capacity(n);
    let mut prev_key = None;
    for (i, line) in clean_lines.iter().enumerate() {
        if line.trim().is_empty() {
            return Err(not_clean(&format!("blank line {}", i + 1)));
        }
        let rec = (format.parse)(line)
            .ok_or_else(|| not_clean(&format!("unparseable line {}", i + 1)))?;
        let key = format.order_key.map(|k| k(&rec));
        if let (Some(k), Some(p)) = (key, prev_key) {
            if k < p {
                return Err(not_clean(&format!("out-of-order line {}", i + 1)));
            }
        }
        prev_key = key.or(prev_key);
        records.push(rec);
        keys.push(key);
    }

    let mut entries: Vec<Entry> = clean_lines
        .iter()
        .enumerate()
        .map(|(i, line)| Entry {
            clean: Some(i),
            bytes: line.as_bytes().to_vec(),
        })
        .collect();
    let mut damaged: BTreeSet<usize> = BTreeSet::new();
    let mut rng = DetRng::for_stream(cfg.seed, StreamKey::root("chaos").with(name_stream(&name)));
    // Small files get proportionally less of each corruption kind so the
    // quarantined fraction stays well under any sane lenient budget.
    let cap = |count: u32| (count as usize).min(n / 16);

    // Bit flips: each verified to actually break parsing (a flip that
    // yields another valid record, a blank line, or a newline would
    // corrupt silently — exactly what must not happen here).
    for _ in 0..cap(cfg.bit_flips) {
        for _attempt in 0..64 {
            let pos = rng.below(entries.len() as u64) as usize;
            let Some(idx) = entries[pos].clean else {
                continue;
            };
            if damaged.contains(&idx) || entries[pos].bytes.is_empty() {
                continue;
            }
            let byte = rng.below(entries[pos].bytes.len() as u64) as usize;
            let flipped = entries[pos].bytes[byte] ^ (1 << rng.below(8));
            if flipped == b'\n' {
                continue;
            }
            let mut cand = entries[pos].bytes.clone();
            cand[byte] = flipped;
            let breaks = match std::str::from_utf8(&cand) {
                Err(_) => true,
                Ok(s) => !s.trim().is_empty() && (format.parse)(s).is_none(),
            };
            if !breaks {
                continue;
            }
            entries[pos].bytes = cand;
            damaged.insert(idx);
            break;
        }
    }

    // Non-UTF-8 garbage lines (0xFE is never valid UTF-8).
    for _ in 0..cap(cfg.garbage_lines) {
        let len = rng.range_inclusive(8, 40) as usize;
        let mut bytes = vec![0u8; len];
        rng.fill_bytes(&mut bytes);
        for b in &mut bytes {
            if *b == b'\n' {
                *b = 0x00;
            }
        }
        bytes[0] = 0xFE;
        let at = rng.below(entries.len() as u64 + 1) as usize;
        entries.insert(at, Entry { clean: None, bytes });
    }

    // Interleaved foreign producers.
    for _ in 0..cap(cfg.foreign_lines) {
        let line = *rng.pick(&FOREIGN_LINES);
        let at = rng.below(entries.len() as u64 + 1) as usize;
        entries.insert(
            at,
            Entry {
                clean: None,
                bytes: line.as_bytes().to_vec(),
            },
        );
    }

    // Duplicates and reorders need a detectable ordering violation: the
    // record must land somewhere the running maximum already exceeds its
    // key, and the record supplying that maximum must stay *before* it
    // through every later operation. Reorders therefore run first
    // (moving records to the end, where every undamaged greater-key
    // record precedes them), then duplicates (inserted just after an
    // undamaged greater-key anchor, never at the final position — the
    // tail truncation owns that). Only meaningful for time-sorted
    // formats, and only for records whose key is strictly below the
    // undamaged maximum.
    if format.order_key.is_some() {
        let candidates = |damaged: &BTreeSet<usize>| -> Vec<usize> {
            let max = (0..n)
                .filter(|i| !damaged.contains(i))
                .filter_map(|i| keys[i])
                .max();
            match max {
                None => Vec::new(),
                Some(max) => (0..n)
                    .filter(|i| !damaged.contains(i) && keys[*i].is_some_and(|k| k < max))
                    .collect(),
            }
        };
        for _ in 0..cap(cfg.reorders) {
            let c = candidates(&damaged);
            if c.is_empty() {
                break;
            }
            let i = *rng.pick(&c);
            let pos = entries
                .iter()
                .position(|e| e.clean == Some(i))
                .expect("undamaged clean line is present");
            let moved = entries.remove(pos);
            entries.push(moved);
            damaged.insert(i);
        }
        for _ in 0..cap(cfg.duplicates) {
            let c = candidates(&damaged);
            if c.is_empty() {
                break;
            }
            let i = *rng.pick(&c);
            let key_i = keys[i].expect("candidate has a key");
            // First undamaged clean record whose key exceeds the copy's —
            // an anchor nothing after this point can move or damage.
            let vpos = entries.iter().position(|e| match e.clean {
                Some(j) if !damaged.contains(&j) => keys[j].is_some_and(|k| k > key_i),
                _ => false,
            });
            let Some(vpos) = vpos else { continue };
            if vpos + 1 > entries.len() - 1 {
                continue;
            }
            let at = rng.range_inclusive(vpos as u64 + 1, entries.len() as u64 - 1) as usize;
            entries.insert(
                at,
                Entry {
                    clean: None,
                    bytes: clean_lines[i].as_bytes().to_vec(),
                },
            );
        }
    }

    // Torn final append: cut the last line mid-record, keeping a
    // non-blank prefix that no longer parses.
    let mut truncated = false;
    if cfg.truncate_tail && n >= 2 {
        let last_bytes = entries.last().map(|e| e.bytes.clone()).unwrap_or_default();
        if last_bytes.len() >= 2 {
            for _attempt in 0..64 {
                let keep = rng.range_inclusive(1, last_bytes.len() as u64 - 1) as usize;
                let breaks = match std::str::from_utf8(&last_bytes[..keep]) {
                    Err(_) => true,
                    Ok(s) => !s.trim().is_empty() && (format.parse)(s).is_none(),
                };
                if !breaks {
                    continue;
                }
                let last = entries.last_mut().expect("entries is non-empty");
                last.bytes.truncate(keep);
                if let Some(idx) = last.clean {
                    damaged.insert(idx);
                }
                truncated = true;
                break;
            }
        }
    }

    // Assemble; a torn tail has no trailing newline.
    let mut out = Vec::with_capacity(text.len() + 256);
    for (i, e) in entries.iter().enumerate() {
        out.extend_from_slice(&e.bytes);
        if i + 1 < entries.len() || !truncated {
            out.push(b'\n');
        }
    }

    // Measure the expected quarantine with the real reader, and
    // self-check that it recovers exactly the undamaged records.
    let mut reader = ChunkReader::new(out.as_slice(), format, STREAM_CHUNK_BYTES);
    let (parsed, expected) = read_to_end(&measuring_opts(), || reader.next_chunk())
        .map_err(|e| io::Error::other(format!("chaos self-check ingest failed: {e}")))?;
    let surviving: Vec<T> = (0..n)
        .filter(|i| !damaged.contains(i))
        .map(|i| records[i].clone())
        .collect();
    if parsed != surviving {
        return Err(io::Error::other(format!(
            "chaos self-check failed for {name}: reader recovered {} records, \
             expected {} (clean {} minus {} damaged)",
            parsed.len(),
            surviving.len(),
            n,
            damaged.len(),
        )));
    }

    std::fs::write(path, &out)?;
    Ok(FileChaos {
        name,
        expected,
        damaged_clean_lines: damaged.into_iter().collect(),
    })
}

/// Corrupt one clean `astra-binlog` file in place and report what was
/// injected.
///
/// Binary corruption is block-granular: a payload bit flip is caught by
/// that block's CRC trailer (`BlockCrc`, the reader skips the block and
/// continues), and a torn final append cuts into the last block's
/// trailer (`TruncatedBlock`). The line-level kinds — garbage, foreign
/// producers, duplicates, reorders — have no binary equivalent: nothing
/// else writes into a binlog, and record order is internal to a block.
/// At most half the blocks take a flip, mirroring the text path's
/// scale-down, so the quarantined fraction stays under any sane lenient
/// budget. In the manifest, `damaged_clean_lines` holds the 0-based
/// *record* indices lost with their damaged blocks.
pub fn corrupt_binary_file<T>(
    path: &Path,
    bin: BinFormat<T>,
    cfg: &ChaosConfig,
) -> io::Result<FileChaos>
where
    T: Clone + PartialEq + Send,
{
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    let mut data = std::fs::read(path)?;

    // Baseline: the whole container must verify and decode cleanly. The
    // walk also maps the block layout: each block's payload byte range
    // (its frame, less the length word and the CRC trailer) and the
    // clean-record index range it carries.
    struct Block {
        payload: std::ops::Range<usize>,
        records: std::ops::Range<usize>,
    }
    let mut reader = BinReader::new(data.as_slice(), bin);
    let (mut clean, mut blocks, mut start) = (Vec::new(), Vec::new(), HEADER_LEN);
    while let Some(chunk) = reader.next_chunk()? {
        if !chunk.quarantine.is_empty() {
            return Err(io::Error::other(format!(
                "chaos needs a clean dataset: {name}: {}",
                chunk.quarantine.report_line("damaged")
            )));
        }
        let end = reader.point().offset as usize;
        let records = clean.len()..clean.len() + chunk.records.len();
        blocks.push(Block {
            payload: start + 4..end - 4,
            records,
        });
        clean.extend(chunk.records);
        start = end;
    }

    let mut rng = DetRng::for_stream(
        cfg.seed,
        StreamKey::root("chaos-bin").with(name_stream(&name)),
    );
    let mut damaged_blocks: BTreeSet<usize> = BTreeSet::new();

    // Payload bit flips: any flipped bit fails the block CRC, no
    // verification pass needed.
    let flips = (cfg.bit_flips as usize).min(blocks.len() / 2);
    for _ in 0..flips {
        for _attempt in 0..64 {
            let b = rng.below(blocks.len() as u64) as usize;
            if damaged_blocks.contains(&b) {
                continue;
            }
            let r = &blocks[b].payload;
            let at = r.start + rng.below(r.len() as u64) as usize;
            data[at] ^= 1 << rng.below(8);
            damaged_blocks.insert(b);
            break;
        }
    }

    // Torn final append: cut into the last block's CRC trailer.
    if cfg.truncate_tail && !blocks.is_empty() {
        let cut = rng.range_inclusive(1, 3) as usize;
        data.truncate(data.len() - cut);
        damaged_blocks.insert(blocks.len() - 1);
    }

    // Measure the expected quarantine with the real reader, and
    // self-check that it recovers exactly the undamaged blocks' records.
    let mut reader = BinReader::new(data.as_slice(), bin);
    let (parsed, expected) = read_to_end(&measuring_opts(), || reader.next_chunk())
        .map_err(|e| io::Error::other(format!("chaos self-check ingest failed: {e}")))?;
    let mut damaged_records: Vec<usize> = Vec::new();
    let mut surviving: Vec<T> = Vec::new();
    for (b, block) in blocks.iter().enumerate() {
        if damaged_blocks.contains(&b) {
            damaged_records.extend(block.records.clone());
        } else {
            surviving.extend_from_slice(&clean[block.records.clone()]);
        }
    }
    if parsed != surviving {
        return Err(io::Error::other(format!(
            "chaos self-check failed for {name}: reader recovered {} records, \
             expected {} (clean {} minus {} in damaged blocks)",
            parsed.len(),
            surviving.len(),
            clean.len(),
            damaged_records.len(),
        )));
    }

    std::fs::write(path, &data)?;
    Ok(FileChaos {
        name,
        expected,
        damaged_clean_lines: damaged_records,
    })
}

/// Truncate a file to its first `keep_bytes` bytes — a write torn
/// mid-file (or a partial `.tmp` if pointed at one).
pub fn truncate_file(path: &Path, keep_bytes: u64) -> io::Result<()> {
    let data = std::fs::read(path)?;
    let keep = (keep_bytes as usize).min(data.len());
    std::fs::write(path, &data[..keep])
}

/// Simulate a checkpoint write torn before the atomic rename: the first
/// `keep_bytes` of `next_state` land in `<path>.tmp`, while `path`
/// itself (the previous complete checkpoint, if any) is left untouched.
pub fn tear_checkpoint(path: &Path, next_state: &[u8], keep_bytes: u64) -> io::Result<()> {
    let keep = (keep_bytes as usize).min(next_state.len());
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(std::path::PathBuf::from(tmp), &next_state[..keep])
}

/// Deterministic flaky reader: injects transient errors and short reads
/// around an inner reader.
///
/// Failures are bounded — at most `max_consecutive` in a row — so a
/// caller with a bounded retry policy always makes progress. Reads that
/// succeed may be short (1–7 bytes) to exercise partial-read handling.
pub struct FailingReader<R> {
    inner: R,
    rng: DetRng,
    /// Probability that a read attempt fails with a transient error.
    fail_prob: f64,
    /// Upper bound on back-to-back failures.
    max_consecutive: u32,
    consecutive: u32,
    /// Also deliver short reads on success.
    short_reads: bool,
}

impl<R> FailingReader<R> {
    /// Wrap `inner` with the default mix (20 % transient failures, at
    /// most 2 consecutive, short reads on).
    pub fn new(inner: R, seed: u64) -> Self {
        FailingReader {
            inner,
            rng: DetRng::for_stream(seed, StreamKey::root("chaos").with(0xF1A)),
            fail_prob: 0.2,
            max_consecutive: 2,
            consecutive: 0,
            short_reads: true,
        }
    }

    /// Override the failure probability (clamped to `[0, 1]`).
    pub fn with_fail_prob(mut self, p: f64) -> Self {
        self.fail_prob = p.clamp(0.0, 1.0);
        self
    }
}

impl<R: Read> Read for FailingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.consecutive < self.max_consecutive && self.rng.chance(self.fail_prob) {
            self.consecutive += 1;
            return Err(io::Error::other("injected transient I/O error"));
        }
        self.consecutive = 0;
        if self.short_reads && buf.len() > 1 {
            let n = self.rng.range_inclusive(1, buf.len().min(7) as u64) as usize;
            self.inner.read(&mut buf[..n])
        } else {
            self.inner.read(buf)
        }
    }
}

/// What an armed shard-failure injection does to the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFaultMode {
    /// Die hard mid-stream (`std::process::abort` — nonzero exit, no
    /// snapshot), like an OOM kill or a segfault.
    Abort,
    /// Stop making progress without exiting, like a worker wedged on a
    /// dead NFS mount — only the supervisor's deadline gets rid of it.
    Hang,
    /// Exit 0 but leave a truncated snapshot behind, like a node that
    /// lost power after the rename — the CRC-sealed container is what
    /// catches it.
    TornSnapshot,
}

impl ShardFaultMode {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "abort" => Some(ShardFaultMode::Abort),
            "hang" => Some(ShardFaultMode::Hang),
            "torn" => Some(ShardFaultMode::TornSnapshot),
            _ => None,
        }
    }
}

/// Environment-armed shard-failure injector for the sharded supervisor's
/// worker subprocesses.
///
/// `ASTRA_SHARD_CHAOS=<abort|hang|torn>:<shard>:<records>` arms one
/// fault: the worker with index `<shard>` trips `<mode>` right after
/// consuming its `<records>`-th in-range record — a deterministic point
/// in the stream, so every supervision path (retry after crash, deadline
/// kill after hang, reject-and-retry after torn snapshot) replays
/// exactly.
///
/// Workers are child processes, so the trip budget must live outside any
/// one process: `ASTRA_SHARD_CHAOS_TRIPS=<file>` names a shared tally
/// file (one appended line per trip) and `ASTRA_SHARD_CHAOS_MAX_TRIPS=N`
/// bounds it. With `MAX_TRIPS=1` the first attempt fails and the retry
/// succeeds — the recovery test; without a tally file every attempt
/// trips — the retries-exhausted test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardChaos {
    /// What to do when the trip point is reached.
    pub mode: ShardFaultMode,
    /// Worker (shard index) the fault is armed for.
    pub shard: u32,
    /// Trip after this many in-range records have been consumed.
    pub at_records: u64,
    /// Shared trip-tally file and budget (`None` = unlimited trips).
    pub budget: Option<(std::path::PathBuf, u64)>,
}

/// Environment variable arming the injector.
pub const SHARD_CHAOS_ENV: &str = "ASTRA_SHARD_CHAOS";
/// Environment variable naming the shared trip-tally file.
pub const SHARD_CHAOS_TRIPS_ENV: &str = "ASTRA_SHARD_CHAOS_TRIPS";
/// Environment variable bounding total trips across all attempts.
pub const SHARD_CHAOS_MAX_TRIPS_ENV: &str = "ASTRA_SHARD_CHAOS_MAX_TRIPS";

impl ShardChaos {
    /// Parse the `mode:shard:records` spec (as found in
    /// [`SHARD_CHAOS_ENV`]).
    pub fn parse(spec: &str) -> Option<ShardChaos> {
        let mut parts = spec.split(':');
        let mode = ShardFaultMode::parse(parts.next()?)?;
        let shard = parts.next()?.parse().ok()?;
        let at_records = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(ShardChaos {
            mode,
            shard,
            at_records,
            budget: None,
        })
    }

    /// Read the injector armed in the environment, if any. A malformed
    /// spec is a loud error, not a silently disarmed injector — a chaos
    /// test that thinks it is injecting but isn't proves nothing.
    pub fn from_env() -> Result<Option<ShardChaos>, String> {
        let Ok(spec) = std::env::var(SHARD_CHAOS_ENV) else {
            return Ok(None);
        };
        let mut chaos = ShardChaos::parse(&spec).ok_or_else(|| {
            format!(
                "bad {SHARD_CHAOS_ENV} spec {spec:?} (want <abort|hang|torn>:<shard>:<records>)"
            )
        })?;
        if let Ok(path) = std::env::var(SHARD_CHAOS_TRIPS_ENV) {
            let max = match std::env::var(SHARD_CHAOS_MAX_TRIPS_ENV) {
                Ok(v) => v
                    .parse()
                    .map_err(|_| format!("bad {SHARD_CHAOS_MAX_TRIPS_ENV} value {v:?}"))?,
                Err(_) => 1,
            };
            chaos.budget = Some((std::path::PathBuf::from(path), max));
        }
        Ok(Some(chaos))
    }

    /// Should this worker trip now? True exactly when the armed shard
    /// has just consumed its `at_records`-th record and the shared
    /// budget (if any) is not exhausted; a `true` return is tallied
    /// against the budget.
    pub fn should_trip(&self, shard: u32, records_consumed: u64) -> bool {
        if shard != self.shard || records_consumed != self.at_records {
            return false;
        }
        match &self.budget {
            None => true,
            Some((path, max)) => {
                let spent = std::fs::read_to_string(path)
                    .map(|s| s.lines().count() as u64)
                    .unwrap_or(0);
                if spent >= *max {
                    return false;
                }
                // Workers of one supervisor run are spawned and retried
                // sequentially per shard, so append-then-count has no
                // racing writer to lose a tally to.
                use std::io::Write as _;
                if let Ok(mut f) = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                {
                    let _ = writeln!(f, "trip shard={shard} records={records_consumed}");
                }
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ce::CeRecord;
    use crate::quarantine::QuarantineReason;
    use astra_topology::{DimmSlot, NodeId, PhysAddr, RankId};
    use astra_util::CalDate;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique temp dir with panic-safe cleanup (same pattern as the
    /// pipeline tests).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "astra-chaos-{tag}-{}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed),
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn ce(minute: i64) -> CeRecord {
        let slot = DimmSlot::from_letter('C').unwrap();
        CeRecord {
            time: CalDate::new(2019, 4, 1).midnight().plus(minute),
            node: NodeId(9),
            socket: slot.socket(),
            slot,
            rank: RankId(0),
            bank: 2,
            row: None,
            col: 11,
            bit_pos: 7,
            addr: PhysAddr(0x1234C0),
            syndrome: 0xBEEF,
        }
    }

    /// Drain a text CE log from `reader` in chunks of about `chunk_bytes`
    /// under `opts`: the records, the quarantine and the bytes read.
    fn drain<R: Read>(
        reader: R,
        opts: &IngestOptions,
        chunk_bytes: usize,
    ) -> Result<(Vec<CeRecord>, Quarantine, usize), crate::io::IngestError> {
        let mut reader =
            ChunkReader::new(reader, crate::ce::FORMAT, chunk_bytes).with_retry(opts.retry);
        let (records, quarantine) = read_to_end(opts, || reader.next_chunk())?;
        Ok((records, quarantine, reader.bytes_consumed()))
    }

    fn write_ce_log(dir: &Path, lines: usize) -> PathBuf {
        let mut text = String::new();
        for i in 0..lines {
            text.push_str(&ce(i as i64).to_line());
            text.push('\n');
        }
        let path = dir.join("ce.log");
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn corrupt_file_is_deterministic() {
        let tmp = TempDir::new("det");
        let a = write_ce_log(&tmp.0, 100);
        let m1 = corrupt_file(&a, crate::ce::FORMAT, &ChaosConfig::with_seed(7)).unwrap();
        let bytes1 = std::fs::read(&a).unwrap();
        let b_dir = TempDir::new("det2");
        let b = write_ce_log(&b_dir.0, 100);
        let m2 = corrupt_file(&b, crate::ce::FORMAT, &ChaosConfig::with_seed(7)).unwrap();
        let bytes2 = std::fs::read(&b).unwrap();
        assert_eq!(bytes1, bytes2);
        assert_eq!(m1.expected, m2.expected);
        assert_eq!(m1.damaged_clean_lines, m2.damaged_clean_lines);
        // A different seed corrupts differently.
        let c_dir = TempDir::new("det3");
        let c = write_ce_log(&c_dir.0, 100);
        corrupt_file(&c, crate::ce::FORMAT, &ChaosConfig::with_seed(8)).unwrap();
        assert_ne!(bytes1, std::fs::read(&c).unwrap());
    }

    #[test]
    fn corrupt_file_injects_every_kind() {
        let tmp = TempDir::new("kinds");
        let path = write_ce_log(&tmp.0, 200);
        let chaos = corrupt_file(&path, crate::ce::FORMAT, &ChaosConfig::with_seed(3)).unwrap();
        // Bit flips can land under any reason (they break parsing in
        // whatever way the flipped byte dictates), and the truncated
        // tail may hit the reorder-moved final entry — so lower bounds
        // for the overlapping kinds, exact totals for the rest.
        assert!(
            chaos.expected.count(QuarantineReason::BadUtf8) >= 2,
            "garbage lines"
        );
        assert!(
            chaos.expected.count(QuarantineReason::UnknownFormat) >= 3,
            "foreign lines"
        );
        assert!(
            chaos.expected.count(QuarantineReason::OutOfOrder) >= 1,
            "duplicate and/or reorder"
        );
        // 2 flips + 2 garbage + 3 foreign + 1 dup + 1 reorder (+ tail
        // truncation, which may coincide with the reorder entry).
        assert!(chaos.expected.total() >= 9);
        assert!(!chaos.damaged_clean_lines.is_empty());
        // Self-check already ran inside corrupt_file; double-check the
        // lenient reader sees exactly the manifest's quarantine.
        let bytes = std::fs::read(&path).unwrap();
        let (_, q, _) = drain(bytes.as_slice(), &measuring_opts(), STREAM_CHUNK_BYTES).unwrap();
        assert_eq!(q.counts, chaos.expected.counts);
    }

    #[test]
    fn small_files_get_scaled_down_corruption() {
        let tmp = TempDir::new("small");
        let path = write_ce_log(&tmp.0, 3);
        let chaos = corrupt_file(&path, crate::ce::FORMAT, &ChaosConfig::with_seed(5)).unwrap();
        // cap = 3/16 = 0 of every line kind; only the tail truncation
        // applies.
        assert_eq!(chaos.expected.total(), 1);
        assert_eq!(chaos.damaged_clean_lines, vec![2]);
    }

    fn write_bin_ce_log(dir: &Path, blocks: usize, per_block: usize) -> PathBuf {
        let mut data = Vec::from(binfmt::header_bytes(
            binfmt::KIND_CE,
            (blocks * per_block) as u64,
        ));
        let mut minute = 0i64;
        for _ in 0..blocks {
            let recs: Vec<CeRecord> = (0..per_block)
                .map(|_| {
                    minute += 1;
                    ce(minute)
                })
                .collect();
            let mut payload = Vec::new();
            (binfmt::CE.encode)(&recs, &mut payload);
            binfmt::append_block(&mut data, &payload);
        }
        let path = dir.join("ce.log");
        std::fs::write(&path, data).unwrap();
        path
    }

    #[test]
    fn corrupt_binary_file_damages_blocks_and_tail() {
        let tmp = TempDir::new("bin");
        let path = write_bin_ce_log(&tmp.0, 6, 40);
        let chaos = corrupt_binary_file(&path, binfmt::CE, &ChaosConfig::with_seed(9)).unwrap();
        assert!(
            chaos.expected.count(QuarantineReason::BlockCrc) >= 1,
            "payload bit flips must fail the block CRC"
        );
        assert!(
            chaos.expected.count(QuarantineReason::TruncatedBlock) >= 1,
            "torn tail must quarantine as truncated"
        );
        // Whole damaged blocks' records are reported lost.
        assert!(chaos.damaged_clean_lines.len() >= 40);
        // fsck's decode-free CRC sweep reaches the same verdicts the
        // measuring full decode did, so manifest-vs-fsck diffs hold for
        // binary logs too.
        let sweep = binfmt::fsck_scan(&path, binfmt::KIND_CE).unwrap();
        assert_eq!(sweep.counts, chaos.expected.counts);
        // Deterministic: same seed, same damage.
        let tmp2 = TempDir::new("bin2");
        let path2 = write_bin_ce_log(&tmp2.0, 6, 40);
        let chaos2 = corrupt_binary_file(&path2, binfmt::CE, &ChaosConfig::with_seed(9)).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&path2).unwrap()
        );
        assert_eq!(chaos.damaged_clean_lines, chaos2.damaged_clean_lines);
    }

    #[test]
    fn corrupt_dir_dispatches_on_magic_bytes() {
        let tmp = TempDir::new("bin-dir");
        write_bin_ce_log(&tmp.0, 4, 30);
        let manifest = corrupt_dir(&tmp.0, &ChaosConfig::with_seed(11)).unwrap();
        assert_eq!(manifest.files.len(), 1);
        let total = manifest.total();
        assert!(
            total.count(QuarantineReason::BlockCrc) + total.count(QuarantineReason::TruncatedBlock)
                > 0,
            "binary log must take block-level corruption"
        );
        // The report still renders in fsck's line format.
        assert!(manifest.report().starts_with("ce.log: quarantined"));
    }

    #[test]
    fn rejects_dirty_input() {
        let tmp = TempDir::new("dirty");
        let path = tmp.0.join("ce.log");
        std::fs::write(&path, "not a record\n").unwrap();
        let err = corrupt_file(&path, crate::ce::FORMAT, &ChaosConfig::default()).unwrap_err();
        assert!(err.to_string().contains("clean dataset"), "{err}");
    }

    #[test]
    fn failing_reader_with_retries_parses_everything() {
        let mut text = String::new();
        for i in 0..500 {
            text.push_str(&ce(i).to_line());
            text.push('\n');
        }
        let flaky = FailingReader::new(text.as_bytes(), 42);
        let opts = IngestOptions {
            retry: RetryPolicy {
                max_retries: 4,
                backoff_base_ms: 0,
            },
            ..IngestOptions::default()
        };
        let (parsed, q, bytes) = drain(flaky, &opts, 4096).unwrap();
        assert_eq!(parsed.len(), 500);
        assert!(q.is_empty());
        assert_eq!(bytes, text.len());
    }

    #[test]
    fn failing_reader_without_retries_surfaces_errors() {
        let text = format!("{}\n", ce(1).to_line());
        // 100 % failure probability: the first read fails; a zero-retry
        // policy must surface it.
        let flaky = FailingReader::new(text.as_bytes(), 42).with_fail_prob(1.0);
        let opts = IngestOptions {
            retry: RetryPolicy {
                max_retries: 0,
                backoff_base_ms: 0,
            },
            ..IngestOptions::default()
        };
        let err = drain(flaky, &opts, 4096).unwrap_err();
        assert!(matches!(err, crate::io::IngestError::Io(_)));
    }

    #[test]
    fn torn_write_helpers() {
        let tmp = TempDir::new("tear");
        let path = tmp.0.join("ckpt");
        std::fs::write(&path, b"old complete checkpoint\n").unwrap();
        tear_checkpoint(&path, b"new checkpoint that never finished\n", 10).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"old complete checkpoint\n",
            "original untouched"
        );
        let tmp_file = tmp.0.join("ckpt.tmp");
        assert_eq!(std::fs::read(&tmp_file).unwrap(), b"new checkp");
        truncate_file(&path, 3).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
    }

    #[test]
    fn shard_chaos_spec_parses_and_rejects() {
        let c = ShardChaos::parse("abort:2:1000").unwrap();
        assert_eq!(c.mode, ShardFaultMode::Abort);
        assert_eq!(c.shard, 2);
        assert_eq!(c.at_records, 1000);
        assert_eq!(
            ShardChaos::parse("hang:0:5").unwrap().mode,
            ShardFaultMode::Hang
        );
        assert_eq!(
            ShardChaos::parse("torn:1:3").unwrap().mode,
            ShardFaultMode::TornSnapshot
        );
        for bad in [
            "",
            "abort",
            "abort:2",
            "abort:x:1",
            "oom:0:1",
            "abort:0:1:9",
        ] {
            assert!(ShardChaos::parse(bad).is_none(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn shard_chaos_trips_only_at_the_armed_point() {
        let c = ShardChaos::parse("abort:1:100").unwrap();
        assert!(!c.should_trip(0, 100), "wrong shard");
        assert!(!c.should_trip(1, 99), "before the trip point");
        assert!(!c.should_trip(1, 101), "past the trip point");
        assert!(c.should_trip(1, 100));
        // No budget: every attempt trips again.
        assert!(c.should_trip(1, 100));
    }

    #[test]
    fn shard_chaos_budget_is_shared_through_the_tally_file() {
        let tmp = TempDir::new("shard-budget");
        let tally = tmp.0.join("trips");
        let mut c = ShardChaos::parse("abort:0:7").unwrap();
        c.budget = Some((tally.clone(), 2));
        // Two trips spend the budget; the third attempt sails through —
        // the crash-then-recover test in one assertion chain.
        assert!(c.should_trip(0, 7));
        assert!(c.should_trip(0, 7));
        assert!(!c.should_trip(0, 7), "budget exhausted");
        assert_eq!(std::fs::read_to_string(&tally).unwrap().lines().count(), 2);
    }
}
