//! Golden equivalence of the incremental engine: `astra-mem
//! stream-analyze` must print byte-for-byte what `astra-mem analyze`
//! prints — including when the streaming run is split in half by a
//! mid-stream checkpoint and resumed in a second process, at every
//! chunk and block boundary of `ce.log`, the one log it reads. A resume
//! against a `ce.log` that no longer holds what the checkpoint consumed
//! must fail, naming it; one that only grew reads just the new bytes.
//!
//! Subprocesses, not in-process calls, because stdout is the contract
//! under test and the metric registry is process-global. Only the resume
//! points and the grown logs are made in-process.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

use astra_core::pipeline::Dataset;
use astra_logs::binfmt::{self, BinReader, LogFormat};
use astra_logs::io::{ChunkReader, STREAM_CHUNK_BYTES};
use astra_logs::{ce, CeRecord};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_astra-mem")
}

/// Unique per call; removed on drop even if the test panics.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "astra-stream-eq-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Run the binary with optional env vars; return the raw `Output`.
fn run(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(bin());
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn")
}

/// Run the binary, asserting success; return stdout verbatim.
fn stdout_of(args: &[&str]) -> Vec<u8> {
    stdout_with(args, &[])
}

fn stdout_with(args: &[&str], envs: &[(&str, &str)]) -> Vec<u8> {
    let out = run(args, envs);
    assert!(
        out.status.success(),
        "astra-mem {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn generate(dir: &Path) {
    stdout_of(&[
        "generate",
        "--racks",
        "1",
        "--seed",
        "42",
        "--out",
        dir.to_str().unwrap(),
    ]);
}

#[test]
fn stream_analyze_stdout_is_byte_identical_to_analyze() {
    let tmp = TempDir::new("golden");
    let logs = tmp.join("logs");
    generate(&logs);
    let logs = logs.to_str().unwrap();

    let batch = stdout_of(&["analyze", logs, "--racks", "1"]);
    assert!(!batch.is_empty());
    let streamed = stdout_of(&["stream-analyze", logs, "--racks", "1"]);
    assert_eq!(
        streamed,
        batch,
        "stream-analyze stdout differs from analyze:\n--- analyze ---\n{}\n--- stream ---\n{}",
        String::from_utf8_lossy(&batch),
        String::from_utf8_lossy(&streamed)
    );
}

#[test]
fn checkpoint_resume_reproduces_the_full_output() {
    let tmp = TempDir::new("resume");
    let logs = tmp.join("logs");
    generate(&logs);
    let logs = logs.to_str().unwrap();
    let ck = tmp.join("ck.txt");
    let ck = ck.to_str().unwrap();

    let batch = stdout_of(&["analyze", logs, "--racks", "1"]);

    // First half: stop mid-stream after writing a checkpoint. Nothing may
    // reach stdout, so the resumed run's stdout alone is the full report.
    let first = stdout_of(&[
        "stream-analyze",
        logs,
        "--racks",
        "1",
        "--stop-after",
        "20000",
        "--checkpoint",
        ck,
    ]);
    assert!(
        first.is_empty(),
        "interrupted run leaked stdout: {}",
        String::from_utf8_lossy(&first)
    );

    // Second half: resume and finish.
    let resumed = stdout_of(&["stream-analyze", logs, "--racks", "1", "--resume", ck]);
    assert_eq!(
        resumed,
        batch,
        "resumed stream-analyze differs from analyze:\n--- analyze ---\n{}\n--- resumed ---\n{}",
        String::from_utf8_lossy(&batch),
        String::from_utf8_lossy(&resumed)
    );
}

#[test]
fn periodic_checkpoints_do_not_change_the_output() {
    let tmp = TempDir::new("cadence");
    let logs = tmp.join("logs");
    generate(&logs);
    let logs = logs.to_str().unwrap();
    let ck = tmp.join("ck.txt");

    let plain = stdout_of(&["stream-analyze", logs, "--racks", "1"]);
    let checkpointed = stdout_of(&[
        "stream-analyze",
        logs,
        "--racks",
        "1",
        "--checkpoint-every",
        "50000",
        "--checkpoint",
        ck.to_str().unwrap(),
    ]);
    assert_eq!(checkpointed, plain);
    assert!(ck.exists(), "cadence run should leave a checkpoint behind");

    // The checkpoint left behind holds the state the run ended in, past
    // the last multiple of 50000: resuming it reads no log byte and
    // prints the full output.
    let metrics = tmp.join("m.json");
    let resumed = stdout_of(&[
        "stream-analyze",
        logs,
        "--racks",
        "1",
        "--resume",
        ck.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    let batch = stdout_of(&["analyze", logs, "--racks", "1"]);
    assert_eq!(resumed, batch);
    assert_eq!(counter(&metrics, "stream.bytes_read"), 0);
}

#[test]
fn stop_without_checkpoint_path_is_an_error() {
    let tmp = TempDir::new("badstop");
    let logs = tmp.join("logs");
    generate(&logs);

    let out = Command::new(bin())
        .args([
            "stream-analyze",
            logs.to_str().unwrap(),
            "--racks",
            "1",
            "--stop-after",
            "100",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--checkpoint"), "stderr: {stderr}");
}

/// Records before each chunk (text) or block (binary) of `ce.log` after
/// its first, and the log's record count: where a resumed reader lands.
fn chunk_starts(path: &Path) -> (Vec<u64>, u64) {
    let file = File::open(path).unwrap();
    let mut sizes = Vec::new();
    if binfmt::file_is_binlog(path).unwrap() {
        let mut reader = BinReader::new(file, binfmt::CE);
        while let Some(chunk) = reader.next_chunk().unwrap() {
            sizes.push(chunk.records.len() as u64);
        }
    } else {
        let mut reader = ChunkReader::new(file, ce::FORMAT, STREAM_CHUNK_BYTES);
        while let Some(chunk) = reader.next_chunk().unwrap() {
            sizes.push(chunk.records.len() as u64);
        }
    }
    let starts = sizes
        .iter()
        .scan(0, |at, n| {
            *at += n;
            Some(*at)
        })
        .collect::<Vec<_>>();
    let total = starts.last().copied().unwrap_or(0);
    (starts[..starts.len().saturating_sub(1)].to_vec(), total)
}

/// `ce.log`'s saved offset, from the checkpoint's one `log` line.
fn saved_offset(ck: &Path) -> u64 {
    let text = std::fs::read_to_string(ck).unwrap();
    let logs: Vec<Vec<&str>> = text
        .lines()
        .filter(|l| l.starts_with("log "))
        .map(|l| l.split(' ').collect())
        .collect();
    assert_eq!(logs.len(), 1, "one position, ce.log's: {logs:?}");
    assert_eq!(logs[0][1], "ce");
    logs[0][3].parse().unwrap()
}

/// A counter's value in a `--metrics-out` file.
fn counter(metrics: &Path, name: &str) -> u64 {
    let text = std::fs::read_to_string(metrics).unwrap();
    let key = format!("{{\"name\":\"{name}\",");
    let line = text
        .lines()
        .find(|l| l.starts_with(&key))
        .unwrap_or_else(|| panic!("no {name}"));
    let value = line
        .rsplit_once("\"value\":")
        .unwrap()
        .1
        .trim_end_matches('}');
    value.parse().unwrap()
}

/// Stop and resume a 1-rack dataset in `format` at each chunk (text) or
/// block (binary) boundary of `ce.log`, one record either side of each,
/// in the middle, at its last record, at its end and past it (where the
/// run finishes and leaves its end checkpoint). Every resume must print
/// what `analyze` prints and read no byte before the saved offset.
fn resume_at_every_boundary(format: &str) {
    let tmp = TempDir::new(&format!("boundaries-{format}"));
    let dir = tmp.join("logs");
    stdout_of(&[
        "generate",
        "--racks",
        "1",
        "--seed",
        "42",
        "--format",
        format,
        "--out",
        dir.to_str().unwrap(),
    ]);
    let dir_str = dir.to_str().unwrap();
    let batch = stdout_of(&["analyze", dir_str, "--racks", "1"]);

    let (starts, total) = chunk_starts(&dir.join("ce.log"));
    assert!(starts.len() >= 2, "ce.log must span several chunks");
    let mut stops: Vec<u64> = starts.iter().flat_map(|&b| [b - 1, b, b + 1]).collect();
    stops.extend([total / 2, total - 1, total, total + 1]);
    stops.sort_unstable();
    stops.dedup();
    assert!(stops.len() >= 10, "only {} resume points", stops.len());
    let ce_len = std::fs::metadata(dir.join("ce.log")).unwrap().len();

    let check = |i: usize, stop: u64| {
        // Write at one worker count, resume at the other.
        let (write_w, resume_w) = if i.is_multiple_of(2) {
            ("1", "4")
        } else {
            ("4", "1")
        };
        let ck = tmp.join(&format!("ck-{i}"));
        let metrics = tmp.join(&format!("m-{i}.json"));
        let ck_str = ck.to_str().unwrap();
        let stop_str = stop.to_string();
        let head = stdout_with(
            &[
                "stream-analyze",
                dir_str,
                "--racks",
                "1",
                "--stop-after",
                &stop_str,
                "--checkpoint",
                ck_str,
            ],
            &[("ASTRA_WORKERS", write_w)],
        );
        // A stop past the last record is never reached: the run finishes.
        if stop > total {
            assert!(head == batch, "{format}: a run past its stop differs");
        } else {
            assert!(head.is_empty());
        }
        let resumed = stdout_with(
            &[
                "stream-analyze",
                dir_str,
                "--racks",
                "1",
                "--resume",
                ck_str,
                "--metrics-out",
                metrics.to_str().unwrap(),
            ],
            &[("ASTRA_WORKERS", resume_w)],
        );
        assert!(
            resumed == batch,
            "{format}: resuming after {stop} records differs from analyze"
        );
        let offset = saved_offset(&ck);
        let read = counter(&metrics, "stream.bytes_read");
        assert!(
            read <= ce_len - offset,
            "{format}: resuming after {stop} records read {read} bytes, more than the {} \
             after the saved offset {offset}",
            ce_len - offset
        );
    };
    // Two at a time: each pair of runs is independent.
    std::thread::scope(|scope| {
        for part in 0..2 {
            let (stops, check) = (&stops, &check);
            scope.spawn(move || {
                for (i, &stop) in stops.iter().enumerate().skip(part).step_by(2) {
                    check(i, stop);
                }
            });
        }
    });
}

#[test]
fn text_resumes_at_every_chunk_boundary() {
    resume_at_every_boundary("text");
}

#[test]
fn binary_resumes_at_every_block_boundary() {
    resume_at_every_boundary("binary");
}

/// `records` as `ce.log` bytes in `format`, without a binary header:
/// what a writer appends.
fn encode(format: LogFormat, records: &[CeRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    match format {
        LogFormat::Text => {
            astra_logs::io::write_lines_with(&mut out, records, |r, buf| r.to_line_into(buf))
                .unwrap();
        }
        LogFormat::Binary => {
            binfmt::write_records(&mut out, binfmt::CE, records).unwrap();
            out.drain(..binfmt::HEADER_LEN);
        }
    }
    out
}

/// A whole `ce.log` in `format` holding `blocks`, which declare `count`
/// records.
fn ce_log(format: LogFormat, count: usize, blocks: &[&[u8]]) -> Vec<u8> {
    let mut out = Vec::new();
    if format == LogFormat::Binary {
        out.extend(binfmt::header_bytes(binfmt::KIND_CE, count as u64));
    }
    for b in blocks {
        out.extend_from_slice(b);
    }
    out
}

/// A finished run with `--checkpoint` leaves its end state behind; after
/// `ce.log` grows, `--resume` reads only the appended bytes and prints
/// `analyze` of the grown directory. A binary writer appends whole
/// blocks and updates the header's record count, which the resumed
/// reader validates again.
fn an_end_checkpoint_resumes_a_grown_log(format: LogFormat) {
    let tmp = TempDir::new(&format!("grown-{format:?}"));
    let dir = tmp.join("logs");
    let ds = Dataset::generate(1, 42);
    ds.write_logs_as(&dir, format).unwrap();
    let ces = &ds.sim.ce_log;
    let cut = ces.len() * 3 / 4;
    let (head, tail) = (encode(format, &ces[..cut]), encode(format, &ces[cut..]));
    let ce_path = dir.join("ce.log");
    std::fs::write(&ce_path, ce_log(format, cut, &[&head])).unwrap();

    let dir_str = dir.to_str().unwrap();
    let ck = tmp.join("ck.txt");
    let first = stdout_of(&[
        "stream-analyze",
        dir_str,
        "--racks",
        "1",
        "--checkpoint",
        ck.to_str().unwrap(),
    ]);
    assert_eq!(first, stdout_of(&["analyze", dir_str, "--racks", "1"]));

    std::fs::write(&ce_path, ce_log(format, ces.len(), &[&head, &tail])).unwrap();
    let metrics = tmp.join("m.json");
    let resumed = stdout_of(&[
        "stream-analyze",
        dir_str,
        "--racks",
        "1",
        "--resume",
        ck.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    let batch = stdout_of(&["analyze", dir_str, "--racks", "1"]);
    assert!(
        resumed == batch,
        "{format:?}: resuming the grown log differs from analyze"
    );
    assert_eq!(
        counter(&metrics, "stream.bytes_read"),
        tail.len() as u64,
        "{format:?}: the resume must read exactly the appended bytes"
    );
}

#[test]
fn an_end_checkpoint_resumes_a_grown_text_log() {
    an_end_checkpoint_resumes_a_grown_log(LogFormat::Text);
}

#[test]
fn an_end_checkpoint_resumes_a_grown_binary_log() {
    an_end_checkpoint_resumes_a_grown_log(LogFormat::Binary);
}

/// A text dataset and a checkpoint written after `stop` records; returns
/// the checkpoint and `ce.log`'s saved offset.
fn checkpointed(tmp: &TempDir, logs: &Path, stop: u64) -> (PathBuf, u64) {
    let ck = tmp.join(&format!("ck-{stop}.txt"));
    stdout_of(&[
        "stream-analyze",
        logs.to_str().unwrap(),
        "--racks",
        "1",
        "--stop-after",
        &stop.to_string(),
        "--checkpoint",
        ck.to_str().unwrap(),
    ]);
    let offset = saved_offset(&ck);
    (ck, offset)
}

/// Resume `logs` from `ck`, expecting a refusal whose stderr holds
/// `needle`.
fn refused(logs: &Path, ck: &Path, needle: &str, why: &str) {
    let out = run(
        &[
            "stream-analyze",
            logs.to_str().unwrap(),
            "--racks",
            "1",
            "--resume",
            ck.to_str().unwrap(),
        ],
        &[],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{why}: resume succeeded");
    assert!(out.stdout.is_empty(), "{why}: resume printed a report");
    assert!(
        stderr.contains(needle),
        "{why}: stderr must hold {needle:?}: {stderr}"
    );
}

const CE_CHANGED: &str = "log ce.log changed since the checkpoint";

#[test]
fn resume_refuses_changed_logs_but_follows_grown_ones() {
    let tmp = TempDir::new("changed");
    let logs = tmp.join("logs");
    generate(&logs);
    // Inside ce.log's second chunk.
    let (ck, offset) = checkpointed(&tmp, &logs, 100_000);
    assert!(offset > 0, "the stop must lie past ce.log's first chunk");
    let ce_log = logs.join("ce.log");
    let original = std::fs::read(&ce_log).unwrap();

    // Truncated before the saved offset.
    std::fs::write(&ce_log, &original[..offset as usize - 1]).unwrap();
    refused(&logs, &ck, CE_CHANGED, "truncated ce.log");

    // Rewritten before the offset, same length: one digit changed.
    let mut rewritten = original.clone();
    let at = (offset as usize - 100..offset as usize)
        .find(|&i| rewritten[i].is_ascii_digit())
        .unwrap();
    rewritten[at] = if rewritten[at] == b'0' { b'1' } else { b'0' };
    std::fs::write(&ce_log, &rewritten).unwrap();
    refused(&logs, &ck, CE_CHANGED, "rewritten ce.log");

    // Replaced by another seed's log.
    let other = tmp.join("other");
    stdout_of(&[
        "generate",
        "--racks",
        "1",
        "--seed",
        "43",
        "--out",
        other.to_str().unwrap(),
    ]);
    std::fs::copy(other.join("ce.log"), &ce_log).unwrap();
    refused(&logs, &ck, CE_CHANGED, "replaced ce.log");

    // Only grown since the checkpoint: the resume folds the new records.
    let last = original[..original.len() - 1]
        .rsplit(|&b| b == b'\n')
        .next()
        .unwrap();
    let mut grown = original.clone();
    for _ in 0..3 {
        grown.extend_from_slice(last);
        grown.push(b'\n');
    }
    std::fs::write(&ce_log, &grown).unwrap();
    let logs_str = logs.to_str().unwrap();
    let batch = stdout_of(&["analyze", logs_str, "--racks", "1"]);
    let resumed = stdout_of(&[
        "stream-analyze",
        logs_str,
        "--racks",
        "1",
        "--resume",
        ck.to_str().unwrap(),
    ]);
    assert_eq!(
        resumed, batch,
        "a grown ce.log must resume to analyze's output"
    );
    assert!(
        batch.starts_with(b"286747 errors"),
        "the three appended CEs count"
    );

    // Emptied logs.
    std::fs::write(&ce_log, &original).unwrap();
    for file in ["ce.log", "het.log", "inventory.log", "sensors.log"] {
        std::fs::write(logs.join(file), b"").unwrap();
    }
    refused(&logs, &ck, CE_CHANGED, "emptied logs");

    // A position at byte 0 (a stop inside the first chunk) has no bytes
    // before it to compare; a log that ends before the consumed count
    // fails at its end, naming it.
    std::fs::write(&ce_log, &original).unwrap();
    let (early, offset) = checkpointed(&tmp, &logs, 1_000);
    assert_eq!(offset, 0);
    let cut = original[..original.len() / 1000]
        .iter()
        .rposition(|&b| b == b'\n')
        .unwrap();
    std::fs::write(&ce_log, &original[..=cut]).unwrap();
    refused(
        &logs,
        &early,
        CE_CHANGED,
        "ce.log cut inside its first chunk",
    );
}

#[test]
fn older_checkpoints_are_refused_naming_the_file_and_version() {
    let tmp = TempDir::new("versions");
    let logs = tmp.join("logs");
    generate(&logs);
    let (ck, _) = checkpointed(&tmp, &logs, 100_000);
    let v4 = std::fs::read_to_string(&ck).unwrap();
    assert!(v4.starts_with("astra-stream-checkpoint v4\n"));
    for old in ["v2", "v3"] {
        let header = format!("astra-stream-checkpoint {old}");
        let path = tmp.join(&format!("{old}.txt"));
        std::fs::write(&path, v4.replacen("astra-stream-checkpoint v4", &header, 1)).unwrap();
        let needle = format!("checkpoint {}: written as {header}", path.display());
        refused(&logs, &path, &needle, &format!("a {old} checkpoint"));
    }
}
