//! Golden equivalence of the incremental engine: `astra-mem
//! stream-analyze` must print byte-for-byte what `astra-mem analyze`
//! prints — including when the streaming run is split in half by a
//! mid-stream checkpoint and resumed in a second process, at every
//! chunk and block boundary of the logs. A resume against logs that no
//! longer hold what the checkpoint consumed must fail, naming the log.
//!
//! Subprocesses, not in-process calls, because stdout is the contract
//! under test and the metric registry is process-global. Only the resume
//! points are found in-process, by reading the logs as the engine does.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

use astra_core::stream::{EventStream, ResumePoint};
use astra_logs::binfmt::{self, BinFormat, BinReader};
use astra_logs::io::{ChunkReader, STREAM_CHUNK_BYTES};
use astra_logs::{ce, het, inventory, sensor, IngestOptions, LineFormat};

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

/// The four logs in stream order, as the checkpoint's `log` lines name
/// them, with their file names.
const LOGS: [(&str, &str); 4] = [
    ("ce", "ce.log"),
    ("het", "het.log"),
    ("inventory", "inventory.log"),
    ("sensors", "sensors.log"),
];

/// Records before each chunk (text) or block (binary) of a log after its
/// first, and the log's record count: where a resumed reader lands.
fn chunk_starts<T: Send>(path: &Path, line: LineFormat<T>, bin: BinFormat<T>) -> (Vec<u64>, u64) {
    let file = File::open(path).unwrap();
    let mut sizes = Vec::new();
    if binfmt::file_is_binlog(path).unwrap() {
        let mut reader = BinReader::new(file, bin);
        while let Some(chunk) = reader.next_chunk().unwrap() {
            sizes.push(chunk.records.len() as u64);
        }
    } else {
        let mut reader = ChunkReader::new(file, line, STREAM_CHUNK_BYTES);
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

/// The stream positions at which log `i` has consumed exactly each of
/// `targets[i]` records, plus the position where `ce.log` runs out and
/// the stream's length.
fn stream_positions(
    dir: &Path,
    targets: &[Vec<u64>; 4],
    ingest: IngestOptions,
) -> (Vec<u64>, u64, u64) {
    let mut stream = EventStream::open_with(dir, &ResumePoint::default(), ingest).unwrap();
    let (mut at, mut ce_end) = (0u64, 0u64);
    let mut positions = Vec::new();
    while let Some(ev) = stream.next_event().unwrap() {
        at += 1;
        let src = ev.source().index();
        let consumed = stream.consumed()[src];
        if targets[src].contains(&consumed) {
            positions.push(at);
        }
        if src == 0 {
            ce_end = at;
        }
    }
    (positions, ce_end, at)
}

/// Each log's saved offset, from the checkpoint's `log` lines.
fn saved_offsets(ck: &Path) -> [u64; 4] {
    let text = std::fs::read_to_string(ck).unwrap();
    let mut offsets = [None; 4];
    for line in text.lines() {
        let toks: Vec<&str> = line.split(' ').collect();
        if toks[0] == "log" {
            let i = LOGS.iter().position(|(name, _)| *name == toks[1]).unwrap();
            offsets[i] = Some(toks[3].parse().unwrap());
        }
    }
    offsets.map(|o| o.expect("a position for every log"))
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
/// block (binary) boundary of every log, one record either side of each,
/// each log's last record, and inside and past `ce.log`. Every resume
/// must print what `analyze` prints and read no byte before the saved
/// offsets.
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

    let bounds = [
        chunk_starts(&dir.join("ce.log"), ce::FORMAT, binfmt::CE),
        chunk_starts(&dir.join("het.log"), het::FORMAT, binfmt::HET),
        chunk_starts(
            &dir.join("inventory.log"),
            inventory::FORMAT,
            binfmt::INVENTORY,
        ),
        chunk_starts(&dir.join("sensors.log"), sensor::FORMAT, binfmt::SENSOR),
    ];
    assert!(bounds[0].0.len() >= 2, "ce.log must span several chunks");
    let targets = bounds.map(|(starts, total)| {
        let mut t: Vec<u64> = starts.iter().flat_map(|&b| [b - 1, b, b + 1]).collect();
        t.extend([total - 1, total]);
        t
    });
    let (mut stops, ce_end, len) = stream_positions(&dir, &targets, IngestOptions::default());
    stops.extend([ce_end / 2, (ce_end + len) / 2]);
    stops.sort_unstable();
    stops.dedup();
    assert!(stops.len() >= 20, "only {} resume points", stops.len());

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
        let stop = stop.to_string();
        let head = stdout_with(
            &[
                "stream-analyze",
                dir_str,
                "--racks",
                "1",
                "--stop-after",
                &stop,
                "--checkpoint",
                ck_str,
            ],
            &[("ASTRA_WORKERS", write_w)],
        );
        assert!(head.is_empty());
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
            "{format}: resuming after {stop} events differs from analyze"
        );
        let offsets = saved_offsets(&ck);
        let rest: u64 = LOGS
            .iter()
            .zip(offsets)
            .map(|((_, file), offset)| std::fs::metadata(dir.join(file)).unwrap().len() - offset)
            .sum();
        let read = counter(&metrics, "stream.bytes_read");
        assert!(
            read <= rest,
            "{format}: resuming after {stop} events read {read} bytes, more than the {rest} \
             after the saved offsets {offsets:?}"
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

/// A text dataset and a checkpoint written inside its second `ce.log`
/// chunk; returns the checkpoint and `ce.log`'s saved offset.
fn checkpointed(tmp: &TempDir, logs: &Path) -> (PathBuf, u64) {
    let ck = tmp.join("ck.txt");
    stdout_of(&[
        "stream-analyze",
        logs.to_str().unwrap(),
        "--racks",
        "1",
        "--stop-after",
        "100000",
        "--checkpoint",
        ck.to_str().unwrap(),
    ]);
    let offset = saved_offsets(&ck)[0];
    assert!(offset > 0, "the stop must lie past ce.log's first chunk");
    (ck, offset)
}

/// Resume `logs` from `ck`, expecting a refusal that names `log`.
fn refused(logs: &Path, ck: &Path, log: &str, why: &str) {
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
        stderr.contains(&format!("log {log} changed since the checkpoint")),
        "{why}: stderr must name {log}: {stderr}"
    );
}

#[test]
fn resume_refuses_changed_logs_but_follows_grown_ones() {
    let tmp = TempDir::new("changed");
    let logs = tmp.join("logs");
    generate(&logs);
    let (ck, offset) = checkpointed(&tmp, &logs);
    let ce_log = logs.join("ce.log");
    let original = std::fs::read(&ce_log).unwrap();

    // Truncated before the saved offset.
    std::fs::write(&ce_log, &original[..offset as usize - 1]).unwrap();
    refused(&logs, &ck, "ce.log", "truncated ce.log");

    // Rewritten before the offset, same length: one digit changed.
    let mut rewritten = original.clone();
    let at = (offset as usize - 100..offset as usize)
        .find(|&i| rewritten[i].is_ascii_digit())
        .unwrap();
    rewritten[at] = if rewritten[at] == b'0' { b'1' } else { b'0' };
    std::fs::write(&ce_log, &rewritten).unwrap();
    refused(&logs, &ck, "ce.log", "rewritten ce.log");

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
    refused(&logs, &ck, "ce.log", "replaced ce.log");

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
    for (_, file) in LOGS {
        std::fs::write(logs.join(file), b"").unwrap();
    }
    refused(&logs, &ck, "ce.log", "emptied logs");
}

/// The checkpoint as a v2 writer would have left it: no `log` lines, and
/// `meta`'s CRC over the two lines left.
fn as_v2(ck: &Path) -> Vec<u8> {
    let text = std::fs::read_to_string(ck).unwrap();
    let mut out = String::new();
    let mut meta = String::new();
    for line in text.lines() {
        if line == "astra-stream-checkpoint v3" {
            out.push_str("astra-stream-checkpoint v2\n");
        } else if line.starts_with("racks ") || line.starts_with("consumed ") {
            meta.push_str(line);
            meta.push('\n');
        } else if line.starts_with("crc meta ") {
            out.push_str(&meta);
            out.push_str(&format!(
                "crc meta {:08x}\n",
                astra_util::crc32(meta.as_bytes())
            ));
        } else if !line.starts_with("log ") {
            out.push_str(line);
            out.push('\n');
        }
    }
    out.into_bytes()
}

#[test]
fn a_v2_checkpoint_replays_from_byte_0() {
    let tmp = TempDir::new("v2");
    let logs = tmp.join("logs");
    generate(&logs);
    let (ck, _) = checkpointed(&tmp, &logs);
    let v2 = tmp.join("v2.txt");
    std::fs::write(&v2, as_v2(&ck)).unwrap();
    let logs_str = logs.to_str().unwrap();
    let metrics = tmp.join("m.json");
    let batch = stdout_of(&["analyze", logs_str, "--racks", "1"]);
    let resumed = stdout_of(&[
        "stream-analyze",
        logs_str,
        "--racks",
        "1",
        "--resume",
        v2.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(resumed, batch, "a v2 checkpoint must still resume");
    let total: u64 = LOGS
        .iter()
        .map(|(_, file)| std::fs::metadata(logs.join(file)).unwrap().len())
        .sum();
    assert_eq!(
        counter(&metrics, "stream.bytes_read"),
        total,
        "v2 replays every byte"
    );

    // A byte-0 position whose log ends before its consumed count fails
    // at that log's end, naming it.
    let ce_log = logs.join("ce.log");
    let original = std::fs::read(&ce_log).unwrap();
    let cut = original[..original.len() / 10]
        .iter()
        .rposition(|&b| b == b'\n')
        .unwrap();
    std::fs::write(&ce_log, &original[..=cut]).unwrap();
    refused(&logs, &v2, "ce.log", "v2 resume of a cut ce.log");
}
