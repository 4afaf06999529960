//! Corruption-tolerance equivalence: a lenient ingest over a
//! chaos-corrupted dataset must produce byte-for-byte the output of a
//! clean dataset with exactly the quarantined records removed — no more,
//! no less — at any worker count; strict mode must refuse the corrupted
//! dataset with a typed report; and a checkpoint write torn mid-flight
//! must be detected and salvage-resumed with identical stdout. A lenient
//! `stream-analyze` stopped before, inside or after the quarantined
//! lines of `ce.log` (the one log it reads) resumes to the uninterrupted
//! run's stdout and quarantine tally.
//!
//! Subprocesses, not in-process calls, because stdout is the contract
//! under test and the metric registry is process-global. The chaos
//! injection itself runs in-process (`astra_logs::chaos`) so the test
//! can use the manifest's damaged-line list to rebuild the expected
//! clean dataset.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

use astra_logs::io::ChunkReader;
use astra_logs::{ce, chaos, LineFormat};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_astra-mem")
}

/// Unique per call; removed on drop even if the test panics.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "astra-chaos-ingest-{tag}-{}-{}",
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

/// Run the binary with optional env overrides; return the raw output.
fn run(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(bin());
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn astra-mem")
}

/// Run, asserting success; return stdout verbatim.
fn stdout_of(args: &[&str], envs: &[(&str, &str)]) -> Vec<u8> {
    let out = run(args, envs);
    assert!(
        out.status.success(),
        "astra-mem {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn generate(dir: &Path) {
    stdout_of(
        &[
            "generate",
            "--racks",
            "1",
            "--seed",
            "42",
            "--out",
            dir.to_str().unwrap(),
        ],
        &[],
    );
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// A generated dataset, a chaos-corrupted copy, and the expected clean
/// dataset (clean minus exactly the records the chaos manifest damaged).
fn corrupted_fixture(tmp: &TempDir, seed: u64) -> (PathBuf, PathBuf, chaos::ChaosManifest) {
    let clean = tmp.join("clean");
    generate(&clean);
    let corrupt = tmp.join("corrupt");
    copy_dir(&clean, &corrupt);
    let manifest = chaos::corrupt_dir(&corrupt, &chaos::ChaosConfig::with_seed(seed)).unwrap();
    assert!(
        manifest.total().total() > 0,
        "chaos must inject at least some corruption"
    );

    let expected = tmp.join("expected");
    copy_dir(&clean, &expected);
    for file in &manifest.files {
        let text = std::fs::read_to_string(clean.join(&file.name)).unwrap();
        let damaged: std::collections::HashSet<usize> =
            file.damaged_clean_lines.iter().copied().collect();
        let mut kept = String::with_capacity(text.len());
        for (i, line) in text.lines().enumerate() {
            if !damaged.contains(&i) {
                kept.push_str(line);
                kept.push('\n');
            }
        }
        std::fs::write(expected.join(&file.name), kept).unwrap();
    }
    (corrupt, expected, manifest)
}

#[test]
fn strict_mode_refuses_a_corrupted_dataset_with_a_typed_report() {
    let tmp = TempDir::new("strict");
    let (corrupt, _, _) = corrupted_fixture(&tmp, 7);
    let corrupt = corrupt.to_str().unwrap();

    for cmd in ["analyze", "stream-analyze"] {
        let out = run(&[cmd, corrupt, "--racks", "1"], &[]);
        assert!(
            !out.status.success(),
            "{cmd} must refuse a corrupted dataset under the strict default"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("corrupt") && stderr.contains("quarantined"),
            "{cmd} stderr must carry the typed report: {stderr}"
        );
        assert!(
            stderr.contains("--lenient"),
            "{cmd} stderr must hint at the lenient escape hatch: {stderr}"
        );
    }
}

#[test]
fn lenient_output_equals_clean_minus_quarantined_at_any_worker_count() {
    let tmp = TempDir::new("equiv");
    let (corrupt, expected, _) = corrupted_fixture(&tmp, 7);
    let corrupt = corrupt.to_str().unwrap();
    let expected = expected.to_str().unwrap();

    // `--max-bad-frac 0.5`: the tiny het.log legitimately loses a third
    // of its lines to the (scaled-down) injection, which the 5% default
    // budget would rightly refuse.
    for workers in ["1", "2", "4"] {
        let envs = [("ASTRA_WORKERS", workers)];
        let want = stdout_of(&["analyze", expected, "--racks", "1"], &envs);
        assert!(!want.is_empty());
        let got = stdout_of(
            &[
                "analyze",
                corrupt,
                "--racks",
                "1",
                "--lenient",
                "--max-bad-frac",
                "0.5",
            ],
            &envs,
        );
        assert_eq!(
            got,
            want,
            "lenient analyze over corrupted logs differs from clean-minus-quarantined \
             at {workers} workers:\n--- expected ---\n{}\n--- got ---\n{}",
            String::from_utf8_lossy(&want),
            String::from_utf8_lossy(&got)
        );
    }

    // The streaming engine enforces the same policy over the same merge.
    let want = stdout_of(&["stream-analyze", expected, "--racks", "1"], &[]);
    let got = stdout_of(
        &[
            "stream-analyze",
            corrupt,
            "--racks",
            "1",
            "--lenient",
            "--max-bad-frac",
            "0.5",
        ],
        &[],
    );
    assert_eq!(got, want, "stream-analyze lenient equivalence broken");

    // `report` additionally consumes het, inventory, and sensor records,
    // so this equivalence proves quarantining is exact on every log.
    let want = stdout_of(&["report", expected, "--racks", "1", "--seed", "42"], &[]);
    let got = stdout_of(
        &[
            "report",
            corrupt,
            "--racks",
            "1",
            "--seed",
            "42",
            "--lenient",
            "--max-bad-frac",
            "0.5",
        ],
        &[],
    );
    assert_eq!(got, want, "report lenient equivalence broken");
}

#[test]
fn fsck_report_matches_the_injected_manifest_exactly() {
    let tmp = TempDir::new("fsck");
    let (corrupt, expected, manifest) = corrupted_fixture(&tmp, 11);

    // Corrupted dataset: per-file counts must equal what chaos injected,
    // and finding corruption is a nonzero exit.
    let out = run(&["fsck", corrupt.to_str().unwrap()], &[]);
    assert!(!out.status.success(), "fsck of a dirty dataset must fail");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        manifest.report(),
        "fsck report differs from the injected-corruption manifest"
    );

    // The rebuilt expected dataset is clean, and clean is exit 0.
    let out = run(&["fsck", expected.to_str().unwrap()], &[]);
    assert!(out.status.success(), "fsck of a clean dataset must pass");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("total: clean"),
        "clean fsck report: {stdout}"
    );
}

#[test]
fn torn_checkpoint_is_salvaged_and_resume_output_is_identical() {
    let tmp = TempDir::new("torn");
    let logs = tmp.join("logs");
    generate(&logs);
    let logs = logs.to_str().unwrap();
    let ck = tmp.join("ck.txt");
    let ck_str = ck.to_str().unwrap();

    let batch = stdout_of(&["analyze", logs, "--racks", "1"], &[]);

    // Interrupt mid-stream with a complete checkpoint on disk...
    let first = stdout_of(
        &[
            "stream-analyze",
            logs,
            "--racks",
            "1",
            "--stop-after",
            "20000",
            "--checkpoint",
            ck_str,
        ],
        &[],
    );
    assert!(first.is_empty(), "interrupted run leaked stdout");

    // ...then tear a later checkpoint write: a partial next snapshot
    // strands in `ck.txt.tmp`, the rename never happens.
    let snapshot = std::fs::read(&ck).unwrap();
    chaos::tear_checkpoint(&ck, &snapshot, (snapshot.len() / 2) as u64).unwrap();

    let out = run(
        &["stream-analyze", logs, "--racks", "1", "--resume", ck_str],
        &[],
    );
    assert!(
        out.status.success(),
        "salvage resume failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("torn checkpoint"),
        "resume must report the torn file it skipped: {stderr}"
    );
    assert_eq!(
        out.stdout, batch,
        "salvage-resumed stream-analyze differs from analyze"
    );

    // The complementary tear: the next snapshot was written out in full
    // but the rename never happened — the fresher `.tmp` must win.
    let fresher = TempDir::new("fresher");
    let logs2 = fresher.join("logs");
    generate(&logs2);
    let logs2 = logs2.to_str().unwrap();
    let ck_a = fresher.join("a.txt");
    let ck_b = fresher.join("b.txt");
    for (path, stop) in [(&ck_a, "20000"), (&ck_b, "40000")] {
        stdout_of(
            &[
                "stream-analyze",
                logs2,
                "--racks",
                "1",
                "--stop-after",
                stop,
                "--checkpoint",
                path.to_str().unwrap(),
            ],
            &[],
        );
    }
    // a.txt = older checkpoint; a.txt.tmp = complete fresher snapshot.
    let complete = std::fs::read(&ck_b).unwrap();
    chaos::tear_checkpoint(&ck_a, &complete, complete.len() as u64).unwrap();
    let out = run(
        &[
            "stream-analyze",
            logs2,
            "--racks",
            "1",
            "--resume",
            ck_a.to_str().unwrap(),
        ],
        &[],
    );
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("salvaged checkpoint"),
        "resume must report salvaging the fresher snapshot: {stderr}"
    );
    assert_eq!(
        out.stdout, batch,
        "resume from the salvaged fresher snapshot differs from analyze"
    );
}

/// Hands out at most one line per `read`, so that a [`ChunkReader`]
/// with a 1-byte target yields one chunk per line.
struct LineReads<R>(R);

impl<R: BufRead> Read for LineReads<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.0.fill_buf()?;
        let line = avail
            .iter()
            .position(|&b| b == b'\n')
            .map_or(avail.len(), |i| i + 1);
        let n = line.min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.0.consume(n);
        Ok(n)
    }
}

/// For each quarantined line of a text log, the records before it, read
/// with the engine's own line ingest (ordering check included).
fn quarantined_at<T: Send>(path: &Path, format: LineFormat<T>) -> Vec<u64> {
    let file = BufReader::new(std::fs::File::open(path).unwrap());
    let mut reader = ChunkReader::new(LineReads(file), format, 1);
    let (mut records, mut at) = (0u64, Vec::new());
    while let Some(chunk) = reader.next_chunk().unwrap() {
        if !chunk.quarantine.is_empty() {
            at.push(records);
        }
        records += chunk.records.len() as u64;
    }
    at
}

/// The `ingest.quarantined.*` lines of a `--metrics-out` file.
fn quarantine_metrics(path: &Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .filter(|l| l.starts_with("{\"name\":\"ingest.quarantined."))
        .map(str::to_owned)
        .collect()
}

#[test]
fn lenient_resume_keeps_the_quarantine_tally() {
    let tmp = TempDir::new("lenient-resume");
    let (corrupt, _, _) = corrupted_fixture(&tmp, 7);
    let dir = corrupt.to_str().unwrap();
    // `stream-analyze DIR` under the fixture's lenient budget.
    let lenient = |extra: &[&str]| {
        let mut args = vec!["stream-analyze", dir, "--racks", "1", "--lenient"];
        args.extend(["--max-bad-frac", "0.5"]);
        args.extend(extra);
        run(&args, &[])
    };

    let whole_metrics = tmp.join("whole.json");
    let whole = lenient(&["--metrics-out", whole_metrics.to_str().unwrap()]);
    assert!(whole.status.success());
    let whole_note = String::from_utf8_lossy(&whole.stderr)
        .lines()
        .find(|l| l.starts_with("note: quarantined "))
        .expect("the lenient run notes its quarantine")
        .to_owned();
    let whole_tally = quarantine_metrics(&whole_metrics);
    assert!(!whole_tally.is_empty());

    // Just before ce.log's first quarantined line, between its first and
    // last, and just after its last. `--stop-after` counts CE records.
    let at = quarantined_at(&corrupt.join("ce.log"), ce::FORMAT);
    let (Some(&first), Some(&last)) = (at.first(), at.last()) else {
        panic!("the fixture must damage ce.log");
    };
    let mut stops = vec![first.max(1), (first + last) / 2 + 1, last + 1];
    stops.dedup();

    let mut stored_tally = None;
    for stop in stops {
        let ck = tmp.join(&format!("ck-{stop}"));
        let ck_str = ck.to_str().unwrap();
        let stop = stop.to_string();
        assert!(lenient(&["--stop-after", &stop, "--checkpoint", ck_str])
            .status
            .success());
        let metrics = tmp.join(&format!("m-{stop}.json"));
        let resumed = lenient(&[
            "--resume",
            ck_str,
            "--metrics-out",
            metrics.to_str().unwrap(),
        ]);
        assert!(
            resumed.status.success(),
            "resume after {stop} events failed"
        );
        assert_eq!(
            resumed.stdout, whole.stdout,
            "resume after {stop} events: stdout differs"
        );
        assert!(
            String::from_utf8_lossy(&resumed.stderr).contains(&whole_note),
            "resume after {stop} events must note {whole_note:?}"
        );
        assert_eq!(
            quarantine_metrics(&metrics),
            whole_tally,
            "resume after {stop} events: ingest.quarantined.* differ"
        );
        if std::fs::read_to_string(&ck)
            .unwrap()
            .contains("\nquarantined ")
        {
            stored_tally.get_or_insert((stop, ck));
        }
    }

    let (stop, ck) = stored_tally.expect("some stop lies past a chunk with quarantined lines");
    // The stored tally, like the rest of a checkpoint, does not depend
    // on the worker count.
    for workers in ["1", "4"] {
        let again = tmp.join(&format!("ck-{stop}-{workers}"));
        let mut args = vec!["stream-analyze", dir, "--racks", "1", "--lenient"];
        args.extend(["--max-bad-frac", "0.5", "--stop-after", stop.as_str()]);
        args.extend(["--checkpoint", again.to_str().unwrap()]);
        assert!(run(&args, &[("ASTRA_WORKERS", workers)]).status.success());
        assert!(
            std::fs::read(&again).unwrap() == std::fs::read(&ck).unwrap(),
            "the checkpoint after {stop} events differs at {workers} workers"
        );
    }

    // A strict resume of a checkpoint that stored a tally aborts as a
    // strict run would.
    let out = run(
        &[
            "stream-analyze",
            dir,
            "--racks",
            "1",
            "--resume",
            ck.to_str().unwrap(),
        ],
        &[],
    );
    assert!(
        !out.status.success(),
        "a strict resume of a stored tally must abort"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("corrupt") && stderr.contains("quarantined"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
}

/// Strict ingest covers exactly the logs a command reads: a garbage
/// line at the end of `het.log`, `inventory.log` and `sensors.log`
/// changes nothing for the commands that read `ce.log` alone, while
/// `report` (every log) and `fsck` (the whole directory) still fail,
/// naming the damage.
#[test]
fn damage_outside_ce_log_fails_only_the_commands_that_read_it() {
    let tmp = TempDir::new("contract");
    let clean = tmp.join("clean");
    stdout_of(
        &[
            "generate",
            "--racks",
            "2",
            "--seed",
            "42",
            "--out",
            clean.to_str().unwrap(),
        ],
        &[],
    );
    let damaged = tmp.join("damaged");
    copy_dir(&clean, &damaged);
    for name in ["het.log", "inventory.log", "sensors.log"] {
        let mut log = std::fs::read(damaged.join(name)).unwrap();
        log.extend_from_slice(b"sshd[1]: accepted publickey for root\n");
        std::fs::write(damaged.join(name), log).unwrap();
    }

    let commands: [&[&str]; 4] = [
        &["analyze"],
        &["triage"],
        &["stream-analyze"],
        &["shard-analyze", "--shards", "2"],
    ];
    for command in commands {
        let on = |dir: &Path| {
            let mut args = vec![command[0], dir.to_str().unwrap()];
            args.extend(&command[1..]);
            stdout_of(&args, &[])
        };
        let want = on(&clean);
        assert!(!want.is_empty(), "{command:?}");
        assert!(
            on(&damaged) == want,
            "{command:?}: damage outside ce.log changed the output"
        );
    }

    let report = run(&["report", damaged.to_str().unwrap()], &[]);
    assert!(!report.status.success(), "report must refuse the damage");
    assert!(report.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&report.stderr);
    assert!(
        stderr.contains("log het.log corrupt"),
        "report must name the damaged log: {stderr}"
    );

    let fsck = run(&["fsck", damaged.to_str().unwrap()], &[]);
    assert!(!fsck.status.success(), "fsck must report the damage");
    let stdout = String::from_utf8_lossy(&fsck.stdout);
    for name in ["het.log", "inventory.log", "sensors.log"] {
        assert!(
            stdout.contains(&format!("{name}: quarantined 1 ")),
            "fsck must name {name}: {stdout}"
        );
    }
}
