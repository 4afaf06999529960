//! Supervised sharded analysis: `astra-mem shard-analyze` must print
//! byte-for-byte what `astra-mem analyze` prints — across shard counts,
//! and even when the chaos injector makes a worker crash, hang, or tear
//! its snapshot mid-run. When every retry is exhausted, strict mode must
//! abort with nothing on stdout, while `--degraded` must emit a partial
//! report behind an explicit missing-racks banner and the dedicated
//! "partial" exit code.
//!
//! Subprocesses, not in-process calls, because process supervision (spawn,
//! kill-and-reap, exit codes) is exactly the machinery under test.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_astra-mem")
}

/// Unique per call; removed on drop even if the test panics.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "astra-shard-sup-{tag}-{}-{}",
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
    cmd.output().expect("spawn astra-mem")
}

/// Run the binary, asserting success; return stdout verbatim.
fn stdout_of(args: &[&str], envs: &[(&str, &str)]) -> Vec<u8> {
    let out = run(args, envs);
    assert!(
        out.status.success(),
        "astra-mem {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Generate a binary-format dataset (binary keeps the repeated full-log
/// parses these tests do cheap enough for debug builds).
fn generate(dir: &Path, racks: &str) {
    stdout_of(
        &[
            "generate",
            "--racks",
            racks,
            "--seed",
            "42",
            "--format",
            "binary",
            "--out",
            dir.to_str().unwrap(),
        ],
        &[],
    );
}

#[test]
fn shard_analyze_is_byte_identical_to_analyze_at_1_2_4_8_shards() {
    let tmp = TempDir::new("identity");
    let logs = tmp.join("logs");
    generate(&logs, "8");
    let logs = logs.to_str().unwrap();

    let batch = stdout_of(&["analyze", logs], &[]);
    assert!(!batch.is_empty());

    for shards in ["1", "2", "4", "8"] {
        let sharded = stdout_of(&["shard-analyze", logs, "--shards", shards], &[]);
        assert_eq!(
            sharded,
            batch,
            "shard-analyze --shards {shards} differs from analyze:\n--- analyze ---\n{}\n--- sharded ---\n{}",
            String::from_utf8_lossy(&batch),
            String::from_utf8_lossy(&sharded)
        );
    }
}

/// Chaos env for one injected fault with a one-trip budget: the first
/// attempt of the targeted shard fails, every retry runs clean.
fn one_shot_chaos<'a>(spec: &'a str, trips: &'a str) -> Vec<(&'a str, &'a str)> {
    vec![
        ("ASTRA_SHARD_CHAOS", spec),
        ("ASTRA_SHARD_CHAOS_TRIPS", trips),
        ("ASTRA_SHARD_CHAOS_MAX_TRIPS", "1"),
    ]
}

#[test]
fn an_injected_crash_is_retried_and_the_output_is_identical() {
    let tmp = TempDir::new("crash");
    let logs = tmp.join("logs");
    generate(&logs, "2");
    let logs = logs.to_str().unwrap();
    let trips = tmp.join("trips");
    let trips = trips.to_str().unwrap();

    let batch = stdout_of(&["analyze", logs], &[]);
    let out = run(
        &["shard-analyze", logs, "--shards", "2"],
        &one_shot_chaos("abort:0:1000", trips),
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "supervisor failed:\n{stderr}");
    assert!(
        stderr.contains("retrying"),
        "expected a retry notice on stderr, got:\n{stderr}"
    );
    assert_eq!(
        out.stdout, batch,
        "output after crash-and-retry differs from analyze"
    );
    // The injector really fired exactly once.
    assert_eq!(std::fs::read_to_string(trips).unwrap().lines().count(), 1);
}

#[test]
fn a_hung_worker_is_timed_out_killed_and_retried() {
    let tmp = TempDir::new("hang");
    let logs = tmp.join("logs");
    generate(&logs, "2");
    let logs = logs.to_str().unwrap();
    let trips = tmp.join("trips");
    let trips = trips.to_str().unwrap();

    let batch = stdout_of(&["analyze", logs], &[]);
    let out = run(
        &["shard-analyze", logs, "--shards", "2", "--timeout", "2"],
        &one_shot_chaos("hang:1:500", trips),
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "supervisor failed:\n{stderr}");
    assert!(
        stderr.contains("timed out"),
        "expected a timeout notice on stderr, got:\n{stderr}"
    );
    assert_eq!(
        out.stdout, batch,
        "output after hang-timeout-retry differs from analyze"
    );
}

#[test]
fn a_torn_snapshot_is_rejected_and_retried() {
    let tmp = TempDir::new("torn");
    let logs = tmp.join("logs");
    generate(&logs, "2");
    let logs = logs.to_str().unwrap();
    let trips = tmp.join("trips");
    let trips = trips.to_str().unwrap();

    let batch = stdout_of(&["analyze", logs], &[]);
    let out = run(
        &["shard-analyze", logs, "--shards", "2"],
        &one_shot_chaos("torn:1:500", trips),
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "supervisor failed:\n{stderr}");
    assert!(
        stderr.contains("rejected snapshot"),
        "expected a snapshot-rejection notice on stderr, got:\n{stderr}"
    );
    assert_eq!(
        out.stdout, batch,
        "output after torn-snapshot-retry differs from analyze"
    );
}

#[test]
fn exhausted_retries_abort_strictly_with_no_partial_output() {
    let tmp = TempDir::new("strict");
    let logs = tmp.join("logs");
    generate(&logs, "2");
    let logs = logs.to_str().unwrap();

    // No trip budget: the targeted shard fails on every attempt.
    let out = run(
        &["shard-analyze", logs, "--shards", "2", "--retries", "1"],
        &[("ASTRA_SHARD_CHAOS", "abort:0:1000")],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "strict mode must fail");
    assert_eq!(
        out.status.code(),
        Some(1),
        "strict failure is a plain error"
    );
    assert!(
        out.stdout.is_empty(),
        "strict mode leaked partial output:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        stderr.contains("failed permanently"),
        "expected a permanent-failure notice on stderr, got:\n{stderr}"
    );
    assert!(
        stderr.contains("--degraded"),
        "strict failure should hint at --degraded, got:\n{stderr}"
    );
}

#[test]
fn degraded_mode_emits_a_partial_report_with_banner_and_exit_code_3() {
    let tmp = TempDir::new("degraded");
    let logs = tmp.join("logs");
    generate(&logs, "2");
    let logs = logs.to_str().unwrap();

    let out = run(
        &[
            "shard-analyze",
            logs,
            "--shards",
            "2",
            "--retries",
            "1",
            "--degraded",
        ],
        &[("ASTRA_SHARD_CHAOS", "abort:0:1000")],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(3),
        "degraded partial output must use its own exit code; stderr:\n{stderr}"
    );
    assert!(
        stdout.starts_with("DEGRADED: missing racks 0..1"),
        "expected the missing-racks banner first, got:\n{stdout}"
    );
    assert!(
        stdout.contains("faults on"),
        "expected a (partial) summary after the banner, got:\n{stdout}"
    );
    // The partial report covers only the surviving shard, so it must
    // differ from the full analysis.
    let batch = stdout_of(&["analyze", logs], &[]);
    assert_ne!(out.stdout, batch, "degraded output should be partial");
}

#[test]
fn a_failed_worker_keeps_its_reason_and_a_clean_one_stays_quiet() {
    let tmp = TempDir::new("stderr");
    let logs = tmp.join("logs");
    stdout_of(
        &[
            "generate",
            "--racks",
            "1",
            "--seed",
            "42",
            "--out",
            logs.to_str().unwrap(),
        ],
        &[],
    );
    let logs_str = logs.to_str().unwrap();

    // A clean run: the workers' own notes stay in their stderr files.
    let out = run(&["shard-analyze", logs_str, "--shards", "1"], &[]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr.matches("using manifest").count(),
        1,
        "only the supervisor's own note may show:\n{stderr}"
    );

    // One bad ce.log line: the worker fails strictly on every attempt,
    // and its reason (file, line, quarantine reason) reaches the retry
    // note, the dead-shard line and the strict error.
    let mut ce = std::fs::OpenOptions::new()
        .append(true)
        .open(logs.join("ce.log"))
        .unwrap();
    std::io::Write::write_all(&mut ce, b"@@x\n").unwrap();
    drop(ce);
    let out = run(
        &["shard-analyze", logs_str, "--shards", "1", "--retries", "1"],
        &[],
    );
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let lines = std::fs::read(logs.join("ce.log"))
        .unwrap()
        .iter()
        .filter(|&&b| b == b'\n')
        .count();
    let reason = format!("line {lines}: [unknown-format] \"@@x\"");
    for (what, marker) in [
        ("retry note", "retrying in"),
        ("dead-shard line", "is dead:"),
        ("strict error", "failed permanently:"),
    ] {
        let at = stderr
            .find(marker)
            .unwrap_or_else(|| panic!("no {what}:\n{stderr}"));
        let rest = &stderr[at..];
        let next = rest[marker.len()..]
            .find("shard 0")
            .map_or(rest.len(), |i| i + marker.len());
        let message = &rest[..next];
        assert!(
            message.contains("log ce.log corrupt") && message.contains(&reason),
            "the {what} must carry the worker's reason:\n{message}"
        );
    }
}

/// `(state, parent)` of process `pid` from `/proc/<pid>/stat`, or `None`
/// once it is gone.
#[cfg(target_os = "linux")]
fn proc_stat(pid: u32) -> Option<(char, u32)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name is parenthesised and may hold spaces.
    let mut rest = stat[stat.rfind(')')? + 2..].split(' ');
    let state = rest.next()?.chars().next()?;
    Some((state, rest.next()?.parse().ok()?))
}

/// The processes whose parent is `pid`.
#[cfg(target_os = "linux")]
fn children_of(pid: u32) -> Vec<u32> {
    std::fs::read_dir("/proc")
        .unwrap()
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&p| proc_stat(p).is_some_and(|(_, parent)| parent == pid))
        .collect()
}

#[cfg(target_os = "linux")]
#[test]
fn workers_do_not_outlive_a_killed_supervisor() {
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let tmp = TempDir::new("orphans");
    let logs = tmp.join("logs");
    generate(&logs, "2");
    for signal in ["KILL", "TERM"] {
        // Worker 0 hangs after 10 records; the deadline is far off, so
        // only the supervisor's death can end it.
        let mut supervisor = Command::new(bin())
            .args(["shard-analyze", logs.to_str().unwrap(), "--shards", "2"])
            .args(["--timeout", "600"])
            .env("ASTRA_SHARD_CHAOS", "hang:0:10")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn astra-mem");
        let pid = supervisor.id();
        let mut workers: Vec<u32> = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut first_seen = None;
        while Instant::now() < deadline {
            for w in children_of(pid) {
                if !workers.contains(&w) {
                    workers.push(w);
                }
            }
            // Give the workers half a second past the first sighting to
            // reach the hang.
            if let Some(at) = first_seen {
                if Instant::now() >= at + Duration::from_millis(500) {
                    break;
                }
            } else if !workers.is_empty() {
                first_seen = Some(Instant::now());
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(!workers.is_empty(), "SIG{signal}: no worker ever started");
        let sent = Command::new("kill")
            .args([format!("-{signal}"), pid.to_string()])
            .status()
            .expect("run kill");
        assert!(sent.success());
        supervisor.wait().unwrap();
        std::thread::sleep(Duration::from_secs(1));
        let alive: Vec<u32> = workers
            .iter()
            .copied()
            .filter(|&w| proc_stat(w).is_some_and(|(state, _)| state != 'Z'))
            .collect();
        // Leave nothing running whatever the verdict.
        for w in &alive {
            let _ = Command::new("kill")
                .args(["-KILL", &w.to_string()])
                .status();
        }
        assert!(
            alive.is_empty(),
            "SIG{signal} to the supervisor left workers {alive:?} of {workers:?} running"
        );
    }
}

/// The run scratch directories (`astra-shard-<pid>-<n>`) under `tmp`.
#[cfg(target_os = "linux")]
fn scratch_dirs(tmp: &Path) -> Vec<String> {
    let mut dirs: Vec<String> = std::fs::read_dir(tmp)
        .unwrap()
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|name| {
            name.strip_prefix("astra-shard-")
                .and_then(|rest| rest.split_once('-'))
                .is_some_and(|(pid, n)| {
                    [pid, n]
                        .iter()
                        .all(|s| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()))
                })
        })
        .collect();
    dirs.sort();
    dirs
}

#[cfg(target_os = "linux")]
#[test]
fn the_next_run_removes_a_killed_supervisors_scratch_directory() {
    use std::process::{Child, Stdio};
    use std::time::{Duration, Instant};

    let tmp = TempDir::new("stale");
    let logs = tmp.join("logs");
    generate(&logs, "2");
    let logs = logs.to_str().unwrap();
    let scratch = tmp.join("tmp");
    std::fs::create_dir_all(&scratch).unwrap();
    let tmpdir = scratch.to_str().unwrap();
    let batch = stdout_of(&["analyze", logs], &[]);

    let kill = |mut child: Child| {
        let _ = child.kill();
        child.wait().unwrap();
        // Its workers exit at their stdin's EOF.
        std::thread::sleep(Duration::from_secs(1));
    };
    // A supervisor whose worker 0 hangs after 10 records, once its
    // directory holds worker 1's finished snapshot.
    let hung = || -> (Child, String) {
        let child = Command::new(bin())
            .args(["shard-analyze", logs, "--shards", "2", "--timeout", "600"])
            .env("TMPDIR", tmpdir)
            .env("ASTRA_SHARD_CHAOS", "hang:0:10")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn astra-mem");
        let dir = format!("astra-shard-{}-0", child.id());
        let snapshot = scratch.join(&dir).join("shard-1.snap");
        let deadline = Instant::now() + Duration::from_secs(60);
        while !snapshot.exists() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        if !snapshot.exists() {
            kill(child);
            panic!("no {}", snapshot.display());
        }
        (child, dir)
    };
    let shard_analyze = || {
        run(
            &["shard-analyze", logs, "--shards", "2"],
            &[("TMPDIR", tmpdir)],
        )
    };

    let (killed, stale) = hung();
    kill(killed);
    assert_eq!(scratch_dirs(&scratch), std::slice::from_ref(&stale));

    // A live supervisor's directory survives a run started beside it;
    // the dead one's does not. The live one is killed before any assert.
    let (live, live_dir) = hung();
    let beside = shard_analyze();
    let left = scratch_dirs(&scratch);
    kill(live);
    assert!(
        beside.status.success(),
        "{}",
        String::from_utf8_lossy(&beside.stderr)
    );
    assert_eq!(beside.stdout, batch, "shard-analyze differs from analyze");
    assert_eq!(left, [live_dir], "{stale} should be gone");

    // Once that supervisor is killed too, the next run removes its
    // directory as well, and leaves none of its own.
    assert_eq!(shard_analyze().stdout, batch);
    assert_eq!(scratch_dirs(&scratch), Vec::<String>::new());
}
