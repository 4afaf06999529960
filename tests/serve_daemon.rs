//! Subprocess lifecycle tests for `astra-mem serve`: startup banner,
//! readiness, query surface, graceful shutdown over HTTP and over stdin
//! EOF, and kill-and-resume from the per-site checkpoint.
//!
//! Subprocesses, not in-process calls, because the daemon's process
//! contract is under test: the `listening on` banner, the exit code, and
//! the checkpoint a restart finds on disk. The tiny typed client in
//! `astra_serve::http` stands in for curl — CI has no network tools.

use std::io::{BufRead as _, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use astra_serve::http;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_astra-mem")
}

/// Unique per call; removed on drop even if the test panics.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "astra-serve-daemon-{tag}-{}-{}",
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

fn stdout_of(args: &[&str]) -> Vec<u8> {
    let out = Command::new(bin()).args(args).output().expect("spawn");
    assert!(
        out.status.success(),
        "astra-mem {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn generate(dir: &Path) {
    generate_as(dir, "text");
}

fn generate_as(dir: &Path, format: &str) {
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
}

/// A running `astra-mem serve` child with its bound address scraped from
/// the startup banner. Killed on drop so a failing test can't leak it.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(args: &[&str]) -> Daemon {
        let mut child = Command::new(bin())
            .arg("serve")
            .args(args)
            .args(["--listen", "127.0.0.1:0", "--poll-ms", "20"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn astra-mem serve");
        let mut banner = String::new();
        BufReader::new(child.stdout.as_mut().expect("stdout piped"))
            .read_line(&mut banner)
            .expect("read startup banner");
        let addr = banner
            .trim()
            .strip_prefix("listening on http://")
            .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
            .parse()
            .expect("banner address parses");
        Daemon { child, addr }
    }

    /// Poll `/health` until every site is ready.
    fn wait_ready(&self) {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(health) = http::get(self.addr, "/health") {
                if health.body.contains("\"ready\":true") {
                    return;
                }
            }
            assert!(Instant::now() < deadline, "daemon never became ready");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Wait for a clean exit after shutdown was requested.
    fn wait_exit(mut self) {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(status) = self.child.try_wait().expect("wait on daemon") {
                assert!(status.success(), "daemon exited with {status}");
                return;
            }
            if Instant::now() >= deadline {
                self.child.kill().ok();
                panic!("daemon did not exit within the deadline");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

#[test]
fn serve_answers_queries_and_shuts_down_over_http() {
    let tmp = TempDir::new("smoke");
    let logs = tmp.join("logs");
    generate(&logs);
    let expected = stdout_of(&["analyze", logs.to_str().unwrap(), "--racks", "1"]);

    let daemon = Daemon::spawn(&[logs.to_str().unwrap(), "--racks", "1"]);
    daemon.wait_ready();

    let analysis = http::get(daemon.addr, "/site/logs/analysis").unwrap();
    assert_eq!(analysis.status, 200);
    assert_eq!(
        analysis.body.as_bytes(),
        &expected[..],
        "served analysis differs from analyze stdout"
    );
    // The site reads ce.log and no other log.
    let summary = http::get(daemon.addr, "/site/logs").unwrap().body;
    assert_eq!(
        summary_field(&summary, "bytes_read"),
        std::fs::metadata(logs.join("ce.log")).unwrap().len(),
        "{summary}"
    );

    let metrics = http::get(daemon.addr, "/metrics").unwrap();
    assert!(
        metrics.body.contains("serve_requests_total")
            && metrics.body.contains("serve_request_seconds"),
        "metrics must export the serve counters and latency histogram: {}",
        metrics.body
    );
    let jsonl = http::get(daemon.addr, "/metrics.jsonl").unwrap();
    assert!(jsonl.body.contains("serve.requests"), "{}", jsonl.body);

    let bye = http::request(daemon.addr, "POST", "/shutdown").unwrap();
    assert_eq!(bye.status, 200);
    daemon.wait_exit();
}

/// Read system calls a process has made so far (`syscr` in
/// `/proc/<pid>/io`).
#[cfg(target_os = "linux")]
fn read_syscalls(pid: u32) -> u64 {
    let io = std::fs::read_to_string(format!("/proc/{pid}/io")).expect("read /proc/<pid>/io");
    io.lines()
        .find_map(|l| l.strip_prefix("syscr:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("syscr in /proc/<pid>/io")
}

/// Reaching ready costs reads in proportion to the log's blocks, not
/// its records: a tailed log that comes up dry is probed once per poll.
/// When a site still merged four logs, re-probing the dry ones once per
/// record popped from the others cost about 505,000 reads on this 1-rack
/// site in either format; reading its 286,744-record `ce.log` alone
/// takes under 1,000.
#[cfg(target_os = "linux")]
#[test]
fn reads_to_ready_scale_with_blocks_not_records() {
    for format in ["text", "binary"] {
        let tmp = TempDir::new(&format!("reads-{format}"));
        let logs = tmp.join("logs");
        generate_as(&logs, format);
        let expected = stdout_of(&["analyze", logs.to_str().unwrap(), "--racks", "1"]);

        let daemon = Daemon::spawn(&[logs.to_str().unwrap(), "--racks", "1"]);
        daemon.wait_ready();
        let reads = read_syscalls(daemon.child.id());
        assert!(
            reads < 10_000,
            "{format}: {reads} read system calls to ready"
        );
        let analysis = http::get(daemon.addr, "/site/logs/analysis").unwrap();
        assert_eq!(
            analysis.body.as_bytes(),
            &expected[..],
            "{format}: served analysis differs from analyze stdout"
        );
        http::request(daemon.addr, "POST", "/shutdown").unwrap();
        daemon.wait_exit();
    }
}

#[test]
fn serve_shuts_down_on_stdin_eof() {
    let tmp = TempDir::new("eof");
    let logs = tmp.join("logs");
    generate(&logs);

    let mut daemon = Daemon::spawn(&[logs.to_str().unwrap(), "--racks", "1"]);
    daemon.wait_ready();
    drop(daemon.child.stdin.take());
    daemon.wait_exit();
}

#[test]
fn serve_tails_two_sites_independently() {
    let tmp = TempDir::new("multi");
    let east = tmp.join("east");
    let west = tmp.join("west");
    generate(&east);
    generate(&west);

    let daemon = Daemon::spawn(&[
        east.to_str().unwrap(),
        west.to_str().unwrap(),
        "--racks",
        "1",
    ]);
    daemon.wait_ready();

    let sites = http::get(daemon.addr, "/sites").unwrap();
    assert!(
        sites.body.contains("\"site\":\"east\"") && sites.body.contains("\"site\":\"west\""),
        "{}",
        sites.body
    );
    let east_analysis = http::get(daemon.addr, "/site/east/analysis").unwrap();
    let west_analysis = http::get(daemon.addr, "/site/west/analysis").unwrap();
    assert_eq!(
        east_analysis.body, west_analysis.body,
        "same seed, same analysis"
    );

    http::request(daemon.addr, "POST", "/shutdown").unwrap();
    daemon.wait_exit();
}

/// A numeric field of a `/site/<name>` summary.
fn summary_field(summary: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let at = summary
        .find(&key)
        .unwrap_or_else(|| panic!("no {name}: {summary}"))
        + key.len();
    let digits: String = summary[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

#[test]
fn shutdown_checkpoint_resumes_with_identical_responses() {
    let tmp = TempDir::new("resume");
    let logs = tmp.join("logs");
    generate(&logs);
    let logs_str = logs.to_str().unwrap();

    // First life: ingest everything, record the response bodies, shut
    // down gracefully (which writes the final per-site checkpoint).
    let daemon = Daemon::spawn(&[logs_str, "--racks", "1", "--checkpoint-every", "1"]);
    daemon.wait_ready();
    let first_analysis = http::get(daemon.addr, "/site/logs/analysis").unwrap().body;
    let first_alerts = http::get(daemon.addr, "/site/logs/alerts").unwrap().body;
    let first_summary = http::get(daemon.addr, "/site/logs").unwrap().body;
    assert!(
        first_summary.contains("\"resumed\":false"),
        "{first_summary}"
    );
    http::request(daemon.addr, "POST", "/shutdown").unwrap();
    daemon.wait_exit();
    assert!(
        logs.join("serve.ckpt").exists(),
        "graceful shutdown must leave the final checkpoint behind"
    );

    // Second life: must resume from the checkpoint (not replay) and
    // answer every query byte-identically.
    let daemon = Daemon::spawn(&[logs_str, "--racks", "1"]);
    daemon.wait_ready();
    let summary = http::get(daemon.addr, "/site/logs").unwrap().body;
    assert!(
        summary.contains("\"resumed\":true"),
        "restart must resume from the shutdown checkpoint: {summary}"
    );
    // It seeks to the saved position: fewer bytes than ce.log holds,
    // and the quarantine tally the first life had.
    let log_bytes = std::fs::metadata(logs.join("ce.log")).unwrap().len();
    let bytes_read = summary_field(&summary, "bytes_read");
    assert!(
        bytes_read < log_bytes,
        "the restart read {bytes_read} of {log_bytes} ce.log bytes: {summary}"
    );
    assert_eq!(
        summary_field(&summary, "quarantined"),
        summary_field(&first_summary, "quarantined"),
        "the restart's quarantine tally differs: {summary}"
    );
    assert_eq!(
        http::get(daemon.addr, "/site/logs/analysis").unwrap().body,
        first_analysis,
        "resumed analysis differs from the pre-shutdown response"
    );
    assert_eq!(
        http::get(daemon.addr, "/site/logs/alerts").unwrap().body,
        first_alerts,
        "resumed alerts differ from the pre-shutdown response"
    );
    http::request(daemon.addr, "POST", "/shutdown").unwrap();
    daemon.wait_exit();
}

#[test]
fn serve_refuses_a_site_whose_checkpoint_is_an_older_version() {
    let tmp = TempDir::new("old-ckpt");
    let logs = tmp.join("logs");
    generate(&logs);
    let ckpt = logs.join("serve.ckpt");
    stdout_of(&[
        "stream-analyze",
        logs.to_str().unwrap(),
        "--racks",
        "1",
        "--stop-after",
        "1000",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]);
    let v4 = std::fs::read_to_string(&ckpt).unwrap();
    std::fs::write(
        &ckpt,
        v4.replacen(
            "astra-stream-checkpoint v4",
            "astra-stream-checkpoint v3",
            1,
        ),
    )
    .unwrap();
    let out = Command::new(bin())
        .args(["serve", logs.to_str().unwrap(), "--racks", "1"])
        .args(["--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .output()
        .expect("spawn");
    assert!(!out.status.success(), "serve started on a v3 checkpoint");
    assert!(out.stdout.is_empty(), "no listening banner");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&ckpt.display().to_string())
            && stderr.contains("astra-stream-checkpoint v3"),
        "the error must name the file and its version: {stderr}"
    );
}

#[test]
fn serve_rejects_checkpoint_flag_with_multiple_sites() {
    let tmp = TempDir::new("badflags");
    let a = tmp.join("a");
    let b = tmp.join("b");
    std::fs::create_dir_all(&a).unwrap();
    std::fs::create_dir_all(&b).unwrap();
    let out = Command::new(bin())
        .args([
            "serve",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--checkpoint",
            tmp.join("ck").to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("single site"), "stderr: {stderr}");
}

/// The `coalesce.groups` and `coalesce.mode.*` lines of a JSON-lines
/// metrics export.
fn coalesce_state_lines(jsonl: &str) -> Vec<String> {
    jsonl
        .lines()
        .filter(|l| {
            l.starts_with("{\"name\":\"coalesce.groups\"")
                || l.starts_with("{\"name\":\"coalesce.mode.")
        })
        .map(str::to_string)
        .collect()
}

#[test]
fn coalesce_gauges_after_the_last_append_match_analyze() {
    // Groups and faults per mode are state: after a site fed in four
    // appends is caught up, the daemon reports what one `analyze` of
    // the completed logs exports, not a sum over its publishes.
    let tmp = TempDir::new("gauges");
    let logs = tmp.join("logs");
    generate(&logs);
    let logs_str = logs.to_str().unwrap();
    let ce = std::fs::read(logs.join("ce.log")).unwrap();
    let mut cuts: Vec<usize> = (1..5)
        .map(|i| {
            let at = ce.len() * i / 5;
            at + ce[at..].iter().position(|&b| b == b'\n').unwrap() + 1
        })
        .collect();
    cuts.push(ce.len());
    std::fs::write(logs.join("ce.log"), &ce[..cuts[0]]).unwrap();

    let daemon = Daemon::spawn(&[logs_str, "--racks", "1"]);
    daemon.wait_ready();
    for pair in cuts.windows(2) {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(logs.join("ce.log"))
            .unwrap();
        std::io::Write::write_all(&mut file, &ce[pair[0]..pair[1]]).unwrap();
        drop(file);
        let lines = ce[..pair[1]].iter().filter(|&&b| b == b'\n').count() as u64;
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let summary = http::get(daemon.addr, "/site/logs").unwrap().body;
            let consumed = summary
                .split("\"consumed\":[")
                .nth(1)
                .and_then(|rest| rest.split([',', ']']).next())
                .and_then(|n| n.parse::<u64>().ok());
            if consumed == Some(lines) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "append never published: {summary}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    let served = http::get(daemon.addr, "/metrics.jsonl").unwrap().body;
    http::request(daemon.addr, "POST", "/shutdown").unwrap();
    daemon.wait_exit();

    let exported = tmp.join("analyze.jsonl");
    stdout_of(&[
        "analyze",
        logs_str,
        "--racks",
        "1",
        "--metrics-out",
        exported.to_str().unwrap(),
    ]);
    let want = coalesce_state_lines(&std::fs::read_to_string(&exported).unwrap());
    assert!(
        want.iter()
            .any(|l| l.contains("coalesce.groups") && l.contains("\"gauge\"")),
        "{want:?}"
    );
    assert_eq!(coalesce_state_lines(&served), want);
}
