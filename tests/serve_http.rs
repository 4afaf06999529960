//! In-process contract tests for the serve daemon.
//!
//! The serving contract is byte-identity: once a site's logs are fully
//! consumed, `GET /site/<name>/analysis` must return exactly what
//! `astra-mem analyze` prints for the same directory. The batch oracle
//! runs as a subprocess (stdout is its contract); the daemon runs
//! in-process so the test can use [`astra_core::serve::start_sites`] and
//! the typed client directly.
//!
//! The hammer test drives four concurrent readers against a site whose
//! log is still being appended to, asserting every response parses and
//! reflects a single published snapshot (no torn generations).

use std::io::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use astra_core::stream::StreamOptions;
use astra_logs::io::read_to_end;
use astra_logs::{binfmt, CeRecord, IngestOptions};
use astra_serve::{http, ServeOptions};
use astra_topology::SystemConfig;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_astra-mem")
}

/// Unique per call; removed on drop even if the test panics.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "astra-serve-http-{tag}-{}-{}",
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

/// Run the binary, asserting success; return stdout verbatim.
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

fn quick_serve_opts() -> ServeOptions {
    ServeOptions {
        listen: "127.0.0.1:0".to_string(),
        poll_interval: Duration::from_millis(10),
        ..ServeOptions::default()
    }
}

/// Pull `"field":<u64>` out of a flat JSON object body.
fn json_u64(body: &str, field: &str) -> u64 {
    let needle = format!("\"{field}\":");
    let at = body
        .find(&needle)
        .unwrap_or_else(|| panic!("no {field} in {body}"));
    body[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {field} in {body}"))
}

#[test]
fn analysis_endpoint_is_byte_identical_to_analyze() {
    let tmp = TempDir::new("golden");
    let logs = tmp.join("logs");
    generate(&logs);
    let batch = stdout_of(&["analyze", logs.to_str().unwrap(), "--racks", "1"]);
    assert!(!batch.is_empty());

    let server = astra_core::serve::start_sites(
        std::slice::from_ref(&logs),
        SystemConfig::scaled(1),
        &StreamOptions::default(),
        &quick_serve_opts(),
    )
    .expect("daemon starts");
    // Generation >= 1 means the first poll completed, and a poll consumes
    // everything currently available — the static dataset is fully in.
    assert!(server.wait_ready(Duration::from_secs(30)), "never ready");
    let addr = server.addr();

    let live = http::get(addr, "/site/logs/analysis").unwrap();
    assert_eq!(live.status, 200);
    assert_eq!(
        live.body.as_bytes(),
        &batch[..],
        "live analysis differs from analyze stdout:\n--- analyze ---\n{}\n--- live ---\n{}",
        String::from_utf8_lossy(&batch),
        live.body
    );

    // The summary must agree with itself: events is the sum of the
    // per-source consumed counts, and nothing was quarantined.
    let summary = http::get(addr, "/site/logs").unwrap();
    assert_eq!(summary.status, 200);
    assert_eq!(json_u64(&summary.body, "quarantined"), 0);
    assert!(
        summary.body.contains("\"resumed\":false"),
        "{}",
        summary.body
    );

    // The other views answer too, with well-formed bodies.
    let spatial = http::get(addr, "/site/logs/spatial").unwrap();
    assert!(spatial.body.contains("by DIMM slot"), "{}", spatial.body);
    let alerts = http::get(addr, "/site/logs/alerts").unwrap();
    assert!(alerts.body.starts_with('[') && alerts.body.ends_with("]\n"));
    let quarantine = http::get(addr, "/site/logs/quarantine").unwrap();
    assert!(
        quarantine.body.starts_with("{\"total\":0"),
        "{}",
        quarantine.body
    );

    server.trigger_shutdown();
    server.join();
}

/// Split `ce.log` roughly in half; returns the tail half that the
/// writer thread will drip back in. A text log is cut at a line
/// boundary. A binary log keeps its header, which declares every record,
/// and its tail is re-encoded as 20 runs of blocks, each `write_records`
/// output minus its header, the way a tailed writer appends.
fn split_ce_log(dir: &Path) -> Vec<u8> {
    let path = dir.join("ce.log");
    if !binfmt::file_is_binlog(&path).unwrap() {
        let all = std::fs::read(&path).unwrap();
        let mid = all.len() / 2;
        let cut = mid + all[mid..].iter().position(|&b| b == b'\n').unwrap() + 1;
        std::fs::write(&path, &all[..cut]).unwrap();
        return all[cut..].to_vec();
    }
    let file = std::fs::File::open(&path).unwrap();
    let mut reader = binfmt::BinReader::new(file, binfmt::CE);
    let (ces, _) = read_to_end(&IngestOptions::default(), || reader.next_chunk()).unwrap();
    let blocks = |recs: &[CeRecord]| {
        let mut out = Vec::new();
        binfmt::write_records(&mut out, binfmt::CE, recs).unwrap();
        out.drain(..binfmt::HEADER_LEN);
        out
    };
    let cut = ces.len() / 2;
    let mut prefix = binfmt::header_bytes(binfmt::KIND_CE, ces.len() as u64).to_vec();
    prefix.extend(blocks(&ces[..cut]));
    std::fs::write(&path, prefix).unwrap();
    let rest = &ces[cut..];
    rest.chunks(rest.len() / 20 + 1).flat_map(blocks).collect()
}

#[test]
fn concurrent_readers_see_single_untorn_snapshots_while_ingest_advances() {
    hammer_while_appending("text");
}

/// The same hammer over binary logs: appends land mid-frame, so the
/// tail reader holds torn blocks back while readers query.
#[test]
fn concurrent_readers_see_single_untorn_snapshots_while_binary_ingest_advances() {
    hammer_while_appending("binary");
}

fn hammer_while_appending(format: &str) {
    let tmp = TempDir::new("hammer");
    let logs = tmp.join("live");
    generate_as(&logs, format);
    let tail = split_ce_log(&logs);

    let server = astra_core::serve::start_sites(
        std::slice::from_ref(&logs),
        SystemConfig::scaled(1),
        &StreamOptions::default(),
        &quick_serve_opts(),
    )
    .expect("daemon starts");
    assert!(server.wait_ready(Duration::from_secs(30)));
    let addr: SocketAddr = server.addr();

    let done = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for r in 0..4 {
        let done = Arc::clone(&done);
        readers.push(std::thread::spawn(move || {
            let mut queries = 0u64;
            let mut last_generation = 0u64;
            let mut last_events = 0u64;
            while !done.load(Ordering::SeqCst) {
                let health = http::get(addr, "/health").unwrap();
                assert_eq!(health.status, 200, "reader {r}: {}", health.body);
                assert!(health.body.contains("\"status\":\"ok\""), "{}", health.body);

                // One summary response must be internally consistent — a
                // torn snapshot would mix events from one generation with
                // consumed counts from another.
                let summary = http::get(addr, "/site/live").unwrap();
                assert_eq!(summary.status, 200);
                let events = json_u64(&summary.body, "events");
                let consumed_sum: u64 = {
                    let needle = "\"consumed\":[";
                    let at = summary.body.find(needle).unwrap();
                    summary.body[at + needle.len()..]
                        .split(']')
                        .next()
                        .unwrap()
                        .split(',')
                        .map(|n| n.parse::<u64>().unwrap())
                        .sum()
                };
                assert_eq!(
                    events, consumed_sum,
                    "reader {r} saw a torn summary: {}",
                    summary.body
                );
                let generation = json_u64(&summary.body, "generation");
                assert!(
                    generation >= last_generation && events >= last_events,
                    "reader {r}: time went backwards ({last_generation}->{generation}, \
                     {last_events}->{events})"
                );
                last_generation = generation;
                last_events = events;

                // The analysis body for that generation parses as a report:
                // first line is the summary line the batch path prints.
                let analysis = http::get(addr, "/site/live/analysis").unwrap();
                assert_eq!(analysis.status, 200);
                let first = analysis.body.lines().next().unwrap_or("");
                assert!(
                    first.contains("errors -> ") && first.contains(" nodes"),
                    "reader {r} got a malformed analysis body: {first}"
                );
                queries += 1;
            }
            queries
        }));
    }

    // Writer: drip the held-back half of ce.log in while readers hammer.
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(logs.join("ce.log"))
        .unwrap();
    for chunk in tail.chunks(tail.len() / 20 + 1) {
        file.write_all(chunk).unwrap();
        file.flush().unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(file);

    // Wait until the daemon has folded the whole log back in.
    let expected = stdout_of(&["analyze", logs.to_str().unwrap(), "--racks", "1"]);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let live = http::get(addr, "/site/live/analysis").unwrap();
        if live.body.as_bytes() == &expected[..] {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never converged on the appended {format} log:\n--- expected ---\n{}\n--- live ---\n{}",
            String::from_utf8_lossy(&expected),
            live.body
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    done.store(true, Ordering::SeqCst);
    let mut total = 0u64;
    for reader in readers {
        total += reader.join().expect("reader panicked");
    }
    assert!(total > 0, "readers must have issued queries");

    server.trigger_shutdown();
    server.join();
}
