//! End-to-end observability: drive the `astra-mem` binary as a subprocess
//! and check the metrics it exports.
//!
//! Subprocesses, not in-process calls, because the metric registry is
//! process-global: parallel tests in one binary would see each other's
//! counters. Each subprocess starts with a clean registry and each test
//! gets its own dataset directory.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_astra-mem")
}

/// Unique per call; removed on drop even if the test panics.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        TempDir(std::env::temp_dir().join(format!(
            "astra-obs-cli-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        )))
    }

    fn path(&self) -> &Path {
        &self.0
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

fn run(args: &[&str]) {
    let out = Command::new(bin()).args(args).output().expect("spawn");
    assert!(
        out.status.success(),
        "astra-mem {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn generate(dir: &Path) {
    run(&[
        "generate",
        "--racks",
        "1",
        "--seed",
        "7",
        "--out",
        dir.to_str().unwrap(),
    ]);
}

/// Run `serve DIR` until it has answered a few requests, exporting its
/// metrics into `DIR/metrics.jsonl` (generation's folded in), as CI's
/// trace-smoke does before `stats --check`: the `serve_p99_ms` rule
/// needs a daemon's request timings.
fn serve_some_requests(dir: &Path) {
    use astra_serve::http;
    use std::io::BufRead as _;
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let metrics = dir.join("metrics.jsonl");
    let mut child = Command::new(bin())
        .args(["serve", dir.to_str().unwrap(), "--racks", "1"])
        .args(["--listen", "127.0.0.1:0", "--metrics-out"])
        .arg(&metrics)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn astra-mem serve");
    let mut banner = String::new();
    std::io::BufReader::new(child.stdout.as_mut().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .trim()
        .strip_prefix("listening on http://")
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"));
    let deadline = Instant::now() + Duration::from_secs(60);
    while !http::get(addr, "/health").is_ok_and(|r| r.body.contains("\"ready\":true")) {
        assert!(Instant::now() < deadline, "serve never became ready");
        std::thread::sleep(Duration::from_millis(20));
    }
    for path in ["/sites", "/metrics"] {
        http::get(addr, path).unwrap();
    }
    drop(child.stdin.take()); // EOF: the daemon winds down and exports
    assert!(child.wait().unwrap().success());
}

/// Pull one `"field":value` number out of the JSONL line for `name`.
fn metric_value(jsonl: &str, name: &str) -> Option<f64> {
    let line = jsonl
        .lines()
        .find(|l| l.contains(&format!("\"name\":\"{name}\"")))?;
    let tail = line.split("\"value\":").nth(1)?;
    let num: String = tail
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
        .collect();
    num.parse().ok()
}

#[test]
fn generate_writes_dataset_metrics() {
    let dir = TempDir::new("gen");
    generate(dir.path());
    let jsonl = std::fs::read_to_string(dir.join("metrics.jsonl")).expect("metrics.jsonl");
    let offered = metric_value(&jsonl, "faultsim.events_offered").expect("events_offered");
    let logged = metric_value(&jsonl, "faultsim.ces_logged").expect("ces_logged");
    assert!(offered > 0.0);
    assert!(logged <= offered, "can't log more CEs than were offered");
    assert!(metric_value(&jsonl, "faultsim.ecc.corrected").unwrap() > 0.0);
}

#[test]
fn analyze_exports_nonzero_parse_throughput() {
    let dir = TempDir::new("analyze");
    generate(dir.path());
    let metrics = dir.join("m.json");
    run(&[
        "analyze",
        dir.path().to_str().unwrap(),
        "--racks",
        "1",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    let jsonl = std::fs::read_to_string(&metrics).expect("metrics file");

    // Nonzero parse throughput: lines were parsed and time was recorded.
    let lines = metric_value(&jsonl, "parse.ce.lines_ok").expect("parse.ce.lines_ok");
    assert!(lines > 0.0, "no CE lines parsed");
    let timing = jsonl
        .lines()
        .find(|l| l.contains("parse.ce") && l.contains("\"kind\":\"timing\""))
        .expect("a timing for the ce parse stage");
    let sum = timing.split("\"sum\":").nth(1).expect("sum field");
    let ns: f64 = sum
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap();
    assert!(ns > 0.0, "parse stage recorded zero elapsed time");

    // The analysis side also ran.
    assert!(metric_value(&jsonl, "coalesce.records_in").unwrap() > 0.0);
    assert!(metric_value(&jsonl, "coalesce.faults_out").unwrap() > 0.0);
}

#[test]
fn analyze_and_stream_analyze_read_ce_log_alone() {
    let dir = TempDir::new("ce-only");
    generate(dir.path());
    let d = dir.path().to_str().unwrap();
    let metrics = dir.join("analyze.json");
    run(&[
        "analyze",
        d,
        "--racks",
        "1",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    let jsonl = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        jsonl.contains("\"name\":\"time.pipeline.parse/parse.ce\""),
        "{jsonl}"
    );
    for other in ["parse.het", "parse.inventory", "parse.sensors"] {
        assert!(!jsonl.contains(other), "analyze parsed {other}: {jsonl}");
    }
    let ces = metric_value(&jsonl, "parse.ce.lines_ok").expect("parse.ce.lines_ok");

    let metrics = dir.join("stream.json");
    run(&[
        "stream-analyze",
        d,
        "--racks",
        "1",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    let jsonl = std::fs::read_to_string(&metrics).unwrap();
    let ce_bytes = std::fs::metadata(dir.join("ce.log")).unwrap().len();
    assert_eq!(
        metric_value(&jsonl, "stream.bytes_read"),
        Some(ce_bytes as f64),
        "stream-analyze must read ce.log's bytes and no other log's"
    );
    assert_eq!(metric_value(&jsonl, "stream.events"), Some(ces));
}

#[test]
fn predict_refuses_to_score_against_a_guessed_seed() {
    let dir = TempDir::new("predict-seed");
    generate(dir.path());
    let d = dir.path().to_str().unwrap();
    let predict = |extra: &[&str]| {
        let mut args = vec!["predict", d, "--racks", "1"];
        args.extend(extra);
        Command::new(bin()).args(&args).output().expect("spawn")
    };
    let with_manifest = predict(&[]);
    assert!(with_manifest.status.success());

    // Without manifest.txt nothing says which seed made the logs: the
    // ground truth would be a guess, so predict refuses.
    std::fs::remove_file(dir.join("manifest.txt")).unwrap();
    let guessed = predict(&[]);
    assert!(!guessed.status.success(), "predict scored a guessed seed");
    assert!(guessed.stdout.is_empty(), "nothing may reach stdout");
    let stderr = String::from_utf8_lossy(&guessed.stderr);
    assert!(
        stderr.contains("--seed") && stderr.contains("manifest.txt"),
        "{stderr}"
    );
    // The seed the logs were generated with restores the manifest run.
    let seeded = predict(&["--seed", "7"]);
    assert!(seeded.status.success());
    assert_eq!(seeded.stdout, with_manifest.stdout);
}

#[test]
fn corrupt_lines_surface_in_skip_counters() {
    let dir = TempDir::new("corrupt");
    generate(dir.path());
    // Corrupt the CE log: inject lines no parser accepts.
    let ce = dir.join("ce.log");
    let mut text = std::fs::read_to_string(&ce).unwrap();
    for i in 0..5 {
        text.push_str(&format!("@@ corrupted line {i} @@\n"));
    }
    std::fs::write(&ce, text).unwrap();

    // Strict is the default, so quarantining requires opting in.
    let metrics = dir.join("m.json");
    run(&[
        "analyze",
        dir.path().to_str().unwrap(),
        "--racks",
        "1",
        "--lenient",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    let jsonl = std::fs::read_to_string(&metrics).unwrap();
    let skipped = metric_value(&jsonl, "parse.ce.lines_skipped").expect("skip counter");
    assert_eq!(skipped, 5.0, "each injected corrupt line must be counted");
    let reason = metric_value(&jsonl, "ingest.quarantined.unknown-format")
        .expect("typed quarantine counter");
    assert_eq!(reason, 5.0, "injected lines classify as unknown-format");
}

#[test]
fn checkpoint_io_is_exported_once_per_checkpoint() {
    let dir = TempDir::new("ckpt-io");
    generate(dir.path());
    let data = dir.path().to_str().unwrap();
    let ckpt = dir.join("ck.txt");
    let ckpt_arg = ckpt.to_str().unwrap();
    let metrics = dir.join("m.json");
    let metrics_arg = metrics.to_str().unwrap();
    let span = |jsonl: &str, path: &str| jsonl.contains(&format!("\"name\":\"time.{path}\""));

    run(&[
        "stream-analyze",
        data,
        "--racks",
        "1",
        "--stop-after",
        "20000",
        "--checkpoint",
        ckpt_arg,
        "--metrics-out",
        metrics_arg,
    ]);
    let size = std::fs::metadata(&ckpt).unwrap().len() as f64;
    let jsonl = std::fs::read_to_string(&metrics).unwrap();
    assert_eq!(metric_value(&jsonl, "checkpoint.bytes_written"), Some(size));
    assert!(span(&jsonl, "pipeline.stream/checkpoint.write"), "{jsonl}");

    run(&[
        "stream-analyze",
        data,
        "--racks",
        "1",
        "--resume",
        ckpt_arg,
        "--metrics-out",
        metrics_arg,
    ]);
    let jsonl = std::fs::read_to_string(&metrics).unwrap();
    assert_eq!(metric_value(&jsonl, "checkpoint.bytes_read"), Some(size));
    assert!(span(&jsonl, "pipeline.stream/checkpoint.read"), "{jsonl}");
    assert_eq!(metric_value(&jsonl, "checkpoint.bytes_written"), None);

    // The shard supervisor reads each worker's snapshot through the
    // same codec.
    run(&[
        "shard-analyze",
        data,
        "--racks",
        "1",
        "--shards",
        "1",
        "--metrics-out",
        metrics_arg,
    ]);
    let jsonl = std::fs::read_to_string(&metrics).unwrap();
    assert!(metric_value(&jsonl, "checkpoint.bytes_read").is_some_and(|n| n > 0.0));
    assert!(span(&jsonl, "pipeline.shard/checkpoint.read"), "{jsonl}");
}

#[test]
fn report_metrics_span_all_stages_and_are_deterministic() {
    let dir = TempDir::new("report");
    generate(dir.path());
    let mut exports = Vec::new();
    for name in ["m1.json", "m2.json"] {
        let metrics = dir.join(name);
        run(&[
            "report",
            dir.path().to_str().unwrap(),
            "--racks",
            "1",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ]);
        exports.push(std::fs::read_to_string(&metrics).unwrap());
    }

    // Acceptance: >= 12 distinct metrics spanning faultsim, parse (logs),
    // coalesce, and experiments.
    let names: Vec<&str> = exports[0]
        .lines()
        .filter_map(|l| l.split("\"name\":\"").nth(1)?.split('"').next())
        .collect();
    assert!(names.len() >= 12, "only {} metrics exported", names.len());
    for stage in ["faultsim.", "parse.", "coalesce.", "experiments."] {
        assert!(
            names.iter().any(|n| n.starts_with(stage)),
            "no {stage}* metric in export; got {names:?}"
        );
    }

    // Determinism: everything except wall-clock timings is identical
    // across two runs over the same directory.
    let strip = |text: &str| -> String {
        text.lines()
            .filter(|l| !l.contains("\"kind\":\"timing\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip(&exports[0]),
        strip(&exports[1]),
        "non-timing metrics differ between identical runs"
    );
}

#[test]
fn report_counts_telemetry_samples_drawn_and_summed() {
    let dir = TempDir::new("joins");
    let data = dir.path().to_str().unwrap();
    run(&["generate", "--racks", "1", "--seed", "42", "--out", data]);
    let metrics = dir.join("report.jsonl");
    let out = Command::new(bin())
        .args(["report", data, "--metrics-out", metrics.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);

    // `report` is the one path to the paper's exhibits: each heads
    // exactly one block of its stdout.
    let mut headers = vec!["Table 1:".to_string()];
    headers.extend(["Fig 2:", "Fig 3:", "Fig 4a:", "Fig 4b:"].map(String::from));
    headers.extend((5..=14).map(|n| format!("Fig {n}:")));
    headers.extend(["Fig 15a:", "Fig 15b:"].map(String::from));
    for header in &headers {
        let n = text
            .lines()
            .filter(|l| l.starts_with(header.as_str()))
            .count();
        assert_eq!(n, 1, "{n} lines start with {header:?}");
    }

    // Fig 9 samples its CEs per window; every sampled CE sums one sample
    // per 30 minutes (the default stride) of its window.
    let fig9: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.starts_with("Fig 9"))
        .skip(1)
        .take(4)
        .collect();
    let mut want_summed = 0;
    for (line, (label, minutes)) in fig9.iter().zip([
        ("one hour", 60u64),
        ("one day", 1440),
        ("one week", 7 * 1440),
        ("one month", 30 * 1440),
    ]) {
        assert!(line.trim_start().starts_with(label), "{line}");
        let sampled: u64 = line
            .split("sampled")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no sampled count in {line:?}"));
        assert!(sampled > 0, "{line}");
        want_summed += sampled * minutes.div_ceil(30);
    }
    // Without manifest.txt the seed must come from --seed: given, the
    // output is the manifest run's; absent, the exhibits that only the
    // telemetry model can draw say they were skipped instead of
    // inventing temperatures at a fallback seed.
    let manifest = std::fs::read(dir.join("manifest.txt")).unwrap();
    std::fs::remove_file(dir.join("manifest.txt")).unwrap();
    let report_without_manifest = |extra: &[&str]| -> String {
        let out = Command::new(bin())
            .args(["report", data, "--racks", "1"])
            .args(extra)
            .output()
            .expect("spawn");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    assert_eq!(report_without_manifest(&["--seed", "42"]), text);
    let unseeded = report_without_manifest(&[]);
    for header in &headers {
        let n = unseeded
            .lines()
            .filter(|l| l.starts_with(header.as_str()))
            .count();
        assert_eq!(n, 1, "{n} lines start with {header:?} without a seed");
    }
    for fig in ["Fig 9", "Fig 13", "Fig 14"] {
        assert!(
            unseeded.contains(&format!("{fig}: skipped: ")),
            "{fig} must say it was skipped:\n{unseeded}"
        );
    }
    assert!(
        !unseeded.contains("Fig 2: skipped"),
        "sensors.log still feeds Fig 2"
    );
    std::fs::write(dir.join("manifest.txt"), manifest).unwrap();

    let jsonl = std::fs::read_to_string(&metrics).unwrap();
    let summed = metric_value(&jsonl, "telemetry.window_readings_summed").expect("summed");
    let drawn = metric_value(&jsonl, "telemetry.window_readings").expect("drawn");
    assert_eq!(summed as u64, want_summed);
    assert!(drawn > 0.0 && drawn < summed, "drawn {drawn} of {summed}");

    // `stats` shows them once they are in the directory's metrics.jsonl.
    let joins: String = jsonl
        .lines()
        .filter(|l| l.contains("\"name\":\"telemetry.window_readings"))
        .map(|l| format!("{l}\n"))
        .collect();
    let mut dataset_metrics = std::fs::read_to_string(dir.join("metrics.jsonl")).unwrap();
    dataset_metrics.push_str(&joins);
    std::fs::write(dir.join("metrics.jsonl"), dataset_metrics).unwrap();
    let out = Command::new(bin())
        .args(["stats", data])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains(&format!(
            "window samples summed {} | drawn {}",
            summed as u64, drawn as u64
        )),
        "{text}"
    );
}

#[test]
fn report_draws_figs_13_and_14_from_one_monthly_sweep() {
    // The sweep draws each node's seven sensors once per sample minute:
    // on 1 rack, 72 nodes x 244 half-day samples of May 20 - Sep 19 x 7
    // sensors. One sweep per sensor and figure would draw 13 per minute.
    let dir = TempDir::new("monthly");
    let data = dir.path().to_str().unwrap();
    run(&["generate", "--racks", "1", "--seed", "42", "--out", data]);
    let metrics = dir.join("metrics.jsonl");
    run(&["report", data, "--metrics-out", metrics.to_str().unwrap()]);
    let jsonl = std::fs::read_to_string(&metrics).unwrap();
    let drawn = 72 * 244 * 7;
    assert_eq!(
        metric_value(&jsonl, "telemetry.monthly_readings"),
        Some(f64::from(drawn))
    );
    let sweep = jsonl
        .lines()
        .find(|l| l.contains("\"name\":\"time.tempcorr.monthly_sweep\""))
        .expect("the sweep is timed");
    assert!(sweep.contains("\"count\":1,"), "{sweep}");
    for figure in ["fig13", "fig14"] {
        let computed = format!("experiments.{figure}.computed");
        assert_eq!(metric_value(&jsonl, &computed), Some(1.0), "{computed}");
    }

    // `report` exported into the directory, so `stats` shows the count.
    let out = Command::new(bin())
        .args(["stats", data])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains(&format!("monthly readings drawn {drawn} ")),
        "{text}"
    );
}

#[test]
fn stats_prints_throughput_and_rates() {
    let dir = TempDir::new("stats");
    generate(dir.path());
    let out = Command::new(bin())
        .args(["stats", dir.path().to_str().unwrap(), "--racks", "1"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("parse stages:"), "{text}");
    assert!(text.contains("throughput"), "{text}");
    assert!(text.contains("skip %"), "{text}");
    assert!(text.contains("kernel-buffer loss"), "{text}");
    assert!(text.contains("errors/fault"), "{text}");
}

#[test]
fn stats_without_metrics_file_prints_actionable_hint() {
    let dir = TempDir::new("statshint");
    generate(dir.path());
    std::fs::remove_file(dir.join("metrics.jsonl")).unwrap();
    let out = Command::new(bin())
        .args(["stats", dir.path().to_str().unwrap(), "--racks", "1"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "stats should still run without metrics"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("metrics.jsonl"), "{err}");
    assert!(
        err.contains("astra-mem generate"),
        "hint names the fix: {err}"
    );
    // The live-measured sections still render.
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("parse stages:"), "{text}");
}

#[test]
fn stats_reads_coalesce_state_over_counters_an_older_build_wrote() {
    // An older build exported `coalesce.groups` and `coalesce.mode.*` as
    // counters (e.g. `report --metrics-out` into the dataset). `stats`
    // imports that file after it classifies, and only the names it did
    // not record: the run's own gauges win, and the import must not trip
    // the registry's kind check.
    let dir = TempDir::new("statsold");
    generate(dir.path());
    let d = dir.path().to_str().unwrap();
    let exported = dir.join("analyze.jsonl");
    run(&[
        "analyze",
        d,
        "--racks",
        "1",
        "--metrics-out",
        exported.to_str().unwrap(),
    ]);
    let jsonl = std::fs::read_to_string(&exported).unwrap();
    let single_bit = metric_value(&jsonl, "coalesce.mode.single-bit").unwrap();
    assert!(
        jsonl.contains(r#"{"name":"coalesce.groups","kind":"gauge","#),
        "{jsonl}"
    );
    let mut metrics = std::fs::read_to_string(dir.join("metrics.jsonl")).unwrap();
    metrics.push_str(
        "{\"name\":\"coalesce.groups\",\"kind\":\"counter\",\"value\":516}\n\
         {\"name\":\"coalesce.mode.single-bit\",\"kind\":\"counter\",\"value\":9999}\n",
    );
    std::fs::write(dir.join("metrics.jsonl"), metrics).unwrap();
    let out = Command::new(bin())
        .args(["stats", d, "--racks", "1"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "stats failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let want = format!("    {:<14} {:>6} (", "single-bit", single_bit as u64);
    assert!(text.contains(&want), "want {want:?} in:\n{text}");
    assert!(!text.contains("9999"), "{text}");
}

#[test]
fn load_errors_distinguish_missing_from_corrupt() {
    let dir = TempDir::new("loaderr");
    generate(dir.path());

    // Required log deleted → "missing" plus a hint naming generate.
    std::fs::remove_file(dir.join("ce.log")).unwrap();
    let out = Command::new(bin())
        .args(["analyze", dir.path().to_str().unwrap(), "--racks", "1"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("missing") && err.contains("ce.log"), "{err}");
    assert!(err.contains("hint:") && err.contains("generate"), "{err}");

    // Present but undecodable → the strict default refuses with a typed
    // quarantine report and points at fsck / --lenient.
    std::fs::write(dir.join("ce.log"), [0xFF, 0xFE, b'\n']).unwrap();
    let out = Command::new(bin())
        .args(["report", dir.path().to_str().unwrap(), "--racks", "1"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("corrupt") && err.contains("ce.log"), "{err}");
    assert!(err.contains("bad-utf8"), "typed reason in report: {err}");
    assert!(
        err.contains("hint:") && err.contains("--lenient") && err.contains("fsck"),
        "{err}"
    );
}

#[test]
fn predict_reports_metrics_and_ground_truth_join() {
    let dir = TempDir::new("predict");
    generate(dir.path());
    let metrics = dir.join("m.json");
    let out = Command::new(bin())
        .args([
            "predict",
            dir.path().to_str().unwrap(),
            "--racks",
            "1",
            "--seed",
            "7",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "predict failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ground truth:"), "{text}");
    assert!(text.contains("precision"), "{text}");
    assert!(text.contains("fault-recall"), "{text}");
    assert!(text.contains("UE-recall"), "{text}");
    assert!(text.contains("proactive mitigation"), "{text}");

    // The engine's obs instrumentation made it into the export.
    let jsonl = std::fs::read_to_string(&metrics).unwrap();
    assert!(metric_value(&jsonl, "predict.records_in").expect("records_in") > 0.0);
    assert!(metric_value(&jsonl, "predict.ranks_tracked").expect("ranks_tracked") > 0.0);
    assert!(
        metric_value(&jsonl, "predict.alerts").expect("alerts") > 0.0,
        "the default predictors should alert on a 1-rack simulation"
    );
}

/// `"time.<path>" -> sum_ns` for every timing line in a JSONL export.
fn timing_sums(jsonl: &str) -> std::collections::BTreeMap<String, u64> {
    jsonl
        .lines()
        .filter(|l| l.contains("\"kind\":\"timing\""))
        .filter_map(|l| {
            let name = l.split("\"name\":\"").nth(1)?.split('"').next()?;
            let sum = l
                .split("\"sum\":")
                .nth(1)?
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .ok()?;
            Some((name.to_string(), sum))
        })
        .collect()
}

#[test]
fn analyze_trace_out_emits_nested_trace_matching_timings() {
    let dir = TempDir::new("trace");
    generate(dir.path());
    let trace = dir.join("trace.json");
    let metrics = dir.join("m.json");
    run(&[
        "analyze",
        dir.path().to_str().unwrap(),
        "--racks",
        "1",
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let events = astra_obs::trace::parse_chrome_trace(&text).expect("valid Chrome trace JSON");
    assert!(!events.is_empty(), "trace recorded no events");

    // The span tree nests: the batch passes under the analysis stage,
    // parse stages under the parse root.
    for path in [
        "pipeline.analyze",
        "pipeline.analyze/coalesce",
        "pipeline.analyze/spatial.compute",
    ] {
        assert!(
            events.iter().any(|e| e.path == path),
            "no event for {path}; have {:?}",
            events
                .iter()
                .map(|e| e.path.as_str())
                .collect::<std::collections::BTreeSet<_>>()
        );
    }
    assert!(
        events.iter().any(|e| e.path.starts_with("pipeline.parse/")),
        "parse stages must nest under pipeline.parse"
    );

    // The parse root carried its attached counters into the trace.
    assert!(
        events
            .iter()
            .any(|e| e.args.iter().any(|(k, v)| k == "lines_ok" && *v > 0)),
        "some span should carry a lines_ok counter arg"
    );

    // Acceptance: the flame table's total column IS the timing histogram
    // sum, to the nanosecond, for every traced path.
    let jsonl = std::fs::read_to_string(&metrics).unwrap();
    let sums = timing_sums(&jsonl);
    let rows = astra_obs::trace::flame_rows(&events);
    assert!(!rows.is_empty());
    for row in &rows {
        let sum = sums
            .get(&format!("time.{}", row.path))
            .unwrap_or_else(|| panic!("traced path {} has no timing metric", row.path));
        assert_eq!(
            row.total_ns, *sum,
            "flame total != timing sum for {}",
            row.path
        );
    }
}

#[test]
fn trace_subcommand_prints_flame_table() {
    let dir = TempDir::new("flame");
    generate(dir.path());
    let trace = dir.join("trace.json");
    run(&[
        "analyze",
        dir.path().to_str().unwrap(),
        "--racks",
        "1",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    let out = Command::new(bin())
        .args(["trace", trace.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "trace failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("span events"), "{text}");
    for column in ["path", "count", "total", "self", "mem peak", "mem net"] {
        assert!(text.contains(column), "missing column {column}: {text}");
    }
    assert!(
        text.contains("pipeline.analyze/coalesce"),
        "nested paths render in the table: {text}"
    );

    // Pointing the renderer at a non-trace file is a clean error.
    let out = Command::new(bin())
        .args(["trace", dir.join("ce.log").to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(!out.status.success(), "non-trace input must fail");
}

#[test]
fn stats_check_gates_on_thresholds() {
    let dir = TempDir::new("check");
    generate(dir.path());
    serve_some_requests(dir.path());
    // The checked-in thresholds must pass on a clean dataset.
    let checked_in = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../thresholds.json");
    let out = Command::new(bin())
        .args([
            "stats",
            dir.path().to_str().unwrap(),
            "--racks",
            "1",
            "--check",
            checked_in.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "checked-in thresholds violated:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("threshold check passed"), "{text}");
    assert!(
        !text.contains("no data"),
        "every stage rule must see data: {text}"
    );

    // A stage rule whose stage did not run fails instead of reading 0.
    let gone = dir.join("gone.json");
    std::fs::write(
        &gone,
        "{\"rule\":\"stage_p99_ms\",\"stage\":\"pipeline.consume\",\"max\":120000}\n",
    )
    .unwrap();
    let out = Command::new(bin())
        .args([
            "stats",
            dir.path().to_str().unwrap(),
            "--racks",
            "1",
            "--check",
            gone.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success(), "a rule that saw nothing must fail");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("FAIL  stage_p99_ms[pipeline.consume]  no data"),
        "{text}"
    );

    // An injected breach flips the exit code and names the rule.
    let tight = dir.join("tight.json");
    std::fs::write(
        &tight,
        "{\"rule\":\"counter_max\",\"name\":\"parse.ce.lines_ok\",\"max\":0}\n",
    )
    .unwrap();
    let out = Command::new(bin())
        .args([
            "stats",
            dir.path().to_str().unwrap(),
            "--racks",
            "1",
            "--check",
            tight.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        !out.status.success(),
        "breached threshold must exit nonzero"
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("FAIL"), "{text}");
    assert!(text.contains("counter_max[parse.ce.lines_ok]"), "{text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("exceeded"), "{err}");

    // A malformed threshold file is a hard error, not a silent pass.
    let broken = dir.join("broken.json");
    std::fs::write(&broken, "{\"rule\":\"nonsense\",\"max\":1}\n").unwrap();
    let out = Command::new(bin())
        .args([
            "stats",
            dir.path().to_str().unwrap(),
            "--racks",
            "1",
            "--check",
            broken.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown rule"),
        "unknown rules are hard errors"
    );
}

#[test]
fn stats_stage_breakdown_includes_percentiles() {
    let dir = TempDir::new("pctl");
    generate(dir.path());
    let out = Command::new(bin())
        .args(["stats", dir.path().to_str().unwrap(), "--racks", "1"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("stage breakdown:"), "{text}");
    for column in ["p50", "p95", "p99"] {
        assert!(text.contains(column), "missing {column}: {text}");
    }
}

#[test]
fn bad_arguments_are_rejected() {
    for args in [
        &["generate", "--racks", "0", "--out", "/tmp/x"][..],
        &["analyze", "/tmp/a", "/tmp/b"][..],
    ] {
        let out = Command::new(bin()).args(args).output().expect("spawn");
        assert!(!out.status.success(), "astra-mem {args:?} should fail");
    }
}

#[test]
fn a_flag_the_command_does_not_read_is_a_usage_error() {
    // Refused while parsing, before any directory is read.
    let dir = TempDir::new("flags");
    let d = dir.path().to_str().unwrap();
    for (args, flag) in [
        (&["analyze", d, "--shards", "2"][..], "--shards"),
        (&["report", d, "--degraded"][..], "--degraded"),
        (&["generate", "--out", d, "--resume", "ck"][..], "--resume"),
    ] {
        let out = Command::new(bin()).args(args).output().expect("spawn");
        assert!(!out.status.success(), "astra-mem {args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("{} does not take {flag}", args[0])),
            "{err}"
        );
        assert!(err.contains("USAGE"), "{err}");
    }
    assert!(!dir.path().exists(), "a refused generate writes nothing");
    // The global flags work on every command.
    std::fs::create_dir_all(dir.path()).unwrap();
    let metrics = dir.join("m.json");
    run(&["profiles", "--metrics-out", metrics.to_str().unwrap()]);
    assert!(metrics.exists());
}

#[test]
fn stats_counts_each_run_once_after_report_exports_into_the_dataset() {
    // `report --metrics-out DIR/metrics.jsonl` replaces the generation
    // file with the report run's metrics (generation's folded in). A
    // later `stats` must count its own parse and coalesce work once, not
    // add the report run's on top, while generation's and report's own
    // figures still arrive.
    let dir = TempDir::new("statsonce");
    let d = dir.path().to_str().unwrap();
    run(&["generate", "--racks", "1", "--seed", "42", "--out", d]);
    let fresh = Command::new(bin())
        .args(["stats", d])
        .output()
        .expect("spawn");
    assert!(fresh.status.success());
    let fresh = String::from_utf8_lossy(&fresh.stdout).into_owned();
    let metrics = dir.join("metrics.jsonl");
    run(&["report", d, "--metrics-out", metrics.to_str().unwrap()]);
    let out = Command::new(bin())
        .args(["stats", d])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let line = |text: &str, start: &str| -> String {
        text.lines()
            .find(|l| l.trim_start().starts_with(start))
            .unwrap_or_else(|| panic!("no {start:?} line in:\n{text}"))
            .split_whitespace()
            .take(3)
            .collect::<Vec<_>>()
            .join(" ")
    };
    // `ce  <lines ok>  <skipped>` and `<errors> errors -> <faults>`.
    assert_eq!(line(&text, "ce "), line(&fresh, "ce "));
    let errors = |text: &str| -> String {
        text.lines()
            .find(|l| l.contains(" errors -> "))
            .unwrap_or_else(|| panic!("no coalesce summary in:\n{text}"))
            .trim()
            .split(" (")
            .next()
            .unwrap()
            .to_string()
    };
    assert_eq!(errors(&text), errors(&fresh));
    assert!(text.contains("kernel-buffer loss"), "{text}");
    assert!(text.contains("window samples summed"), "{text}");
}
