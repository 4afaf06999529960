//! The `astra-mem` command-line interface.
//!
//! ```text
//! astra-mem generate       --racks 4 --seed 42 --out /data/astra-logs
//! astra-mem analyze        /data/astra-logs [--racks 4]
//! astra-mem stream-analyze /data/astra-logs [--checkpoint-every N --checkpoint F]
//! astra-mem report         /data/astra-logs [--racks 4]
//! astra-mem triage         /data/astra-logs [--racks 4]
//! ```
//!
//! `generate` simulates a machine and writes the text logs (`ce.log`,
//! `het.log`, `inventory.log`, plus a `sensors.log` excerpt). The other
//! commands ingest a log directory — from `generate` or, with the same
//! formats, from a real site — reading only the logs their output uses,
//! and run the analysis at increasing levels of detail: `analyze` prints
//! the coalescing summary, `stream-analyze` prints the identical summary
//! via the single-pass incremental engine (bounded memory,
//! checkpoint/resume), `report` renders every table/figure of the paper,
//! `triage` prints the operational outputs (the node exclusion curve and
//! two page-retirement policies).
//!
//! The binary in `src/bin/astra-mem.rs` is a thin shim over [`main`];
//! keeping the implementation in the library makes every command path
//! unit-testable and reusable.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use astra_topology::SystemConfig;
use astra_util::time::{het_firmware_date, replacement_span, sensor_span, study_span, TimeSpan};
use astra_util::CalDate;

use astra_logs::binfmt::{self, LogFormat};
use astra_logs::{chaos, io as logio, BinFormat, IngestOptions, LineFormat, QuarantineReason};

use astra_logs::manifest::Manifest;
use astra_platform::PlatformProfile;

use crate::experiments as exp;
use crate::mitigation::{self, ProactivePolicy, RetirementPolicy};
use crate::pipeline::{load_manifest, Analysis, AnalysisInput, Dataset, LoadError, Log};
use crate::reliability;
use crate::stream::{self, Analyzer as _, StreamError, StreamOptions};
use crate::tempcorr::{MonthlyTable, TempCorrConfig};

const USAGE: &str = "\
astra-mem — memory-failure analysis toolkit (HPDC'22 Astra reproduction)

USAGE:
    astra-mem generate       [--profile P] [--racks N] [--seed S] [--format F] --out DIR
    astra-mem profiles
    astra-mem convert        DIR --to F [--out DIR2]
    astra-mem analyze        DIR [--racks N]
    astra-mem stream-analyze DIR [--racks N] [--checkpoint-every N --checkpoint FILE]
                                 [--resume FILE] [--stop-after N --checkpoint FILE]
    astra-mem shard-analyze  DIR [--shards N] [--timeout SECS] [--retries N]
                                 [--degraded] [--racks N]
    astra-mem serve          DIR [DIR ...] [--racks N] [--listen ADDR]
                                 [--checkpoint-every SECS] [--poll-ms N]
    astra-mem report         DIR [--racks N] [--seed S]
    astra-mem triage         DIR [--racks N]
    astra-mem stats          DIR [--racks N] [--check FILE]
    astra-mem predict        DIR [--racks N] [--seed S]
    astra-mem predict        --train DIR [--train DIR ...] --eval DIR [--eval DIR ...]
    astra-mem fsck           DIR
    astra-mem chaos          DIR [--seed S]
    astra-mem trace          FILE

COMMANDS:
    generate        simulate a machine; write ce/het/inventory/sensors logs
                    (text lines by default, or the astra-binlog columnar
                    format with --format binary — same file names, every
                    reader auto-detects by magic bytes) plus a manifest.txt
                    recording the platform profile, seed, racks, and format
                    so consumers never have to guess the provenance
    profiles        list the registered platform profiles (calibration packs
                    for different machine families; pick one with --profile)
    convert         re-encode a log directory to --to {text,binary}; writes
                    in place unless --out names a second directory. Either
                    direction round-trips: analysis output is byte-identical
                    across formats
    analyze         parse a log directory and print the fault summary
    stream-analyze  same summary via the single-pass incremental engine:
                    memory bounded by analyzer state, with optional
                    checkpoint/resume (output is byte-identical to analyze);
                    with --checkpoint it also saves the state the run ends
                    in, so a later --resume reads only what was appended
    shard-analyze   run the analysis as supervised worker subprocesses, one
                    per contiguous rack range, and merge their serialized
                    snapshots — stdout byte-identical to analyze at any
                    shard count. Workers that crash, hang past --timeout,
                    or return a torn snapshot are retried with exponential
                    backoff; a shard that stays dead aborts the run
                    (strict, default) or — with --degraded — is reported
                    as a `DEGRADED: missing racks R..R'` banner over the
                    merged survivors, with exit code 3
    serve           long-running daemon: tail every DIR as an independent
                    site (text or binary logs, auto-detected), checkpoint
                    each to <dir>/serve.ckpt on a timer and resume from it
                    on restart, and answer concurrent HTTP/1.1 queries
                    (/health, /sites, /site/<name>/{analysis,spatial,
                    alerts,quarantine}, /metrics, /metrics.jsonl) from
                    immutable snapshots — a fully-ingested site's
                    /analysis body is byte-identical to `analyze` output.
                    Stop with GET/POST /shutdown or by closing stdin;
                    both drain in-flight requests and checkpoint first
    report          render every table and figure of the paper (without a
                    manifest.txt or --seed, the figures drawn from the
                    telemetry model are skipped, each with a note)
    triage          operational outputs: node exclusion curve, page retirement
    stats           pipeline health report: throughput, drop/skip rates, ratios
                    (ingests leniently so it can diagnose dirty datasets)
    predict         replay the CE stream through online UE predictors; score
                    precision/recall/lead time against simulator ground truth
                    (re-derived from the directory's manifest — profile, racks,
                    seed — or from --racks/--seed for legacy directories; with
                    neither a manifest nor --seed it refuses to guess).
                    With --train/--eval: fit a logistic predictor on each
                    --train directory, score it on every --eval directory, and
                    print the cross-platform transfer matrix
    fsck            scan a log directory and print a per-file corruption
                    report (what a lenient ingest would quarantine, by
                    reason); exits nonzero when anything is quarantined.
                    Binary logs are verified by a CRC sweep + header
                    validation — no decode — so the scan is near I/O speed
    chaos           deterministically corrupt a dataset in place (test tool:
                    bit flips, truncation, foreign lines, reordering) and
                    print the injected-corruption manifest in fsck's format
    trace           read a Chrome trace JSON written by --trace-out and print
                    the flame table: per-path invocation counts, total vs
                    self time, and peak/net memory when the byte-counting
                    allocator is measuring

LOGS (each command reads only the logs its output uses, and strict or
lenient ingest covers exactly those):
    analyze, triage, stream-analyze, shard-analyze, serve    ce.log
    predict                                                  ce.log, het.log
    report, stats, fsck           ce.log, het.log, inventory.log, sensors.log

OPTIONS (a flag the command does not read is a usage error;
--metrics-out and --trace-out work on every command):
    --profile P           (generate) platform profile: astra (default),
                          x86-ddr4, datacenter — see `astra-mem profiles`
    --racks N             machine size in racks (default 4; Astra is 36)
    --seed S              master seed (default 42)
    --train DIR           (predict) dataset to fit a predictor on; repeatable
    --eval DIR            (predict) dataset to score predictors on; repeatable
    --out DIR             output directory for generate / convert
    --format F            (generate) on-disk log format: text (default) or
                          binary (astra-binlog columnar, ~10x faster to
                          serialize+parse and a fraction of the bytes)
    --to F                (convert) target format: text or binary
    --metrics-out FILE    write all metrics as JSON lines to FILE on exit
    --trace-out FILE      record the span timeline and write it as Chrome
                          trace-event JSON to FILE on exit (any command;
                          view in chrome://tracing or ui.perfetto.dev, or
                          render with `astra-mem trace FILE`)
    --check FILE          (stats) compare live metrics against the JSON-lines
                          threshold file; exit nonzero on any violation
    --lenient             quarantine unparseable lines instead of aborting
    --max-bad-frac F      per-file quarantine budget for --lenient
                          (fraction of lines, default 0.05; implies --lenient)
    --shards N            (shard-analyze) worker subprocess count (default 2,
                          clamped to the rack count)
    --timeout SECS        (shard-analyze) per-attempt wall-clock deadline:
                          a worker past it is killed, reaped, and retried
                          (default 600)
    --retries N           (shard-analyze) retries per shard after its first
                          attempt (default 2)
    --degraded            (shard-analyze) when a shard exhausts its retries,
                          emit the merged survivors with a missing-racks
                          banner and exit 3 instead of aborting
    --checkpoint FILE     (stream-analyze) where to write checkpoints, the
                          last at the end of the run
    --checkpoint-every N  (stream-analyze) checkpoint every N CE records;
                          (serve) checkpoint every site every N seconds
    --listen ADDR         (serve) bind address (default 127.0.0.1:7433;
                          port 0 picks an ephemeral port — the bound
                          address is printed on startup either way)
    --poll-ms N           (serve) how often to re-probe dry logs for new
                          records (default 200)
    --resume FILE         (stream-analyze) resume from a checkpoint
    --stop-after N        (stream-analyze) checkpoint and stop after N CE records
";

/// Whether `command` reads `flag`: a flag it does not read is a usage
/// error, so one that would change nothing never passes silently.
/// `--metrics-out` and `--trace-out` work on every command. `None` for an
/// unknown command, which dispatch reports.
fn reads_flag(command: &str, flag: &str) -> Option<bool> {
    const LOAD: &str = "--profile --racks --seed --lenient --max-bad-frac";
    let groups: &[&str] = match command {
        "generate" => &["--profile --racks --seed --format --out"],
        "profiles" | "fsck" | "trace" => &[],
        "convert" => &["--to --out --lenient --max-bad-frac"],
        "analyze" | "report" | "triage" => &[LOAD],
        "stream-analyze" => &[
            LOAD,
            "--checkpoint --checkpoint-every --resume --stop-after",
        ],
        "shard-analyze" => &[LOAD, "--shards --timeout --retries --degraded"],
        crate::shard::WORKER_COMMAND => &[LOAD, "--rack-lo --rack-hi --shard-index --snapshot-out"],
        "serve" => &[
            "--racks --lenient --max-bad-frac --checkpoint --checkpoint-every --resume",
            "--listen --poll-ms",
        ],
        "stats" => &["--profile --racks --seed --max-bad-frac --check"],
        "predict" => &[LOAD, "--train --eval"],
        "chaos" => &["--seed"],
        _ => return None,
    };
    Some(
        ["--metrics-out --trace-out"]
            .iter()
            .chain(groups)
            .any(|group| group.split(' ').any(|f| f == flag)),
    )
}

#[derive(Debug)]
struct Args {
    command: String,
    dir: Option<PathBuf>,
    /// Additional site directories — only `serve` accepts more than one.
    extra_dirs: Vec<PathBuf>,
    listen: Option<String>,
    poll_ms: u64,
    /// `None` when `--racks` was not given: commands use the manifest's
    /// recorded rack count when one exists, else the default of 4.
    racks: Option<u32>,
    /// `None` when `--seed` was not given (manifest seed, else 42).
    seed: Option<u64>,
    /// Platform profile name (`--profile`); `None` means the manifest's
    /// recorded profile, else astra.
    profile: Option<String>,
    /// (predict) training dataset directories for the transfer matrix.
    train_dirs: Vec<PathBuf>,
    /// (predict) evaluation dataset directories for the transfer matrix.
    eval_dirs: Vec<PathBuf>,
    out: Option<PathBuf>,
    format: LogFormat,
    to: Option<LogFormat>,
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    check: Option<PathBuf>,
    lenient: bool,
    max_bad_frac: Option<f64>,
    checkpoint: Option<PathBuf>,
    checkpoint_every: Option<u64>,
    resume: Option<PathBuf>,
    stop_after: Option<u64>,
    /// (shard-analyze) worker count; `None` means the default of 2.
    shards: Option<u32>,
    /// (shard-analyze) per-attempt deadline in seconds.
    timeout_secs: u64,
    /// (shard-analyze) retries per shard after the first attempt.
    retries: u32,
    /// (shard-analyze) partial-results policy after retries run out.
    degraded: bool,
    /// (shard-worker) first rack, inclusive.
    rack_lo: Option<u32>,
    /// (shard-worker) last rack, exclusive.
    rack_hi: Option<u32>,
    /// (shard-worker) which shard this worker is.
    shard_index: u32,
    /// (shard-worker) where the serialized snapshot goes.
    snapshot_out: Option<PathBuf>,
}

impl Args {
    /// Rack count when no manifest overrides it: the explicit flag, else 4.
    fn racks_or_default(&self) -> u32 {
        self.racks.unwrap_or(4)
    }

    /// Seed when no manifest overrides it: the explicit flag, else 42.
    fn seed_or_default(&self) -> u64 {
        self.seed.unwrap_or(42)
    }

    /// The ingest policy the flags ask for: strict unless `--lenient`
    /// (which `--max-bad-frac` implies).
    fn ingest(&self) -> IngestOptions {
        if self.lenient || self.max_bad_frac.is_some() {
            IngestOptions::lenient(self.max_bad_frac)
        } else {
            IngestOptions::default()
        }
    }
}

/// Pull the `text`/`binary` format name that must follow `flag`.
fn format_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<LogFormat, String> {
    let v: String = flag_value(args, flag)?;
    LogFormat::parse(&v).ok_or_else(|| {
        format!(
            "bad {} {v} (expected text or binary)",
            flag.trim_start_matches('-')
        )
    })
}

/// Pull the value that must follow `flag`, parsed as `T`.
fn flag_value<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("bad {} {v}", flag.trim_start_matches('-')))
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = argv.into_iter();
    let command = args.next().ok_or("missing command")?;
    let mut parsed = Args {
        command,
        dir: None,
        extra_dirs: Vec::new(),
        listen: None,
        poll_ms: 200,
        racks: None,
        seed: None,
        profile: None,
        train_dirs: Vec::new(),
        eval_dirs: Vec::new(),
        out: None,
        format: LogFormat::Text,
        to: None,
        metrics_out: None,
        trace_out: None,
        check: None,
        lenient: false,
        max_bad_frac: None,
        checkpoint: None,
        checkpoint_every: None,
        resume: None,
        stop_after: None,
        shards: None,
        timeout_secs: 600,
        retries: 2,
        degraded: false,
        rack_lo: None,
        rack_hi: None,
        shard_index: 0,
        snapshot_out: None,
    };
    while let Some(arg) = args.next() {
        if arg.starts_with('-') && reads_flag(&parsed.command, &arg) == Some(false) {
            return Err(format!("{} does not take {arg}", parsed.command));
        }
        match arg.as_str() {
            "--racks" => {
                let racks: u32 = flag_value(&mut args, "--racks")?;
                if racks == 0 {
                    return Err("--racks must be at least 1".into());
                }
                parsed.racks = Some(racks);
            }
            "--seed" => parsed.seed = Some(flag_value(&mut args, "--seed")?),
            "--profile" => {
                let name: String = flag_value(&mut args, "--profile")?;
                // Fail at parse time with the registry listing, not deep
                // inside a command with a bare name.
                astra_platform::by_name(&name).map_err(|e| e.to_string())?;
                parsed.profile = Some(name);
            }
            "--train" => parsed.train_dirs.push(flag_value(&mut args, "--train")?),
            "--eval" => parsed.eval_dirs.push(flag_value(&mut args, "--eval")?),
            "--out" => parsed.out = Some(flag_value(&mut args, "--out")?),
            "--format" => parsed.format = format_value(&mut args, "--format")?,
            "--to" => parsed.to = Some(format_value(&mut args, "--to")?),
            "--metrics-out" => parsed.metrics_out = Some(flag_value(&mut args, "--metrics-out")?),
            "--trace-out" => parsed.trace_out = Some(flag_value(&mut args, "--trace-out")?),
            "--check" => parsed.check = Some(flag_value(&mut args, "--check")?),
            "--lenient" => parsed.lenient = true,
            "--max-bad-frac" => {
                let frac: f64 = flag_value(&mut args, "--max-bad-frac")?;
                if !(0.0..=1.0).contains(&frac) {
                    return Err("--max-bad-frac must be between 0 and 1".into());
                }
                parsed.max_bad_frac = Some(frac);
            }
            "--checkpoint" => parsed.checkpoint = Some(flag_value(&mut args, "--checkpoint")?),
            "--checkpoint-every" => {
                parsed.checkpoint_every = Some(flag_value(&mut args, "--checkpoint-every")?)
            }
            "--resume" => parsed.resume = Some(flag_value(&mut args, "--resume")?),
            "--listen" => parsed.listen = Some(flag_value(&mut args, "--listen")?),
            "--poll-ms" => {
                parsed.poll_ms = flag_value(&mut args, "--poll-ms")?;
                if parsed.poll_ms == 0 {
                    return Err("--poll-ms must be at least 1".into());
                }
            }
            "--stop-after" => parsed.stop_after = Some(flag_value(&mut args, "--stop-after")?),
            "--shards" => {
                let shards: u32 = flag_value(&mut args, "--shards")?;
                if shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
                parsed.shards = Some(shards);
            }
            "--timeout" => {
                parsed.timeout_secs = flag_value(&mut args, "--timeout")?;
                if parsed.timeout_secs == 0 {
                    return Err("--timeout must be at least 1 second".into());
                }
            }
            "--retries" => parsed.retries = flag_value(&mut args, "--retries")?,
            "--degraded" => parsed.degraded = true,
            "--rack-lo" => parsed.rack_lo = Some(flag_value(&mut args, "--rack-lo")?),
            "--rack-hi" => parsed.rack_hi = Some(flag_value(&mut args, "--rack-hi")?),
            "--shard-index" => parsed.shard_index = flag_value(&mut args, "--shard-index")?,
            "--snapshot-out" => {
                parsed.snapshot_out = Some(flag_value(&mut args, "--snapshot-out")?)
            }
            other if !other.starts_with('-') => {
                if let Some(first) = &parsed.dir {
                    // Only the multi-tenant daemon takes several
                    // directories; everywhere else a second positional is
                    // almost certainly a typo, so keep rejecting it.
                    if parsed.command == "serve" {
                        parsed.extra_dirs.push(PathBuf::from(other));
                    } else {
                        return Err(format!(
                            "unexpected second directory {other} (already got {})",
                            first.display()
                        ));
                    }
                } else {
                    parsed.dir = Some(PathBuf::from(other));
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Run the CLI on an argument list (without the program name). This is
/// the whole binary: parse, dispatch, export metrics, map errors to the
/// process exit code.
pub fn main(argv: impl IntoIterator<Item = String>) -> ExitCode {
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // Tracing must be on before the first span completes, so enable it
    // ahead of dispatch. The flag works on every command.
    if args.trace_out.is_some() {
        astra_obs::trace::enable();
    }
    // `shard-analyze --degraded` can succeed *partially*: survivors
    // merged, holes reported. That outcome is distinct from both a
    // clean 0 and an error 1 so scripts can tell the three apart.
    let mut partial = false;
    let result = match args.command.as_str() {
        "generate" => cmd_generate(&args),
        "profiles" => cmd_profiles(),
        "convert" => cmd_convert(&args),
        "analyze" => cmd_analyze(&args),
        "stream-analyze" => cmd_stream_analyze(&args),
        "shard-analyze" => cmd_shard_analyze(&args).map(|p| partial = p),
        crate::shard::WORKER_COMMAND => {
            // The supervisor holds the write end of a worker's stdin: a
            // worker must not outlive it.
            on_stdin_eof(|| std::process::exit(1));
            cmd_shard_worker(&args)
        }
        "serve" => cmd_serve(&args),
        "report" => cmd_report(&args),
        "triage" => cmd_triage(&args),
        "stats" => cmd_stats(&args),
        "predict" => cmd_predict(&args),
        "fsck" => cmd_fsck(&args),
        "chaos" => cmd_chaos(&args),
        "trace" => cmd_trace(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other}")),
    };
    // Export metrics and the trace even on failure: a run that died
    // half-way is exactly the one whose counters and timeline you want.
    if let Some(path) = &args.metrics_out {
        let jsonl = astra_obs::global().snapshot().to_jsonl();
        if let Err(e) = std::fs::write(path, jsonl) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.trace_out {
        let json = astra_obs::trace::to_chrome_json();
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    match result {
        Ok(()) if partial => ExitCode::from(EXIT_PARTIAL),
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Exit code for a degraded (partial-results) `shard-analyze` run —
/// distinct from both success (0) and hard failure (1).
pub const EXIT_PARTIAL: u8 = 3;

fn cmd_generate(args: &Args) -> Result<(), String> {
    let out = args.out.clone().ok_or("generate requires --out DIR")?;
    let profile = resolve_profile_flag(args)?;
    let racks = args.racks_or_default();
    let seed = args.seed_or_default();
    eprintln!(
        "simulating {} racks of profile {} (seed {seed})...",
        racks, profile.name
    );
    let ds = Dataset::generate_profile(&profile, Some(racks), seed);
    ds.write_logs_as(&out, args.format)
        .map_err(|e| e.to_string())?;
    // The provenance record: which machine, at what scale and seed, in
    // which format. Every consumer reads this instead of guessing.
    Manifest {
        profile: profile.name.to_string(),
        seed,
        racks,
        format: args.format.name().to_string(),
        tool: format!("astra-mem {}", env!("CARGO_PKG_VERSION")),
    }
    .write(&out)
    .map_err(|e| format!("writing manifest.txt: {e}"))?;
    // Persist generation-time metrics next to the logs. Analysis commands
    // fold this file back in, so kernel-buffer drop counts and ECC
    // verdicts — facts only the generator knows — survive into `report
    // --metrics-out` and `stats` on the same directory.
    let jsonl = astra_obs::global().snapshot().to_jsonl();
    std::fs::write(out.join("metrics.jsonl"), jsonl).map_err(|e| e.to_string())?;
    println!(
        "wrote {} CE, {} HET, {} inventory records (+ sensors.log excerpt) to {} ({})",
        ds.sim.ce_log.len(),
        ds.sim.het_log.len(),
        ds.replacements.len(),
        out.display(),
        args.format.name()
    );
    Ok(())
}

/// `convert DIR --to {text,binary} [--out DIR2]`: re-encode every log in a
/// directory. Reads auto-detect the current format per file, so a mixed
/// directory converges on the target; writes go through a `.tmp` + rename
/// so an interrupted in-place conversion never leaves a torn log.
fn cmd_convert(args: &Args) -> Result<(), String> {
    let dir = require_dir(args)?;
    let to = args.to.ok_or("convert requires --to {text,binary}")?;
    let out = args.out.clone().unwrap_or_else(|| dir.clone());
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let opts = args.ingest();
    /// The per-run conversion settings shared by every log.
    struct Convert<'a> {
        dir: &'a Path,
        out: &'a Path,
        to: LogFormat,
        opts: &'a IngestOptions,
    }
    impl Convert<'_> {
        fn one<T: Send>(
            &self,
            name: &str,
            line: LineFormat<T>,
            bin: BinFormat<T>,
            fill: impl Fn(&T, &mut String),
        ) -> Result<Option<usize>, String> {
            let path = self.dir.join(name);
            if !path.exists() {
                return Ok(None);
            }
            let stage = name.trim_end_matches(".log");
            let (parsed, quarantine) = binfmt::parse_file_auto(&path, line, bin, self.opts, stage)
                .map_err(|e| format!("{name}: {e}"))?;
            if !quarantine.is_empty() {
                eprintln!("note: {}", quarantine.report_line(name));
            }
            let tmp = self.out.join(format!("{name}.convert-tmp"));
            let write = |sink: &mut std::io::BufWriter<std::fs::File>| -> std::io::Result<()> {
                use std::io::Write as _;
                match self.to {
                    LogFormat::Text => {
                        logio::write_lines_with(&mut *sink, parsed.records.iter(), |rec, buf| {
                            fill(rec, buf)
                        })?;
                    }
                    LogFormat::Binary => {
                        binfmt::write_records(&mut *sink, bin, &parsed.records)?;
                    }
                }
                sink.flush()
            };
            std::fs::File::create(&tmp)
                .and_then(|f| write(&mut std::io::BufWriter::new(f)))
                .and_then(|()| std::fs::rename(&tmp, self.out.join(name)))
                .map_err(|e| format!("writing {name}: {e}"))?;
            Ok(Some(parsed.records.len()))
        }
    }
    let cv = Convert {
        dir: &dir,
        out: &out,
        to,
        opts: &opts,
    };
    let mut seen = 0u32;
    use astra_logs::{ce, het, inventory, sensor};
    let counts = [
        cv.one("ce.log", ce::FORMAT, binfmt::CE, |r, buf| {
            r.to_line_into(buf)
        })?,
        cv.one("het.log", het::FORMAT, binfmt::HET, |r, buf| {
            r.to_line_into(buf)
        })?,
        cv.one(
            "inventory.log",
            inventory::FORMAT,
            binfmt::INVENTORY,
            |r, buf| r.to_line_into(buf),
        )?,
        cv.one("sensors.log", sensor::FORMAT, binfmt::SENSOR, |r, buf| {
            r.to_line_into(buf)
        })?,
    ];
    let mut total = 0usize;
    for n in counts.into_iter().flatten() {
        seen += 1;
        total += n;
    }
    if seen == 0 {
        return Err(format!("no log files found in {}", dir.display()));
    }
    // Generation-time metrics ride along so `stats` on the converted
    // directory still sees kernel-buffer drops and ECC verdicts.
    let metrics = dir.join("metrics.jsonl");
    if out != dir && metrics.exists() {
        std::fs::copy(&metrics, out.join("metrics.jsonl"))
            .map_err(|e| format!("copying metrics.jsonl: {e}"))?;
    }
    // So does the provenance, in the format the logs now have: without it
    // every command on the copy would fall back to the 4-rack default.
    if let Some(mut manifest) = Manifest::load(&dir).map_err(|e| e.to_string())? {
        manifest.format = to.name().to_string();
        manifest
            .write(&out)
            .map_err(|e| format!("writing manifest.txt: {e}"))?;
    }
    println!(
        "converted {seen} logs ({total} records) to {} in {}",
        to.name(),
        out.display()
    );
    Ok(())
}

/// Render a [`LoadError`] with the operator hint: an absent log points at
/// the extraction job (wrong directory, generate never ran), an
/// unreadable one at the file itself. Shared by every command that opens
/// a log directory, batch or streaming.
fn load_error_hint(dir: &Path, e: &LoadError) -> String {
    match e {
        LoadError::MissingLog { name, .. } => format!(
            "{e}\nhint: {} does not contain the required {name} — point at a directory \
             written by `astra-mem generate --out DIR`, or check that the log extraction \
             completed",
            dir.display()
        ),
        LoadError::Unreadable { name, .. } => format!(
            "{e}\nhint: {name} exists but could not be read — check file permissions and \
             that it is plain UTF-8 text"
        ),
        LoadError::Corrupt { .. } => format!(
            "{e}\nhint: run `astra-mem fsck {}` for the full per-file corruption report, \
             or re-run with --lenient [--max-bad-frac F] to quarantine bad lines and \
             analyze the rest",
            dir.display()
        ),
        LoadError::Changed { .. } => format!(
            "{e}\nhint: resume only against the logs the checkpoint was written from \
             (appending to them is fine), or run again without --resume"
        ),
        LoadError::Manifest { .. } => format!(
            "{e}\nhint: the dataset's provenance record is damaged — re-run \
             `astra-mem generate` to rewrite it, or delete manifest.txt to fall back \
             to the astra profile assumption"
        ),
    }
}

/// Fold in the dataset's `metrics.jsonl`, if present. Commands call this
/// after their own work, and the import adds only names the run did not
/// record itself: generation's `faultsim.*` arrive, while a file an
/// earlier analysis exported into the directory never doubles this run's
/// parse and coalesce figures.
fn import_dir_metrics(dir: &Path) {
    if let Ok(text) = std::fs::read_to_string(dir.join("metrics.jsonl")) {
        let bad = astra_obs::global().import_jsonl(&text);
        if bad > 0 {
            eprintln!("note: skipped {bad} unparseable metrics.jsonl lines");
        }
    }
}

fn require_dir(args: &Args) -> Result<PathBuf, String> {
    args.dir
        .clone()
        .ok_or_else(|| "this command needs a log directory".to_string())
}

/// `astra-mem profiles`: list the registry with one-line descriptions.
fn cmd_profiles() -> Result<(), String> {
    println!("registered platform profiles (generate --profile NAME):\n");
    for p in astra_platform::registry() {
        let t = &p.topology;
        println!(
            "  {:<11} {} racks x {} chassis x {} nodes, {:?} ECC",
            p.name, t.default_racks, t.chassis_per_rack, t.nodes_per_chassis, p.ecc.model
        );
        println!("              {}", p.description);
    }
    Ok(())
}

/// The `--profile` flag resolved against the registry (astra by default).
fn resolve_profile_flag(args: &Args) -> Result<PlatformProfile, String> {
    match &args.profile {
        Some(name) => astra_platform::by_name(name).map_err(|e| e.to_string()),
        None => Ok(PlatformProfile::astra()),
    }
}

/// The platform, machine scale, and seed a directory-consuming command
/// should run under, resolved from the dataset's manifest.
struct Resolved {
    profile: PlatformProfile,
    system: SystemConfig,
    seed: u64,
    /// The seed came from the manifest or `--seed`, not the fallback.
    seed_known: bool,
}

/// Resolve a dataset directory's provenance against the command-line
/// flags.
///
/// With a manifest, its recorded profile/racks/seed win; an *explicit*
/// conflicting flag is an error (silently analyzing rack-18 logs as a
/// 4-rack machine, or re-simulating ground truth under the wrong profile,
/// produces confidently wrong numbers). Without one — a legacy or
/// hand-assembled directory — the flags or their defaults apply and the
/// historical Astra assumption holds, noted on stderr.
fn resolve_for_dir(args: &Args, dir: &Path) -> Result<Resolved, String> {
    let manifest = load_manifest(dir).map_err(|e| load_error_hint(dir, &e))?;
    match manifest {
        Some(m) => {
            let profile = astra_platform::by_name(&m.profile).map_err(|e| {
                format!(
                    "{}: recorded profile is not in this tool's registry: {e}\n\
                     hint: the dataset was generated by a different tool version",
                    Manifest::path_in(dir).display()
                )
            })?;
            if let Some(flag) = &args.profile {
                if *flag != m.profile {
                    return Err(format!(
                        "--profile {flag} conflicts with the dataset manifest (profile={}); \
                         drop the flag or regenerate the dataset",
                        m.profile
                    ));
                }
            }
            if let Some(racks) = args.racks {
                if racks != m.racks {
                    return Err(format!(
                        "--racks {racks} conflicts with the dataset manifest (racks={}); \
                         drop the flag or regenerate the dataset",
                        m.racks
                    ));
                }
            }
            if let Some(seed) = args.seed {
                if seed != m.seed {
                    return Err(format!(
                        "--seed {seed} conflicts with the dataset manifest (seed={}); \
                         drop the flag or regenerate the dataset",
                        m.seed
                    ));
                }
            }
            eprintln!(
                "using manifest: profile={} racks={} seed={} format={}",
                m.profile, m.racks, m.seed, m.format
            );
            Ok(Resolved {
                system: profile.system(Some(m.racks)),
                seed: m.seed,
                seed_known: true,
                profile,
            })
        }
        None => {
            let profile = resolve_profile_flag(args)?;
            eprintln!(
                "note: {} has no manifest.txt — assuming profile {} at {} racks \
                 (generate writes a manifest; pass --profile/--racks to override)",
                dir.display(),
                profile.name,
                args.racks_or_default()
            );
            Ok(Resolved {
                system: profile.system(Some(args.racks_or_default())),
                seed: args.seed_or_default(),
                seed_known: args.seed.is_some(),
                profile,
            })
        }
    }
}

/// The dataset directory, its resolved provenance, and the `logs` its
/// command uses, parsed.
fn load(args: &Args, logs: &[Log]) -> Result<(PathBuf, Resolved, AnalysisInput), String> {
    load_with(args, &args.ingest(), logs)
}

fn load_with(
    args: &Args,
    opts: &IngestOptions,
    logs: &[Log],
) -> Result<(PathBuf, Resolved, AnalysisInput), String> {
    let dir = require_dir(args)?;
    let resolved = resolve_for_dir(args, &dir)?;
    let input =
        AnalysisInput::from_dir_with(&dir, opts, logs).map_err(|e| load_error_hint(&dir, &e))?;
    if !input.quarantine.is_empty() {
        eprintln!(
            "note: quarantined {} lines {}",
            input.quarantine.total(),
            input.quarantine.summary()
        );
    }
    Ok((dir, resolved, input))
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    let (dir, resolved, input) = load(args, &[Log::Ce])?;
    let system = resolved.system;
    let analysis = Analysis::run(system, input.records);
    let body = crate::serve::analysis_body(
        analysis.total_errors(),
        analysis.total_faults(),
        system.node_count(),
        &exp::fig4::compute(&analysis, study_span()),
        &exp::fig5::compute(&analysis),
    );
    print!("{body}");
    import_dir_metrics(&dir);
    Ok(())
}

fn cmd_stream_analyze(args: &Args) -> Result<(), String> {
    let dir = require_dir(args)?;
    let system = resolve_for_dir(args, &dir)?.system;
    let opts = StreamOptions {
        ingest: args.ingest(),
        checkpoint_every: args.checkpoint_every,
        checkpoint_path: args.checkpoint.clone(),
        resume_from: args.resume.clone(),
        stop_after: args.stop_after,
    };
    let report = stream::stream_analyze(&dir, system, &opts).map_err(|e| match &e {
        StreamError::Load(le) => load_error_hint(&dir, le),
        StreamError::Checkpoint { .. } | StreamError::Version { .. } => e.to_string(),
    })?;
    // `--stop-after` writes a checkpoint and ends the run early; nothing
    // is printed so that a later resumed run's stdout alone is the full
    // analyze output.
    let Some(report) = report else {
        eprintln!(
            "stopped after {} CE records; checkpoint written",
            args.stop_after.unwrap_or(0)
        );
        return Ok(());
    };
    if report.skipped > 0 {
        eprintln!("note: quarantined {} lines", report.skipped);
    }
    import_dir_metrics(&dir);
    print!("{}", crate::serve::report_analysis_body(&report));
    Ok(())
}

/// `shard-analyze DIR --shards N`: the supervised multi-process
/// analysis. Returns whether the output is *partial* (degraded mode
/// with at least one dead shard), which [`main`] maps to
/// [`EXIT_PARTIAL`].
fn cmd_shard_analyze(args: &Args) -> Result<bool, String> {
    let dir = require_dir(args)?;
    let resolved = resolve_for_dir(args, &dir)?;
    let system = resolved.system;
    // Workers re-resolve the dataset themselves, so replay exactly the
    // provenance and ingest flags this process was given — nothing
    // more: an unset flag must stay unset so the manifest keeps winning
    // in the worker too.
    let mut worker_flags: Vec<String> = Vec::new();
    if let Some(p) = &args.profile {
        worker_flags.extend(["--profile".into(), p.clone()]);
    }
    if let Some(racks) = args.racks {
        worker_flags.extend(["--racks".into(), racks.to_string()]);
    }
    if let Some(seed) = args.seed {
        worker_flags.extend(["--seed".into(), seed.to_string()]);
    }
    if args.lenient {
        worker_flags.push("--lenient".into());
    }
    if let Some(frac) = args.max_bad_frac {
        worker_flags.extend(["--max-bad-frac".into(), frac.to_string()]);
    }
    let cfg = crate::shard::SupervisorConfig {
        dir: dir.clone(),
        system,
        shards: args.shards.unwrap_or(2),
        timeout: std::time::Duration::from_secs(args.timeout_secs),
        retries: args.retries,
        degraded: args.degraded,
        seed: resolved.seed,
        worker_flags,
    };
    let supervised = {
        let _span = astra_obs::span("pipeline.shard");
        crate::shard::supervise(&cfg)?
    };
    let report = supervised.analyzer.snapshot();
    import_dir_metrics(&dir);
    // The banner leads the partial output: nobody should be able to
    // read the numbers without reading the holes first.
    for (lo, hi) in &supervised.missing {
        println!("DEGRADED: missing racks {lo}..{hi}");
    }
    print!("{}", crate::serve::report_analysis_body(&report));
    Ok(!supervised.missing.is_empty())
}

/// The hidden `shard-worker` mode `shard-analyze` spawns itself in:
/// analyze one rack range and serialize the analyzer snapshot.
fn cmd_shard_worker(args: &Args) -> Result<(), String> {
    let dir = require_dir(args)?;
    let (rack_lo, rack_hi) = match (args.rack_lo, args.rack_hi) {
        (Some(lo), Some(hi)) if lo < hi => (lo, hi),
        _ => return Err("shard-worker needs --rack-lo L and --rack-hi H with L < H".into()),
    };
    let snapshot_out = args
        .snapshot_out
        .clone()
        .ok_or("shard-worker needs --snapshot-out FILE")?;
    let system = resolve_for_dir(args, &dir)?.system;
    crate::shard::run_worker(&crate::shard::WorkerConfig {
        dir,
        system,
        rack_lo,
        rack_hi,
        shard_index: args.shard_index,
        snapshot_out,
        stream: StreamOptions {
            ingest: args.ingest(),
            ..StreamOptions::default()
        },
    })
}

/// Run `then` on a thread of its own once stdin reaches EOF (or fails
/// to read): the service-manager idiom, where closing a process's stdin
/// asks it to stop. Only the CLI process's own commands call this, never
/// code that tests or the benchmark helper run in-process, whose stdin
/// is not theirs to wait on.
fn on_stdin_eof(then: impl FnOnce() + Send + 'static) {
    std::thread::spawn(move || {
        use std::io::Read as _;
        let mut sink = [0u8; 4096];
        let mut stdin = std::io::stdin();
        while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        then();
    });
}

/// `serve DIR [DIR ...]`: run the multi-tenant analysis daemon until a
/// client requests `/shutdown` or stdin reaches EOF (the service-manager
/// idiom: closing the daemon's stdin asks it to wind down). Exit 0 means
/// every site wrote its final checkpoint.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let mut dirs = vec![require_dir(args)?];
    dirs.extend(args.extra_dirs.iter().cloned());
    if args.checkpoint.is_some() && dirs.len() > 1 {
        return Err(
            "--checkpoint FILE only works with a single site; multi-site serve \
             checkpoints each site to <dir>/serve.ckpt"
                .into(),
        );
    }
    // Fallback shape for manifest-less sites; sites with a manifest get
    // their own recorded profile topology inside start_sites.
    let system = SystemConfig::scaled(args.racks_or_default());
    let stream_opts = StreamOptions {
        ingest: args.ingest(),
        checkpoint_path: args.checkpoint.clone(),
        resume_from: args.resume.clone(),
        ..StreamOptions::default()
    };
    let serve_opts = astra_serve::ServeOptions {
        listen: args
            .listen
            .clone()
            .unwrap_or_else(|| "127.0.0.1:7433".to_string()),
        poll_interval: std::time::Duration::from_millis(args.poll_ms),
        checkpoint_every: args.checkpoint_every.map(std::time::Duration::from_secs),
        ..astra_serve::ServeOptions::default()
    };
    let server = crate::serve::start_sites(&dirs, system, &stream_opts, &serve_opts)?;
    // The one startup line on stdout, flushed, so wrappers (tests, CI,
    // service managers) can scrape the actual port even with `:0`.
    println!("listening on http://{}", server.addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    eprintln!(
        "serving {} site(s); stop with GET/POST /shutdown or by closing stdin",
        dirs.len()
    );
    // Lives here rather than in astra-serve so in-process servers
    // (tests) never touch the process's stdin.
    let trigger = server.shutdown_trigger();
    on_stdin_eof(move || trigger.trigger());
    server.join();
    eprintln!("shutdown complete");
    // As after any command's own work: `--metrics-out DIR/metrics.jsonl`
    // then keeps the generation metrics beside the daemon's request
    // timings, and a later `stats DIR` reads both.
    for dir in &dirs {
        import_dir_metrics(dir);
    }
    Ok(())
}

fn cmd_report(args: &Args) -> Result<(), String> {
    let (dir, resolved, input) = load(args, &Log::ALL)?;
    let system = resolved.system;
    let analysis = Analysis::run(system, input.records);
    // The telemetry model is functional: reconstruct it from the recorded
    // (or given) seed under the dataset's thermal profile. With neither a
    // manifest nor --seed there is nothing to reconstruct it from, so the
    // figures it would feed are skipped instead of drawn at a guessed seed.
    let telemetry = resolved.seed_known.then(|| {
        astra_telemetry::TelemetryModel::new(
            system,
            resolved.profile.thermal.clone(),
            resolved.seed,
        )
    });
    let skip = |fig: &str, what: &str| {
        println!(
            "{fig}: skipped: {what} come from the telemetry model, which needs the dataset's \
             seed (no manifest.txt, no --seed)\n"
        )
    };
    let config = TempCorrConfig::default();

    println!(
        "{}",
        exp::table1::compute(&system, &input.replacements).render()
    );
    // Prefer the parsed sensors.log excerpt when the directory has one;
    // otherwise sample the telemetry model.
    if !input.sensors.is_empty() {
        println!(
            "{}",
            exp::fig2::compute_from_records(&input.sensors).render()
        );
    } else if let Some(telemetry) = &telemetry {
        println!(
            "{}",
            exp::fig2::compute(telemetry, sensor_span(), 8, 6 * 60).render()
        );
    } else {
        skip("Fig 2", "without sensors.log, sensor values");
    }
    println!(
        "{}",
        exp::fig3::compute(&input.replacements, replacement_span()).render()
    );
    println!("{}", exp::fig4::compute(&analysis, study_span()).render());
    println!("{}", exp::fig5::compute(&analysis).render());
    println!("{}", exp::fig6::compute(&analysis).render());
    println!("{}", exp::fig7::compute(&analysis).render());
    println!("{}", exp::fig8::compute(&analysis).render());
    match &telemetry {
        Some(telemetry) => println!(
            "{}",
            exp::fig9::compute(&analysis, telemetry, sensor_span(), &config).render()
        ),
        None => skip("Fig 9", "DIMM temperatures"),
    }
    println!("{}", exp::fig10_12::compute(&analysis).render());
    match &telemetry {
        Some(telemetry) => {
            let table = MonthlyTable::sweep(
                &analysis.records,
                telemetry,
                &system,
                sensor_span(),
                &config,
            );
            println!("{}", exp::fig13_14::fig13_from(&table).render());
            println!("{}", exp::fig13_14::fig14_from(&table).render());
        }
        None => {
            skip("Fig 13", "temperatures");
            skip("Fig 14", "node powers");
        }
    }
    let window = TimeSpan::dates(het_firmware_date(), CalDate::new(2019, 9, 14));
    println!(
        "{}",
        exp::fig15::compute(&input.hets, window, system.dimm_count()).render()
    );

    // CE -> DUE escalation addendum.
    if let Some(rr) =
        crate::het::due_relative_risk(&analysis.faults, &input.hets, system.dimm_count())
    {
        println!("DUE relative risk for DIMMs with prior CE faults: {rr:.1}x\n");
    }

    // Failure-model addendum.
    if let Some(model) =
        crate::modeling::NodePopulationModel::fit(&analysis.spatial.fault_counts_all_nodes(&system))
    {
        println!(
            "node fault model: P(zero) = {:.2}, tail alpha = {:.2}; expected nodes \
             with >= 10 faults: {:.0}\n",
            model.p_zero,
            model.tail.alpha,
            model.expected_nodes_at_least(10)
        );
    }

    // Survival addendum.
    println!("Component survival (Kaplan-Meier):");
    for cs in reliability::component_survival(&system, &input.replacements, replacement_span()) {
        println!(
            "  {:<13} failures {:>5} / {:<6}  S(212d) {:.3}  front-loading(30d) {:.2}x",
            cs.component,
            cs.failures,
            cs.population,
            cs.end_survival(212.0),
            cs.front_loading(30.0, 212.0)
        );
    }
    import_dir_metrics(&dir);
    Ok(())
}

fn cmd_triage(args: &Args) -> Result<(), String> {
    let (dir, resolved, input) = load(args, &[Log::Ce])?;
    let analysis = Analysis::run(resolved.system, input.records);

    println!("node exclusion curve:");
    for point in mitigation::exclusion_curve(&analysis, 8) {
        println!(
            "  exclude {:>2} nodes -> avoid {:>5.1}% of CEs at {:.2}% capacity",
            point.excluded_nodes,
            100.0 * point.errors_avoided_fraction,
            100.0 * point.capacity_lost_fraction
        );
    }
    let k = mitigation::smallest_exclusion_for(&analysis, 0.5);
    println!("smallest exclude list removing half of all CEs: {k} nodes\n");

    for (name, policy) in [
        (
            "threshold(8)",
            RetirementPolicy::Threshold { ce_threshold: 8 },
        ),
        (
            "budgeted(8, 16 pages)",
            RetirementPolicy::Budgeted {
                ce_threshold: 8,
                max_pages_per_fault: 16,
            },
        ),
    ] {
        let out = mitigation::simulate_retirement(&analysis.records, &analysis.faults, policy);
        println!(
            "page retirement {name}: retired {} pages ({} KiB), avoided {:.1}% of CEs, \
             contained {} faults, abandoned {}",
            out.retired_pages,
            out.retired_bytes() / 1024,
            100.0 * out.avoidance_rate(),
            out.faults_contained,
            out.faults_abandoned
        );
    }
    import_dir_metrics(&dir);
    Ok(())
}

/// Sum of all timing metrics whose span path ends in `suffix` (span paths
/// nest, e.g. `time.pipeline.parse/parse.ce`, so stats matches by leaf).
fn timing_secs_by_suffix(snap: &astra_obs::Snapshot, suffix: &str) -> f64 {
    snap.entries
        .iter()
        .filter(|(name, _)| {
            name.strip_prefix("time.")
                .map(|path| path == suffix || path.ends_with(&format!("/{suffix}")))
                .unwrap_or(false)
        })
        .map(|(name, _)| snap.timing_secs(name))
        .sum()
}

fn rate_per_sec(count: u64, secs: f64) -> String {
    if secs > 0.0 {
        format!("{:.0}/s", count as f64 / secs)
    } else {
        "-".to_string()
    }
}

fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    // Generation-time metrics (kernel-buffer drops, ECC verdicts) only
    // exist in the directory's metrics.jsonl; without it the report still
    // runs but silently loses that whole section — say so up front.
    if let Some(dir) = &args.dir {
        let metrics_path = dir.join("metrics.jsonl");
        if !metrics_path.exists() {
            eprintln!(
                "note: {} not found — generation-time stats (drop rates, ECC verdicts) \
                 will be missing.\n      regenerate the dataset with `astra-mem generate \
                 --out {}` (which writes metrics.jsonl), or copy the metrics file of the \
                 run that produced these logs into the directory.",
                metrics_path.display(),
                dir.display()
            );
        }
    }
    // A health report must diagnose unhealthy datasets, so `stats` is
    // lenient with an unbounded budget unless the user tightens it.
    let opts = IngestOptions::lenient(Some(args.max_bad_frac.unwrap_or(1.0)));
    let (dir, resolved, input) = load_with(args, &opts, &Log::ALL)?;
    let system = resolved.system;
    let analysis = Analysis::run(system, input.records);
    import_dir_metrics(&dir);
    let snap = astra_obs::global().snapshot();

    println!("pipeline health ({} nodes)", system.node_count());
    println!("\nparse stages:");
    println!(
        "  {:<10} {:>10} {:>9} {:>8} {:>12}",
        "stage", "lines ok", "skipped", "skip %", "throughput"
    );
    for stage in ["ce", "het", "inventory", "sensors"] {
        let ok = snap.counter(&format!("parse.{stage}.lines_ok"));
        let skipped = snap.counter(&format!("parse.{stage}.lines_skipped"));
        if ok == 0 && skipped == 0 {
            continue;
        }
        let secs = timing_secs_by_suffix(&snap, &format!("parse.{stage}"));
        println!(
            "  {:<10} {:>10} {:>9} {:>7.2}% {:>12}",
            stage,
            ok,
            skipped,
            percent(skipped, ok + skipped),
            rate_per_sec(ok, secs),
        );
    }

    // Ingest robustness: only printed when something was quarantined,
    // retried, or salvaged — a clean run keeps the clean report.
    let quarantined: u64 = QuarantineReason::ALL
        .iter()
        .map(|r| snap.counter(&format!("ingest.quarantined.{}", r.name())))
        .sum();
    let io_retries = snap.counter("ingest.io_retries");
    let salvaged = snap.counter("checkpoint.salvaged");
    if quarantined > 0 || io_retries > 0 || salvaged > 0 {
        println!("\ningest robustness:");
        for reason in QuarantineReason::ALL {
            let n = snap.counter(&format!("ingest.quarantined.{}", reason.name()));
            if n > 0 {
                println!("  quarantined {:<18} {:>8}", reason.name(), n);
            }
        }
        if io_retries > 0 {
            println!("  transient I/O retries      {io_retries:>8}");
        }
        if salvaged > 0 {
            println!("  checkpoints salvaged       {salvaged:>8}");
        }
    }

    let offered = snap.counter("faultsim.events_offered");
    if offered > 0 {
        let dropped = snap.counter("faultsim.ces_dropped");
        println!("\ngeneration (from metrics.jsonl):");
        println!(
            "  CEs offered {} | logged {} | dropped {} ({:.2}% kernel-buffer loss)",
            offered,
            snap.counter("faultsim.ces_logged"),
            dropped,
            percent(dropped, offered),
        );
        println!(
            "  ECC verdicts: {} corrected, {} uncorrected, {} background HET",
            snap.counter("faultsim.ecc.corrected"),
            snap.counter("faultsim.ecc.due"),
            snap.counter("faultsim.ecc.background"),
        );
    }

    // Only `report` joins CEs to telemetry (Figs 9, 13 and 14), so these
    // counters come from a metrics.jsonl that a report run exported.
    let summed = snap.counter("telemetry.window_readings_summed");
    let monthly = snap.counter("telemetry.monthly_readings");
    if summed > 0 || monthly > 0 {
        println!("\ntelemetry joins (from metrics.jsonl):");
    }
    if summed > 0 {
        let drawn = snap.counter("telemetry.window_readings");
        println!(
            "  window samples summed {summed} | drawn {drawn} ({:.1}% of summed)",
            percent(drawn, summed),
        );
    }
    if monthly > 0 {
        println!("  monthly readings drawn {monthly} (Figs 13-14, all sensors)");
    }

    let records_in = snap.counter("coalesce.records_in");
    println!("\ncoalesce:");
    println!(
        "  {} errors -> {} faults (ratio {:.1} errors/fault, throughput {})",
        records_in,
        snap.counter("coalesce.faults_out"),
        snap.gauge("coalesce.ratio"),
        rate_per_sec(records_in, timing_secs_by_suffix(&snap, "coalesce")),
    );
    // Faults per mode are gauges set by the run's last classification.
    let mode_counts: Vec<(String, u64)> = snap
        .entries
        .iter()
        .filter_map(|(name, _)| {
            name.strip_prefix("coalesce.mode.")
                .map(|mode| (mode.to_string(), snap.gauge(name) as u64))
        })
        .filter(|&(_, n)| n > 0)
        .collect();
    for (mode, n) in &mode_counts {
        println!(
            "    {:<14} {:>6} ({:.1}%)",
            mode,
            n,
            percent(*n, analysis.faults.len() as u64)
        );
    }

    let ws = snap.gauge("pipeline.workingset_bytes");
    if ws > 0.0 {
        println!(
            "\npeak analysis working set: {:.1} MiB",
            ws / (1024.0 * 1024.0)
        );
    }
    // Per-stage wall time. Generation-side stages (generate, merge) come
    // from the imported metrics.jsonl when the directory was produced by
    // `generate`; the analysis-side stages were just measured live.
    let stages = [
        ("generate", "pipeline.generate"),
        ("merge", "pipeline.merge"),
        ("parse", "pipeline.parse"),
        ("stream", "pipeline.stream"),
        ("coalesce", "coalesce"),
        ("spatial", "spatial.compute"),
        ("predict", "pipeline.predict"),
    ];
    if stages
        .iter()
        .any(|(_, suffix)| timing_secs_by_suffix(&snap, suffix) > 0.0)
    {
        println!("\nstage breakdown:");
        println!(
            "  {:<10} {:>9} {:>10} {:>10} {:>10}",
            "stage", "total", "p50", "p95", "p99"
        );
        for (label, suffix) in stages {
            let secs = timing_secs_by_suffix(&snap, suffix);
            if secs > 0.0 {
                // Percentiles come from the merged histogram across every
                // call context of the stage (same leaf matching as total).
                let (p50, p95, p99) = astra_obs::merged_stage_timing(&snap, suffix)
                    .map(|h| (h.p50(), h.p95(), h.p99()))
                    .unwrap_or((0, 0, 0));
                println!(
                    "  {label:<10} {secs:>8.3}s {:>8.3}ms {:>8.3}ms {:>8.3}ms",
                    p50 as f64 / 1e6,
                    p95 as f64 / 1e6,
                    p99 as f64 / 1e6,
                );
            }
        }
    }
    let analyze_secs = timing_secs_by_suffix(&snap, "pipeline.analyze");
    if analyze_secs > 0.0 {
        println!("analyze wall time: {analyze_secs:.3}s");
    }
    // The regression gate: compare this run's metrics against the
    // checked-in threshold file and fail loudly on any breach.
    if let Some(path) = &args.check {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let thresholds =
            astra_obs::Thresholds::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let report = astra_obs::check(&thresholds, &snap);
        println!();
        print!("{}", report.render());
        if !report.ok() {
            return Err(format!(
                "{} of {} threshold rules exceeded (see report above)",
                report.violations(),
                report.results.len()
            ));
        }
    }
    Ok(())
}

/// `fsck DIR`: scan every log with an unlimited-budget lenient ingest and
/// print, per file, what a lenient analysis run would quarantine — the
/// same `name: quarantined N (reason n, ...)` lines the `chaos` manifest
/// prints, so the two reports diff verbatim in CI. Sample quarantined
/// lines go to stderr; the exit code is nonzero iff anything was
/// quarantined (fsck semantics: a dirty filesystem is not exit 0).
fn cmd_fsck(args: &Args) -> Result<(), String> {
    let dir = require_dir(args)?;
    /// One log's quarantine, or `None` when the directory lacks it.
    fn scan<T: Send>(
        dir: &Path,
        name: &'static str,
        format: LineFormat<T>,
        bin: BinFormat<T>,
    ) -> Result<Option<(&'static str, astra_logs::Quarantine)>, String> {
        let path = dir.join(name);
        if !path.exists() {
            return Ok(None);
        }
        let fail = |e: &dyn std::fmt::Display| format!("{name}: {e}");
        // Binary logs verify with a CRC sweep + header validation — no
        // decode — so fsck runs at I/O speed on them. Text logs are read
        // with an unlimited budget, so the scan never aborts.
        let quarantine = if binfmt::file_is_binlog(&path).map_err(|e| fail(&e))? {
            binfmt::fsck_scan(&path, bin.kind).map_err(|e| fail(&e))?
        } else {
            let opts = IngestOptions::lenient(Some(1.0));
            let stage = name.trim_end_matches(".log");
            binfmt::parse_file_auto(&path, format, bin, &opts, stage)
                .map_err(|e| fail(&e))?
                .1
        };
        Ok(Some((name, quarantine)))
    }
    let mut total = astra_logs::Quarantine::default();
    let mut seen = 0u32;
    use astra_logs::{ce, het, inventory, sensor};
    for (name, quarantine) in [
        scan(&dir, "ce.log", ce::FORMAT, binfmt::CE)?,
        scan(&dir, "het.log", het::FORMAT, binfmt::HET)?,
        scan(&dir, "inventory.log", inventory::FORMAT, binfmt::INVENTORY)?,
        scan(&dir, "sensors.log", sensor::FORMAT, binfmt::SENSOR)?,
    ]
    .into_iter()
    .flatten()
    {
        seen += 1;
        println!("{}", quarantine.report_line(name));
        let samples = quarantine.sample_lines();
        if !samples.is_empty() {
            eprint!("{samples}");
        }
        total.merge(&quarantine);
    }
    if seen == 0 {
        return Err(format!("no log files found in {}", dir.display()));
    }
    println!("{}", total.report_line("total"));
    if total.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} lines would be quarantined {}",
            total.total(),
            total.summary()
        ))
    }
}

/// `chaos DIR --seed S`: deterministically corrupt a generated dataset in
/// place and print the injected-corruption manifest (fsck's line format).
fn cmd_chaos(args: &Args) -> Result<(), String> {
    let dir = require_dir(args)?;
    let cfg = chaos::ChaosConfig::with_seed(args.seed_or_default());
    let manifest = chaos::corrupt_dir(&dir, &cfg).map_err(|e| e.to_string())?;
    if manifest.files.is_empty() {
        return Err(format!("no log files found in {}", dir.display()));
    }
    print!("{}", manifest.report());
    Ok(())
}

/// `trace FILE`: parse a Chrome trace JSON written by `--trace-out` and
/// print the flame table. The total column sums the same span durations
/// the `time.*` histograms record, so the two agree to the nanosecond.
fn cmd_trace(args: &Args) -> Result<(), String> {
    let path = args
        .dir
        .clone()
        .ok_or("trace needs a trace JSON file (written by --trace-out)")?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let events = astra_obs::trace::parse_chrome_trace(&text)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if events.is_empty() {
        return Err(format!(
            "{}: no complete span events — was the file written by --trace-out?",
            path.display()
        ));
    }
    println!(
        "{} span events across {} threads\n",
        events.len(),
        events
            .iter()
            .map(|e| e.tid)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    );
    print!("{}", astra_obs::trace::flame_table(&events));
    Ok(())
}

fn cmd_predict(args: &Args) -> Result<(), String> {
    // Transfer-matrix mode: fit on every --train dataset, score on every
    // --eval dataset, print the cross-platform matrix.
    if !args.train_dirs.is_empty() || !args.eval_dirs.is_empty() {
        return cmd_predict_transfer(args);
    }
    let (dir, resolved, input) = load(args, &[Log::Ce, Log::Het])?;
    let system = resolved.system;

    // Ground truth is not persisted by `generate`; re-derive it from the
    // deterministic simulation under the manifest's recorded profile,
    // scale, and seed (the same reconstruct-from-seed pattern `report`
    // uses for telemetry). Without either a manifest or --seed there is
    // nothing to re-derive it from, and scoring against a guessed seed's
    // truth would print confident nonsense. On legacy manifest-less
    // directories the flags must match generate's; a mismatch shows up
    // as a CE-count disagreement.
    if !resolved.seed_known {
        return Err(format!(
            "predict scores alerts against ground truth re-simulated from the dataset's seed, \
             but {} has no manifest.txt and no --seed was given\n\
             hint: pass --seed S, the seed the logs were generated with",
            dir.display()
        ));
    }
    eprintln!(
        "re-simulating {} racks of profile {} (seed {}) for ground truth...",
        system.racks, resolved.profile.name, resolved.seed
    );
    let ds = Dataset::generate_profile(&resolved.profile, Some(system.racks), resolved.seed);
    if ds.sim.ce_log.len() != input.records.len() {
        eprintln!(
            "warning: directory has {} CE records but profile={} racks={} seed={} simulates \
             {} — ground-truth labels are unreliable; pass the --racks/--seed used at generate",
            input.records.len(),
            resolved.profile.name,
            system.racks,
            resolved.seed,
            ds.sim.ce_log.len()
        );
    }

    let predictors = astra_predict::default_predictors();
    let config = astra_predict::PredictConfig::default();
    let alerts = astra_predict::replay(&input.records, &config, &predictors);
    println!(
        "replayed {} CEs through {} predictors -> {} alerts\n",
        input.records.len(),
        predictors.len(),
        alerts.len()
    );
    let report = astra_predict::evaluate(&alerts, &input.hets, &ds.sim.ground_truth);
    print!("{}", report.render());

    // Cost model: what acting on each predictor's alerts would buy.
    println!("\nproactive mitigation (errors avoided vs memory retired):");
    for eval in &report.predictors {
        let own: Vec<astra_predict::Alert> = alerts
            .iter()
            .filter(|a| a.predictor == eval.name)
            .cloned()
            .collect();
        for (label, policy) in [
            ("retire-rank", ProactivePolicy::RetireRank),
            ("exclude-node", ProactivePolicy::ExcludeNode),
        ] {
            let out = mitigation::simulate_proactive(
                &input.records,
                &input.hets,
                &own,
                policy,
                &system.geometry,
            );
            println!(
                "  {:<10} {:<13} {:>3} units ({:>6.1} GiB) -> avoided {:>5.1}% of CEs, \
                 {}/{} DUEs",
                eval.name,
                label,
                out.units,
                out.reserved_bytes as f64 / (1024.0 * 1024.0 * 1024.0),
                100.0 * out.avoidance_rate(),
                out.dues_avoided,
                out.dues_avoided + out.dues_residual,
            );
        }
    }
    import_dir_metrics(&dir);
    Ok(())
}

/// `astra-mem predict --train DIR... --eval DIR...`: the cross-platform
/// transfer matrix. Every directory must carry a manifest — transfer
/// re-simulates each dataset's ground truth, which is only possible with
/// the recorded profile/racks/seed (a guess would silently mislabel).
fn cmd_predict_transfer(args: &Args) -> Result<(), String> {
    if args.dir.is_some() {
        return Err(
            "transfer mode takes --train/--eval directories, not a positional DIR".to_string(),
        );
    }
    if args.train_dirs.is_empty() || args.eval_dirs.is_empty() {
        return Err("transfer mode needs at least one --train DIR and one --eval DIR".to_string());
    }

    // Load each distinct directory once, even when it appears on both
    // sides of the matrix (the diagonal baseline is the common case).
    let mut dirs: Vec<PathBuf> = Vec::new();
    for d in args.train_dirs.iter().chain(&args.eval_dirs) {
        if !dirs.contains(d) {
            dirs.push(d.clone());
        }
    }
    let mut by_dir: std::collections::BTreeMap<PathBuf, astra_predict::TransferDataset> =
        std::collections::BTreeMap::new();
    for dir in &dirs {
        let m = load_manifest(dir)
            .map_err(|e| load_error_hint(dir, &e))?
            .ok_or_else(|| {
                format!(
                    "{}: no manifest.txt — transfer mode re-simulates ground truth and needs \
                     the recorded profile/racks/seed; regenerate the dataset with this tool's \
                     `generate`",
                    dir.display()
                )
            })?;
        let profile = astra_platform::by_name(&m.profile).map_err(|e| {
            format!(
                "{}: recorded profile is not in this tool's registry: {e}",
                Manifest::path_in(dir).display()
            )
        })?;
        let input = AnalysisInput::from_dir_with(dir, &args.ingest(), &[Log::Ce, Log::Het])
            .map_err(|e| load_error_hint(dir, &e))?;
        if !input.quarantine.is_empty() {
            eprintln!(
                "note: {}: quarantined {} lines {}",
                dir.display(),
                input.quarantine.total(),
                input.quarantine.summary()
            );
        }
        eprintln!(
            "re-simulating {} ({} racks of profile {}, seed {}) for ground truth...",
            dir.display(),
            m.racks,
            m.profile,
            m.seed
        );
        let truth = Dataset::generate_profile(&profile, Some(m.racks), m.seed)
            .sim
            .ground_truth;
        by_dir.insert(
            dir.clone(),
            astra_predict::TransferDataset {
                name: m.profile.clone(),
                records: input.records,
                hets: input.hets,
                ground_truth: truth,
            },
        );
    }

    // Two different directories can share a profile (same platform,
    // different seed); disambiguate those rows/columns by directory name.
    let mut uses: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for ds in by_dir.values() {
        *uses.entry(ds.name.clone()).or_default() += 1;
    }
    for (dir, ds) in by_dir.iter_mut() {
        if uses[&ds.name] > 1 {
            let base = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| dir.display().to_string());
            ds.name = format!("{}:{base}", ds.name);
        }
    }

    let train: Vec<_> = args.train_dirs.iter().map(|d| by_dir[d].clone()).collect();
    let eval: Vec<_> = args.eval_dirs.iter().map(|d| by_dir[d].clone()).collect();
    let matrix =
        astra_predict::transfer_matrix(&train, &eval, &astra_predict::PredictConfig::default());
    print!("{}", matrix.render());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{cmd_convert, parse_args};

    fn argv(args: &[&str]) -> impl Iterator<Item = String> {
        args.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    struct TempDirGuard(std::path::PathBuf);

    impl TempDirGuard {
        fn new(tag: &str) -> TempDirGuard {
            use std::sync::atomic::{AtomicU64, Ordering};
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "astra-{tag}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDirGuard(dir)
        }
    }

    impl Drop for TempDirGuard {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    const LOGS: [&str; 4] = ["ce.log", "het.log", "inventory.log", "sensors.log"];

    #[test]
    fn convert_round_trips_byte_identically() {
        let tmp = TempDirGuard::new("cli-convert");
        let (a, b, c) = (tmp.0.join("a"), tmp.0.join("b"), tmp.0.join("c"));
        crate::pipeline::Dataset::generate(1, 11)
            .write_logs(&a)
            .unwrap();
        let run = |args: &[&str]| cmd_convert(&parse_args(argv(args)).unwrap()).unwrap();
        run(&[
            "convert",
            a.to_str().unwrap(),
            "--to",
            "binary",
            "--out",
            b.to_str().unwrap(),
        ]);
        for name in LOGS {
            assert!(
                astra_logs::binfmt::file_is_binlog(&b.join(name)).unwrap(),
                "{name} not binary after convert"
            );
            let shrunk = std::fs::metadata(b.join(name)).unwrap().len();
            let text = std::fs::metadata(a.join(name)).unwrap().len();
            assert!(shrunk < text, "{name}: binary {shrunk} >= text {text}");
        }
        // Back to text lands byte-for-byte on the original files.
        run(&[
            "convert",
            b.to_str().unwrap(),
            "--to",
            "text",
            "--out",
            c.to_str().unwrap(),
        ]);
        for name in LOGS {
            assert_eq!(
                std::fs::read(a.join(name)).unwrap(),
                std::fs::read(c.join(name)).unwrap(),
                "{name} changed across text->binary->text"
            );
        }
        // In-place conversion goes through tmp+rename and converges.
        run(&["convert", c.to_str().unwrap(), "--to", "binary"]);
        for name in LOGS {
            assert!(astra_logs::binfmt::file_is_binlog(&c.join(name)).unwrap());
            assert_eq!(
                std::fs::read(b.join(name)).unwrap(),
                std::fs::read(c.join(name)).unwrap(),
                "{name}: in-place binary differs from out-of-place binary"
            );
        }
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(argv(&[
            "report",
            "/tmp/logs",
            "--racks",
            "2",
            "--seed",
            "7",
            "--metrics-out",
            "m.json",
        ]))
        .unwrap();
        assert_eq!(a.command, "report");
        assert_eq!(a.dir.as_deref().unwrap().to_str().unwrap(), "/tmp/logs");
        assert_eq!(a.racks, Some(2));
        assert_eq!(a.seed, Some(7));
        assert_eq!(
            a.metrics_out.as_deref().unwrap().to_str().unwrap(),
            "m.json"
        );
    }

    #[test]
    fn parses_profile_and_transfer_flags() {
        let a = parse_args(argv(&["generate", "out", "--profile", "x86-ddr4"])).unwrap();
        assert_eq!(a.profile.as_deref(), Some("x86-ddr4"));
        assert_eq!(a.racks, None);
        assert_eq!(a.seed, None);

        let a = parse_args(argv(&[
            "predict", "--train", "a", "--train", "b", "--eval", "c",
        ]))
        .unwrap();
        assert_eq!(a.train_dirs.len(), 2);
        assert_eq!(a.eval_dirs.len(), 1);
        assert_eq!(a.train_dirs[1].to_str().unwrap(), "b");

        assert!(parse_args(argv(&["profiles"])).is_ok());
    }

    #[test]
    fn unknown_profile_is_rejected_at_parse_time_with_registry() {
        let err = parse_args(argv(&["generate", "out", "--profile", "sparc"])).unwrap_err();
        assert!(err.contains("sparc"), "{err}");
        for name in astra_platform::PROFILE_NAMES {
            assert!(err.contains(name), "{err} should list {name}");
        }
    }

    #[test]
    fn parses_streaming_flags() {
        let a = parse_args(argv(&[
            "stream-analyze",
            "/tmp/logs",
            "--checkpoint",
            "ck.txt",
            "--checkpoint-every",
            "5000",
            "--resume",
            "old.txt",
            "--stop-after",
            "100",
        ]))
        .unwrap();
        assert_eq!(a.command, "stream-analyze");
        assert_eq!(a.checkpoint.as_deref().unwrap().to_str().unwrap(), "ck.txt");
        assert_eq!(a.checkpoint_every, Some(5000));
        assert_eq!(a.resume.as_deref().unwrap().to_str().unwrap(), "old.txt");
        assert_eq!(a.stop_after, Some(100));
    }

    #[test]
    fn parses_trace_and_check_flags() {
        let a = parse_args(argv(&[
            "stats",
            "/tmp/logs",
            "--trace-out",
            "trace.json",
            "--check",
            "thresholds.json",
        ]))
        .unwrap();
        assert_eq!(
            a.trace_out.as_deref().unwrap().to_str().unwrap(),
            "trace.json"
        );
        assert_eq!(
            a.check.as_deref().unwrap().to_str().unwrap(),
            "thresholds.json"
        );
    }

    #[test]
    fn parses_format_flags() {
        use astra_logs::binfmt::LogFormat;
        let a = parse_args(argv(&[
            "generate",
            "--out",
            "/tmp/logs",
            "--format",
            "binary",
        ]))
        .unwrap();
        assert_eq!(a.format, LogFormat::Binary);
        let a = parse_args(argv(&["convert", "/tmp/logs", "--to", "text"])).unwrap();
        assert_eq!(a.to, Some(LogFormat::Text));
        assert!(parse_args(argv(&["generate", "--format", "csv"])).is_err());
        assert!(parse_args(argv(&["convert", "d", "--to"])).is_err());
    }

    #[test]
    fn parses_shard_flags() {
        let a = parse_args(argv(&[
            "shard-analyze",
            "/tmp/logs",
            "--shards",
            "4",
            "--timeout",
            "30",
            "--retries",
            "5",
            "--degraded",
        ]))
        .unwrap();
        assert_eq!(a.shards, Some(4));
        assert_eq!(a.timeout_secs, 30);
        assert_eq!(a.retries, 5);
        assert!(a.degraded);

        let w = parse_args(argv(&[
            "shard-worker",
            "/tmp/logs",
            "--rack-lo",
            "6",
            "--rack-hi",
            "12",
            "--shard-index",
            "1",
            "--snapshot-out",
            "/tmp/s.snap",
        ]))
        .unwrap();
        assert_eq!(w.rack_lo, Some(6));
        assert_eq!(w.rack_hi, Some(12));
        assert_eq!(w.shard_index, 1);
        assert_eq!(
            w.snapshot_out.as_deref().unwrap().to_str().unwrap(),
            "/tmp/s.snap"
        );

        assert!(parse_args(argv(&["shard-analyze", "d", "--shards", "0"])).is_err());
        assert!(parse_args(argv(&["shard-analyze", "d", "--timeout", "0"])).is_err());
        assert!(parse_args(argv(&["shard-analyze", "d", "--shards"])).is_err());
    }

    #[test]
    fn shard_worker_validates_its_range() {
        let args = parse_args(argv(&[
            "shard-worker",
            "/nonexistent",
            "--rack-lo",
            "4",
            "--rack-hi",
            "4",
            "--snapshot-out",
            "/tmp/s.snap",
        ]))
        .unwrap();
        let err = super::cmd_shard_worker(&args).unwrap_err();
        assert!(err.contains("--rack-lo"), "{err}");
    }

    #[test]
    fn rejects_zero_racks() {
        let err = parse_args(argv(&["generate", "--racks", "0"])).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn rejects_duplicate_directory() {
        let err = parse_args(argv(&["analyze", "dir1", "dir2"])).unwrap_err();
        assert!(err.contains("dir2") && err.contains("dir1"), "{err}");
    }

    #[test]
    fn serve_accepts_multiple_directories_and_flags() {
        let a = parse_args(argv(&[
            "serve",
            "siteA",
            "siteB",
            "siteC",
            "--listen",
            "127.0.0.1:0",
            "--poll-ms",
            "50",
            "--checkpoint-every",
            "30",
        ]))
        .unwrap();
        assert_eq!(a.dir.as_deref().unwrap().to_str().unwrap(), "siteA");
        assert_eq!(
            a.extra_dirs
                .iter()
                .map(|p| p.to_str().unwrap())
                .collect::<Vec<_>>(),
            vec!["siteB", "siteC"]
        );
        assert_eq!(a.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(a.poll_ms, 50);
        assert_eq!(a.checkpoint_every, Some(30));
        assert!(parse_args(argv(&["serve", "d", "--poll-ms", "0"])).is_err());
        assert!(parse_args(argv(&["serve", "d", "--listen"])).is_err());
    }

    #[test]
    fn refuses_flags_the_command_does_not_read() {
        for (args, flag) in [
            (&["analyze", "d", "--shards", "4"][..], "--shards"),
            (&["analyze", "d", "--checkpoint", "f"][..], "--checkpoint"),
            (&["analyze", "d", "--poll-ms", "3"][..], "--poll-ms"),
            (&["report", "d", "--degraded"][..], "--degraded"),
            (&["report", "d", "--listen", "1.2.3.4:5"][..], "--listen"),
            (&["generate", "--out", "d", "--shards", "3"][..], "--shards"),
            (&["generate", "--out", "d", "--resume", "f"][..], "--resume"),
            (&["fsck", "d", "--racks", "1"][..], "--racks"),
        ] {
            let err = parse_args(argv(args)).unwrap_err();
            assert_eq!(err, format!("{} does not take {flag}", args[0]));
        }
        // The global flags, and every flag a caller passes today, parse.
        for args in [
            &["fsck", "d", "--metrics-out", "m", "--trace-out", "t"][..],
            &[
                "analyze",
                "d",
                "--profile",
                "astra",
                "--racks",
                "1",
                "--seed",
                "7",
            ][..],
            &["analyze", "d", "--lenient", "--max-bad-frac", "0.5"][..],
            &[
                "stream-analyze",
                "d",
                "--checkpoint-every",
                "9",
                "--checkpoint",
                "f",
            ][..],
            &["stream-analyze", "d", "--resume", "f", "--stop-after", "9"][..],
            &[
                "shard-analyze",
                "d",
                "--shards",
                "2",
                "--timeout",
                "2",
                "--retries",
                "1",
            ][..],
            &[
                "serve",
                "d",
                "--racks",
                "1",
                "--checkpoint",
                "f",
                "--resume",
                "f",
            ][..],
            &["report", "d", "--racks", "1", "--seed", "42", "--lenient"][..],
            &["stats", "d", "--racks", "1", "--check", "t.json"][..],
            &["predict", "d", "--racks", "1", "--seed", "7"][..],
            &["chaos", "d", "--seed", "7"][..],
            &["convert", "d", "--to", "binary", "--out", "e"][..],
        ] {
            assert!(parse_args(argv(args)).is_ok(), "{args:?}");
        }
    }

    #[test]
    fn rejects_unknown_flag_and_missing_value() {
        assert!(parse_args(argv(&["analyze", "--bogus"])).is_err());
        assert!(parse_args(argv(&["generate", "--racks"])).is_err());
        assert!(parse_args(argv(&["analyze", "--metrics-out"])).is_err());
        assert!(parse_args(argv(&["stream-analyze", "--checkpoint-every"])).is_err());
        assert!(parse_args(argv(&["stream-analyze", "--stop-after", "x"])).is_err());
    }
}
