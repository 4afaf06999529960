//! `perfbench-layers` — the in-process half of the astra-mem benchmark.
//!
//! ```text
//! perfbench-layers generate --racks R --seed S --format F --out DIR --trace-out FILE
//! perfbench-layers split    --src DIR --out SITE --batches B --ce-records N --site-ce-records M
//! perfbench-layers analyze  --data DIR
//! perfbench-layers trace    --data DIR --site SITE --work DIR --trace-out FILE
//! ```
//!
//! `generate` and `trace` call each layer's public functions under an
//! astra-obs span opened here, so every layer is measured from outside
//! the program. The spans stay in memory and are written as Chrome
//! trace JSON when the command ends; stdout gets one JSON object that
//! maps each per-layer metric to its value. A layer's time is the summed
//! duration of its top-level span; the spans the library opens inside a
//! call nest below it and only show in the trace file.
//!
//! `split` cuts the dataset's `ce.log` to a fixed record count and
//! builds a live site for `serve`: the other logs whole and the first
//! half of a further-thinned `ce.log`, with the rest cut into equal
//! batches that the benchmark appends while the daemon runs; it prints
//! each log's record count. `analyze` times the `analyze` layers untraced, the base the
//! traced pass's overhead is measured on.

use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use astra_core::coalesce::CoalesceConfig;
use astra_core::experiments as exp;
use astra_core::pipeline::{load_manifest, Analysis, AnalysisInput, Dataset};
use astra_core::serve::{report_analysis_body, EngineSource};
use astra_core::shard::{self, WorkerConfig};
use astra_core::stream::analyzers::{
    CoalesceAnalyzer, HetAnalyzer, PredictAnalyzer, SpatialAnalyzer, TempCorrAnalyzer,
};
use astra_core::stream::site::SiteEngine;
use astra_core::stream::{Analyzer, EventStream, MemEvent, StreamAnalyzer, StreamOptions};
use astra_core::tempcorr::TempCorrConfig;
use astra_logs::binfmt::{self, BinFormat, BinReader, LogFormat};
use astra_logs::io::{ChunkReader, STREAM_CHUNK_BYTES};
use astra_logs::{ce, het, inventory, sensor, CeRecord, IngestOptions, LineFormat, Manifest};
use astra_platform::PlatformProfile;
use astra_predict::PredictConfig;
use astra_serve::SiteSource;
use astra_topology::SystemConfig;
use astra_util::time::{het_firmware_date, replacement_span, sensor_span, study_span, TimeSpan};
use astra_util::CalDate;

const USAGE: &str = "\
usage: perfbench-layers generate --racks R --seed S --format F --out DIR --trace-out FILE
       perfbench-layers split    --src DIR --out SITE --batches B --ce-records N --site-ce-records M
       perfbench-layers analyze  --data DIR
       perfbench-layers trace    --data DIR --site SITE --work DIR --trace-out FILE";

const MIB: f64 = 1024.0 * 1024.0;

/// Events per drained batch: the stream engine's working-set sampling
/// interval, so `stream.workingset_mib` samples where the engine does.
const BATCH_EVENTS: usize = 65_536;

/// The disabled-span fast path must cost less than this share of the
/// traced pass's wall time (the repository's standing span-overhead rule).
const SPAN_OVERHEAD_LIMIT: f64 = 0.02;

type Metrics = BTreeMap<&'static str, f64>;

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let flags = match parse_flags(argv) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "generate" => cmd_generate(&flags),
        "split" => cmd_split(&flags),
        "analyze" => cmd_analyze(&flags),
        "trace" => cmd_trace(&flags),
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_flags(mut argv: impl Iterator<Item = String>) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    while let Some(flag) = argv.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got {flag:?}"))?;
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    Ok(flags)
}

fn flag<T: std::str::FromStr>(flags: &BTreeMap<String, String>, name: &str) -> Result<T, String> {
    let raw = flags.get(name).ok_or_else(|| format!("missing --{name}"))?;
    raw.parse()
        .map_err(|_| format!("bad value {raw:?} for --{name}"))
}

fn path_flag(flags: &BTreeMap<String, String>, name: &str) -> Result<PathBuf, String> {
    flag::<String>(flags, name).map(PathBuf::from)
}

/// Render metrics as one JSON object; `{}` on f64 prints every digit
/// needed to round-trip the value.
fn to_json(metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| format!("\"{name}\": {value}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Drain the recorded spans, write them as Chrome trace JSON, and sum
/// the duration of each top-level span path in seconds.
fn finish_trace(path: &Path) -> Result<(BTreeMap<String, f64>, usize), String> {
    let events = astra_obs::trace::take_events();
    std::fs::write(path, astra_obs::trace::render_chrome_json(&events))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let mut secs = BTreeMap::new();
    for event in &events {
        if !event.path.contains('/') {
            *secs.entry(event.path.clone()).or_insert(0.0) += event.dur_ns as f64 / 1e9;
        }
    }
    Ok((secs, events.len()))
}

fn layer(secs: &BTreeMap<String, f64>, name: &str) -> Result<f64, String> {
    secs.get(name)
        .copied()
        .ok_or_else(|| format!("no span recorded for layer {name}"))
}

// ---------------------------------------------------------------------
// generate: faultsim and the log writer
// ---------------------------------------------------------------------

fn cmd_generate(flags: &BTreeMap<String, String>) -> Result<String, String> {
    let racks: u32 = flag(flags, "racks")?;
    let seed: u64 = flag(flags, "seed")?;
    let format_name: String = flag(flags, "format")?;
    let format =
        LogFormat::parse(&format_name).ok_or_else(|| format!("unknown format {format_name}"))?;
    let out = path_flag(flags, "out")?;
    let trace_out = path_flag(flags, "trace-out")?;
    let profile = PlatformProfile::astra();

    astra_obs::trace::enable();
    let ds = {
        let _span = astra_obs::span("faultsim.simulate");
        let ds = Dataset::generate_profile(&profile, Some(racks), seed);
        // The sensor excerpt is synthesized lazily; count it as
        // simulation so the writer span times serialization alone.
        black_box(ds.sensor_excerpt());
        ds
    };
    {
        let _span = astra_obs::span("logs.write");
        ds.write_logs_as(&out, format)
            .map_err(|e| format!("writing logs to {}: {e}", out.display()))?;
    }
    Manifest {
        profile: profile.name.to_string(),
        seed,
        racks,
        format: format.name().to_string(),
        tool: "perfbench-layers".to_string(),
    }
    .write(&out)
    .map_err(|e| format!("writing manifest: {e}"))?;

    let (secs, _) = finish_trace(&trace_out)?;
    let mut metrics = Metrics::new();
    metrics.insert("faultsim.simulate_s", layer(&secs, "faultsim.simulate")?);
    metrics.insert("logs.write_s", layer(&secs, "logs.write")?);
    Ok(to_json(&metrics))
}

// ---------------------------------------------------------------------
// split: the live site and its append batches
// ---------------------------------------------------------------------

/// Cut the dataset's `ce.log` to `--ce-records` records in place (see
/// [`select`]), in its own format, then write the live site: `SITE/`
/// holds every log of `SRC/`, except that its `ce.log` is thinned again
/// to `--site-ce-records` and stops half-way; `SITE.tail` holds the rest
/// of that `ce.log`, in the same format, and `SITE.index` one line per
/// batch: end offset into the tail, and the CE record count the site
/// holds once that batch is appended. Prints the record count of each
/// log of the thinned dataset and the live site's CE count.
fn cmd_split(flags: &BTreeMap<String, String>) -> Result<String, String> {
    let src = path_flag(flags, "src")?;
    let site = path_flag(flags, "out")?;
    let batches: usize = flag(flags, "batches")?;
    let limit: usize = flag(flags, "ce-records")?;
    let site_limit: usize = flag(flags, "site-ce-records")?;
    std::fs::create_dir_all(&site).map_err(|e| format!("creating {}: {e}", site.display()))?;
    std::fs::copy(src.join("manifest.txt"), site.join("manifest.txt"))
        .map_err(|e| format!("copying manifest.txt: {e}"))?;
    let het = copy_log(&src, &site, "het.log", binfmt::KIND_HET)?;
    let inventory = copy_log(&src, &site, "inventory.log", binfmt::KIND_INVENTORY)?;
    let sensors = copy_log(&src, &site, "sensors.log", binfmt::KIND_SENSOR)?;
    let ce_path = src.join("ce.log");
    let binary = binfmt::file_is_binlog(&ce_path).map_err(|e| e.to_string())?;
    let (parsed, quarantine) = binfmt::parse_file_auto(
        &ce_path,
        ce::FORMAT,
        binfmt::CE,
        &IngestOptions::default(),
        "split.ce",
    )
    .map_err(|e| format!("reading {}: {e}", ce_path.display()))?;
    if !quarantine.is_empty() {
        return Err(format!("ce.log is damaged: {}", quarantine.summary()));
    }
    let generated = parsed.records.len();
    let (records, in_window) = select(&parsed.records, limit);
    drop(parsed);
    let total = records.len();
    let (site_records, _) = select(&records, site_limit.min(total));
    let site_total = site_records.len();
    let bounds = batch_bounds(site_total, batches)?;

    // Records in the log's own format, without the binary file header.
    let encode = |recs: &[CeRecord]| -> Result<Vec<u8>, String> {
        let mut out = Vec::new();
        if binary {
            binfmt::write_records(&mut out, binfmt::CE, recs).map_err(|e| e.to_string())?;
            out.drain(..binfmt::HEADER_LEN);
        } else {
            astra_logs::io::write_lines_with(&mut out, recs, |r, buf| r.to_line_into(buf))
                .map_err(|e| e.to_string())?;
        }
        Ok(out)
    };
    // A binary log's header declares every kept record, so the site's
    // log is valid once complete; the tail reader takes blocks as they land.
    let header = |out: &mut Vec<u8>, records: usize| {
        if binary {
            out.extend(binfmt::header_bytes(binfmt::KIND_CE, records as u64));
        }
    };
    let write = |path: &Path, bytes: &[u8]| {
        std::fs::write(path, bytes).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    if total < generated {
        let mut whole = Vec::new();
        header(&mut whole, total);
        whole.extend(encode(&records)?);
        write(&ce_path, &whole)?;
    }
    let mut prefix = Vec::new();
    header(&mut prefix, site_total);
    prefix.extend(encode(&site_records[..site_total / 2])?);
    write(&site.join("ce.log"), &prefix)?;
    let mut tail = Vec::new();
    let mut index = String::new();
    for &(lo, hi) in &bounds {
        tail.extend(encode(&site_records[lo..hi])?);
        index.push_str(&format!("{} {hi}\n", tail.len()));
    }
    write(&site.with_extension("tail"), &tail)?;
    write(&site.with_extension("index"), index.as_bytes())?;
    Ok(format!(
        "{{\"records\": {{\"ce\": {total}, \"het\": {het}, \"inventory\": {inventory}, \"sensors\": {sensors}}}, \"ce_generated\": {generated}, \"ce_in_sensor_window\": {in_window}, \"site_ce\": {site_total}}}"
    ))
}

/// Copy log `name` from `src` to `site` and return its record count: the
/// header's declared count for a binary log (every block's CRC checked),
/// lines for a text log.
fn copy_log(src: &Path, site: &Path, name: &str, kind: u8) -> Result<u64, String> {
    let path = src.join(name);
    let data = std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let records = if binfmt::sniff_is_binlog(&data) {
        binfmt::read_blocks(&data, kind)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .0
    } else {
        data.iter().filter(|&&b| b == b'\n').count() as u64
    };
    std::fs::write(site.join(name), &data).map_err(|e| format!("copying {name}: {e}"))?;
    Ok(records)
}

/// The CE records a workload keeps, in log order: half of `limit` drawn
/// evenly from the sensor window, the rest evenly from outside it (all
/// of a part that holds fewer). The generated count swings with the
/// seed, and Fig 9 samples the window's records with a stride that
/// depends on their count, so a fixed count on each side gives every
/// seed the same work. Returns the records and how many are in the window.
fn select(records: &[CeRecord], limit: usize) -> (Vec<CeRecord>, usize) {
    let window = sensor_span();
    let (inside, outside): (Vec<usize>, Vec<usize>) =
        (0..records.len()).partition(|&i| window.contains(records[i].time));
    let keep_in = inside.len().min(limit / 2);
    let keep_out = outside.len().min(limit - keep_in);
    let evenly = |from: &[usize], n: usize| -> Vec<usize> {
        (0..n).map(|k| from[k * from.len() / n]).collect()
    };
    let mut keep = evenly(&inside, keep_in);
    keep.extend(evenly(&outside, keep_out));
    keep.sort_unstable();
    (keep.into_iter().map(|i| records[i]).collect(), keep_in)
}

/// Batch `b` covers records `prefix + (total - prefix) * b / batches`
/// up to the next batch's start.
fn batch_bounds(total: usize, batches: usize) -> Result<Vec<(usize, usize)>, String> {
    let prefix = total / 2;
    if batches == 0 || total - prefix < batches {
        return Err(format!(
            "cannot cut {} records into {batches} batches",
            total - prefix
        ));
    }
    Ok((0..batches)
        .map(|b| {
            (
                prefix + (total - prefix) * b / batches,
                prefix + (total - prefix) * (b + 1) / batches,
            )
        })
        .collect())
}

// ---------------------------------------------------------------------
// trace: every other layer
// ---------------------------------------------------------------------

fn cmd_trace(flags: &BTreeMap<String, String>) -> Result<String, String> {
    let data = path_flag(flags, "data")?;
    let site = path_flag(flags, "site")?;
    let work = path_flag(flags, "work")?;
    let trace_out = path_flag(flags, "trace-out")?;
    let (profile, system, seed) = resolve(&data)?;
    let mut metrics = Metrics::new();

    // Measured before the timeline is on: what a span costs when
    // tracing is off, as every untraced run pays it.
    let span_ns = measure_span_overhead_ns();

    astra_obs::trace::enable();
    let traced = Instant::now();
    let expected = analyze_and_report(&data, system, &profile, seed)?;
    let folded = stream_layers(&data, system, &expected)?;
    let ckpt_bytes = site_layers(&site, &data, system, &work)?;
    let decoded_ratio = shard_layers(&data, system, &work)?;
    let traced_secs = traced.elapsed().as_secs_f64();

    let (secs, span_count) = finish_trace(&trace_out)?;
    let disabled_frac = span_ns * span_count as f64 / (traced_secs * 1e9);
    if disabled_frac > SPAN_OVERHEAD_LIMIT {
        return Err(format!(
            "{span_count} spans at {span_ns:.0} ns each cost {:.2}% of the traced pass \
             (limit {:.0}%)",
            100.0 * disabled_frac,
            100.0 * SPAN_OVERHEAD_LIMIT
        ));
    }
    for (metric, span) in [
        ("pipeline.load_s", "pipeline.load"),
        ("pipeline.run_s", "pipeline.run"),
        ("pipeline.render_s", "pipeline.render"),
        ("experiments.fig9_s", "experiments.fig9"),
        ("experiments.fig13_14_s", "experiments.fig13_14"),
        ("experiments.rest_s", "experiments.rest"),
        ("logs.decode_s", "logs.decode"),
        ("stream.fold_s", "stream.fold"),
        ("stream.fold.coalesce_s", "stream.fold.coalesce"),
        ("stream.fold.spatial_s", "stream.fold.spatial"),
        ("stream.fold.het_s", "stream.fold.het"),
        ("stream.fold.tempcorr_s", "stream.fold.tempcorr"),
        ("stream.fold.predict_s", "stream.fold.predict"),
        ("stream.snapshot_s", "stream.snapshot"),
        ("stream.ckpt_write_s", "stream.ckpt_write"),
        ("stream.ckpt_read_s", "stream.ckpt_read"),
        ("stream.resume_skip_s", "stream.resume_skip"),
        ("shard.worker_s", "shard.worker"),
        ("shard.merge_s", "shard.merge"),
        ("serve.open_s", "serve.open"),
        ("serve.poll_s", "serve.poll"),
        ("serve.snapshot_s", "serve.snapshot"),
    ] {
        metrics.insert(metric, layer(&secs, span)?);
    }
    metrics.insert(
        "stream.merge_s",
        layer(&secs, "stream.drain")? - layer(&secs, "logs.decode")?,
    );
    metrics.insert("stream.ckpt_mib", ckpt_bytes as f64 / MIB);
    metrics.insert(
        "stream.workingset_mib",
        folded.workingset_bytes as f64 / MIB,
    );
    metrics.insert("shard.decoded_per_consumed", decoded_ratio);
    metrics.insert("obs.span_ns", span_ns);
    metrics.insert("obs.disabled_span_frac", disabled_frac);
    metrics.insert("logs.records", folded.decoded_records as f64);
    metrics.insert("logs.mib", folded.decoded_bytes as f64 / MIB);
    Ok(to_json(&metrics))
}

/// The untraced twin of the traced pass's `analyze` layers, run in a
/// process of its own so that both start equally cold: the base of
/// `obs.trace_overhead_frac`.
fn cmd_analyze(flags: &BTreeMap<String, String>) -> Result<String, String> {
    let data = path_flag(flags, "data")?;
    let (_, system, _) = resolve(&data)?;
    let started = Instant::now();
    let input = AnalysisInput::from_dir(&data).map_err(|e| e.to_string())?;
    let analysis = Analysis::run(system, input.records);
    black_box(analyze_body(&analysis, system));
    Ok(format!(
        "{{\"analyze_s\": {}}}",
        started.elapsed().as_secs_f64()
    ))
}

/// The profile, machine and seed a dataset's manifest records.
fn resolve(data: &Path) -> Result<(PlatformProfile, SystemConfig, u64), String> {
    let manifest = load_manifest(data)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("{} has no manifest.txt", data.display()))?;
    let profile = astra_platform::by_name(&manifest.profile).map_err(|e| e.to_string())?;
    let system = profile.system(Some(manifest.racks));
    Ok((profile, system, manifest.seed))
}

/// Per-span cost of the disabled-tracing fast path: open and drop spans
/// against a private registry in a tight loop.
fn measure_span_overhead_ns() -> f64 {
    const WARMUP: u32 = 10_000;
    const ITERS: u32 = 200_000;
    let registry = astra_obs::Registry::new();
    for _ in 0..WARMUP {
        let _guard = astra_obs::span_in(&registry, "perfbench.span_overhead");
    }
    let started = Instant::now();
    for _ in 0..ITERS {
        let _guard = astra_obs::span_in(&registry, "perfbench.span_overhead");
    }
    started.elapsed().as_nanos() as f64 / f64::from(ITERS)
}

/// What `analyze` prints: the summary line and the Fig 4 and Fig 5 renders.
fn analyze_body(analysis: &Analysis, system: SystemConfig) -> String {
    let mut out = format!(
        "{} errors -> {} faults on {} nodes\n",
        analysis.total_errors(),
        analysis.total_faults(),
        system.node_count()
    );
    out.push_str(&exp::fig4::compute(analysis, study_span()).render());
    out.push_str(&exp::fig5::compute(analysis).render());
    out
}

/// The `analyze` layers (load, run, render) and then the experiment
/// computations `report` adds on the same analysis. Returns the
/// analyze body every other pass must reproduce.
fn analyze_and_report(
    data: &Path,
    system: SystemConfig,
    profile: &PlatformProfile,
    seed: u64,
) -> Result<String, String> {
    let input = {
        let _span = astra_obs::span("pipeline.load");
        AnalysisInput::from_dir(data).map_err(|e| e.to_string())?
    };
    let analysis = {
        let _span = astra_obs::span("pipeline.run");
        Analysis::run(system, input.records)
    };
    let body = {
        let _span = astra_obs::span("pipeline.render");
        analyze_body(&analysis, system)
    };

    let telemetry = astra_telemetry::TelemetryModel::new(system, profile.thermal.clone(), seed);
    let config = TempCorrConfig::default();
    {
        let _span = astra_obs::span("experiments.fig9");
        black_box(exp::fig9::compute(&analysis, &telemetry, sensor_span(), &config).render());
    }
    {
        let _span = astra_obs::span("experiments.fig13_14");
        black_box(
            exp::fig13_14::compute_fig13(&analysis, &telemetry, sensor_span(), &config).render(),
        );
        black_box(
            exp::fig13_14::compute_fig14(&analysis, &telemetry, sensor_span(), &config).render(),
        );
    }
    {
        let _span = astra_obs::span("experiments.rest");
        black_box(exp::table1::compute(&system, &input.replacements).render());
        let fig2 = if input.sensors.is_empty() {
            exp::fig2::compute(&telemetry, sensor_span(), 8, 6 * 60)
        } else {
            exp::fig2::compute_from_records(&input.sensors)
        };
        black_box(fig2.render());
        black_box(exp::fig3::compute(&input.replacements, replacement_span()).render());
        black_box(exp::fig4::compute(&analysis, study_span()).render());
        black_box(exp::fig5::compute(&analysis).render());
        black_box(exp::fig6::compute(&analysis).render());
        black_box(exp::fig7::compute(&analysis).render());
        black_box(exp::fig8::compute(&analysis).render());
        black_box(exp::fig10_12::compute(&analysis).render());
        let window = TimeSpan::dates(het_firmware_date(), CalDate::new(2019, 9, 14));
        black_box(exp::fig15::compute(&input.hets, window, system.dimm_count()).render());
        black_box(astra_core::het::due_relative_risk(
            &analysis.faults,
            &input.hets,
            system.dimm_count(),
        ));
        if let Some(model) = astra_core::modeling::NodePopulationModel::fit(
            &analysis.spatial.fault_counts_all_nodes(&system),
        ) {
            black_box(model.expected_nodes_at_least(10));
        }
        for cs in astra_core::reliability::component_survival(
            &system,
            &input.replacements,
            replacement_span(),
        ) {
            black_box((cs.end_survival(212.0), cs.front_loading(30.0, 212.0)));
        }
    }
    Ok(body)
}

/// One reader over one log file, no analysis: `(records, bytes)`.
fn decode_log<T: Send>(
    path: &Path,
    line: LineFormat<T>,
    bin: BinFormat<T>,
) -> Result<(u64, u64), String> {
    let file = File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    let binary = binfmt::file_is_binlog(path).map_err(|e| e.to_string())?;
    let mut records = 0u64;
    let mut count = |chunk: astra_logs::io::IngestChunk<T>| -> Result<(), String> {
        if !chunk.quarantine.is_empty() {
            return Err(format!("{} is damaged", path.display()));
        }
        records += chunk.records.len() as u64;
        Ok(())
    };
    let bytes = if binary {
        let mut reader = BinReader::new(file, bin);
        while let Some(chunk) = reader.next_chunk().map_err(|e| e.to_string())? {
            count(chunk)?;
        }
        reader.bytes_consumed()
    } else {
        let mut reader = ChunkReader::new(file, line, STREAM_CHUNK_BYTES);
        while let Some(chunk) = reader.next_chunk().map_err(|e| e.to_string())? {
            count(chunk)?;
        }
        reader.bytes_consumed()
    };
    Ok((records, bytes as u64))
}

fn event_rack(ev: &MemEvent, nodes_per_rack: u32) -> u32 {
    let node = match ev {
        MemEvent::Ce { rec, .. } => rec.node,
        MemEvent::Het { rec, .. } => rec.node,
        MemEvent::Inventory { rec, .. } => rec.node,
        MemEvent::Sensor { rec, .. } => rec.node,
    };
    node.rack(nodes_per_rack).0
}

fn fold_alone<A: Analyzer>(span: &str, analyzer: &mut A, batch: &[MemEvent]) {
    let _span = astra_obs::span(span);
    for ev in batch {
        analyzer.consume(ev);
    }
}

/// What [`stream_layers`] counted besides its spans.
struct Folded {
    /// Records the bare readers decoded across the four logs.
    decoded_records: u64,
    /// Log bytes those readers consumed.
    decoded_bytes: u64,
    /// Peak accounted working set of the full analyzer, sampled per
    /// batch as the engine samples its `stream.workingset_bytes` gauge.
    workingset_bytes: usize,
}

/// Decode, merge and fold, each on its own: the four logs through bare
/// readers, then the merged event stream drained in batches that the
/// full analyzer, each analyzer alone, and two rack-disjoint analyzers
/// fold in turn.
fn stream_layers(data: &Path, system: SystemConfig, expected: &str) -> Result<Folded, String> {
    let (decoded_records, decoded_bytes) = {
        let _span = astra_obs::span("logs.decode");
        let logs = [
            decode_log(&data.join("ce.log"), ce::FORMAT, binfmt::CE)?,
            decode_log(&data.join("het.log"), het::FORMAT, binfmt::HET)?,
            decode_log(
                &data.join("inventory.log"),
                inventory::FORMAT,
                binfmt::INVENTORY,
            )?,
            decode_log(&data.join("sensors.log"), sensor::FORMAT, binfmt::SENSOR)?,
        ];
        logs.iter()
            .fold((0, 0), |(r, b), &(lr, lb)| (r + lr, b + lb))
    };

    let new_full =
        || StreamAnalyzer::new(system, CoalesceConfig::default(), PredictConfig::default());
    let mut full = new_full();
    let mut coalesce = CoalesceAnalyzer::new(CoalesceConfig::default());
    let mut spatial = SpatialAnalyzer::new(system);
    let mut het = HetAnalyzer::new();
    let mut tempcorr = TempCorrAnalyzer::new();
    let mut predict = PredictAnalyzer::new(
        PredictConfig::default(),
        astra_predict::default_predictors(),
    );
    let split_rack = shard::partition_racks(system.racks, 2)[0].1;
    let mut halves = [new_full(), new_full()];
    let nodes_per_rack = system.nodes_per_rack();

    let mut stream = EventStream::open(data).map_err(|e| e.to_string())?;
    let mut batch: Vec<MemEvent> = Vec::with_capacity(BATCH_EVENTS);
    let mut workingset = 0usize;
    loop {
        batch.clear();
        {
            let _span = astra_obs::span("stream.drain");
            while batch.len() < BATCH_EVENTS {
                match stream.next_event().map_err(|e| e.to_string())? {
                    Some(ev) => batch.push(ev),
                    None => break,
                }
            }
        }
        if batch.is_empty() {
            break;
        }
        fold_alone("stream.fold", &mut full, &batch);
        workingset = workingset.max(full.accounted_bytes());
        fold_alone("stream.fold.coalesce", &mut coalesce, &batch);
        fold_alone("stream.fold.spatial", &mut spatial, &batch);
        fold_alone("stream.fold.het", &mut het, &batch);
        fold_alone("stream.fold.tempcorr", &mut tempcorr, &batch);
        fold_alone("stream.fold.predict", &mut predict, &batch);
        {
            let _span = astra_obs::span("shard.split_fold");
            for ev in &batch {
                let half = usize::from(event_rack(ev, nodes_per_rack) >= split_rack);
                halves[half].consume(ev);
            }
        }
    }
    black_box((&coalesce, &spatial, &het, &tempcorr, &predict));

    let report = {
        let _span = astra_obs::span("stream.snapshot");
        full.snapshot()
    };
    if report_analysis_body(&report) != expected {
        return Err("the folded stream disagrees with the batch analysis".into());
    }
    let [left, right] = halves;
    let merged = {
        let _span = astra_obs::span("shard.merge");
        StreamAnalyzer::merge(left, right)
    };
    if report_analysis_body(&merged.snapshot()) != expected {
        return Err("merging rack-disjoint states disagrees with the full fold".into());
    }
    Ok(Folded {
        decoded_records,
        decoded_bytes,
        workingset_bytes: workingset,
    })
}

/// What `serve` does before it is ready, on the live site's initial
/// prefix: open the engine, poll everything there, render the snapshot
/// (engine report and every view). Then the engine's checkpoint and its
/// read-back, and a stream over the complete dataset resumed at the
/// checkpoint's position: the skip `stream-analyze --resume` pays before
/// its first new event. Returns the checkpoint's size in bytes.
fn site_layers(site: &Path, data: &Path, system: SystemConfig, work: &Path) -> Result<u64, String> {
    let ckpt = work.join("layers.ckpt");
    let opts = StreamOptions {
        checkpoint_path: Some(ckpt.clone()),
        ..StreamOptions::default()
    };
    let mut source = {
        let _span = astra_obs::span("serve.open");
        EngineSource::open(site, system, &opts).map_err(|e| e.to_string())?
    };
    let polled = {
        let _span = astra_obs::span("serve.poll");
        source.poll()?
    };
    if polled == 0 {
        return Err("the live site's prefix holds no events".into());
    }
    let snapshot = {
        let _span = astra_obs::span("serve.snapshot");
        source.snapshot()
    };
    let written = {
        let _span = astra_obs::span("stream.ckpt_write");
        source.checkpoint()?
    };
    if !written {
        return Err("the engine wrote no checkpoint".into());
    }
    drop(source);
    let bytes = std::fs::metadata(&ckpt)
        .map_err(|e| format!("{}: {e}", ckpt.display()))?
        .len();

    let resume = StreamOptions {
        resume_from: Some(ckpt.clone()),
        ..StreamOptions::default()
    };
    let engine = {
        let _span = astra_obs::span("stream.ckpt_read");
        SiteEngine::open(site, system, &resume).map_err(|e| e.to_string())?
    };
    if engine.consumed() != snapshot.consumed {
        return Err("the checkpoint read back disagrees with the engine that wrote it".into());
    }
    drop(engine);
    {
        let _span = astra_obs::span("stream.resume_skip");
        let mut stream =
            EventStream::open_resumed(data, snapshot.consumed).map_err(|e| e.to_string())?;
        match stream.next_event().map_err(|e| e.to_string())? {
            Some(MemEvent::Ce { seq, .. }) if seq == snapshot.consumed[0] => {}
            _ => return Err("the resumed stream does not continue at the checkpoint".into()),
        }
    }
    std::fs::remove_file(&ckpt).map_err(|e| e.to_string())?;
    Ok(bytes)
}

/// Bytes this process has read through `read(2)` so far.
fn rchar() -> Result<u64, String> {
    let io = std::fs::read_to_string("/proc/self/io").map_err(|e| format!("/proc/self/io: {e}"))?;
    io.lines()
        .find_map(|l| l.strip_prefix("rchar:"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "no rchar in /proc/self/io".into())
}

/// The shard worker over every rack, then one worker per half. Returns
/// log bytes read by the two half workers per byte read by the whole one.
fn shard_layers(data: &Path, system: SystemConfig, work: &Path) -> Result<f64, String> {
    let worker = |rack_lo, rack_hi, shard_index| -> Result<u64, String> {
        let snapshot_out = work.join(format!("worker-{shard_index}.snap"));
        let before = rchar()?;
        shard::run_worker(&WorkerConfig {
            dir: data.to_path_buf(),
            system,
            rack_lo,
            rack_hi,
            shard_index,
            snapshot_out: snapshot_out.clone(),
            stream: StreamOptions::default(),
        })?;
        let read = rchar()? - before;
        std::fs::remove_file(&snapshot_out).map_err(|e| e.to_string())?;
        Ok(read)
    };
    let whole = {
        let _span = astra_obs::span("shard.worker");
        worker(0, system.racks, 0)?
    };
    let mut parts = 0;
    for (i, (lo, hi)) in shard::partition_racks(system.racks, 2)
        .into_iter()
        .enumerate()
    {
        let _span = astra_obs::span("shard.worker_part");
        parts += worker(lo, hi, i as u32 + 1)?;
    }
    Ok(parts as f64 / whole as f64)
}
