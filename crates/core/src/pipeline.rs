//! End-to-end drivers: simulate → text logs → parse → analyze.
//!
//! The paper's methodology (§1): "First, we extract relevant reliability
//! information from the various system logs. Then, we process these
//! extracted logs to reach the conclusions described in this paper."
//! [`Dataset`] plays the role of the machine (it *generates* logs);
//! [`AnalysisInput`] plays the role of the extraction step (it *parses*
//! the logs); [`Analysis`] is the processing step (coalescing +
//! aggregation).
//!
//! Tests that study the analysis alone hand it the simulator's records
//! (`Analysis::run(system, dataset.sim.ce_log)`); the write-and-read
//! round trip they skip is lossless, which `text_roundtrip_is_lossless`
//! checks.

use std::io;
use std::path::{Path, PathBuf};

use astra_faultsim::{simulate, SimOutput, SimProfile};
use astra_logs::binfmt::{self, BinFormat, LogFormat};
use astra_logs::io::{self as logio, IngestError};
use astra_logs::manifest::{Manifest, ManifestError};
use astra_logs::{
    ce, het, inventory, sensor, CeRecord, HetRecord, IngestOptions, LineFormat, Quarantine,
    ReplacementRecord, SensorRecord,
};
use astra_platform::PlatformProfile;
use astra_replace::{simulate_replacements, ReplacementProfile};
use astra_telemetry::{TelemetryModel, ThermalProfile};
use astra_topology::SystemConfig;

use crate::coalesce::{coalesce, CoalesceConfig, ObservedFault};
use crate::spatial::SpatialCounts;

/// A complete generated dataset: the simulated machine's output.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The machine configuration.
    pub system: SystemConfig,
    /// Master seed.
    pub seed: u64,
    /// Fault/error simulation output (CE log, HET log, ground truth).
    pub sim: SimOutput,
    /// Component replacement log.
    pub replacements: Vec<ReplacementRecord>,
    /// The telemetry source (functional; query on demand).
    pub telemetry: TelemetryModel,
    /// Memoized [`Dataset::sensor_excerpt`] — the excerpt is pure in the
    /// seed, and callers (both serializers, the tests) re-ask for it.
    sensor_cache: std::sync::OnceLock<Vec<SensorRecord>>,
}

impl Dataset {
    /// Generate the default calibrated dataset at a given machine scale.
    ///
    /// `racks = 36` is the full Astra machine (≈ 4.4 M CE records,
    /// a couple of seconds); tests typically use 1–4 racks.
    pub fn generate(racks: u32, seed: u64) -> Dataset {
        let system = SystemConfig::scaled(racks);
        Self::generate_with(
            system,
            &SimProfile::astra(),
            &ReplacementProfile::astra(),
            ThermalProfile::astra(),
            seed,
        )
    }

    /// Generate under a platform profile, at `racks` racks (or the
    /// profile's full machine size when `None`).
    ///
    /// For the `astra` profile this is bit-identical to
    /// [`Dataset::generate`] at the same rack count and seed: that
    /// profile bundles the exact calibrated sub-profiles the plain path
    /// uses (pinned by test and CI).
    pub fn generate_profile(profile: &PlatformProfile, racks: Option<u32>, seed: u64) -> Dataset {
        Self::generate_with(
            profile.system(racks),
            &profile.sim,
            &profile.replacement,
            profile.thermal.clone(),
            seed,
        )
    }

    /// Generate with explicit profiles.
    pub fn generate_with(
        system: SystemConfig,
        sim_profile: &SimProfile,
        replacement_profile: &ReplacementProfile,
        thermal_profile: ThermalProfile,
        seed: u64,
    ) -> Dataset {
        let _span = astra_obs::span("pipeline.generate");
        let sim = simulate(&system, sim_profile, seed);
        let replacements = simulate_replacements(&system, replacement_profile, seed);
        let telemetry = TelemetryModel::new(system, thermal_profile, seed);
        Dataset {
            system,
            seed,
            sim,
            replacements,
            telemetry,
            sensor_cache: std::sync::OnceLock::new(),
        }
    }

    /// Environmental-log excerpt settings: the full per-minute stream at
    /// machine scale is billions of samples (the real dataset is ~8 GiB),
    /// so the written `sensors.log` covers every `node_stride`-th node at
    /// `minute_stride`-minute cadence over the sensor interval.
    pub const SENSOR_NODE_STRIDE: u32 = 8;
    /// Minutes between written sensor samples.
    pub const SENSOR_MINUTE_STRIDE: u64 = 60;

    /// The sensor records the dataset excerpt contains (computed once,
    /// then served from the memo).
    pub fn sensor_excerpt(&self) -> &[SensorRecord] {
        self.sensor_cache.get_or_init(|| {
            let span = astra_util::time::sensor_span();
            let nodes = (0..self.system.node_count())
                .step_by(Self::SENSOR_NODE_STRIDE as usize)
                .map(astra_topology::NodeId);
            self.telemetry
                .records(nodes, span, Self::SENSOR_MINUTE_STRIDE)
        })
    }

    /// Write `ce.log`, `het.log`, `inventory.log`, and the `sensors.log`
    /// excerpt into a directory in the text format. Records stream
    /// through one reused line buffer per file — no per-record `String`.
    pub fn write_logs(&self, dir: &Path) -> io::Result<()> {
        self.write_logs_as(dir, LogFormat::Text)
    }

    /// As [`Dataset::write_logs`] with an explicit on-disk format. The
    /// file names are the same in both formats — readers dispatch on the
    /// magic bytes, not the name.
    pub fn write_logs_as(&self, dir: &Path, format: LogFormat) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        fn write<T>(
            dir: &Path,
            name: &str,
            format: LogFormat,
            bin: BinFormat<T>,
            records: &[T],
            fill: impl Fn(&T, &mut String),
        ) -> io::Result<()> {
            use std::io::Write as _;
            let mut f = io::BufWriter::new(std::fs::File::create(dir.join(name))?);
            match format {
                LogFormat::Text => {
                    logio::write_lines_with(&mut f, records.iter(), |rec, buf| fill(rec, buf))?;
                }
                LogFormat::Binary => {
                    binfmt::write_records(&mut f, bin, records)?;
                }
            }
            f.flush()
        }
        write(
            dir,
            "ce.log",
            format,
            binfmt::CE,
            &self.sim.ce_log,
            |r, buf| r.to_line_into(buf),
        )?;
        write(
            dir,
            "het.log",
            format,
            binfmt::HET,
            &self.sim.het_log,
            |r, buf| r.to_line_into(buf),
        )?;
        write(
            dir,
            "inventory.log",
            format,
            binfmt::INVENTORY,
            &self.replacements,
            |r, buf| r.to_line_into(buf),
        )?;
        write(
            dir,
            "sensors.log",
            format,
            binfmt::SENSOR,
            self.sensor_excerpt(),
            |r, buf| r.to_line_into(buf),
        )
    }
}

/// Why loading a log directory failed — the distinction an operator (and
/// [`AnalysisInput::from_dir`]'s callers) need: a required log that is
/// *absent* points at the extraction job, one that is *unreadable* points
/// at the file itself.
#[derive(Debug)]
pub enum LoadError {
    /// A required log file does not exist in the directory.
    MissingLog {
        /// Log file name (e.g. `ce.log`).
        name: &'static str,
        /// Full path that was probed.
        path: PathBuf,
    },
    /// The log exists but could not be read or decoded.
    Unreadable {
        /// Log file name.
        name: &'static str,
        /// Full path that failed.
        path: PathBuf,
        /// The underlying I/O or UTF-8 error.
        source: io::Error,
    },
    /// The log was readable but corrupt beyond the ingest policy: strict
    /// mode met a quarantined line, or a lenient run blew its
    /// `--max-bad-frac` budget. Carries the typed quarantine report so
    /// the operator sees *what kind* of corruption, with sample lines.
    Corrupt {
        /// Log file name.
        name: &'static str,
        /// Full path that failed.
        path: PathBuf,
        /// Per-reason quarantine counts and samples (boxed to keep the
        /// `Err` variant small — the success path pays its size).
        quarantine: Box<Quarantine>,
        /// Lines that parsed cleanly before the abort.
        lines_ok: u64,
    },
    /// A checkpoint resume found the log no longer holding what the
    /// checkpoint consumed: it is shorter than the saved offset, the
    /// bytes before that offset or its format changed, or it ends before
    /// the consumed record count. Appending to a log is not a change.
    Changed {
        /// Log file name.
        name: &'static str,
        /// Full path of the log.
        path: PathBuf,
        /// What no longer matches.
        detail: String,
    },
    /// The directory's `manifest.txt` exists but is unreadable or
    /// malformed. The provenance record cannot be trusted, and silently
    /// guessing a platform profile would defeat its purpose (evaluating
    /// under the wrong machine produces confidently wrong numbers).
    Manifest {
        /// Full path of the manifest file.
        path: PathBuf,
        /// What was wrong with it.
        source: ManifestError,
    },
}

/// Load a dataset directory's generation manifest.
///
/// `Ok(None)` means the directory has no `manifest.txt` — a legacy or
/// hand-assembled dataset; callers fall back to the Astra assumption
/// (usually with a warning). A manifest that exists but cannot be read
/// or parsed is [`LoadError::Manifest`], never a silent fallback.
pub fn load_manifest(dir: &Path) -> Result<Option<Manifest>, LoadError> {
    Manifest::load(dir).map_err(|source| LoadError::Manifest {
        path: Manifest::path_in(dir),
        source,
    })
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::MissingLog { name, path } => {
                write!(f, "required log {name} missing: {}", path.display())
            }
            LoadError::Unreadable { name, path, source } => {
                write!(f, "log {name} unreadable: {}: {source}", path.display())
            }
            LoadError::Corrupt {
                name,
                path,
                quarantine,
                lines_ok,
            } => {
                write!(
                    f,
                    "log {name} corrupt: {}: quarantined {} of {} lines {}",
                    path.display(),
                    quarantine.total(),
                    lines_ok + quarantine.total(),
                    quarantine.summary(),
                )?;
                let samples = quarantine.sample_lines();
                if !samples.is_empty() {
                    write!(f, "\n{}", samples.trim_end())?;
                }
                Ok(())
            }
            LoadError::Changed { name, path, detail } => write!(
                f,
                "log {name} changed since the checkpoint: {}: {detail}",
                path.display()
            ),
            LoadError::Manifest { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::MissingLog { .. }
            | LoadError::Corrupt { .. }
            | LoadError::Changed { .. } => None,
            LoadError::Unreadable { source, .. } => Some(source),
            LoadError::Manifest { source, .. } => Some(source),
        }
    }
}

/// The four logs of a dataset directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Log {
    /// `ce.log`: correctable errors.
    Ce,
    /// `het.log`: hardware-event-tracker records.
    Het,
    /// `inventory.log`: component replacements.
    Inventory,
    /// `sensors.log`: the environmental excerpt (optional).
    Sensors,
}

impl Log {
    /// Every log, in load order.
    pub const ALL: [Log; 4] = [Log::Ce, Log::Het, Log::Inventory, Log::Sensors];
}

/// Parsed analysis input: what the extraction step recovers from text.
/// A log the load was not asked for stays empty.
#[derive(Debug, Clone, Default)]
pub struct AnalysisInput {
    /// CE records.
    pub records: Vec<CeRecord>,
    /// HET records.
    pub hets: Vec<HetRecord>,
    /// Replacement records.
    pub replacements: Vec<ReplacementRecord>,
    /// Environmental sensor records (the dataset excerpt; may be empty
    /// for inputs without a `sensors.log`).
    pub sensors: Vec<SensorRecord>,
    /// What was quarantined across the loaded logs, by reason (empty
    /// unless a lenient [`AnalysisInput::from_dir_with`] load tolerated
    /// bad lines).
    pub quarantine: Quarantine,
}

impl AnalysisInput {
    /// Read all four logs from a directory written by
    /// [`Dataset::write_logs`], under the default (strict) ingest policy:
    /// any quarantined line aborts the load with [`LoadError::Corrupt`].
    pub fn from_dir(dir: &Path) -> Result<Self, LoadError> {
        Self::from_dir_with(dir, &IngestOptions::default(), &Log::ALL)
    }

    /// Read the `logs` a command uses, under an explicit ingest policy;
    /// the others are not opened, so they may be absent or damaged.
    /// `sensors.log` is optional (real extractions may ship telemetry
    /// separately); the other three are required when asked for, and a
    /// missing one reports [`LoadError::MissingLog`] rather than a bare
    /// I/O error.
    ///
    /// Each file's format is auto-detected by magic bytes
    /// ([`binfmt::parse_file_auto`]): text logs stream through the
    /// chunked line parser, `astra-binlog` files through the CRC-framed
    /// block reader, and a directory may mix the two. At no point are
    /// the full log bytes and the parsed records resident together.
    /// Under a lenient policy, units quarantined within the per-file
    /// error budget land in [`AnalysisInput::quarantine`]; over budget
    /// (or any quarantined unit under the strict default) the load fails
    /// with [`LoadError::Corrupt`] carrying the typed report.
    pub fn from_dir_with(
        dir: &Path,
        opts: &IngestOptions,
        logs: &[Log],
    ) -> Result<Self, LoadError> {
        let _span = astra_obs::span("pipeline.parse");
        let mut input = AnalysisInput::default();
        let q = &mut input.quarantine;
        for log in logs {
            match log {
                Log::Ce => {
                    input.records = load_log(dir, "ce.log", ce::FORMAT, binfmt::CE, opts, true, q)?
                }
                Log::Het => {
                    input.hets = load_log(dir, "het.log", het::FORMAT, binfmt::HET, opts, true, q)?
                }
                Log::Inventory => {
                    input.replacements = load_log(
                        dir,
                        "inventory.log",
                        inventory::FORMAT,
                        binfmt::INVENTORY,
                        opts,
                        true,
                        q,
                    )?
                }
                Log::Sensors => {
                    input.sensors = load_log(
                        dir,
                        "sensors.log",
                        sensor::FORMAT,
                        binfmt::SENSOR,
                        opts,
                        false,
                        q,
                    )?
                }
            }
        }
        Ok(input)
    }
}

/// Load one log, adding what it quarantined to `quarantine`. Its parse
/// stage is named after the file (`ce.log` is `parse.ce`). An absent
/// optional log loads as no records.
fn load_log<T: Send>(
    dir: &Path,
    name: &'static str,
    format: LineFormat<T>,
    bin: BinFormat<T>,
    opts: &IngestOptions,
    required: bool,
    quarantine: &mut Quarantine,
) -> Result<Vec<T>, LoadError> {
    let path = dir.join(name);
    let stage = name.trim_end_matches(".log");
    match binfmt::parse_file_auto(&path, format, bin, opts, stage) {
        Ok((parsed, q)) => {
            quarantine.merge(&q);
            Ok(parsed.records)
        }
        Err(IngestError::Io(e)) if e.kind() == io::ErrorKind::NotFound && !required => {
            Ok(Vec::new())
        }
        Err(IngestError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
            Err(LoadError::MissingLog { name, path })
        }
        Err(IngestError::Io(e)) => Err(LoadError::Unreadable {
            name,
            path,
            source: e,
        }),
        Err(IngestError::Corrupt {
            quarantine,
            lines_ok,
        }) => Err(LoadError::Corrupt {
            name,
            path,
            quarantine: Box::new(quarantine),
            lines_ok,
        }),
    }
}

/// The processed analysis state shared by the experiment drivers.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Machine configuration the records came from.
    pub system: SystemConfig,
    /// CE records (time-sorted as parsed).
    pub records: Vec<CeRecord>,
    /// Coalesced faults.
    pub faults: Vec<ObservedFault>,
    /// All spatial aggregations.
    pub spatial: SpatialCounts,
}

impl Analysis {
    /// Coalesce and aggregate a CE record stream.
    pub fn run(system: SystemConfig, records: Vec<CeRecord>) -> Analysis {
        let mut span = astra_obs::span("pipeline.analyze");
        let faults = coalesce(&records, &CoalesceConfig::default());
        let spatial = SpatialCounts::compute(&system, &records, &faults);

        let obs = astra_obs::global();
        obs.counter("coalesce.records_in").add(records.len() as u64);
        obs.counter("coalesce.faults_out").add(faults.len() as u64);
        if !records.is_empty() {
            // Coalescing ratio: how many raw CEs each inferred fault
            // absorbs on average (the paper's ~4.4M errors → ~27k faults
            // story at full scale).
            obs.gauge("coalesce.ratio")
                .set(records.len() as f64 / faults.len().max(1) as f64);
        }
        // Peak working set of the analysis stage: the record stream plus
        // the fault list with its per-fault record-index backing store.
        let record_bytes = records.len() * std::mem::size_of::<CeRecord>();
        let fault_bytes: usize = faults
            .iter()
            .map(|f| std::mem::size_of_val(f) + f.record_indices.len() * 4)
            .sum();
        obs.gauge("pipeline.workingset_bytes")
            .set_max((record_bytes + fault_bytes) as f64);
        span.attach("records_in", records.len() as i64);
        span.attach("faults_out", faults.len() as i64);
        drop(span);

        Analysis {
            system,
            records,
            faults,
            spatial,
        }
    }

    /// Total CE count.
    pub fn total_errors(&self) -> u64 {
        self.records.len() as u64
    }

    /// Total fault count.
    pub fn total_faults(&self) -> u64 {
        self.faults.len() as u64
    }

    /// Errors-per-fault counts (the Fig 4b population).
    pub fn errors_per_fault(&self) -> Vec<u64> {
        self.faults.iter().map(|f| f.error_count).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        Dataset::generate(1, 42)
    }

    #[test]
    fn text_roundtrip_is_lossless() {
        let ds = dataset();
        let guard = TempDirGuard::new("pipeline-roundtrip");
        ds.write_logs(&guard.0).unwrap();
        let input = AnalysisInput::from_dir(&guard.0).unwrap();
        assert_eq!(input.records, ds.sim.ce_log);
        assert_eq!(input.hets, ds.sim.het_log);
        assert_eq!(input.replacements, ds.replacements);
        assert!(input.quarantine.is_empty());
    }

    #[test]
    fn analysis_attributes_every_error_to_a_fault() {
        let ds = dataset();
        let analysis = Analysis::run(ds.system, ds.sim.ce_log.clone());
        let attributed: u64 = analysis.faults.iter().map(|f| f.error_count).sum();
        assert_eq!(attributed, analysis.total_errors());
        assert!(analysis.total_faults() > 0);
        assert!(analysis.total_faults() < analysis.total_errors());
    }

    /// Removes its temp dir on drop, including when the test panics —
    /// otherwise a failing assertion leaks the directory and a later run
    /// (or a parallel test landing on the same name) sees stale logs.
    struct TempDirGuard(std::path::PathBuf);

    impl TempDirGuard {
        fn new(tag: &str) -> TempDirGuard {
            use std::sync::atomic::{AtomicU64, Ordering};
            static NEXT: AtomicU64 = AtomicU64::new(0);
            // pid alone collides when two test binaries fork from the
            // same runner or a previous run left the dir behind; a
            // per-process counter makes every call site unique.
            let dir = std::env::temp_dir().join(format!(
                "astra-{tag}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            TempDirGuard(dir)
        }
    }

    impl Drop for TempDirGuard {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    #[test]
    fn astra_profile_generation_is_bit_identical() {
        let plain = Dataset::generate(1, 42);
        let via = Dataset::generate_profile(&PlatformProfile::astra(), Some(1), 42);
        assert_eq!(plain.sim.ce_log, via.sim.ce_log);
        assert_eq!(plain.sim.het_log, via.sim.het_log);
        assert_eq!(plain.replacements, via.replacements);
        assert_eq!(plain.sensor_excerpt(), via.sensor_excerpt());
    }

    #[test]
    fn damaged_manifest_is_typed_error_not_fallback() {
        let guard = TempDirGuard::new("pipeline-manifest");
        std::fs::create_dir_all(&guard.0).unwrap();
        assert!(load_manifest(&guard.0).unwrap().is_none(), "absent → None");
        std::fs::write(guard.0.join("manifest.txt"), "nonsense\n").unwrap();
        match load_manifest(&guard.0) {
            Err(LoadError::Manifest { path, .. }) => {
                assert!(path.ends_with("manifest.txt"));
            }
            other => panic!("expected Manifest error, got {other:?}"),
        }
    }

    #[test]
    fn write_and_read_directory() {
        let ds = dataset();
        let guard = TempDirGuard::new("pipeline-test");
        ds.write_logs(&guard.0).unwrap();
        let input = AnalysisInput::from_dir(&guard.0).unwrap();
        assert_eq!(input.records.len(), ds.sim.ce_log.len());
        // The sensor excerpt roundtrips too.
        assert_eq!(input.sensors.len(), ds.sensor_excerpt().len());
        assert!(!input.sensors.is_empty());
    }

    #[test]
    fn binary_directory_reads_identically_to_text() {
        let ds = dataset();
        let guard = TempDirGuard::new("pipeline-bin");
        ds.write_logs_as(&guard.0, LogFormat::Binary).unwrap();
        let input = AnalysisInput::from_dir(&guard.0).unwrap();
        assert_eq!(input.records, ds.sim.ce_log);
        assert_eq!(input.hets, ds.sim.het_log);
        assert_eq!(input.replacements, ds.replacements);
        assert!(input.quarantine.is_empty());
        // The binary directory parses record-identical to the text one
        // (including the sensor values, which both formats quantize to
        // one decimal on write).
        let text_guard = TempDirGuard::new("pipeline-bin-text");
        ds.write_logs(&text_guard.0).unwrap();
        let text_input = AnalysisInput::from_dir(&text_guard.0).unwrap();
        assert_eq!(input.sensors, text_input.sensors);
        // Binary files are markedly smaller than their text peers.
        let size = |dir: &Path| -> u64 {
            std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().metadata().unwrap().len())
                .sum()
        };
        assert!(size(&guard.0) * 3 < size(&text_guard.0));
    }

    #[test]
    fn strict_dir_load_aborts_with_typed_report() {
        use std::io::Write as _;
        let ds = dataset();
        let guard = TempDirGuard::new("pipeline-strict");
        ds.write_logs(&guard.0).unwrap();
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(guard.0.join("inventory.log"))
            .unwrap();
        writeln!(f, "sshd[1]: accepted publickey for root").unwrap();
        drop(f);
        match AnalysisInput::from_dir(&guard.0) {
            Err(LoadError::Corrupt {
                name, quarantine, ..
            }) => {
                assert_eq!(name, "inventory.log");
                assert_eq!(
                    quarantine.count(astra_logs::QuarantineReason::UnknownFormat),
                    1
                );
            }
            other => panic!("expected Corrupt, got {:?}", other.map(|i| i.records.len())),
        }
        // A load that does not ask for inventory.log never opens it.
        let input =
            AnalysisInput::from_dir_with(&guard.0, &IngestOptions::default(), &[Log::Ce]).unwrap();
        assert_eq!(input.records, ds.sim.ce_log);
        assert!(input.replacements.is_empty() && input.hets.is_empty());
    }

    #[test]
    fn lenient_dir_load_quarantines_and_continues() {
        use std::io::Write as _;
        let ds = dataset();
        let guard = TempDirGuard::new("pipeline-lenient");
        ds.write_logs(&guard.0).unwrap();
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(guard.0.join("ce.log"))
            .unwrap();
        writeln!(f, "sshd[1]: accepted publickey for root").unwrap();
        drop(f);
        let input =
            AnalysisInput::from_dir_with(&guard.0, &IngestOptions::lenient(None), &Log::ALL)
                .unwrap();
        assert_eq!(input.records.len(), ds.sim.ce_log.len());
        assert_eq!(input.records, ds.sim.ce_log);
        assert_eq!(input.quarantine.total(), 1);
    }

    #[test]
    fn corrupt_lines_are_skipped_not_fatal() {
        use std::io::Write as _;
        let ds = dataset();
        let guard = TempDirGuard::new("pipeline-skip");
        ds.write_logs(&guard.0).unwrap();
        for name in ["ce.log", "het.log"] {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(guard.0.join(name))
                .unwrap();
            writeln!(f, "this is not a {name} record").unwrap();
        }
        let input =
            AnalysisInput::from_dir_with(&guard.0, &IngestOptions::lenient(Some(1.0)), &Log::ALL)
                .unwrap();
        assert_eq!(input.quarantine.total(), 2);
        assert_eq!(input.records, ds.sim.ce_log);
        assert_eq!(input.hets, ds.sim.het_log);
    }
}
