//! Fault-tolerant sharded fleet analysis: supervised worker
//! subprocesses over a partitioned rack range.
//!
//! Astra's 2,592 nodes fit one process; the hyperscaler fleets this
//! repo also models do not, and at fleet scale individual workers *do*
//! crash, hang, and get OOM-killed mid-run. This module exploits the
//! [`Analyzer`](crate::stream::Analyzer) `consume`/`merge`/`snapshot`
//! contract to push the analysis across OS processes without giving up
//! a byte of determinism, and wraps the spawning in the supervision
//! layer a real fleet needs:
//!
//! * [`partition_racks`] splits the rack range into contiguous
//!   half-open shards (a total, disjoint, order-preserving cover —
//!   property-tested in `tests/shard_partition.rs`);
//! * the worker (`astra-mem` re-invoked in the hidden `shard-worker`
//!   mode, entry point [`run_worker`]) streams all of `ce.log` but
//!   consumes only its racks' CEs, then serializes its analyzer state
//!   with the checkpoint container (per-section CRCs, atomic `.tmp` +
//!   rename). Its stdin is a pipe whose write end only the supervisor
//!   holds, and the worker exits when it closes, so a supervisor that
//!   dies, by any signal, takes its workers with it, and the next run
//!   removes the scratch directory it left;
//! * the supervisor ([`supervise`]) drives every shard through a small
//!   state machine — spawn → deadline → retry/backoff → degrade — and
//!   merges the surviving snapshots left-to-right.
//!
//! Merge exactness: every CE names one node, every node lives in one
//! rack, and every rack lands in exactly one shard, so the per-shard
//! coalesce footprint lists are disjoint and stay in file order, the
//! spatial integer counts add exactly, and predict state is
//! rank-disjoint by construction. The merged snapshot — and therefore
//! the `shard-analyze` stdout — is byte-identical to single-process
//! `analyze` at any shard count (`tests/shard_supervisor.rs` enforces
//! 1/2/4/8).
//!
//! Failure policy mirrors the ingest layer's strict/`--lenient` split:
//! strict (default) aborts the whole run when any shard exhausts its
//! retries, with no partial stdout; `--degraded` merges the survivors,
//! prints an explicit `DEGRADED: missing racks R..R'` banner per hole,
//! and exits with the distinct "partial" code 3.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use astra_logs::chaos::{self, ShardChaos, ShardFaultMode};
use astra_predict::PredictConfig;
use astra_topology::{NodeId, SystemConfig};
use astra_util::{DetRng, StreamKey};

use crate::coalesce::CoalesceConfig;
use crate::stream::{
    checkpoint, Analyzer, EventStream, MemEvent, ResumePoint, StreamAnalyzer, StreamOptions,
};

/// Hidden subcommand name the supervisor re-invokes its own executable
/// with. The `astra-mem` shim forwards every argv to
/// [`crate::cli::main`], which routes this token to the worker; any
/// other binary that runs [`supervise`] must do the same.
pub const WORKER_COMMAND: &str = "shard-worker";

/// Split `racks` racks into at most `shards` contiguous half-open
/// ranges `[lo, hi)`.
///
/// The result is a total, disjoint, order-preserving cover of
/// `0..racks`: ranges are nonempty, consecutive (`hi == next lo`), and
/// earlier ranges are never shorter than later ones (the remainder
/// spreads left-to-right). `shards` is clamped to `1..=racks`, so
/// asking for more workers than racks yields one single-rack shard per
/// rack and never an empty worker.
pub fn partition_racks(racks: u32, shards: u32) -> Vec<(u32, u32)> {
    let shards = shards.clamp(1, racks.max(1));
    let base = racks / shards;
    let rem = racks % shards;
    let mut out = Vec::with_capacity(shards as usize);
    let mut start = 0;
    for i in 0..shards {
        let size = base + u32::from(i < rem);
        out.push((start, start + size));
        start += size;
    }
    out
}

/// Everything a worker needs to analyze its rack slice.
pub struct WorkerConfig {
    /// Log directory under analysis (the full dataset; the worker
    /// filters, it does not re-partition files).
    pub dir: PathBuf,
    /// Machine shape, resolved from the manifest or flags — must match
    /// the supervisor's resolution, which is why the supervisor passes
    /// its provenance flags through verbatim.
    pub system: SystemConfig,
    /// First rack (inclusive) this worker consumes.
    pub rack_lo: u32,
    /// Last rack (exclusive) this worker consumes.
    pub rack_hi: u32,
    /// Which shard this is — used only to address chaos injection and
    /// error messages; the analysis depends only on the rack range.
    pub shard_index: u32,
    /// Where the serialized analyzer snapshot goes (written atomically
    /// via the checkpoint `.tmp` + rename).
    pub snapshot_out: PathBuf,
    /// Stream knobs shared with the supervisor: ingest policy and
    /// coalesce/predict configs.
    pub stream: StreamOptions,
}

/// Worker entry point: stream `ce.log`, consume the rack slice,
/// serialize the analyzer state. stdout stays silent — the snapshot
/// file is the only product, so the supervisor's stdout can be
/// byte-identical to `analyze`.
pub fn run_worker(cfg: &WorkerConfig) -> Result<(), String> {
    let injected = ShardChaos::from_env()?;
    let mut analyzer = StreamAnalyzer::new(
        cfg.system,
        CoalesceConfig::default(),
        PredictConfig::default(),
    );
    let mut source = EventStream::open_with(&cfg.dir, &ResumePoint::default(), cfg.stream.ingest)
        .map_err(|e| e.to_string())?;
    let nodes_per_rack = cfg.system.nodes_per_rack();
    let mut in_range = 0u64;
    while let Some(ev) = source.next_event().map_err(|e| e.to_string())? {
        let rack = event_node(&ev).rack(nodes_per_rack).0;
        if rack < cfg.rack_lo || rack >= cfg.rack_hi {
            continue;
        }
        analyzer.consume(&ev);
        in_range += 1;
        if let Some(chaos) = &injected {
            if chaos.should_trip(cfg.shard_index, in_range) {
                trip(chaos.mode, &analyzer, cfg)?;
            }
        }
    }
    write_snapshot(&analyzer, cfg)
}

/// Serialize a worker's analyzer state. A snapshot is merged, never
/// resumed from, so its position stays at byte 0.
fn write_snapshot(analyzer: &StreamAnalyzer, cfg: &WorkerConfig) -> Result<(), String> {
    let resume = ResumePoint {
        consumed: analyzer.coalesce.ces,
        ..ResumePoint::default()
    };
    checkpoint::write(&cfg.snapshot_out, analyzer, &resume).map_err(|e| e.to_string())
}

/// Act out an armed shard fault at the trip point.
fn trip(mode: ShardFaultMode, analyzer: &StreamAnalyzer, cfg: &WorkerConfig) -> Result<(), String> {
    match mode {
        // A hard death mid-stream: no exit handler, no snapshot.
        ShardFaultMode::Abort => std::process::abort(),
        // Wedged, not dead — only the supervisor's deadline ends this.
        ShardFaultMode::Hang => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
        // Exit 0 with a half-written snapshot: the success path the
        // supervisor must *not* trust without validating the CRCs.
        ShardFaultMode::TornSnapshot => {
            write_snapshot(analyzer, cfg)?;
            let len = std::fs::metadata(&cfg.snapshot_out)
                .map(|m| m.len())
                .map_err(|e| e.to_string())?;
            chaos::truncate_file(&cfg.snapshot_out, len / 2).map_err(|e| e.to_string())?;
            std::process::exit(0);
        }
    }
}

/// The node an event is attributed to — the shard routing key.
fn event_node(ev: &MemEvent) -> NodeId {
    match ev {
        MemEvent::Ce { rec, .. } => rec.node,
        MemEvent::Het { rec, .. } => rec.node,
        MemEvent::Inventory { rec, .. } => rec.node,
        MemEvent::Sensor { rec, .. } => rec.node,
    }
}

/// Supervisor policy and plumbing for one `shard-analyze` run.
pub struct SupervisorConfig {
    /// Log directory under analysis.
    pub dir: PathBuf,
    /// Machine shape (resolved from the manifest or flags).
    pub system: SystemConfig,
    /// Requested worker count (clamped to the rack count).
    pub shards: u32,
    /// Per-attempt wall-clock deadline; a worker past it is killed,
    /// reaped, and treated as a failed attempt.
    pub timeout: Duration,
    /// Retries per shard after its first attempt.
    pub retries: u32,
    /// After retries are exhausted: `false` (strict, the default)
    /// aborts the run; `true` merges the survivors and reports the
    /// holes.
    pub degraded: bool,
    /// Seed for retry-backoff jitter (deterministic, in-tree RNG).
    pub seed: u64,
    /// Provenance and ingest flags replayed verbatim to every worker
    /// (`--profile`, `--racks`, `--seed`, `--lenient`, ...) so workers
    /// resolve the dataset exactly as the supervisor did.
    pub worker_flags: Vec<String>,
}

/// What a supervised run produced.
pub struct Supervised {
    /// The merged analyzer — complete on a clean run, survivors-only
    /// in degraded mode (footprint indices compacted so `snapshot()`
    /// is well-formed either way).
    pub analyzer: StreamAnalyzer,
    /// Rack ranges whose shard stayed dead (empty on a clean run;
    /// nonempty only in degraded mode).
    pub missing: Vec<(u32, u32)>,
}

/// Per-shard supervision states: spawn → deadline → retry/backoff →
/// done or dead.
enum SlotState {
    /// Waiting to (re)spawn — initially immediately, after a failure
    /// for the backoff interval.
    Waiting { until: Instant },
    /// A live attempt with its reaping deadline.
    Running { child: Child, started: Instant },
    /// Snapshot validated and loaded.
    Done(Box<StreamAnalyzer>),
    /// Retries exhausted (or crash loop detected).
    Dead { reason: String },
}

struct ShardSlot {
    range: (u32, u32),
    snapshot: PathBuf,
    /// Attempts started so far; the current one's stderr goes to
    /// [`ShardSlot::stderr`].
    attempts: u32,
    /// Consecutive failures faster than [`CRASH_LOOP_WINDOW`].
    fast_failures: u32,
    rng: DetRng,
    state: SlotState,
}

impl ShardSlot {
    /// Where the current attempt's stderr goes: next to the snapshot in
    /// the run's scratch directory, one file per attempt.
    fn stderr(&self) -> PathBuf {
        self.snapshot
            .with_extension(format!("attempt-{}.stderr", self.attempts))
    }
}

/// How much of a failed attempt's stderr its failure reason carries.
const STDERR_TAIL_BYTES: u64 = 4096;

/// `reason` with the last [`STDERR_TAIL_BYTES`] of the attempt's stderr
/// appended, one indented line each, when the worker wrote any.
fn with_stderr(reason: String, stderr: &Path) -> String {
    use std::io::{Read as _, Seek as _, SeekFrom};
    let mut tail = Vec::new();
    let read = std::fs::File::open(stderr).and_then(|mut f| {
        let len = f.metadata()?.len();
        f.seek(SeekFrom::Start(len.saturating_sub(STDERR_TAIL_BYTES)))?;
        f.read_to_end(&mut tail)
    });
    let tail = String::from_utf8_lossy(&tail);
    if read.is_err() || tail.trim().is_empty() {
        return reason;
    }
    let mut out = format!("{reason}; worker stderr:");
    for line in tail.trim_end().lines() {
        out.push_str("\n    ");
        out.push_str(line);
    }
    out
}

/// Failures faster than this look like a crash loop, not a transient.
const CRASH_LOOP_WINDOW: Duration = Duration::from_millis(250);
/// Consecutive fast failures before giving up early.
const CRASH_LOOP_LIMIT: u32 = 3;
/// First retry backoff; doubles per failure, plus up to 50 % jitter.
const BACKOFF_BASE_MS: u64 = 50;
/// Backoff ceiling.
const BACKOFF_CAP_MS: u64 = 2_000;

/// Owns the shard slots and the scratch directory; dropping it kills
/// and reaps every live worker and removes the scratch tree, so an
/// early strict-mode return (or a panic) never leaks a child process
/// or a half-written snapshot.
struct ShardSet {
    slots: Vec<ShardSlot>,
    workdir: PathBuf,
    /// Held until the scratch tree is gone: see [`scratch_dir`].
    _lock: File,
}

impl Drop for ShardSet {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            if let SlotState::Running { child, .. } = &mut slot.state {
                if child.kill().is_ok() {
                    astra_obs::global().counter("shard.killed").inc();
                }
                let _ = child.wait();
            }
        }
        let _ = std::fs::remove_dir_all(&self.workdir);
    }
}

/// Run the full supervised sharded analysis: partition, spawn, retry,
/// merge. Strict mode returns `Err` as soon as any shard is declared
/// dead; degraded mode always returns `Ok`, with the holes listed in
/// [`Supervised::missing`].
pub fn supervise(cfg: &SupervisorConfig) -> Result<Supervised, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let ranges = partition_racks(cfg.system.racks, cfg.shards);
    let (workdir, lock) = scratch_dir()?;
    let obs = astra_obs::global();

    let mut set = ShardSet {
        slots: ranges
            .iter()
            .enumerate()
            .map(|(i, &range)| ShardSlot {
                range,
                snapshot: workdir.join(format!("shard-{i}.snap")),
                attempts: 0,
                fast_failures: 0,
                rng: DetRng::for_stream(cfg.seed, StreamKey::root("shard-backoff").with(i as u64)),
                state: SlotState::Waiting {
                    until: Instant::now(),
                },
            })
            .collect(),
        workdir,
        _lock: lock,
    };

    loop {
        let now = Instant::now();
        let mut settled = true;
        for (index, slot) in set.slots.iter_mut().enumerate() {
            match &mut slot.state {
                SlotState::Done(_) | SlotState::Dead { .. } => continue,
                SlotState::Waiting { until } => {
                    settled = false;
                    if now >= *until {
                        slot.attempts += 1;
                        let child = spawn_worker(&exe, cfg, index as u32, slot)?;
                        obs.counter("shard.spawned").inc();
                        slot.state = SlotState::Running {
                            child,
                            started: now,
                        };
                    }
                }
                SlotState::Running { child, started } => {
                    settled = false;
                    let elapsed = started.elapsed();
                    let failure = match child.try_wait() {
                        Err(e) => Some(format!("waiting on worker: {e}")),
                        Ok(None) => {
                            if elapsed < cfg.timeout {
                                continue;
                            }
                            // Deadline passed: kill and reap, then
                            // account it exactly like a crash.
                            let _ = child.kill();
                            let _ = child.wait();
                            obs.counter("shard.timeouts").inc();
                            obs.counter("shard.killed").inc();
                            Some(format!("timed out after {:?}", cfg.timeout))
                        }
                        Ok(Some(status)) if !status.success() => {
                            Some(format!("worker exited with {status}"))
                        }
                        Ok(Some(_)) => {
                            // Exit 0 is not success until the CRCs say
                            // so: a torn snapshot is a failed attempt.
                            match checkpoint::read(&slot.snapshot, &cfg.system) {
                                Ok((analyzer, _)) => {
                                    record_attempt(index, elapsed);
                                    slot.state = SlotState::Done(Box::new(analyzer));
                                    continue;
                                }
                                Err(e) => Some(format!("rejected snapshot: {e}")),
                            }
                        }
                    };
                    let reason = with_stderr(
                        failure.expect("every non-continue arm failed"),
                        &slot.stderr(),
                    );
                    record_attempt(index, elapsed);
                    slot.fast_failures = if elapsed < CRASH_LOOP_WINDOW {
                        slot.fast_failures + 1
                    } else {
                        0
                    };
                    let verdict = if slot.fast_failures >= CRASH_LOOP_LIMIT {
                        Some(format!(
                            "crash loop, {} fast failures in a row; last: {reason}",
                            slot.fast_failures
                        ))
                    } else if slot.attempts > cfg.retries {
                        Some(format!(
                            "retries exhausted after {} attempts; last: {reason}",
                            slot.attempts
                        ))
                    } else {
                        None
                    };
                    match verdict {
                        Some(reason) => slot.state = SlotState::Dead { reason },
                        None => {
                            obs.counter("shard.retries").inc();
                            let shift = slot.attempts.saturating_sub(1).min(10);
                            let base = (BACKOFF_BASE_MS << shift).min(BACKOFF_CAP_MS);
                            let delay = base + slot.rng.below(base / 2 + 1);
                            eprintln!(
                                "shard {index} (racks {}..{}): retrying in {delay}ms after: \
                                 {reason}",
                                slot.range.0, slot.range.1
                            );
                            slot.state = SlotState::Waiting {
                                until: Instant::now() + Duration::from_millis(delay),
                            };
                        }
                    }
                }
            }
            // Strict mode: one dead shard sinks the run, immediately.
            if let SlotState::Dead { reason } = &slot.state {
                eprintln!(
                    "shard {index} (racks {}..{}) is dead: {reason}",
                    slot.range.0, slot.range.1
                );
                if !cfg.degraded {
                    return Err(format!(
                        "shard {index} (racks {}..{}) failed permanently: {reason}\n\
                         hint: re-run with --degraded for partial results, or raise \
                         --retries/--timeout",
                        slot.range.0, slot.range.1
                    ));
                }
            }
        }
        if settled {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // Left-to-right merge: shard i's racks all precede shard i+1's, so
    // folding in index order preserves the stream order the analyzers'
    // merge contract requires.
    let mut merged = StreamAnalyzer::new(
        cfg.system,
        CoalesceConfig::default(),
        PredictConfig::default(),
    );
    let mut missing = Vec::new();
    for slot in set.slots.drain(..) {
        match slot.state {
            SlotState::Done(analyzer) => merged = Analyzer::merge(merged, *analyzer),
            SlotState::Dead { .. } => {
                obs.counter("shard.degraded").inc();
                missing.push(slot.range);
            }
            SlotState::Waiting { .. } | SlotState::Running { .. } => {
                unreachable!("settled loop left a shard unfinished")
            }
        }
    }
    if !missing.is_empty() {
        // Holes leave the coalesce footprint indices sparse (they index
        // the *global* CE stream); renumber them densely, preserving
        // order, so `snapshot()`'s index-keyed tables stay in bounds.
        compact_footprint_indices(&mut merged);
    }
    Ok(Supervised {
        analyzer: merged,
        missing,
    })
}

/// One attempt's wall clock, recorded per shard and in aggregate (the
/// per-shard series is the `astra-obs` span equivalent for work that
/// happens in another process).
fn record_attempt(index: usize, elapsed: Duration) {
    let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
    let obs = astra_obs::global();
    obs.timing("time.shard.attempt").record(ns);
    obs.timing(&format!("time.shard.attempt/shard.{index}"))
        .record(ns);
}

/// Spawn one worker attempt. Stdout is discarded (the snapshot file is
/// the contract) and stderr goes to the attempt's file, which is read
/// only if the attempt fails: per-worker manifest notes repeated N times
/// would bury the supervisor's own diagnostics, but a failure's reason
/// should reach the operator. Stdin is a pipe whose write end stays in
/// the attempt's `Child` and closes when the supervisor does; the worker
/// exits at its EOF.
fn spawn_worker(
    exe: &Path,
    cfg: &SupervisorConfig,
    index: u32,
    slot: &ShardSlot,
) -> Result<Child, String> {
    let stderr = std::fs::File::create(slot.stderr())
        .map_err(|e| format!("creating {}: {e}", slot.stderr().display()))?;
    let mut cmd = Command::new(exe);
    cmd.arg(WORKER_COMMAND)
        .arg(&cfg.dir)
        .arg("--rack-lo")
        .arg(slot.range.0.to_string())
        .arg("--rack-hi")
        .arg(slot.range.1.to_string())
        .arg("--shard-index")
        .arg(index.to_string())
        .arg("--snapshot-out")
        .arg(&slot.snapshot)
        .args(&cfg.worker_flags)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(stderr);
    cmd.spawn()
        .map_err(|e| format!("spawning shard worker {index}: {e}"))
}

/// The lock file in a run's scratch directory.
const SCRATCH_LOCK: &str = "lock";

/// A unique scratch directory for this run's snapshots, and the held
/// lock on its [`SCRATCH_LOCK`] file.
///
/// A supervisor killed by a signal never unwinds, so its [`ShardSet`]
/// cannot remove its directory; but the lock dies with the process. So
/// each run first removes every `astra-shard-<pid>-<n>` directory whose
/// lock it can take. The directory is set up under a name that scan
/// skips and renamed into place with its lock already held, so the scan
/// never meets a live run's directory unlocked.
fn scratch_dir() -> Result<(PathBuf, File), String> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let tmp = std::env::temp_dir();
    remove_stale_scratch(&tmp);
    let pid = std::process::id();
    let mut n = NEXT.fetch_add(1, Ordering::Relaxed);
    let setup = tmp.join(format!("astra-shard-{pid}-{n}.setup"));
    std::fs::create_dir_all(&setup).map_err(|e| format!("creating {}: {e}", setup.display()))?;
    let lock_path = setup.join(SCRATCH_LOCK);
    let lock = File::create(&lock_path)
        .and_then(|f| f.lock().map(|()| f))
        .map_err(|e| format!("locking {}: {e}", lock_path.display()))?;
    loop {
        let dir = tmp.join(format!("astra-shard-{pid}-{n}"));
        match std::fs::rename(&setup, &dir) {
            Ok(()) => return Ok((dir, lock)),
            // A directory under this name that the scan left: try the next.
            Err(_) if dir.exists() => n = NEXT.fetch_add(1, Ordering::Relaxed),
            Err(e) => {
                let _ = std::fs::remove_dir_all(&setup);
                return Err(format!("creating {}: {e}", dir.display()));
            }
        }
    }
}

/// Remove each run's scratch directory under `tmp` whose supervisor is
/// gone: an `astra-shard-<pid>-<n>` directory whose [`SCRATCH_LOCK`]
/// this process can lock. One without a lock file is left alone.
fn remove_stale_scratch(tmp: &Path) {
    let Ok(entries) = std::fs::read_dir(tmp) else {
        return;
    };
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    for entry in entries.flatten() {
        let name = entry.file_name();
        let is_run = name
            .to_str()
            .and_then(|name| name.strip_prefix("astra-shard-")?.split_once('-'))
            .is_some_and(|(pid, n)| digits(pid) && digits(n));
        if !is_run {
            continue;
        }
        let dir = entry.path();
        let Ok(lock) = File::open(dir.join(SCRATCH_LOCK)) else {
            continue;
        };
        if lock.try_lock().is_ok() {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Order-preserving dense renumbering of the coalesce footprint
/// indices.
///
/// Footprint `idx` values index the global CE stream; with whole shards
/// missing they are sparse, but `snapshot()` builds its record-index →
/// month table sized by the footprint *count*. Ranking every surviving
/// index keeps relative order (what classification and Fig 4 consume)
/// while making the set dense in `0..ces`. On a complete run the
/// mapping is the identity, but the supervisor only calls this for
/// degraded merges to keep the clean path byte-identical by
/// construction, not by argument.
fn compact_footprint_indices(analyzer: &mut StreamAnalyzer) {
    let mut idxs: Vec<u32> = analyzer
        .coalesce
        .groups
        .values()
        .flatten()
        .map(|f| f.idx)
        .collect();
    idxs.sort_unstable();
    for feet in analyzer.coalesce.groups.values_mut() {
        for f in feet.iter_mut() {
            f.idx = idxs
                .binary_search(&f.idx)
                .expect("every footprint index was just collected") as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Dataset;

    #[test]
    fn partition_covers_exactly_without_overlap() {
        for racks in [1u32, 2, 3, 5, 36, 108, 360] {
            for shards in [1u32, 2, 3, 4, 7, 8, 64, 1000] {
                let ranges = partition_racks(racks, shards);
                assert!(!ranges.is_empty());
                assert!(ranges.len() as u32 <= racks.min(shards.max(1)));
                assert_eq!(ranges[0].0, 0, "starts at rack 0");
                assert_eq!(ranges.last().unwrap().1, racks, "ends at rack count");
                for w in ranges.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "consecutive: {ranges:?}");
                }
                assert!(
                    ranges.iter().all(|(lo, hi)| lo < hi),
                    "nonempty: {ranges:?}"
                );
            }
        }
    }

    #[test]
    fn partition_handles_more_shards_than_racks() {
        let ranges = partition_racks(3, 8);
        assert_eq!(ranges, vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(partition_racks(1, 1000), vec![(0, 1)]);
    }

    #[test]
    fn sharded_consumption_merges_to_the_unsharded_analyzer() {
        // In-process version of the subprocess contract: split the
        // event stream by rack, consume per shard, merge left-to-right,
        // and compare the snapshot against one-pass consumption.
        let ds = Dataset::generate(2, 42);
        let system = ds.system;
        let dir = {
            use std::sync::atomic::{AtomicU64, Ordering};
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "astra-shard-unit-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            ds.write_logs(&dir).unwrap();
            dir
        };
        let new =
            || StreamAnalyzer::new(system, CoalesceConfig::default(), PredictConfig::default());
        let consume_range = |lo: u32, hi: u32| {
            let mut a = new();
            let mut src = EventStream::open(&dir).unwrap();
            while let Some(ev) = src.next_event().unwrap() {
                let rack = event_node(&ev).rack(system.nodes_per_rack()).0;
                if rack >= lo && rack < hi {
                    a.consume(&ev);
                }
            }
            a
        };
        let whole = consume_range(0, system.racks);
        let mut merged = new();
        for (lo, hi) in partition_racks(system.racks, 2) {
            merged = Analyzer::merge(merged, consume_range(lo, hi));
        }
        let a = merged.snapshot();
        let b = whole.snapshot();
        assert_eq!(a.ces, b.ces);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.fig4.render(), b.fig4.render());
        assert_eq!(a.fig5.render(), b.fig5.render());
        assert_eq!(a.alerts, b.alerts);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_makes_a_degraded_merge_snapshot_safe() {
        let ds = Dataset::generate(2, 7);
        let system = ds.system;
        let mut partial =
            StreamAnalyzer::new(system, CoalesceConfig::default(), PredictConfig::default());
        // Consume only the second rack's CEs, keeping their *global*
        // stream indices — the exact shape of a merge missing shard 0.
        for (i, rec) in ds.sim.ce_log.iter().enumerate() {
            if rec.node.rack(system.nodes_per_rack()).0 == 1 {
                partial.consume(&MemEvent::Ce {
                    seq: i as u64,
                    rec: *rec,
                });
            }
        }
        assert!(partial.coalesce.ces > 0, "rack 1 must have CEs");
        compact_footprint_indices(&mut partial);
        let max_idx = partial
            .coalesce
            .groups
            .values()
            .flatten()
            .map(|f| f.idx)
            .max()
            .unwrap();
        assert_eq!(u64::from(max_idx) + 1, partial.coalesce.ces, "dense");
        // The degraded snapshot must not panic and must report the
        // partial CE population.
        let report = partial.snapshot();
        assert_eq!(report.ces, partial.coalesce.ces);
    }
}
