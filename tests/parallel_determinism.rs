//! Determinism of the parallel analysis paths.
//!
//! Every parallel stage — the k-way CE merge in the simulator, sharded
//! coalescing, the spatial `par_fold`, and the prediction replay — must
//! produce output
//! bit-identical to the sequential path at any worker count. These tests
//! pin that down by forcing the worker override (`astra_util::par`'s
//! `ASTRA_WORKERS` hook) to 1 and then to several workers and comparing
//! whole structures. They also cover the distinguishable
//! missing-vs-corrupt error from `AnalysisInput::from_dir`.

use std::sync::Mutex;

use astra_core::coalesce::{coalesce, CoalesceConfig};
use astra_core::pipeline::{Analysis, AnalysisInput, Dataset, LoadError};
use astra_core::spatial::SpatialCounts;
use astra_core::stream::{stream_analyze, StreamOptions, StreamReport};
use astra_util::par;

/// The worker override is process-global; tests that flip it must not
/// interleave. Recover from poisoning so one failed test reports its own
/// assertion instead of cascading `PoisonError`s.
static WORKER_LOCK: Mutex<()> = Mutex::new(());

fn with_workers<T>(n: usize, f: impl FnOnce() -> T) -> T {
    par::set_workers(Some(n));
    let out = f();
    par::set_workers(None);
    out
}

/// Two racks puts the CE stream (~250 k records) past the parallel
/// thresholds of both coalescing and the spatial fold.
fn dataset(seed: u64) -> Dataset {
    Dataset::generate(2, seed)
}

#[test]
fn simulate_merge_identical_across_worker_counts() {
    let _guard = WORKER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let base = with_workers(1, || dataset(42));
    for workers in [2, 4] {
        let par = with_workers(workers, || dataset(42));
        assert_eq!(
            base.sim.ce_log, par.sim.ce_log,
            "CE log differs at {workers} workers"
        );
        assert_eq!(base.sim.het_log, par.sim.het_log);
    }
}

#[test]
fn coalesce_identical_across_worker_counts() {
    let _guard = WORKER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let ds = dataset(43);
    let config = CoalesceConfig::default();
    let base = with_workers(1, || coalesce(&ds.sim.ce_log, &config));
    assert!(!base.is_empty());
    for workers in [2, 4] {
        let par = with_workers(workers, || coalesce(&ds.sim.ce_log, &config));
        assert_eq!(base, par, "coalesce output differs at {workers} workers");
    }
}

#[test]
fn spatial_counts_identical_across_worker_counts() {
    let _guard = WORKER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let ds = dataset(44);
    let faults = coalesce(&ds.sim.ce_log, &CoalesceConfig::default());
    let base = with_workers(1, || {
        SpatialCounts::compute(&ds.system, &ds.sim.ce_log, &faults)
    });
    for workers in [2, 4] {
        let par = with_workers(workers, || {
            SpatialCounts::compute(&ds.system, &ds.sim.ce_log, &faults)
        });
        assert_eq!(base, par, "spatial counts differ at {workers} workers");
    }
}

#[test]
fn predict_replay_identical_across_worker_counts() {
    let _guard = WORKER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let ds = dataset(45);
    let config = astra_predict::PredictConfig::default();
    let base = with_workers(1, || {
        astra_predict::replay(
            &ds.sim.ce_log,
            &config,
            &astra_predict::default_predictors(),
        )
    });
    assert!(!base.is_empty(), "two racks should raise some alerts");
    for workers in [2, 4] {
        let par = with_workers(workers, || {
            astra_predict::replay(
                &ds.sim.ce_log,
                &config,
                &astra_predict::default_predictors(),
            )
        });
        assert_eq!(base, par, "alert stream differs at {workers} workers");
    }
}

#[test]
fn batch_engine_identical_across_worker_counts() {
    let _guard = WORKER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // `Analysis::run` is `coalesce()` plus `SpatialCounts::compute`, both
    // parallel past their thresholds at two racks: the whole analysis
    // must be indistinguishable from the sequential pass.
    let ds = dataset(46);
    let base = with_workers(1, || Analysis::run(ds.system, ds.sim.ce_log.clone()));
    assert!(!base.faults.is_empty());
    for workers in [2, 4] {
        let par = with_workers(workers, || Analysis::run(ds.system, ds.sim.ce_log.clone()));
        assert_eq!(
            base.faults, par.faults,
            "batch-engine faults differ at {workers} workers"
        );
        assert_eq!(
            base.spatial, par.spatial,
            "batch-engine spatial counts differ at {workers} workers"
        );
    }
}

#[test]
fn stream_analyze_identical_across_worker_counts() {
    let _guard = WORKER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The streaming pass is one ordered consume loop, but its snapshot
    // classifies groups through the same parallel path as batch
    // coalescing — the whole report must not depend on worker count.
    let ds = dataset(47);
    let dir = TempDirGuard::new("streamdet");
    ds.write_logs(&dir.0).unwrap();
    let opts = StreamOptions::default();
    let run = |workers| -> StreamReport {
        with_workers(workers, || {
            stream_analyze(&dir.0, ds.system, &opts)
                .expect("stream-analyze failed")
                .expect("no stop requested, must yield a report")
        })
    };
    let base = run(1);
    assert!(!base.faults.is_empty());
    for workers in [2, 4] {
        let par = run(workers);
        assert_eq!(
            base.faults, par.faults,
            "stream faults differ at {workers} workers"
        );
        assert_eq!(base.spatial, par.spatial);
        assert_eq!(base.alerts, par.alerts);
        assert_eq!(base.fig4.render(), par.fig4.render());
        assert_eq!(base.fig5.render(), par.fig5.render());
    }
}

#[test]
fn span_paths_nest_identically_across_worker_counts() {
    let _guard = WORKER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Worker threads inherit the caller's span path, so the set of
    // `time.*` paths must not depend on the worker count — the same
    // tree, whether a shard ran on the caller or on a worker. Loading a
    // text directory runs `parse.shard` spans on `par_map` workers (each
    // chunk above 64 KiB is split across them). Each run installs a
    // unique root so its paths are separable in the global registry
    // (other tests in this binary record spans concurrently).
    let ds = dataset(48);
    let dir = TempDirGuard::new("spandet");
    ds.write_logs(&dir.0).unwrap();
    let paths_at = |workers: usize, root: &str| -> Vec<String> {
        with_workers(workers, || {
            let _root = astra_obs::inherit_path(Some(root));
            let input = AnalysisInput::from_dir(&dir.0).expect("load");
            Analysis::run(ds.system, input.records);
        });
        let prefix = format!("time.{root}/");
        astra_obs::global()
            .snapshot()
            .entries
            .iter()
            .filter_map(|(name, _)| name.strip_prefix(&prefix).map(str::to_string))
            .collect()
    };
    let base = paths_at(1, "spandet_w1");
    for path in [
        "pipeline.parse/parse.ce/parse.shard",
        "pipeline.analyze/coalesce",
        "pipeline.analyze/spatial.compute",
    ] {
        assert!(
            base.iter().any(|p| p == path),
            "{path} must nest under the pipeline even sequentially: {base:?}"
        );
    }
    for workers in [2, 4] {
        let par = paths_at(workers, &format!("spandet_w{workers}"));
        assert_eq!(
            base, par,
            "span path tree differs at {workers} workers (snapshots sort by name)"
        );
    }
    // The regression this pins: a worker starting from an empty span
    // stack would record its shard span at the root.
    let snap = astra_obs::global().snapshot();
    assert!(
        snap.get("time.parse.shard").is_none(),
        "found rootless worker span time.parse.shard"
    );
}

/// Removes its temp dir on drop so a failing assertion does not leak it.
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
        TempDirGuard(dir)
    }
}

impl Drop for TempDirGuard {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn from_dir_distinguishes_missing_from_corrupt() {
    let ds = Dataset::generate(1, 42);
    let guard = TempDirGuard::new("loaderr");
    ds.write_logs(&guard.0).unwrap();

    // Deleting a required log → MissingLog naming the file.
    std::fs::remove_file(guard.0.join("ce.log")).unwrap();
    match AnalysisInput::from_dir(&guard.0) {
        Err(LoadError::MissingLog { name, path }) => {
            assert_eq!(name, "ce.log");
            assert!(path.ends_with("ce.log"));
        }
        other => panic!("expected MissingLog, got {other:?}"),
    }

    // A present but undecodable log → the strict default reports it
    // corrupt with a typed quarantine.
    std::fs::write(guard.0.join("ce.log"), [0xFF, 0xFE, b'\n']).unwrap();
    match AnalysisInput::from_dir(&guard.0) {
        Err(e @ LoadError::Corrupt { name, .. }) => {
            assert_eq!(name, "ce.log");
            assert!(e.to_string().contains("corrupt"));
            assert!(e.to_string().contains("bad-utf8"));
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn from_dir_tolerates_absent_sensor_log() {
    let ds = Dataset::generate(1, 42);
    let guard = TempDirGuard::new("nosensors");
    ds.write_logs(&guard.0).unwrap();
    std::fs::remove_file(guard.0.join("sensors.log")).unwrap();
    let input = AnalysisInput::from_dir(&guard.0).unwrap();
    assert!(input.sensors.is_empty());
    assert_eq!(input.records.len(), ds.sim.ce_log.len());
}
