//! Platform-profile contract tests.
//!
//! Three claims the profile registry stakes:
//!
//! 1. **Astra is unchanged.** `--profile astra` is byte-identical to the
//!    historical default at the same seed — pinned by checksum so a
//!    calibration drift cannot slip through as "all tests still pass".
//! 2. **Each profile is a shape, not a lottery ticket.** The fleet-level
//!    distributions a profile encodes (susceptible-node fraction, fault
//!    mode mix) must be preserved across machine scale: a 4-rack slice
//!    and a 12-rack slice of the same platform look like the same
//!    platform.
//! 3. **Provenance round-trips.** `generate` writes a manifest; every
//!    consumer resolves it; damage is a hard error, never a silent
//!    fallback to the wrong machine.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

use astra_core::pipeline::Dataset;
use astra_faultsim::FaultMode;
use astra_platform::{registry, PlatformProfile, PROFILE_NAMES};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_astra-mem")
}

/// Unique per call; removed on drop even if the test panics.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        TempDir(std::env::temp_dir().join(format!(
            "astra-profiles-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        )))
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

fn run_ok(args: &[&str]) -> (String, String) {
    let out = Command::new(bin()).args(args).output().expect("spawn");
    assert!(
        out.status.success(),
        "astra-mem {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn run_err(args: &[&str]) -> String {
    let out = Command::new(bin()).args(args).output().expect("spawn");
    assert!(
        !out.status.success(),
        "astra-mem {args:?} unexpectedly succeeded"
    );
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Fraction of nodes hosting at least one injected fault, and the
/// empirical fault-mode proportions, from a dataset's ground truth.
fn shape(ds: &Dataset) -> (f64, BTreeMap<FaultMode, f64>) {
    let nodes: std::collections::BTreeSet<u32> = ds
        .sim
        .ground_truth
        .iter()
        .map(|g| g.fault.dimm.node.0)
        .collect();
    let frac = nodes.len() as f64 / f64::from(ds.system.node_count());
    let total = ds.sim.ground_truth.len() as f64;
    let mut mix = BTreeMap::new();
    for g in &ds.sim.ground_truth {
        *mix.entry(g.fault.mode).or_insert(0.0) += 1.0 / total;
    }
    (frac, mix)
}

/// Claim 2: at 4 racks and at 12 racks the same profile produces the
/// same *distribution shape* — susceptible-node fraction within a few
/// points, every fault-mode proportion within a few points, and the
/// profile's dominant mode dominant at both scales.
#[test]
fn distribution_shape_is_preserved_across_scale() {
    for profile in registry() {
        let small = Dataset::generate_profile(&profile, Some(4), 11);
        let large = Dataset::generate_profile(&profile, Some(12), 11);
        assert!(
            small.sim.ground_truth.len() >= 50,
            "{}: too few faults at 4 racks to measure a shape",
            profile.name
        );

        let (frac_s, mix_s) = shape(&small);
        let (frac_l, mix_l) = shape(&large);
        assert!(
            (frac_s - frac_l).abs() < 0.05,
            "{}: susceptible fraction moved with scale: {frac_s:.3} @4r vs {frac_l:.3} @12r",
            profile.name
        );
        for mode in FaultMode::ALL {
            let s = mix_s.get(&mode).copied().unwrap_or(0.0);
            let l = mix_l.get(&mode).copied().unwrap_or(0.0);
            assert!(
                (s - l).abs() < 0.06,
                "{}: {mode:?} share moved with scale: {s:.3} @4r vs {l:.3} @12r",
                profile.name
            );
        }
        // Single-bit faults dominate every profile's calibration; that
        // ordering must survive sampling at both scales.
        for (label, mix) in [("4r", &mix_s), ("12r", &mix_l)] {
            let (&top, _) = mix
                .iter()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("nonempty mix");
            assert_eq!(
                top,
                FaultMode::SingleBit,
                "{} @{label}: dominant mode is {top:?}",
                profile.name
            );
        }
    }
}

/// The profiles genuinely differ — if two produced the same mode mix the
/// registry would be three names for one machine.
#[test]
fn profiles_are_distinguishable_from_ground_truth() {
    let astra = Dataset::generate_profile(&PlatformProfile::astra(), Some(4), 11);
    let x86 = Dataset::generate_profile(&astra_platform::by_name("x86-ddr4").unwrap(), None, 11);
    let (_, mix_a) = shape(&astra);
    let (_, mix_x) = shape(&x86);
    let bit_a = mix_a.get(&FaultMode::SingleBit).copied().unwrap_or(0.0);
    let bit_x = mix_x.get(&FaultMode::SingleBit).copied().unwrap_or(0.0);
    // Astra's calibration is 0.79 single-bit, the DDR4 fleet's 0.62; the
    // gap (≈0.17) must be visible, not washed out by the simulator.
    assert!(
        bit_a - bit_x > 0.08,
        "single-bit share astra={bit_a:.3} vs x86-ddr4={bit_x:.3}"
    );
}

/// Claim 1: `--profile astra` is byte-identical to the flag-less default
/// at the same seed, and the CE log matches a pinned checksum — the
/// refactor moved the calibration, it must not have changed it.
#[test]
fn astra_profile_is_byte_identical_to_default_and_pinned() {
    let tmp = TempDir::new("pin");
    let a = tmp.join("default");
    let b = tmp.join("explicit");
    run_ok(&[
        "generate",
        "--out",
        a.to_str().unwrap(),
        "--racks",
        "2",
        "--seed",
        "42",
    ]);
    run_ok(&[
        "generate",
        "--out",
        b.to_str().unwrap(),
        "--racks",
        "2",
        "--seed",
        "42",
        "--profile",
        "astra",
    ]);
    for name in ["ce.log", "het.log", "inventory.log", "sensors.log"] {
        let da = std::fs::read(a.join(name)).unwrap();
        let db = std::fs::read(b.join(name)).unwrap();
        assert_eq!(da, db, "{name}: --profile astra diverged from default");
    }
    // Pinned: racks=2 seed=42 ce.log. If this moved, the astra
    // calibration changed — bump deliberately or find the regression.
    let ce = std::fs::read(a.join("ce.log")).unwrap();
    assert_eq!(
        astra_util::crc32(&ce),
        0xA9CF_E487,
        "astra ce.log (racks=2, seed=42) checksum drifted"
    );
}

/// Claim 3: the manifest round-trips through generate → load, and the
/// resolved shape comes from the manifest, not from defaults.
#[test]
fn manifest_roundtrips_and_consumers_resolve_it() {
    let tmp = TempDir::new("manifest");
    let dir = tmp.join("x86");
    run_ok(&[
        "generate",
        "--out",
        dir.to_str().unwrap(),
        "--racks",
        "3",
        "--seed",
        "9",
        "--profile",
        "x86-ddr4",
    ]);
    let m = astra_logs::Manifest::load(&dir)
        .expect("readable manifest")
        .expect("manifest written by generate");
    assert_eq!(m.profile, "x86-ddr4");
    assert_eq!(m.racks, 3);
    assert_eq!(m.seed, 9);

    // analyze resolves the manifest: 3 x86-ddr4 racks = 144 nodes.
    let (stdout, stderr) = run_ok(&["analyze", dir.to_str().unwrap()]);
    assert!(stdout.contains("on 144 nodes"), "{stdout}");
    assert!(stderr.contains("using manifest"), "{stderr}");

    // Explicit flags that contradict the manifest are refused.
    let err = run_err(&["analyze", dir.to_str().unwrap(), "--racks", "2"]);
    assert!(err.contains("conflicts with the dataset manifest"), "{err}");
    let err = run_err(&["analyze", dir.to_str().unwrap(), "--profile", "astra"]);
    assert!(err.contains("conflicts with the dataset manifest"), "{err}");

    // Matching flags are redundant but fine (the CI determinism flow).
    run_ok(&["analyze", dir.to_str().unwrap(), "--racks", "3"]);
}

/// Claim 3, failure half: a damaged manifest is a typed, actionable
/// error — not a silent fall-back to the astra assumption.
/// `convert` carries the manifest over with the new format, so a
/// converted copy resolves the same machine without flags.
#[test]
fn convert_keeps_the_manifest_with_the_new_format() {
    let tmp = TempDir::new("convert");
    let src = tmp.join("text");
    let bin = tmp.join("bin");
    run_ok(&[
        "generate",
        "--racks",
        "1",
        "--seed",
        "42",
        "--out",
        src.to_str().unwrap(),
    ]);
    let (want, _) = run_ok(&["analyze", src.to_str().unwrap()]);
    assert!(want.contains("on 72 nodes"), "{want}");

    let to = |dir: &Path, format: &str, out: Option<&Path>| {
        let mut args = vec!["convert", dir.to_str().unwrap(), "--to", format];
        if let Some(out) = out {
            args.extend(["--out", out.to_str().unwrap()]);
        }
        run_ok(&args);
    };
    to(&src, "binary", Some(&bin));
    let source = astra_logs::Manifest::load(&src).unwrap().unwrap();
    let copied = astra_logs::Manifest::load(&bin).unwrap().unwrap();
    assert_eq!(copied.format, "binary");
    assert_eq!(
        copied,
        astra_logs::Manifest {
            format: "binary".into(),
            ..source.clone()
        }
    );
    assert_eq!(run_ok(&["analyze", bin.to_str().unwrap()]).0, want);

    // In place, the format field follows the logs back.
    to(&bin, "text", None);
    assert_eq!(astra_logs::Manifest::load(&bin).unwrap().unwrap(), source);
    assert_eq!(run_ok(&["analyze", bin.to_str().unwrap()]).0, want);

    // A directory without a manifest converts to one without a manifest.
    std::fs::remove_file(astra_logs::Manifest::path_in(&src)).unwrap();
    let bare = tmp.join("bare");
    to(&src, "binary", Some(&bare));
    assert!(astra_logs::Manifest::load(&bare).unwrap().is_none());
}

#[test]
fn damaged_manifest_is_an_error_not_a_fallback() {
    let tmp = TempDir::new("damaged");
    let dir = tmp.join("d");
    run_ok(&[
        "generate",
        "--out",
        dir.to_str().unwrap(),
        "--racks",
        "1",
        "--seed",
        "5",
    ]);
    std::fs::write(
        dir.join("manifest.txt"),
        "astra-manifest v1\nseed=not-a-number\n",
    )
    .unwrap();
    let err = run_err(&["analyze", dir.to_str().unwrap()]);
    assert!(err.contains("manifest"), "{err}");
    assert!(err.contains("rewrite it"), "{err}");
}

/// Satellite: `--profile` with an unknown name names every registered
/// profile in the error; `profiles` lists the registry.
#[test]
fn unknown_profile_lists_registry_and_profiles_subcommand_works() {
    let tmp = TempDir::new("unknown");
    let dir = tmp.join("never-created");
    let err = run_err(&[
        "generate",
        "--out",
        dir.to_str().unwrap(),
        "--profile",
        "vax",
    ]);
    for name in PROFILE_NAMES {
        assert!(err.contains(name), "{err} should mention {name}");
    }
    assert!(!dir.exists(), "failed generate must not leave a directory");

    let (stdout, _) = run_ok(&["profiles"]);
    for p in registry() {
        assert!(stdout.contains(p.name), "{stdout}");
        assert!(stdout.contains(p.description), "{stdout}");
    }
}

/// The transfer matrix end-to-end at toy scale: one astra and one
/// datacenter dataset, all four (train, eval) pairs rendered.
#[test]
fn predict_transfer_smoke() {
    let tmp = TempDir::new("transfer");
    let a = tmp.join("astra");
    let d = tmp.join("dc");
    run_ok(&[
        "generate",
        "--out",
        a.to_str().unwrap(),
        "--racks",
        "1",
        "--seed",
        "42",
    ]);
    run_ok(&[
        "generate",
        "--out",
        d.to_str().unwrap(),
        "--racks",
        "1",
        "--seed",
        "42",
        "--profile",
        "datacenter",
    ]);
    let (stdout, _) = run_ok(&[
        "predict",
        "--train",
        a.to_str().unwrap(),
        "--train",
        d.to_str().unwrap(),
        "--eval",
        a.to_str().unwrap(),
        "--eval",
        d.to_str().unwrap(),
    ]);
    assert!(stdout.contains("train\\eval"), "{stdout}");
    assert!(stdout.contains("astra"), "{stdout}");
    assert!(stdout.contains("datacenter"), "{stdout}");
    // 2 trains x 2 evals and a header: at least 3 matrix lines.
    assert!(stdout.lines().count() >= 3, "{stdout}");

    // Transfer refuses manifest-less directories (it cannot re-simulate
    // truth it cannot identify).
    let bare = tmp.join("bare");
    std::fs::create_dir_all(&bare).unwrap();
    std::fs::write(bare.join("ce.log"), "").unwrap();
    let err = run_err(&[
        "predict",
        "--train",
        bare.to_str().unwrap(),
        "--eval",
        a.to_str().unwrap(),
    ]);
    assert!(err.contains("no manifest.txt"), "{err}");
}
