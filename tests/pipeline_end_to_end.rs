//! Integration: the full pipeline across crates — simulate a machine,
//! write its logs in the published text formats, parse them back, and
//! run the complete analysis, checking cross-crate invariants the unit
//! tests cannot see.

use astra_core::experiments;
use astra_core::pipeline::{Analysis, AnalysisInput, Dataset};
use astra_core::ObservedMode;
use astra_faultsim::FaultMode;
use astra_util::time::{sensor_span, study_span};

fn dataset() -> Dataset {
    Dataset::generate(2, 42)
}

#[test]
fn text_pipeline_reaches_identical_analysis() {
    let ds = dataset();
    let dir = std::env::temp_dir().join(format!("astra-e2e-text-{}", std::process::id()));
    ds.write_logs(&dir).unwrap();
    let via_text = AnalysisInput::from_dir(&dir);
    std::fs::remove_dir_all(&dir).ok();
    let via_text = via_text.unwrap();

    let a = Analysis::run(ds.system, via_text.records);
    let b = Analysis::run(ds.system, ds.sim.ce_log);
    assert_eq!(a.total_errors(), b.total_errors());
    assert_eq!(a.total_faults(), b.total_faults());
    assert_eq!(a.spatial.errors_by_slot, b.spatial.errors_by_slot);
    assert_eq!(a.spatial.faults_by_rank, b.spatial.faults_by_rank);
}

#[test]
fn coalescing_recovers_ground_truth_fault_population() {
    let ds = dataset();
    let analysis = Analysis::run(ds.system, ds.sim.ce_log.clone());

    // The analyzer sees only logged errors; ground truth counts faults
    // whose errors were generated. Faults whose every error was dropped
    // by the kernel buffer are invisible, and overlapping footprints can
    // merge, so we check agreement within a tolerance band.
    // Over-counting comes from low-budget wide faults whose few errors
    // never exercise the wide footprint: a bank fault that fired three
    // times in three columns is, to any observer, three single-bit
    // faults. The band below is the measured confusion at this scale.
    let truth = ds.sim.ground_truth.len() as f64;
    let observed = analysis.total_faults() as f64;
    assert!(
        (observed - truth).abs() / truth < 0.2,
        "observed {observed} vs ground truth {truth}"
    );
}

#[test]
fn coalescing_recovers_fault_modes() {
    let ds = dataset();
    let analysis = Analysis::run(ds.system, ds.sim.ce_log.clone());

    // Ground-truth single-bit faults vs observed single-bit faults.
    // Single-error faults of wide modes (a column fault that fired once)
    // are indistinguishable from single-bit faults — the classifier can
    // only see footprints — so allow the observed count to absorb them.
    let truth_bit = ds
        .sim
        .ground_truth
        .iter()
        .filter(|g| g.fault.mode == FaultMode::SingleBit)
        .count() as f64;
    let observed_bit = analysis
        .faults
        .iter()
        .filter(|f| f.mode == ObservedMode::SingleBit)
        .count() as f64;
    assert!(
        observed_bit >= truth_bit * 0.9 && observed_bit <= truth_bit * 1.6,
        "single-bit: observed {observed_bit} vs truth {truth_bit}"
    );

    // Every pathological DIMM must surface as rank-level faults.
    let truth_pin_dimms: std::collections::BTreeSet<u64> = ds
        .sim
        .ground_truth
        .iter()
        .filter(|g| g.fault.mode == FaultMode::RankPin)
        .map(|g| g.fault.dimm.dense_index())
        .collect();
    let observed_pin_dimms: std::collections::BTreeSet<u64> = analysis
        .faults
        .iter()
        .filter(|f| f.mode == ObservedMode::RankLevel)
        .map(|f| {
            astra_topology::DimmId {
                node: f.node,
                slot: f.slot,
            }
            .dense_index()
        })
        .collect();
    for dimm in &truth_pin_dimms {
        assert!(
            observed_pin_dimms.contains(dimm),
            "pathological DIMM {dimm} not recovered as rank-level"
        );
    }
}

#[test]
fn rank_level_faults_carry_most_errors() {
    // The interpretation documented in EXPERIMENTS.md: the gap between
    // "all errors" and the four per-bank modes is rank-level fault volume.
    let ds = dataset();
    let analysis = Analysis::run(ds.system, ds.sim.ce_log.clone());
    let fig4 = experiments::fig4::compute(&analysis, study_span());
    let rank_errors = fig4.mode_total(ObservedMode::RankLevel);
    let bit_errors = fig4.mode_total(ObservedMode::SingleBit);
    assert!(
        rank_errors > bit_errors,
        "rank {rank_errors} vs bit {bit_errors}"
    );
    // At 2 racks only ~1 pathological DIMM exists, so the share is noisy;
    // at full scale rank-level carries ~2/3 of all CEs (EXPERIMENTS.md).
    assert!(rank_errors * 3 > fig4.total_errors());
}

#[test]
fn every_experiment_driver_runs_on_one_dataset() {
    let ds = dataset();
    let analysis = Analysis::run(ds.system, ds.sim.ce_log.clone());
    let quick = astra_core::tempcorr::TempCorrConfig {
        max_ce_samples: 200,
        window_stride: 60,
        monthly_stride: 2 * astra_util::MINUTES_PER_DAY,
        bin_width: 1.0,
    };

    let t1 = experiments::table1::compute(&ds.system, &ds.replacements);
    assert!(t1.rows[0].replaced > 0);

    let f2 = experiments::fig2::compute(&ds.telemetry, sensor_span(), 16, 12 * 60);
    assert!(f2.excluded_fraction() < 0.01);

    let f3 = experiments::fig3::compute(&ds.replacements, astra_util::time::replacement_span());
    // At 2 racks the per-category daily counts are sparse; check the
    // infant-mortality burst on the combined series.
    let combined_first: u64 = f3.series.iter().map(|s| s[..30].iter().sum::<u64>()).sum();
    let combined_second: u64 = f3
        .series
        .iter()
        .map(|s| s[30..60].iter().sum::<u64>())
        .sum();
    assert!(combined_first > combined_second);

    let f4 = experiments::fig4::compute(&analysis, study_span());
    assert_eq!(f4.total_errors(), analysis.total_errors());

    let f5 = experiments::fig5::compute(&analysis);
    assert!(f5.zero_ce_fraction() > 0.4);

    let f6 = experiments::fig6::compute(&analysis);
    assert!(f6.faults_flatter_than_errors());

    let f7 = experiments::fig7::compute(&analysis);
    assert!(f7.rank0_dominates());

    let f8 = experiments::fig8::compute(&analysis);
    assert!(f8.faults_by_bit.total() > 0);

    let f9 = experiments::fig9::compute(&analysis, &ds.telemetry, sensor_span(), &quick);
    assert_eq!(f9.windows.len(), 4);

    let f10 = experiments::fig10_12::compute(&analysis);
    assert!(f10.fault_region_spread_is_smaller());

    let f13 = experiments::fig13_14::compute_fig13(&analysis, &ds.telemetry, sensor_span(), &quick);
    assert_eq!(f13.cpu.len() + f13.dimm.len(), 6);

    let f14 = experiments::fig13_14::compute_fig14(&analysis, &ds.telemetry, sensor_span(), &quick);
    assert_eq!(f14.panels.len(), 6);

    let window = astra_util::time::TimeSpan::dates(
        astra_util::time::het_firmware_date(),
        astra_util::CalDate::new(2019, 9, 14),
    );
    let f15 = experiments::fig15::compute(&ds.sim.het_log, window, ds.system.dimm_count());
    assert!(f15.all.total() >= f15.non_recoverable.total());

    // Every render is non-empty and does not panic.
    for rendered in [
        t1.render(),
        f2.render(),
        f3.render(),
        f4.render(),
        f5.render(),
        f6.render(),
        f7.render(),
        f8.render(),
        f9.render(),
        f10.render(),
        f13.render(),
        f14.render(),
        f15.render(),
    ] {
        assert!(!rendered.trim().is_empty());
    }
}

#[test]
fn different_seeds_produce_different_but_shapely_data() {
    let a = Dataset::generate(1, 1);
    let b = Dataset::generate(1, 2);
    assert_ne!(a.sim.ce_log.len(), b.sim.ce_log.len());
    for ds in [a, b] {
        let analysis = Analysis::run(ds.system, ds.sim.ce_log.clone());
        let attributed: u64 = analysis.faults.iter().map(|f| f.error_count).sum();
        assert_eq!(attributed, analysis.total_errors());
        let f5 = experiments::fig5::compute(&analysis);
        assert!(f5.zero_ce_fraction() > 0.3);
    }
}
