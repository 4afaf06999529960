//! Executable paper-claim verdicts.
//!
//! Each entry pairs one quantitative claim from the paper with the
//! measurement extracted from a dataset and a pass predicate — the live
//! version of EXPERIMENTS.md. The `verdicts` binary prints the table;
//! the integration suite asserts that the expected claims pass at scale.

use astra_telemetry::TelemetryModel;
use astra_util::time::{het_firmware_date, sensor_span, study_span, TimeSpan};
use astra_util::CalDate;

use super::{fig10_12, fig13_14, fig15, fig4, fig5, fig6, fig7, fig9};
use crate::classify::ObservedMode;
use crate::pipeline::{Analysis, Dataset};
use crate::tempcorr::{MonthlyTable, TempCorrConfig};

/// One checked claim.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Which exhibit the claim comes from.
    pub exhibit: &'static str,
    /// The claim, as the paper states it.
    pub claim: &'static str,
    /// What the paper reports (textual, for the table).
    pub paper: String,
    /// What we measured.
    pub measured: String,
    /// Whether the claim holds on the regenerated data.
    pub pass: bool,
}

/// Scale-aware tolerance: absolute totals are only comparable at full
/// scale, so totals are checked as per-node rates.
fn per_node(total: u64, nodes: u32) -> f64 {
    total as f64 / f64::from(nodes)
}

/// Evaluate every claim on a dataset.
///
/// `tc` controls the sampling cost of the temperature analyses; pass
/// [`TempCorrConfig::default`] for report-quality numbers.
pub fn evaluate(ds: &Dataset, analysis: &Analysis, tc: &TempCorrConfig) -> Vec<Verdict> {
    let nodes = ds.system.node_count();
    let mut out = Vec::new();

    // ---- Fig 4 ----
    let f4 = fig4::compute(analysis, study_span());
    let rate = per_node(f4.total_errors(), nodes);
    out.push(Verdict {
        exhibit: "Fig 4a",
        claim: "over 4,369,731 total correctable errors",
        paper: "1,686 CEs/node over the interval".into(),
        measured: format!("{rate:.0} CEs/node"),
        pass: (800.0..3400.0).contains(&rate),
    });
    let v = f4.violin.as_ref();
    out.push(Verdict {
        exhibit: "Fig 4b",
        claim: "median errors per fault is one",
        paper: "median 1".into(),
        measured: format!("median {:?}", v.map(|v| v.median)),
        pass: v.map(|v| v.median) == Some(1.0),
    });
    out.push(Verdict {
        exhibit: "Fig 4b",
        claim: "maximum errors per fault just over 91,000",
        paper: "~91,000".into(),
        measured: format!("{:?}", v.map(|v| v.max)),
        pass: v
            .map(|v| v.max >= 20_000 && v.max <= 91_000)
            .unwrap_or(false),
    });
    let bit = f4.mode_total(ObservedMode::SingleBit);
    let word = f4.mode_total(ObservedMode::SingleWord);
    let col = f4.mode_total(ObservedMode::SingleColumn);
    let bank = f4.mode_total(ObservedMode::SingleBank);
    out.push(Verdict {
        exhibit: "Fig 4a",
        claim: "mode error ordering bit >> column > word > bank",
        paper: "1.41M / 54k / 31k / 7.7k".into(),
        measured: format!("{bit} / {col} / {word} / {bank}"),
        pass: bit > col && col > word && word > bank,
    });
    out.push(Verdict {
        exhibit: "Fig 4a",
        claim: "faults show a slightly downward trend over time",
        paper: "downward".into(),
        measured: format!("onsets {:?}", f4.fault_onsets),
        pass: f4.trends_downward(),
    });

    // ---- Fig 5 ----
    let f5 = fig5::compute(analysis);
    out.push(Verdict {
        exhibit: "Fig 5b",
        claim: "more than 60% of nodes experienced no CEs",
        paper: "> 60%".into(),
        measured: format!("{:.1}%", 100.0 * f5.zero_ce_fraction()),
        pass: f5.zero_ce_fraction() > 0.55,
    });
    let top8 = ((8.0 * f64::from(nodes) / 2592.0).round() as usize).max(1);
    out.push(Verdict {
        exhibit: "Fig 5b",
        claim: "the 8 nodes with most CEs carry more than 50%",
        paper: "> 50%".into(),
        measured: format!(
            "top {} nodes carry {:.1}%",
            top8,
            100.0 * f5.top_k_share(top8)
        ),
        pass: f5.top_k_share(top8) > 0.4,
    });
    out.push(Verdict {
        exhibit: "Fig 5b",
        claim: "top 2% of nodes account for ~90% of CEs",
        paper: "~90%".into(),
        measured: format!("{:.1}%", 100.0 * f5.top_percent_share(2.0)),
        pass: f5.top_percent_share(2.0) > 0.75,
    });
    out.push(Verdict {
        exhibit: "Fig 5a",
        claim: "faults per node resemble a power law",
        paper: "power law (Clauset et al.)".into(),
        measured: f5
            .fault_power_law
            .map(|f| format!("alpha {:.2}, ks {:.3}", f.alpha, f.ks))
            .unwrap_or_else(|| "no fit".into()),
        pass: f5
            .fault_power_law
            .map(|f| f.alpha > 1.1 && f.alpha < 3.5 && f.ks < 0.15)
            .unwrap_or(false),
    });

    // ---- Fig 6 ----
    let f6 = fig6::compute(analysis);
    out.push(Verdict {
        exhibit: "Fig 6",
        claim: "fault distributions uniform across banks (statistical noise)",
        paper: "uniform".into(),
        measured: f6
            .bank_fault_chi2
            .map(|c| format!("chi2 p = {:.3}", c.p_value))
            .unwrap_or_else(|| "n/a".into()),
        pass: f6
            .bank_fault_chi2
            .map(|c| c.is_uniform_at(0.01))
            .unwrap_or(false),
    });
    out.push(Verdict {
        exhibit: "Fig 6",
        claim: "error counts alone give an inaccurate (skewed) picture",
        paper: "skewed".into(),
        measured: format!(
            "error CV {:.2} vs fault CV {:.2} (bank axis)",
            fig6::Fig6::cv(&f6.errors_by_bank),
            fig6::Fig6::cv(&f6.faults_by_bank)
        ),
        pass: f6.faults_flatter_than_errors(),
    });

    // ---- Fig 7 ----
    let f7 = fig7::compute(analysis);
    out.push(Verdict {
        exhibit: "Fig 7b",
        claim: "rank 0 experiences more faults",
        paper: "rank 0 ahead".into(),
        measured: format!("{:?}", f7.faults_by_rank),
        pass: f7.rank0_dominates(),
    });
    out.push(Verdict {
        exhibit: "Fig 7d",
        claim: "slots J,E,I,P most faults; A,K,L,M,N fewest",
        paper: "J,E,I,P high".into(),
        measured: format!(
            "hot mean {:.0}, cold mean {:.0}",
            f7.mean_faults(&['J', 'E', 'I', 'P']),
            f7.mean_faults(&['A', 'K', 'L', 'M', 'N'])
        ),
        pass: f7.hot_slots_dominate(),
    });

    // ---- Fig 9 ----
    let f9 = fig9::compute(analysis, &ds.telemetry, sensor_span(), tc);
    out.push(Verdict {
        exhibit: "Fig 9",
        claim: "higher pre-error temperature not strongly correlated with CEs",
        paper: "no strong correlation".into(),
        measured: f9
            .windows
            .iter()
            .map(|(l, w)| {
                format!(
                    "{l}: {:+.3}/C",
                    w.relative_slope_per_degree().unwrap_or(0.0)
                )
            })
            .collect::<Vec<_>>()
            .join(", "),
        pass: f9.no_strong_correlation(0.35),
    });

    // ---- Figs 10-12 ----
    let f10 = fig10_12::compute(analysis);
    out.push(Verdict {
        exhibit: "Fig 10",
        claim: "region fault differences smaller than error differences",
        paper: "smaller".into(),
        measured: format!(
            "errors {:?}, faults {:?}",
            f10.errors_by_region, f10.faults_by_region
        ),
        pass: f10.fault_region_spread_is_smaller(),
    });
    out.push(Verdict {
        exhibit: "Fig 12",
        claim: "an error-spike rack exists (rack 31: >2x any other)",
        paper: ">= 2x".into(),
        measured: format!("{:.2}x", f10.error_spike_ratio()),
        pass: f10.error_spike_ratio() > 1.5,
    });
    out.push(Verdict {
        exhibit: "Fig 12b",
        claim: "the spike vanishes in fault counts",
        paper: "no fault spike".into(),
        measured: "spike rack within 2.5x of rack mean".into(),
        pass: f10.spike_rack_vanishes_in_faults(2.5),
    });

    // ---- Fig 13/14 ----
    // One monthly table feeds both figures.
    let monthly = MonthlyTable::sweep(
        &analysis.records,
        &ds.telemetry,
        &analysis.system,
        sensor_span(),
        tc,
    );
    let f13 = fig13_14::fig13_from(&monthly);
    out.push(Verdict {
        exhibit: "Fig 13",
        claim: "no discernible CE trend with temperature deciles",
        paper: "no trend".into(),
        measured: "mean |Spearman rho| across six sensors".into(),
        pass: f13.no_monotone_trend(0.55),
    });
    let cpu1_hotter = f13.cpu[0]
        .points
        .iter()
        .zip(&f13.cpu[1].points)
        .all(|(a, b)| a.0 > b.0);
    out.push(Verdict {
        exhibit: "Fig 13a",
        claim: "CPU1 temperatures above CPU2 (airflow order)",
        paper: "CPU1 hotter".into(),
        measured: format!("every decile hotter: {cpu1_hotter}"),
        pass: cpu1_hotter,
    });
    let f14 = fig13_14::fig14_from(&monthly);
    out.push(Verdict {
        exhibit: "Fig 14",
        claim: "power (utilization proxy) not strongly correlated with CEs",
        paper: "no strong relation".into(),
        measured: "12 hot/cold power-decile series".into(),
        pass: f14.no_strong_power_trend(0.6),
    });
    out.push(Verdict {
        exhibit: "Fig 14",
        claim: "hot samples sit at higher power than cold samples",
        paper: "shifted right".into(),
        measured: format!("{}", f14.hot_series_shifted_right()),
        pass: f14.hot_series_shifted_right(),
    });

    // ---- Fig 15 ----
    let window = TimeSpan::dates(het_firmware_date(), CalDate::new(2019, 9, 14));
    let f15 = fig15::compute(&ds.sim.het_log, window, ds.system.dimm_count());
    out.push(Verdict {
        exhibit: "Fig 15",
        claim: "0.00948 DUEs per DIMM-year (FIT ~ 1081)",
        paper: "FIT ~ 1081".into(),
        measured: format!(
            "{:.5} DUE/DIMM/yr, FIT {:.0}",
            f15.dues.dues_per_dimm_year, f15.dues.fit_per_dimm
        ),
        // Wide band: the Poisson mean is ~24 even at full scale.
        pass: f15.dues.dues == 0 || (0.003..0.03).contains(&f15.dues.dues_per_dimm_year),
    });

    out
}

/// Convenience: telemetry handle type used by [`evaluate`].
pub type Telemetry = TelemetryModel;

/// Render verdicts as an aligned table.
pub fn render(verdicts: &[Verdict]) -> String {
    let mut rows = vec![vec![
        "".to_string(),
        "Exhibit".to_string(),
        "Claim".to_string(),
        "Measured".to_string(),
    ]];
    for v in verdicts {
        rows.push(vec![
            if v.pass { "PASS".into() } else { "FAIL".into() },
            v.exhibit.to_string(),
            v.claim.to_string(),
            v.measured.clone(),
        ]);
    }
    super::render::table(&rows)
}

/// Count of passing verdicts.
pub fn passing(verdicts: &[Verdict]) -> usize {
    verdicts.iter().filter(|v| v.pass).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_util::MINUTES_PER_DAY;

    #[test]
    fn all_claims_pass_at_moderate_scale() {
        let ds = Dataset::generate(8, 42);
        let analysis = Analysis::run(ds.system, ds.sim.ce_log.clone());
        let tc = TempCorrConfig {
            max_ce_samples: 400,
            window_stride: 60,
            monthly_stride: 2 * MINUTES_PER_DAY,
            bin_width: 1.0,
        };
        let verdicts = evaluate(&ds, &analysis, &tc);
        let failing: Vec<&Verdict> = verdicts.iter().filter(|v| !v.pass).collect();
        assert!(
            failing.is_empty(),
            "failing claims:\n{}",
            render(&failing.into_iter().cloned().collect::<Vec<_>>())
        );
        assert!(verdicts.len() >= 18, "claims covered: {}", verdicts.len());
    }

    #[test]
    fn render_includes_every_row() {
        let ds = Dataset::generate(1, 7);
        let analysis = Analysis::run(ds.system, ds.sim.ce_log.clone());
        let tc = TempCorrConfig {
            max_ce_samples: 100,
            window_stride: 120,
            monthly_stride: 4 * MINUTES_PER_DAY,
            bin_width: 1.0,
        };
        let verdicts = evaluate(&ds, &analysis, &tc);
        let table = render(&verdicts);
        assert_eq!(table.lines().count(), verdicts.len() + 2);
        assert!(passing(&verdicts) <= verdicts.len());
    }
}
