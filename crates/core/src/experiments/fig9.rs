//! Fig 9: CE counts vs mean errored-DIMM temperature over the preceding
//! window (one hour, one day, one week, one month).
//!
//! The verdict statistic is the OLS slope: "a positive slope suggests
//! higher temperatures prior to a correctable error lead to more frequent
//! errors". The paper finds no strong correlation; the simulator places
//! errors independently of temperature, so the reproduction recovers the
//! same null result.

use astra_telemetry::TelemetryModel;
use astra_util::time::{TimeSpan, MINUTES_PER_DAY};

use crate::pipeline::Analysis;
use crate::tempcorr::{window_correlations, TempCorrConfig, WindowCorrelation};

/// The four standard windows of Fig 9.
pub const WINDOWS: [(&str, u64); 4] = [
    ("one hour", 60),
    ("one day", MINUTES_PER_DAY),
    ("one week", 7 * MINUTES_PER_DAY),
    ("one month", 30 * MINUTES_PER_DAY),
];

/// The data behind Fig 9: one correlation per window.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// `(label, correlation)` for each window.
    pub windows: Vec<(String, WindowCorrelation)>,
}

/// Compute Fig 9 from an analysis and the telemetry source.
pub fn compute(
    analysis: &Analysis,
    telemetry: &TelemetryModel,
    span: TimeSpan,
    config: &TempCorrConfig,
) -> Fig9 {
    let _span = super::figure_span("fig9");
    let minutes: Vec<u64> = WINDOWS.iter().map(|&(_, minutes)| minutes).collect();
    let correlations = window_correlations(&analysis.records, telemetry, span, &minutes, config);
    let windows = WINDOWS
        .iter()
        .zip(correlations)
        .map(|(&(label, _), wc)| (label.to_string(), wc))
        .collect();
    Fig9 { windows }
}

impl Fig9 {
    /// The paper's conclusion as a predicate: no window shows a strong
    /// positive temperature effect (|relative slope| under
    /// `threshold` per °C).
    pub fn no_strong_correlation(&self, threshold: f64) -> bool {
        self.windows.iter().all(|(_, wc)| {
            wc.relative_slope_per_degree()
                .map(|r| r.abs() < threshold)
                .unwrap_or(true)
        })
    }

    /// Render one line per window.
    pub fn render(&self) -> String {
        let mut out =
            String::from("Fig 9: CE count vs mean errored-DIMM temperature before the error\n");
        for (label, wc) in &self.windows {
            let fit = match wc.fit {
                Some(f) => format!(
                    "slope {:+.2} CEs/degC (r2 {:.2}, rel {:+.3}/degC)",
                    f.slope,
                    f.r_squared,
                    wc.relative_slope_per_degree().unwrap_or(0.0)
                ),
                None => "fit degenerate".to_string(),
            };
            out.push_str(&format!(
                "  {label:<9} sampled {:>6} CEs over {:>2} bins: {fit}\n",
                wc.sampled,
                wc.points.len()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Dataset;
    use astra_util::time::sensor_span;

    fn fig() -> Fig9 {
        let ds = Dataset::generate(1, 42);
        let analysis = Analysis::run(ds.system, ds.sim.ce_log.clone());
        let config = TempCorrConfig {
            max_ce_samples: 300,
            window_stride: 30,
            monthly_stride: MINUTES_PER_DAY,
            bin_width: 1.0,
        };
        compute(&analysis, &ds.telemetry, sensor_span(), &config)
    }

    #[test]
    fn four_windows_computed() {
        let f = fig();
        assert_eq!(f.windows.len(), 4);
        assert!(f.windows.iter().all(|(_, wc)| wc.sampled > 0));
    }

    #[test]
    fn reproduces_null_result() {
        let f = fig();
        // Relative slope threshold: a strong effect in the Schroeder
        // et al. sense would be a clear monotone trend of a few percent
        // per degree sustained over the range. At this test's tiny scale
        // (one rack, 300 sampled CEs) the binned fit is noisy, so this is
        // a sanity bound; the meaningful assertion runs at 8 racks in
        // tests/experiments_reproduce_paper.rs.
        assert!(
            f.no_strong_correlation(1.0),
            "unexpected strong temperature correlation:\n{}",
            f.render()
        );
    }

    #[test]
    fn render_lists_all_windows() {
        let s = fig().render();
        for (label, _) in WINDOWS {
            assert!(s.contains(label), "missing {label}");
        }
    }
}
