//! Figs 13–14: the Schroeder-et-al.-style temperature and utilization
//! analyses.
//!
//! Fig 13 plots monthly-average sensor temperature deciles against the
//! monthly CE rate in each decile, per sensor. The paper's findings:
//! CPU1 runs hotter than CPU2; the first-to-ninth-decile spreads are
//! ≈ 7 °C (CPU) and ≈ 4 °C (DIMM); and there is *no* monotone trend of CE
//! rate with temperature.
//!
//! Fig 14 repeats the exercise with node DC power (the utilization proxy)
//! on the x-axis, splitting samples into hot/cold halves by the sensor's
//! median temperature — and again finds no strong relationship.

use astra_stats::spearman;
use astra_telemetry::TelemetryModel;
use astra_topology::{DimmGroup, SensorId, SocketId};
use astra_util::time::TimeSpan;

use crate::pipeline::Analysis;
use crate::tempcorr::{
    power_hot_cold, temperature_deciles, DecileSeries, MonthlyTable, TempCorrConfig,
};

/// The data behind Fig 13.
#[derive(Debug, Clone)]
pub struct Fig13 {
    /// CPU1 and CPU2 series.
    pub cpu: Vec<DecileSeries>,
    /// Four DIMM-group series.
    pub dimm: Vec<DecileSeries>,
}

/// The data behind Fig 14: six panels (two CPU sensors, four DIMM
/// groups), each a hot and a cold series.
#[derive(Debug, Clone)]
pub struct Fig14 {
    /// `(panel label, [hot, cold])` series.
    pub panels: Vec<(String, Vec<DecileSeries>)>,
}

/// Compute Fig 13: [`fig13_from`] over a fresh [`MonthlyTable`].
pub fn compute_fig13(
    analysis: &Analysis,
    telemetry: &TelemetryModel,
    span: TimeSpan,
    config: &TempCorrConfig,
) -> Fig13 {
    fig13_from(&MonthlyTable::sweep(
        &analysis.records,
        telemetry,
        &analysis.system,
        span,
        config,
    ))
}

/// Compute Fig 14: [`fig14_from`] over a fresh [`MonthlyTable`].
pub fn compute_fig14(
    analysis: &Analysis,
    telemetry: &TelemetryModel,
    span: TimeSpan,
    config: &TempCorrConfig,
) -> Fig14 {
    fig14_from(&MonthlyTable::sweep(
        &analysis.records,
        telemetry,
        &analysis.system,
        span,
        config,
    ))
}

/// Fig 13 from the monthly table (which Fig 14 can share).
pub fn fig13_from(table: &MonthlyTable) -> Fig13 {
    let _span = super::figure_span("fig13");
    let (cpu, dimm) = temperature_deciles(table);
    Fig13 { cpu, dimm }
}

/// Fig 14 from the monthly table (which Fig 13 can share).
pub fn fig14_from(table: &MonthlyTable) -> Fig14 {
    let _span = super::figure_span("fig14");
    let panel = |sensor| power_hot_cold(table, sensor);
    let mut panels = Vec::new();
    for socket in SocketId::ALL {
        panels.push((socket.cpu_label().to_string(), panel(SensorId::cpu(socket))));
    }
    for group in DimmGroup::ALL {
        panels.push((group.panel_label(), panel(SensorId::dimm_group(group))));
    }
    Fig14 { panels }
}

/// Decile x-spread: difference between the ninth and first decile maxima.
pub fn decile_spread(series: &DecileSeries) -> Option<f64> {
    if series.points.len() < 9 {
        return None;
    }
    Some(series.points[8].0 - series.points[0].0)
}

/// Spearman rank correlation between decile temperature and CE rate —
/// the "is there a monotone trend" statistic.
pub fn trend(series: &DecileSeries) -> Option<f64> {
    let xs: Vec<f64> = series.points.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = series.points.iter().map(|p| p.1).collect();
    spearman(&xs, &ys)
}

impl Fig13 {
    /// The paper's negative result: no sensor shows a strong monotone
    /// temperature→CE trend (|Spearman ρ| < `threshold` across sensors,
    /// allowing individual noisy series).
    pub fn no_monotone_trend(&self, threshold: f64) -> bool {
        let rhos: Vec<f64> = self
            .cpu
            .iter()
            .chain(&self.dimm)
            .filter_map(trend)
            .collect();
        if rhos.is_empty() {
            return true;
        }
        let mean_abs = rhos.iter().map(|r| r.abs()).sum::<f64>() / rhos.len() as f64;
        mean_abs < threshold
    }

    /// Render the decile tables.
    pub fn render(&self) -> String {
        let mut out = String::from("Fig 13: temperature deciles vs monthly CE rate\n");
        for series in self.cpu.iter().chain(&self.dimm) {
            out.push_str(&format!("  {}:", series.label));
            for (x, y) in &series.points {
                out.push_str(&format!(" ({x:.1}C,{y:.2})"));
            }
            if let Some(spread) = decile_spread(series) {
                out.push_str(&format!("  [d9-d1 spread {spread:.1}C]"));
            }
            if let Some(rho) = trend(series) {
                out.push_str(&format!("  [rho {rho:+.2}]"));
            }
            out.push('\n');
        }
        out
    }
}

impl Fig14 {
    /// The paper's negative result for utilization: across the panels,
    /// power deciles show no strong monotone CE trend.
    pub fn no_strong_power_trend(&self, threshold: f64) -> bool {
        let rhos: Vec<f64> = self
            .panels
            .iter()
            .flat_map(|(_, series)| series.iter().filter_map(trend))
            .collect();
        if rhos.is_empty() {
            return true;
        }
        let mean_abs = rhos.iter().map(|r| r.abs()).sum::<f64>() / rhos.len() as f64;
        mean_abs < threshold
    }

    /// The positive control the paper *does* see: hot samples sit at
    /// higher power than cold samples (power and temperature share the
    /// utilization driver).
    pub fn hot_series_shifted_right(&self) -> bool {
        let mut right = 0;
        let mut total = 0;
        for (_, series) in &self.panels {
            if series.len() == 2 && !series[0].points.is_empty() && !series[1].points.is_empty() {
                let mean_x = |s: &DecileSeries| {
                    s.points.iter().map(|p| p.0).sum::<f64>() / s.points.len() as f64
                };
                total += 1;
                if mean_x(&series[0]) > mean_x(&series[1]) {
                    right += 1;
                }
            }
        }
        total > 0 && right * 2 > total
    }

    /// Render all panels.
    pub fn render(&self) -> String {
        let mut out =
            String::from("Fig 14: node power deciles vs monthly CE rate (hot/cold split)\n");
        for (label, series) in &self.panels {
            out.push_str(&format!("  panel {label}\n"));
            for s in series {
                out.push_str(&format!("    {}:", s.label));
                for (x, y) in &s.points {
                    out.push_str(&format!(" ({x:.0}W,{y:.2})"));
                }
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Dataset;
    use astra_util::time::{sensor_span, MINUTES_PER_DAY};

    fn setup() -> (Analysis, TelemetryModel) {
        let ds = Dataset::generate(1, 42);
        let analysis = Analysis::run(ds.system, ds.sim.ce_log.clone());
        (analysis, ds.telemetry)
    }

    fn quick() -> TempCorrConfig {
        TempCorrConfig {
            max_ce_samples: 200,
            window_stride: 60,
            monthly_stride: 2 * MINUTES_PER_DAY,
            bin_width: 1.0,
        }
    }

    #[test]
    fn fig13_series_shapes() {
        let (analysis, telemetry) = setup();
        let f = compute_fig13(&analysis, &telemetry, sensor_span(), &quick());
        assert_eq!(f.cpu.len(), 2);
        assert_eq!(f.dimm.len(), 4);
        for s in f.cpu.iter().chain(&f.dimm) {
            assert_eq!(s.points.len(), 10, "{} deciles", s.label);
        }
    }

    #[test]
    fn fig13_decile_spreads_match_paper() {
        let (analysis, telemetry) = setup();
        let f = compute_fig13(&analysis, &telemetry, sensor_span(), &quick());
        // Paper: ~7C for CPUs, ~4C for DIMMs (we allow generous bands).
        for s in &f.cpu {
            let spread = decile_spread(s).unwrap();
            assert!((3.0..12.0).contains(&spread), "{} spread {spread}", s.label);
        }
        for s in &f.dimm {
            let spread = decile_spread(s).unwrap();
            assert!((1.5..8.0).contains(&spread), "{} spread {spread}", s.label);
        }
    }

    #[test]
    fn fig13_cpu1_hotter_and_no_trend() {
        let (analysis, telemetry) = setup();
        let f = compute_fig13(&analysis, &telemetry, sensor_span(), &quick());
        let max_x = |s: &DecileSeries| s.points.last().unwrap().0;
        assert!(max_x(&f.cpu[0]) > max_x(&f.cpu[1]), "CPU1 hotter");
        assert!(f.no_monotone_trend(0.55), "unexpected temperature trend");
    }

    #[test]
    fn fig14_panels_and_controls() {
        let (analysis, telemetry) = setup();
        let f = compute_fig14(&analysis, &telemetry, sensor_span(), &quick());
        assert_eq!(f.panels.len(), 6);
        assert!(
            f.hot_series_shifted_right(),
            "hot half should use more power"
        );
        assert!(f.no_strong_power_trend(0.6), "unexpected power trend");
    }

    #[test]
    fn renders() {
        let (analysis, telemetry) = setup();
        let f13 = compute_fig13(&analysis, &telemetry, sensor_span(), &quick());
        let f14 = compute_fig14(&analysis, &telemetry, sensor_span(), &quick());
        assert!(f13.render().contains("CPU1"));
        assert!(f14.render().contains("hot"));
    }
}
