//! Fig 2: distributions of sensor values (CPU temperature, DIMM
//! temperature, node DC power) over the sensor-data interval.

use astra_logs::SensorRecord;
use astra_stats::Histogram;
use astra_telemetry::TelemetryModel;
use astra_topology::{DimmGroup, NodeId, SensorKind};
use astra_util::time::TimeSpan;

use super::render::spark;

/// The three panels of Fig 2.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// CPU temperature histograms: `[CPU1, CPU2]`.
    pub cpu: [Histogram; 2],
    /// DIMM temperature histograms, one per sensor group.
    pub dimm: [Histogram; 4],
    /// DC power histogram.
    pub power: Histogram,
    /// Samples excluded as unreadable/invalid.
    pub excluded: u64,
    /// Total samples drawn.
    pub total: u64,
}

/// Sample the telemetry model over `span` with the given strides.
///
/// `node_stride` subsamples nodes; `minute_stride` subsamples time. At
/// full scale use generous strides — the distributions converge quickly.
pub fn compute(
    telemetry: &TelemetryModel,
    span: TimeSpan,
    node_stride: u32,
    minute_stride: u64,
) -> Fig2 {
    let _span = super::figure_span("fig2");
    assert!(node_stride > 0 && minute_stride > 0);
    let mut fig = Fig2::empty();
    for node in (0..telemetry.system().node_count()).step_by(node_stride as usize) {
        let mut sampler = telemetry.sampler(NodeId(node));
        let mut t = span.start;
        while t < span.end {
            for rec in &sampler.readings(t) {
                fig.add(rec);
            }
            t = t.plus(minute_stride as i64);
        }
    }
    fig
}

/// Build Fig 2 from parsed sensor records (a `sensors.log` excerpt)
/// instead of querying the telemetry model — the path a site with real
/// BMC logs would take.
pub fn compute_from_records(records: &[SensorRecord]) -> Fig2 {
    let _span = super::figure_span("fig2");
    let mut fig = Fig2::empty();
    for rec in records {
        fig.add(rec);
    }
    fig
}

impl Fig2 {
    fn empty() -> Fig2 {
        Fig2 {
            cpu: [
                Histogram::new(40.0, 90.0, 50),
                Histogram::new(40.0, 90.0, 50),
            ],
            dimm: [
                Histogram::new(25.0, 60.0, 70),
                Histogram::new(25.0, 60.0, 70),
                Histogram::new(25.0, 60.0, 70),
                Histogram::new(25.0, 60.0, 70),
            ],
            power: Histogram::new(100.0, 500.0, 80),
            excluded: 0,
            total: 0,
        }
    }

    /// Count one reading into its sensor's panel, or as excluded.
    fn add(&mut self, rec: &SensorRecord) {
        self.total += 1;
        let Some(v) = rec.valid_value() else {
            self.excluded += 1;
            return;
        };
        match rec.sensor.kind() {
            SensorKind::CpuTemp(socket) => self.cpu[usize::from(socket.0)].push(v),
            SensorKind::DimmTemp(group) => self.dimm[group.index()].push(v),
            SensorKind::DcPower => self.power.push(v),
        }
    }

    /// Fraction of samples excluded (the paper: "significantly less than
    /// 1%").
    pub fn excluded_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.excluded as f64 / self.total as f64
        }
    }

    /// Render the three panels as sparklines plus summary stats.
    pub fn render(&self) -> String {
        let mut out = String::from("Fig 2: sensor value distributions (May 20 - Sep 19, 2019)\n");
        let summarize = |h: &Histogram| -> String {
            let counts: Vec<f64> = h.counts().iter().map(|&c| c as f64).collect();
            spark(&counts)
        };
        out.push_str(&format!(
            "(a) CPU temperature [40-90 C]\n    CPU1 {}\n    CPU2 {}\n",
            summarize(&self.cpu[0]),
            summarize(&self.cpu[1]),
        ));
        out.push_str("(b) DIMM temperature [25-60 C]\n");
        for (g, h) in self.dimm.iter().enumerate() {
            let group = DimmGroup::from_index(g as u8).expect("4 groups");
            out.push_str(&format!("    {} {}\n", group.label(), summarize(h)));
        }
        out.push_str(&format!(
            "(c) DC power [100-500 W]\n    {}\n",
            summarize(&self.power)
        ));
        out.push_str(&format!(
            "excluded samples: {:.3}% of {}\n",
            100.0 * self.excluded_fraction(),
            self.total
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_telemetry::ThermalProfile;
    use astra_topology::SystemConfig;
    use astra_util::CalDate;

    fn compute_small() -> Fig2 {
        let telemetry = TelemetryModel::new(SystemConfig::scaled(1), ThermalProfile::astra(), 42);
        let span = TimeSpan::dates(CalDate::new(2019, 6, 1), CalDate::new(2019, 6, 8));
        compute(&telemetry, span, 4, 180)
    }

    #[test]
    fn distributions_are_populated_and_plausible() {
        let fig = compute_small();
        assert!(fig.total > 1000);
        for h in &fig.cpu {
            assert!(h.total() > 0);
            // Mass must be inside the plotting range, not clipped.
            assert!(h.overflow() + h.underflow() < h.total() / 100);
        }
        for h in &fig.dimm {
            assert!(h.total() > 0);
        }
        assert!(fig.power.total() > 0);
    }

    #[test]
    fn exclusion_below_one_percent() {
        let fig = compute_small();
        assert!(fig.excluded_fraction() < 0.01);
    }

    #[test]
    fn cpu1_distribution_sits_hotter() {
        let fig = compute_small();
        let mean = |h: &Histogram| -> f64 {
            let total: u64 = h.total();
            h.counts()
                .iter()
                .enumerate()
                .map(|(i, &c)| h.bin_center(i) * c as f64)
                .sum::<f64>()
                / total as f64
        };
        assert!(mean(&fig.cpu[0]) > mean(&fig.cpu[1]) + 2.0);
    }

    #[test]
    fn render_mentions_all_panels() {
        let s = compute_small().render();
        assert!(s.contains("CPU1"));
        assert!(s.contains("DIMMs A,C,E,G"));
        assert!(s.contains("DC power"));
    }

    #[test]
    fn records_path_matches_model_path() {
        // The record-based Fig 2 over a materialized excerpt must agree
        // with the model-based computation over the same samples.
        let telemetry = TelemetryModel::new(SystemConfig::scaled(1), ThermalProfile::astra(), 42);
        let span = TimeSpan::dates(CalDate::new(2019, 6, 1), CalDate::new(2019, 6, 3));
        let nodes: Vec<astra_topology::NodeId> =
            (0..72).step_by(4).map(astra_topology::NodeId).collect();
        let records = telemetry.records(nodes.clone(), span, 180);
        let from_records = compute_from_records(&records);
        assert_eq!(from_records.total, records.len() as u64);
        assert!(from_records.cpu[0].total() > 0);
        assert!(from_records.power.total() > 0);
        // Totals match the model-driven sampler over the same grid.
        let from_model = compute(&telemetry, span, 4, 180);
        assert_eq!(from_model.total, from_records.total);
        assert_eq!(from_model.excluded, from_records.excluded);
    }
}
