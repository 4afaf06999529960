//! Temperature / utilization ↔ correctable-error analyses (§3.3).
//!
//! Three analyses, mirroring the paper's methodology exactly:
//!
//! * [`window_correlations`] (Fig 9) — for each CE, the mean temperature
//!   of the errored DIMM's sensor over the interval immediately preceding
//!   the error (one hour to one month), binned by temperature, with an OLS
//!   fit whose slope sign is the verdict;
//! * [`temperature_deciles`] (Fig 13, after Schroeder et al.) — monthly
//!   average sensor temperature per (node, month) sample, cut into
//!   deciles, vs the average monthly CE count within each decile;
//! * [`power_hot_cold`] (Fig 14) — monthly average node DC power (the
//!   utilization proxy; Astra has no direct CPU-utilization telemetry) cut
//!   into deciles, split into "hot" and "cold" halves by the sensor's
//!   median temperature — Schroeder et al.'s method for separating the
//!   temperature effect from the utilization effect.
//!
//! Figs 13 and 14 both read one [`MonthlyTable`]: every sensor's monthly
//! means, from a single sweep of the telemetry model that draws the
//! seven sensors of a node's sample minute together.
//!
//! All three operate on the *sensor assigned to the errored component*:
//! CE records carry the DIMM slot, and §2.2 defines which of the four
//! DIMM sensors covers each slot.

use astra_logs::CeRecord;
use astra_stats::{deciles, linear_fit, median, LinearFit};
use astra_telemetry::TelemetryModel;
use astra_topology::{DimmGroup, NodeId, SensorId, SocketId, SystemConfig};
use astra_util::time::TimeSpan;
use astra_util::Minute;

/// Sampling knobs — the full dataset is large, so the analyses subsample
/// deterministically (every k-th CE / configurable telemetry strides).
#[derive(Debug, Clone, Copy)]
pub struct TempCorrConfig {
    /// Maximum CEs to evaluate per window in [`window_correlations`].
    pub max_ce_samples: usize,
    /// Telemetry sampling stride (minutes) inside a pre-error window.
    pub window_stride: u64,
    /// Telemetry sampling stride (minutes) for monthly means.
    pub monthly_stride: u64,
    /// Temperature bin width (°C) for the Fig 9 scatter.
    pub bin_width: f64,
}

impl Default for TempCorrConfig {
    fn default() -> Self {
        TempCorrConfig {
            max_ce_samples: 20_000,
            window_stride: 30,
            monthly_stride: 12 * 60,
            bin_width: 1.0,
        }
    }
}

/// Result of the Fig 9 analysis for one window length.
#[derive(Debug, Clone)]
pub struct WindowCorrelation {
    /// Window length in minutes.
    pub window_minutes: u64,
    /// `(bin center °C, CE count)` points, ascending by temperature.
    pub points: Vec<(f64, f64)>,
    /// OLS fit over the points (`None` if degenerate).
    pub fit: Option<LinearFit>,
    /// CEs actually evaluated.
    pub sampled: usize,
    /// Scale factor from sampling (total CEs ÷ sampled); multiply counts
    /// by this to estimate full-population bin counts.
    pub sample_scale: f64,
}

impl WindowCorrelation {
    /// Slope relative to the mean bin height — the dimensionless "is
    /// temperature driving errors" number. Near zero ⇒ the paper's
    /// negative result.
    pub fn relative_slope_per_degree(&self) -> Option<f64> {
        let fit = self.fit?;
        let mean_y: f64 =
            self.points.iter().map(|(_, y)| *y).sum::<f64>() / self.points.len() as f64;
        (mean_y > 0.0).then(|| fit.slope / mean_y)
    }
}

/// Fig 9: CE count vs mean errored-DIMM temperature over the window
/// before each sampled CE, one [`WindowCorrelation`] per entry of
/// `windows` (minutes).
///
/// Each window samples its CEs on its own, but the telemetry join is
/// shared: the queries of every window are grouped by (node, DIMM sensor)
/// and each group goes to [`TelemetryModel::window_means`] once, so a
/// sample that several windows cover is drawn once. Every mean is the
/// same as a lone [`TelemetryModel::window_mean`] gives, bit for bit.
pub fn window_correlations(
    records: &[CeRecord],
    telemetry: &TelemetryModel,
    span: TimeSpan,
    windows: &[u64],
    config: &TempCorrConfig,
) -> Vec<WindowCorrelation> {
    // Only errors inside the sensor-data interval can be attributed.
    let picked: Vec<(Vec<&CeRecord>, usize)> = windows
        .iter()
        .map(|&window_minutes| {
            let eligible = || {
                records.iter().filter(move |r| {
                    span.contains(r.time) && r.time.value() - (window_minutes as i64) >= 0
                })
            };
            let eligible_count = eligible().count();
            let step = (eligible_count / config.max_ce_samples).max(1);
            (eligible().step_by(step).collect(), eligible_count)
        })
        .collect();

    // One query per (window, sampled CE), grouped by the errored DIMM's
    // sensor.
    let mut queries: Vec<(NodeId, SensorId, usize, usize)> = Vec::new();
    for (w, (sampled, _)) in picked.iter().enumerate() {
        for (i, rec) in sampled.iter().enumerate() {
            queries.push((rec.node, SensorId::for_slot(rec.slot), w, i));
        }
    }
    queries.sort_unstable();
    let mut means: Vec<Vec<Option<f64>>> = picked
        .iter()
        .map(|(sampled, _)| vec![None; sampled.len()])
        .collect();
    for group in queries.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        let (node, sensor, ..) = group[0];
        let windowed: Vec<(Minute, u64, u64)> = group
            .iter()
            .map(|&(_, _, w, i)| {
                let window_minutes = windows[w];
                let stride = config.window_stride.min(window_minutes.max(1));
                (picked[w].0[i].time, window_minutes, stride)
            })
            .collect();
        let group_means = telemetry.window_means(node, sensor, &windowed);
        for (&(_, _, w, i), mean) in group.iter().zip(group_means) {
            means[w][i] = mean;
        }
    }

    windows
        .iter()
        .zip(picked)
        .zip(means)
        .map(|((&window_minutes, (sampled, eligible)), means)| {
            let temps: Vec<f64> = means.into_iter().flatten().collect();
            bin_by_temperature(window_minutes, &temps, sampled.len(), eligible, config)
        })
        .collect()
}

/// Bin one window's mean temperatures and fit CE count against them.
fn bin_by_temperature(
    window_minutes: u64,
    temps: &[f64],
    sampled: usize,
    eligible: usize,
    config: &TempCorrConfig,
) -> WindowCorrelation {
    let mut points: Vec<(f64, f64)> = Vec::new();
    if !temps.is_empty() {
        let lo = temps.iter().cloned().fold(f64::MAX, f64::min);
        let hi = temps.iter().cloned().fold(f64::MIN, f64::max) + 1e-9;
        let bins = (((hi - lo) / config.bin_width).ceil() as usize).max(1);
        let mut counts = vec![0u64; bins];
        for &t in temps {
            let idx = (((t - lo) / config.bin_width) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 {
                points.push((lo + config.bin_width * (i as f64 + 0.5), c as f64));
            }
        }
    }
    let xs: Vec<f64> = points.iter().map(|(x, _)| *x).collect();
    let ys: Vec<f64> = points.iter().map(|(_, y)| *y).collect();
    let fit = linear_fit(&xs, &ys);
    let sample_scale = if sampled == 0 {
        1.0
    } else {
        eligible as f64 / sampled as f64
    };
    WindowCorrelation {
        window_minutes,
        points,
        fit,
        sampled,
        sample_scale,
    }
}

/// A `(node, month)` observation: the unit of the Fig 13/14 analyses.
#[derive(Debug, Clone, Copy)]
pub struct MonthlySample {
    /// The node.
    pub node: NodeId,
    /// Month index (Jan 2019 = 0).
    pub month: i64,
    /// Monthly mean of the sensor's temperature (or power).
    pub mean_value: f64,
    /// CEs attributed to the sensor's components in that month.
    pub ce_count: u64,
}

/// One decile point: max sample value in the decile vs mean monthly CE
/// count over the decile.
pub type DecilePoint = (f64, f64);

/// A labeled decile series (one line in Fig 13 / Fig 14).
#[derive(Debug, Clone)]
pub struct DecileSeries {
    /// Legend label, e.g. `CPU1` or `CPU2 DIMMs 1-4 (hot)`.
    pub label: String,
    /// Ten (or fewer) decile points.
    pub points: Vec<DecilePoint>,
}

/// Which months (indices from Jan 2019) intersect a span.
fn months_in(span: TimeSpan) -> Vec<i64> {
    let first = span.start.month_index();
    let last = span.end.plus(-1).month_index();
    (first..=last).collect()
}

/// Every sensor's `(node, month)` samples over a span: the seven sensors'
/// monthly means and the CEs on each sensor's components, from one sweep
/// of the telemetry model. Figs 13 and 14 both read it.
#[derive(Debug)]
pub struct MonthlyTable {
    /// One per `(node, month)` of the span, node-major, months ascending.
    cells: Vec<MonthlyCell>,
}

#[derive(Debug)]
struct MonthlyCell {
    node: NodeId,
    month: i64,
    /// Mean of each sensor's valid readings in the month (clipped to the
    /// span); `None` when it had none.
    means: [Option<f64>; SensorId::COUNT],
    /// CEs in the month on each sensor's components.
    ces: [u64; SensorId::COUNT],
}

impl MonthlyTable {
    /// Sweep every node's sample minutes month by month, drawing all seven
    /// sensors of a minute at once, and tally the CEs in the span in one
    /// pass. Each sensor's valid readings are added in ascending minute
    /// order, so each mean is the one a per-sensor sweep would compute, bit
    /// for bit. A CE on a node past the machine has no cell and is not
    /// counted.
    ///
    /// Adds the readings drawn to `telemetry.monthly_readings`.
    pub fn sweep(
        records: &[CeRecord],
        telemetry: &TelemetryModel,
        system: &SystemConfig,
        span: TimeSpan,
        config: &TempCorrConfig,
    ) -> MonthlyTable {
        let _span = astra_obs::span("tempcorr.monthly_sweep");
        let months = months_in(span);
        let mut cells: Vec<MonthlyCell> = system
            .nodes()
            .flat_map(|node| {
                months.iter().map(move |&month| MonthlyCell {
                    node,
                    month,
                    means: [None; SensorId::COUNT],
                    ces: [0; SensorId::COUNT],
                })
            })
            .collect();

        for rec in records {
            if !span.contains(rec.time) || rec.node.0 >= system.node_count() {
                continue;
            }
            let month = (rec.time.month_index() - months[0]) as usize;
            let cell = &mut cells[rec.node.0 as usize * months.len() + month];
            if SocketId::ALL.contains(&rec.socket) {
                cell.ces[SensorId::cpu(rec.socket).index()] += 1;
            }
            cell.ces[SensorId::for_slot(rec.slot).index()] += 1;
            cell.ces[SensorId::dc_power().index()] += 1;
        }

        let mut drawn = 0u64;
        for (node, node_cells) in system.nodes().zip(cells.chunks_mut(months.len().max(1))) {
            let mut sampler = telemetry.sampler(node);
            for cell in node_cells {
                // Month window clipped to the span.
                let m_start = month_start(cell.month).max(span.start.value());
                let m_end = month_start(cell.month + 1).min(span.end.value());
                let mut sum = [0.0; SensorId::COUNT];
                let mut n = [0u64; SensorId::COUNT];
                let mut t = m_start;
                while t < m_end {
                    for (s, reading) in sampler.readings(Minute::from_i64(t)).iter().enumerate() {
                        if let Some(v) = reading.valid_value() {
                            sum[s] += v;
                            n[s] += 1;
                        }
                    }
                    drawn += SensorId::COUNT as u64;
                    t += config.monthly_stride as i64;
                }
                cell.means = std::array::from_fn(|s| (n[s] > 0).then(|| sum[s] / n[s] as f64));
            }
        }
        astra_obs::global()
            .counter("telemetry.monthly_readings")
            .add(drawn);
        MonthlyTable { cells }
    }

    /// One sensor's samples: each `(node, month)` with a valid reading,
    /// node-major, months ascending.
    pub fn samples(&self, sensor: SensorId) -> Vec<MonthlySample> {
        let s = sensor.index();
        self.cells
            .iter()
            .filter_map(|cell| {
                cell.means[s].map(|mean_value| MonthlySample {
                    node: cell.node,
                    month: cell.month,
                    mean_value,
                    ce_count: cell.ces[s],
                })
            })
            .collect()
    }
}

/// First minute of a month index (Jan 2019 = 0).
fn month_start(month: i64) -> i64 {
    let year = 2019 + month.div_euclid(12);
    let m = month.rem_euclid(12) as u32 + 1;
    astra_util::CalDate::new(year, m, 1).midnight().value()
}

/// Reduce samples to a decile series: x = decile max of `mean_value`,
/// y = mean `ce_count` in the decile.
pub fn decile_series(label: &str, samples: &[MonthlySample]) -> DecileSeries {
    let values: Vec<f64> = samples.iter().map(|s| s.mean_value).collect();
    let points = deciles(&values)
        .into_iter()
        .map(|bucket| {
            let mean_ce = bucket
                .members
                .iter()
                .map(|&i| samples[i].ce_count as f64)
                .sum::<f64>()
                / bucket.members.len() as f64;
            (bucket.max_value, mean_ce)
        })
        .collect();
    DecileSeries {
        label: label.to_string(),
        points,
    }
}

/// Fig 13: decile series for the temperature sensors.
///
/// Returns `(cpu_series, dimm_series)`: two CPU lines and four DIMM-group
/// lines.
pub fn temperature_deciles(table: &MonthlyTable) -> (Vec<DecileSeries>, Vec<DecileSeries>) {
    let mut cpu = Vec::new();
    for socket in SocketId::ALL {
        let samples = table.samples(SensorId::cpu(socket));
        cpu.push(decile_series(socket.cpu_label(), &samples));
    }
    let mut dimm = Vec::new();
    for group in DimmGroup::ALL {
        let samples = table.samples(SensorId::dimm_group(group));
        dimm.push(decile_series(&group.panel_label(), &samples));
    }
    (cpu, dimm)
}

/// Fig 14: for one temperature sensor, split `(node, month)` samples into
/// hot/cold halves by the sensor's median monthly temperature, then decile
/// each half by monthly mean node power.
pub fn power_hot_cold(table: &MonthlyTable, temp_sensor: SensorId) -> Vec<DecileSeries> {
    let temp = temp_sensor.index();
    let power = SensorId::dc_power().index();
    let rows: Vec<(&MonthlyCell, f64)> = table
        .cells
        .iter()
        .filter_map(|cell| Some((cell, cell.means[temp]?)))
        .collect();
    let temps: Vec<f64> = rows.iter().map(|&(_, t)| t).collect();
    let Some(med) = median(&temps) else {
        return Vec::new();
    };

    let label = |hot: bool| {
        let sensor_name = match temp_sensor.kind() {
            astra_topology::SensorKind::CpuTemp(s) => s.cpu_label().to_string(),
            astra_topology::SensorKind::DimmTemp(g) => g.panel_label(),
            astra_topology::SensorKind::DcPower => "power".to_string(),
        };
        format!("{sensor_name} ({})", if hot { "hot" } else { "cold" })
    };

    let mut series = Vec::new();
    for hot in [true, false] {
        let half: Vec<MonthlySample> = rows
            .iter()
            .filter(|&&(_, t)| (t > med) == hot)
            .filter_map(|&(cell, _)| {
                cell.means[power].map(|p| MonthlySample {
                    node: cell.node,
                    month: cell.month,
                    mean_value: p,
                    ce_count: cell.ces[temp],
                })
            })
            .collect();
        series.push(decile_series(&label(hot), &half));
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_logs::CeRecord;
    use astra_telemetry::ThermalProfile;
    use astra_topology::{DimmSlot, PhysAddr, RankId};
    use astra_util::time::MINUTES_PER_DAY;
    use astra_util::CalDate;

    fn system() -> SystemConfig {
        SystemConfig::scaled(1)
    }

    fn telemetry() -> TelemetryModel {
        TelemetryModel::new(system(), ThermalProfile::astra(), 42)
    }

    fn span() -> TimeSpan {
        TimeSpan::dates(CalDate::new(2019, 6, 1), CalDate::new(2019, 8, 1))
    }

    fn ce(node: u32, slot: char, day: u32, month: u32) -> CeRecord {
        let slot = DimmSlot::from_letter(slot).unwrap();
        CeRecord {
            time: CalDate::new(2019, month, day).midnight().plus(600),
            node: NodeId(node),
            socket: slot.socket(),
            slot,
            rank: RankId(0),
            bank: 0,
            row: None,
            col: 0,
            bit_pos: 0,
            addr: PhysAddr(0),
            syndrome: 0,
        }
    }

    fn quick_config() -> TempCorrConfig {
        TempCorrConfig {
            max_ce_samples: 500,
            window_stride: 30,
            monthly_stride: MINUTES_PER_DAY, // daily sampling in tests
            bin_width: 1.0,
        }
    }

    #[test]
    fn months_enumeration() {
        let s = TimeSpan::dates(CalDate::new(2019, 5, 20), CalDate::new(2019, 9, 19));
        assert_eq!(months_in(s), vec![4, 5, 6, 7, 8]);
    }

    #[test]
    fn month_start_boundaries() {
        assert_eq!(month_start(0), 0);
        assert_eq!(month_start(6), CalDate::new(2019, 7, 1).midnight().value());
        assert_eq!(month_start(12), CalDate::new(2020, 1, 1).midnight().value());
    }

    #[test]
    fn window_correlation_runs_and_is_flat() {
        // Errors placed independent of temperature: relative slope small.
        let records: Vec<CeRecord> = (0..300)
            .map(|i| {
                ce(
                    (i % 60) as u32,
                    ['A', 'E', 'J', 'O'][i % 4],
                    1 + (i % 25) as u32,
                    7,
                )
            })
            .collect();
        let wc = &window_correlations(&records, &telemetry(), span(), &[60], &quick_config())[0];
        assert!(wc.sampled > 0);
        assert!(!wc.points.is_empty());
        if let Some(rel) = wc.relative_slope_per_degree() {
            assert!(rel.abs() < 0.6, "relative slope {rel} should be weak");
        }
    }

    #[test]
    fn window_correlation_empty_records() {
        let wc = &window_correlations(&[], &telemetry(), span(), &[60], &quick_config())[0];
        assert_eq!(wc.sampled, 0);
        assert!(wc.points.is_empty());
        assert!(wc.fit.is_none());
    }

    /// Fig 9 the way it was computed before the join was shared: every
    /// sampled CE draws its own window through `window_mean`.
    fn window_correlation_reference(
        records: &[CeRecord],
        telemetry: &TelemetryModel,
        span: TimeSpan,
        window_minutes: u64,
        config: &TempCorrConfig,
    ) -> WindowCorrelation {
        let eligible: Vec<&CeRecord> = records
            .iter()
            .filter(|r| span.contains(r.time) && r.time.value() - (window_minutes as i64) >= 0)
            .collect();
        let step = (eligible.len() / config.max_ce_samples).max(1);
        let sampled: Vec<&CeRecord> = eligible.iter().step_by(step).copied().collect();
        let temps: Vec<f64> = sampled
            .iter()
            .filter_map(|rec| {
                telemetry.window_mean(
                    rec.node,
                    SensorId::for_slot(rec.slot),
                    rec.time,
                    window_minutes,
                    config.window_stride.min(window_minutes.max(1)),
                )
            })
            .collect();
        bin_by_temperature(
            window_minutes,
            &temps,
            sampled.len(),
            eligible.len(),
            config,
        )
    }

    #[test]
    fn window_correlations_equal_the_per_ce_reference() {
        let ds = crate::pipeline::Dataset::generate(1, 42);
        let span = astra_util::time::sensor_span();
        let windows: Vec<u64> = crate::experiments::fig9::WINDOWS
            .iter()
            .map(|&(_, minutes)| minutes)
            .collect();
        let bits = |wc: &WindowCorrelation| {
            let points: Vec<(u64, u64)> = wc
                .points
                .iter()
                .map(|(x, y)| (x.to_bits(), y.to_bits()))
                .collect();
            let fit = wc.fit.map(|f| {
                (
                    f.slope.to_bits(),
                    f.intercept.to_bits(),
                    f.r_squared.to_bits(),
                    f.n,
                )
            });
            (
                wc.window_minutes,
                points,
                fit,
                wc.sampled,
                wc.sample_scale.to_bits(),
            )
        };
        // The default stride puts every window on one grid; a 45-minute
        // stride puts the hour window (stride 45) on its own.
        for config in [
            TempCorrConfig::default(),
            TempCorrConfig {
                window_stride: 45,
                ..TempCorrConfig::default()
            },
        ] {
            let records = &ds.sim.ce_log;
            let shared = window_correlations(records, &ds.telemetry, span, &windows, &config);
            assert_eq!(shared.len(), windows.len());
            for (wc, &window_minutes) in shared.iter().zip(&windows) {
                let want = window_correlation_reference(
                    records,
                    &ds.telemetry,
                    span,
                    window_minutes,
                    &config,
                );
                assert!(want.sampled > 0);
                assert_eq!(bits(wc), bits(&want), "window {window_minutes}");
            }
        }
    }

    /// One sensor's `(node, month)` samples the way they were computed
    /// before the table: a sweep of that sensor alone, and its own CE
    /// tally in a map.
    fn monthly_samples(
        records: &[CeRecord],
        telemetry: &TelemetryModel,
        system: &SystemConfig,
        span: TimeSpan,
        sensor: SensorId,
        config: &TempCorrConfig,
    ) -> Vec<MonthlySample> {
        let relevant = |rec: &CeRecord| match sensor.kind() {
            astra_topology::SensorKind::CpuTemp(socket) => rec.socket == socket,
            astra_topology::SensorKind::DimmTemp(group) => DimmGroup::of_slot(rec.slot) == group,
            astra_topology::SensorKind::DcPower => true,
        };
        let mut ce: std::collections::HashMap<(u32, i64), u64> = std::collections::HashMap::new();
        for rec in records {
            if span.contains(rec.time) && relevant(rec) {
                *ce.entry((rec.node.0, rec.time.month_index())).or_insert(0) += 1;
            }
        }

        let months = months_in(span);
        let mut out = Vec::new();
        for node in system.nodes() {
            for &month in &months {
                let m_start = month_start(month).max(span.start.value());
                let m_end = month_start(month + 1).min(span.end.value());
                if m_end <= m_start {
                    continue;
                }
                let mut sum = 0.0;
                let mut n = 0u64;
                let mut t = m_start;
                while t < m_end {
                    if let Some(v) = telemetry
                        .reading(node, sensor, Minute::from_i64(t))
                        .valid_value()
                    {
                        sum += v;
                        n += 1;
                    }
                    t += config.monthly_stride as i64;
                }
                if n == 0 {
                    continue;
                }
                out.push(MonthlySample {
                    node,
                    month,
                    mean_value: sum / n as f64,
                    ce_count: ce.get(&(node.0, month)).copied().unwrap_or(0),
                });
            }
        }
        out
    }

    #[test]
    fn the_monthly_table_equals_the_per_sensor_sweeps() {
        let ds = crate::pipeline::Dataset::generate(1, 42);
        let sensor_span = astra_util::time::sensor_span();
        let bits = |samples: &[MonthlySample]| -> Vec<(u32, i64, u64, u64)> {
            samples
                .iter()
                .map(|s| (s.node.0, s.month, s.mean_value.to_bits(), s.ce_count))
                .collect()
        };
        let check = |records: &[CeRecord], span: TimeSpan, config: &TempCorrConfig| {
            let table = MonthlyTable::sweep(records, &ds.telemetry, &ds.system, span, config);
            for sensor in SensorId::all() {
                let want =
                    monthly_samples(records, &ds.telemetry, &ds.system, span, sensor, config);
                assert!(want.iter().any(|s| s.ce_count > 0), "{sensor:?}");
                assert_eq!(bits(&table.samples(sensor)), bits(&want), "{sensor:?}");
            }
        };
        let records = &ds.sim.ce_log;

        check(records, sensor_span, &TempCorrConfig::default());
        let seven_hours = TempCorrConfig {
            monthly_stride: 7 * 60,
            ..TempCorrConfig::default()
        };
        check(records, sensor_span, &seven_hours);
        // Starts and ends mid-month, off the stride grid.
        let mid_month = TimeSpan::new(
            CalDate::new(2019, 6, 10).midnight().plus(7 * 60 + 13),
            CalDate::new(2019, 8, 20).midnight().plus(13 * 60),
        );
        check(records, mid_month, &seven_hours);

        // CEs before and after the span, on every slot of two nodes, and on
        // a node past the machine.
        let mut extra = records.clone();
        let past = ds.system.node_count();
        for (letter, slot) in ('A'..='P').zip(0u32..) {
            for (node, day, month) in [(0, 1, 5), (0, 20, 5), (5, 2, 7), (5, 25, 9), (past, 3, 7)] {
                extra.push(ce(node, letter, day + slot % 3, month));
            }
        }
        check(&extra, sensor_span, &TempCorrConfig::default());
    }

    #[test]
    fn monthly_samples_attribute_ces_to_right_sensor() {
        // Slot E is in group ACEG (sensor dimmg0); slot B is in BDFH
        // (dimmg1). CEs on E must count for dimmg0 only.
        let records = vec![ce(3, 'E', 10, 6), ce(3, 'E', 11, 6), ce(3, 'B', 12, 6)];
        let table = MonthlyTable::sweep(&records, &telemetry(), &system(), span(), &quick_config());
        let s0 = table.samples(SensorId::for_slot(DimmSlot::from_letter('E').unwrap()));
        let s1 = table.samples(SensorId::for_slot(DimmSlot::from_letter('B').unwrap()));
        let june = 5;
        let node3_june_g0 = s0
            .iter()
            .find(|s| s.node.0 == 3 && s.month == june)
            .unwrap();
        let node3_june_g1 = s1
            .iter()
            .find(|s| s.node.0 == 3 && s.month == june)
            .unwrap();
        assert_eq!(node3_june_g0.ce_count, 2);
        assert_eq!(node3_june_g1.ce_count, 1);
    }

    #[test]
    fn decile_series_shape() {
        let samples: Vec<MonthlySample> = (0..100)
            .map(|i| MonthlySample {
                node: NodeId(i),
                month: 5,
                mean_value: f64::from(i),
                ce_count: 3,
            })
            .collect();
        let series = decile_series("test", &samples);
        assert_eq!(series.points.len(), 10);
        // Constant CE count → flat series.
        assert!(series.points.iter().all(|(_, y)| (*y - 3.0).abs() < 1e-12));
        // X values ascend.
        assert!(series.points.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn temperature_deciles_produce_six_series() {
        let records = vec![ce(1, 'A', 5, 6), ce(2, 'K', 6, 7)];
        let (cpu, dimm) = temperature_deciles(&MonthlyTable::sweep(
            &records,
            &telemetry(),
            &system(),
            span(),
            &quick_config(),
        ));
        assert_eq!(cpu.len(), 2);
        assert_eq!(dimm.len(), 4);
        assert_eq!(cpu[0].label, "CPU1");
        assert_eq!(dimm[3].label, "CPU2 DIMMs 5-8");
        // CPU1 deciles should sit at higher temperatures than CPU2.
        let max_x = |s: &DecileSeries| s.points.last().map(|p| p.0).unwrap_or(0.0);
        assert!(max_x(&cpu[0]) > max_x(&cpu[1]));
    }

    #[test]
    fn power_hot_cold_splits_in_two() {
        let records = vec![ce(1, 'A', 5, 6)];
        let table = MonthlyTable::sweep(&records, &telemetry(), &system(), span(), &quick_config());
        let series = power_hot_cold(&table, SensorId::cpu(astra_topology::SocketId(0)));
        assert_eq!(series.len(), 2);
        assert!(series[0].label.contains("hot"));
        assert!(series[1].label.contains("cold"));
        assert!(!series[0].points.is_empty());
        assert!(!series[1].points.is_empty());
        // Hot samples should be shifted toward higher power (power and
        // temperature share the utilization driver).
        let mean_x =
            |s: &DecileSeries| s.points.iter().map(|p| p.0).sum::<f64>() / s.points.len() as f64;
        assert!(mean_x(&series[0]) > mean_x(&series[1]));
    }
}
