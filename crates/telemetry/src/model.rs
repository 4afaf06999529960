//! The O(1) random-access telemetry model.
//!
//! Every quantity is a pure function of `(seed, node, sensor, minute)`:
//!
//! * **Utilization** is piecewise-constant over fixed job blocks (jobs on
//!   HPC machines run for hours), with a diurnal modulation. Each block's
//!   busy/idle state and level come from a counter-mode hash, so
//!   utilization at an arbitrary minute costs one hash, not a replay.
//! * **Temperatures** are inlet + position offsets + utilization-driven
//!   rise + per-minute sensor noise.
//! * **Power** is idle + utilization-proportional dynamic power + noise.
//!
//! Per-minute noise is also counter-mode: `hash(seed, node, sensor,
//! minute)` seeds a tiny Box–Muller draw. Nothing here consults the fault
//! simulator, so CE occurrence is independent of temperature by
//! construction — the paper's negative result.

use astra_logs::SensorRecord;
use astra_topology::{NodeId, RackRegion, SensorId, SensorKind, SystemConfig};
use astra_util::rng::splitmix64;
use astra_util::time::{TimeSpan, MINUTES_PER_DAY};
use astra_util::{Minute, StreamKey};

use crate::profile::ThermalProfile;

/// Deterministic telemetry source for one machine.
#[derive(Debug, Clone)]
pub struct TelemetryModel {
    system: SystemConfig,
    profile: ThermalProfile,
    seed: u64,
    key: StreamKey,
    /// The diurnal utilization term at each minute of the day.
    diurnal: Vec<f64>,
}

/// Map a 64-bit hash to a uniform in [0, 1).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl TelemetryModel {
    /// Create a model for `system` under `profile`.
    pub fn new(system: SystemConfig, profile: ThermalProfile, seed: u64) -> Self {
        // Diurnal modulation: the machine room is busier in working hours.
        let diurnal = (0..MINUTES_PER_DAY as u32)
            .map(|minute| {
                let phase = f64::from(minute) / 1440.0 * std::f64::consts::TAU;
                profile.diurnal_amplitude * (phase - std::f64::consts::PI * 0.75).sin()
            })
            .collect();
        TelemetryModel {
            system,
            profile,
            seed,
            key: StreamKey::root("telemetry"),
            diurnal,
        }
    }

    /// The machine this model covers.
    pub fn system(&self) -> &SystemConfig {
        &self.system
    }

    fn hash(&self, a: u64, b: u64, c: u64) -> u64 {
        let mut state = self.seed
            ^ self.key.value()
            ^ a.rotate_left(17)
            ^ b.rotate_left(34)
            ^ c.rotate_left(51);
        splitmix64(&mut state);
        splitmix64(&mut state)
    }

    /// Standard-normal draw in counter mode.
    fn noise(&self, a: u64, b: u64, c: u64) -> f64 {
        let h1 = self.hash(a, b, c);
        let h2 = self.hash(a ^ 0xDEAD_BEEF, b, c);
        let u1 = (1.0 - unit(h1)).max(1e-12);
        let u2 = unit(h2);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// A node's sampler: the one way to draw its readings.
    pub fn sampler(&self, node: NodeId) -> NodeSampler<'_> {
        NodeSampler {
            model: self,
            node,
            inlet: self.inlet(node),
            block: None,
            base: 0.0,
        }
    }

    /// Node utilization in [0, 1] at a given minute.
    pub fn utilization(&self, node: NodeId, t: Minute) -> f64 {
        self.sampler(node).utilization(t)
    }

    /// Utilization of a node's job block before the diurnal term:
    /// piecewise-constant, since jobs on HPC machines run for hours.
    fn block_base(&self, node: NodeId, block: u64) -> f64 {
        let p = &self.profile;
        let h = self.hash(1, u64::from(node.0), block);
        let busy = unit(h) < p.busy_prob;
        if busy {
            // Per-block level jitter so busy blocks aren't identical.
            p.busy_util + 0.1 * (unit(self.hash(2, u64::from(node.0), block)) - 0.5)
        } else {
            p.idle_util
        }
    }

    /// Inlet air temperature for a node: room base + rack offset + region
    /// offset (both small, per §3.4).
    pub fn inlet(&self, node: NodeId) -> f64 {
        let p = &self.profile;
        let rack = self.system.rack_of(node);
        let rack_off = (unit(self.hash(3, u64::from(rack.0), 0)) - 0.5) * p.rack_inlet_spread;
        let region = self.system.region_of(node);
        let region_off = match region {
            RackRegion::Bottom => -0.5,
            RackRegion::Middle => 0.0,
            RackRegion::Top => 0.5,
        } * p.region_inlet_spread;
        p.inlet_temp + rack_off + region_off
    }

    /// The true (pre-corruption) value of a sensor at a minute.
    pub fn true_value(&self, node: NodeId, sensor: SensorId, t: Minute) -> f64 {
        let mut sampler = self.sampler(node);
        let util = sampler.utilization(t);
        sampler.value(sensor, t, util)
    }

    /// A BMC reading: the true value possibly replaced by an unreadable
    /// marker or a clearly-invalid outlier (which
    /// [`SensorRecord::valid_value`] filters, as the paper's analysis
    /// does).
    pub fn reading(&self, node: NodeId, sensor: SensorId, t: Minute) -> SensorRecord {
        self.sampler(node).reading(sensor, t)
    }

    /// Materialize records for every sensor of the given nodes over a
    /// span, sampling every `stride_minutes` (1 = the BMC's real cadence).
    pub fn records(
        &self,
        nodes: impl IntoIterator<Item = NodeId>,
        span: TimeSpan,
        stride_minutes: u64,
    ) -> Vec<SensorRecord> {
        assert!(stride_minutes > 0, "stride must be positive");
        let _span = astra_obs::span("telemetry.records");
        let mut out = Vec::new();
        for node in nodes {
            let mut sampler = self.sampler(node);
            let mut t = span.start;
            while t < span.end {
                out.extend(sampler.readings(t));
                t = t.plus(stride_minutes as i64);
            }
        }
        let obs = astra_obs::global();
        obs.counter("telemetry.readings").add(out.len() as u64);
        obs.counter("telemetry.readings_unreadable")
            .add(out.iter().filter(|r| r.value.is_none()).count() as u64);
        out
    }

    /// Mean of *valid* readings of one sensor over `[end - window, end)`,
    /// sampling every `stride_minutes`. Returns `None` when no valid
    /// sample falls in the window. This is the §3.3 primitive: "the mean
    /// temperature over the time interval immediately before the error".
    /// Analyses call [`Self::window_means`]; this one-window form is the
    /// reference it is tested against.
    pub fn window_mean(
        &self,
        node: NodeId,
        sensor: SensorId,
        end: Minute,
        window_minutes: u64,
        stride_minutes: u64,
    ) -> Option<f64> {
        assert!(stride_minutes > 0);
        let mut sum = 0.0;
        let mut n = 0u64;
        let mut t = end.plus(-(window_minutes as i64));
        while t < end {
            if let Some(v) = self.reading(node, sensor, t).valid_value() {
                sum += v;
                n += 1;
            }
            t = t.plus(stride_minutes as i64);
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// [`Self::window_mean`] of many windows of one sensor, one
    /// `(end, window_minutes, stride_minutes)` per query: entry `i` equals
    /// `window_mean` of `queries[i]` bit for bit, but a sample that several
    /// windows cover is drawn once.
    ///
    /// Two windows share samples only on the same stride grid (same stride
    /// and `(end - window) mod stride`), so the queries are visited by grid,
    /// then by start. Windows on one grid that overlap or abut form a run,
    /// whose samples are drawn once into a buffer (NaN for an invalid
    /// reading); each window then sums its slice of the buffer front to
    /// back, the order `window_mean` adds them in. When no two windows
    /// overlap, every sample is drawn exactly as often as by `window_mean`.
    ///
    /// Each call adds the samples it drew to `telemetry.window_readings`
    /// and the samples its windows summed to
    /// `telemetry.window_readings_summed`.
    pub fn window_means(
        &self,
        node: NodeId,
        sensor: SensorId,
        queries: &[(Minute, u64, u64)],
    ) -> Vec<Option<f64>> {
        // (stride, start mod stride, start, query index), visited in order.
        let mut order: Vec<(u64, i64, i64, usize)> = queries
            .iter()
            .enumerate()
            .map(|(i, &(end, window, stride))| {
                assert!(stride > 0, "stride must be positive");
                let start = end.value() - window as i64;
                (stride, start.rem_euclid(stride as i64), start, i)
            })
            .collect();
        order.sort_unstable();

        let mut sampler = self.sampler(node);
        let mut means = vec![None; queries.len()];
        let mut run: Vec<f64> = Vec::new();
        let mut run_grid = None;
        let mut run_start = 0i64;
        let mut summed = 0u64;
        let mut drawn = 0u64;
        for (stride, offset, start, i) in order {
            let step = stride as i64;
            let grid = Some((stride, offset));
            if run_grid != grid || start > run_start + run.len() as i64 * step {
                run.clear();
                run_grid = grid;
                run_start = start;
            }
            let first = ((start - run_start) / step) as usize;
            let last = first + queries[i].1.div_ceil(stride) as usize;
            while run.len() < last {
                let t = Minute::from_i64(run_start + run.len() as i64 * step);
                let value = sampler.reading(sensor, t).valid_value();
                run.push(value.unwrap_or(f64::NAN));
                drawn += 1;
            }
            let mut sum = 0.0;
            let mut n = 0u64;
            for &v in &run[first..last] {
                if !v.is_nan() {
                    sum += v;
                    n += 1;
                }
            }
            summed += (last - first) as u64;
            means[i] = (n > 0).then(|| sum / n as f64);
        }
        let obs = astra_obs::global();
        obs.counter("telemetry.window_readings").add(drawn);
        obs.counter("telemetry.window_readings_summed").add(summed);
        means
    }
}

/// Draws one node's readings, minute by minute: the sampling kernel every
/// reading of the model goes through.
///
/// The seven sensors of a node share its inlet temperature and, at each
/// minute, its utilization. The sampler computes the inlet once, the
/// utilization's job-block level once per block it enters, and takes the
/// diurnal term from the model's per-minute-of-day table; each sensor
/// then adds only its own noise and validity draws. Every value is the
/// same pure function of `(seed, node, sensor, minute)` whatever order
/// the minutes are asked in.
#[derive(Debug)]
pub struct NodeSampler<'m> {
    model: &'m TelemetryModel,
    node: NodeId,
    inlet: f64,
    /// The job block whose level `base` holds, once one has been drawn.
    block: Option<i64>,
    base: f64,
}

impl NodeSampler<'_> {
    /// Node utilization in [0, 1] at a given minute.
    fn utilization(&mut self, t: Minute) -> f64 {
        let block = t
            .value()
            .div_euclid(self.model.profile.job_block_minutes as i64);
        if self.block != Some(block) {
            self.block = Some(block);
            self.base = self.model.block_base(self.node, block as u64);
        }
        (self.base + self.model.diurnal[t.minute_of_day() as usize]).clamp(0.0, 1.0)
    }

    /// The reading of one sensor at `t`.
    fn reading(&mut self, sensor: SensorId, t: Minute) -> SensorRecord {
        let util = self.utilization(t);
        self.draw(sensor, t, util)
    }

    /// The readings of all seven sensors at `t`, in sensor-index order.
    pub fn readings(&mut self, t: Minute) -> [SensorRecord; SensorId::COUNT] {
        let util = self.utilization(t);
        std::array::from_fn(|i| {
            let sensor = SensorId::from_index(i as u8).expect("i < SensorId::COUNT");
            self.draw(sensor, t, util)
        })
    }

    /// A BMC reading at `t` given the node's utilization then: the true
    /// value, or in its place an unreadable marker or a clearly-invalid
    /// outlier.
    fn draw(&self, sensor: SensorId, t: Minute, util: f64) -> SensorRecord {
        let p = &self.model.profile;
        let h = self.model.hash(
            99,
            u64::from(self.node.0) << 3 | sensor.index() as u64,
            t.value() as u64,
        );
        let u = unit(h);
        let value = if u < p.unreadable_prob {
            None
        } else if u < p.unreadable_prob + p.invalid_prob {
            // A stuck/garbage reading far outside plausibility.
            Some(if sensor.kind() == SensorKind::DcPower {
                4000.0
            } else {
                255.0
            })
        } else {
            Some(self.value(sensor, t, util))
        };
        SensorRecord {
            time: t,
            node: self.node,
            sensor,
            value,
        }
    }

    /// The true value of a sensor: inlet + position offsets +
    /// utilization-driven rise + per-minute noise (power: idle +
    /// utilization-proportional dynamic power + noise).
    fn value(&self, sensor: SensorId, t: Minute, util: f64) -> f64 {
        let p = &self.model.profile;
        let noise = self.model.noise(
            4 + sensor.index() as u64,
            u64::from(self.node.0),
            t.value() as u64,
        );
        match sensor.kind() {
            SensorKind::CpuTemp(socket) => {
                self.inlet
                    + p.cpu_idle_rise[usize::from(socket.0)]
                    + p.cpu_util_rise * util
                    + p.cpu_noise_sd * noise
            }
            SensorKind::DimmTemp(group) => {
                self.inlet
                    + p.dimm_idle_rise[group.index()]
                    + p.dimm_util_rise * util
                    + p.dimm_noise_sd * noise
            }
            SensorKind::DcPower => p.idle_power + p.dynamic_power * util + p.power_noise_sd * noise,
        }
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use astra_topology::SocketId;
    use astra_util::time::sensor_span;
    use astra_util::{CalDate, DetRng};

    fn model() -> TelemetryModel {
        TelemetryModel::new(SystemConfig::scaled(4), ThermalProfile::astra(), 42)
    }

    fn at(day: u32, minute: i64) -> Minute {
        CalDate::new(2019, 6, day).midnight().plus(minute)
    }

    #[test]
    fn deterministic() {
        let m = model();
        let t = at(1, 600);
        for sensor in SensorId::all() {
            let a = m.reading(NodeId(7), sensor, t);
            let b = m.reading(NodeId(7), sensor, t);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn utilization_in_unit_interval_and_blocky() {
        let m = model();
        let u1 = m.utilization(NodeId(3), at(1, 0));
        let u2 = m.utilization(NodeId(3), at(1, 30));
        // Same job block, same diurnal-ish phase: close values.
        assert!((u1 - u2).abs() < 0.2);
        for minute in (0..1440).step_by(17) {
            let u = m.utilization(NodeId(3), at(2, minute));
            assert!((0.0..=1.0).contains(&u));
        }
    }

    #[test]
    fn cpu1_runs_hotter_than_cpu2() {
        let m = model();
        let mut sum = [0.0f64; 2];
        let mut n = 0;
        for node in 0..64u32 {
            for minute in (0..1440).step_by(60) {
                for s in [0u8, 1] {
                    let v = m.true_value(NodeId(node), SensorId::cpu(SocketId(s)), at(3, minute));
                    sum[usize::from(s)] += v;
                }
                n += 1;
            }
        }
        let mean0 = sum[0] / f64::from(n);
        let mean1 = sum[1] / f64::from(n);
        assert!(
            mean0 > mean1 + 2.0,
            "CPU1 {mean0:.1} should be clearly hotter than CPU2 {mean1:.1}"
        );
    }

    #[test]
    fn temperature_ranges_match_paper() {
        // Fig 13: monthly average CPU temps ~55-75 C, DIMM ~35-52 C.
        let m = model();
        let mut cpu = astra_stats::Moments::new();
        let mut dimm = astra_stats::Moments::new();
        let mut power = astra_stats::Moments::new();
        for node in (0..288u32).step_by(7) {
            for minute in (0..1440).step_by(120) {
                cpu.push(m.true_value(NodeId(node), SensorId::cpu(SocketId(0)), at(5, minute)));
                dimm.push(m.true_value(
                    NodeId(node),
                    SensorId::from_index(3).unwrap(),
                    at(5, minute),
                ));
                power.push(m.true_value(NodeId(node), SensorId::dc_power(), at(5, minute)));
            }
        }
        assert!(
            (55.0..=75.0).contains(&cpu.mean()),
            "cpu mean {}",
            cpu.mean()
        );
        assert!(
            (35.0..=52.0).contains(&dimm.mean()),
            "dimm mean {}",
            dimm.mean()
        );
        assert!(
            (240.0..=390.0).contains(&power.mean()),
            "power mean {}",
            power.mean()
        );
    }

    #[test]
    fn rack_and_region_offsets_are_small() {
        let m = model();
        let sys = *m.system();
        // Mean inlet per rack varies less than the paper's 4.2 C bound;
        // per region less than 1 C.
        let mut rack_means = Vec::new();
        for rack in 0..sys.racks {
            let nodes: Vec<NodeId> = sys.rack_nodes(astra_topology::RackId(rack)).collect();
            let mean: f64 = nodes.iter().map(|&n| m.inlet(n)).sum::<f64>() / nodes.len() as f64;
            rack_means.push(mean);
        }
        let spread = rack_means.iter().cloned().fold(f64::MIN, f64::max)
            - rack_means.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 4.2, "rack spread {spread}");

        let mut region_means = [0.0f64; 3];
        let mut counts = [0u32; 3];
        for node in sys.nodes() {
            let r = sys.region_of(node).index();
            region_means[r] += m.inlet(node);
            counts[r] += 1;
        }
        for r in 0..3 {
            region_means[r] /= f64::from(counts[r]);
        }
        let rspread = region_means.iter().cloned().fold(f64::MIN, f64::max)
            - region_means.iter().cloned().fold(f64::MAX, f64::min);
        assert!(rspread < 1.0, "region spread {rspread}");
    }

    #[test]
    fn invalid_fraction_below_one_percent() {
        let m = model();
        let mut invalid = 0u32;
        let mut total = 0u32;
        for node in 0..64u32 {
            for minute in (0..1440).step_by(13) {
                for sensor in SensorId::all() {
                    let rec = m.reading(NodeId(node), sensor, at(7, minute));
                    if rec.valid_value().is_none() {
                        invalid += 1;
                    }
                    total += 1;
                }
            }
        }
        let frac = f64::from(invalid) / f64::from(total);
        assert!(frac < 0.01, "invalid fraction {frac}");
        assert!(invalid > 0, "some samples must be invalid");
    }

    #[test]
    fn power_tracks_utilization() {
        let m = model();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for node in 0..96u32 {
            let t = at(9, 600);
            xs.push(m.utilization(NodeId(node), t));
            ys.push(m.true_value(NodeId(node), SensorId::dc_power(), t));
        }
        let r = astra_stats::pearson(&xs, &ys).unwrap();
        assert!(r > 0.9, "power should track utilization, r = {r}");
    }

    #[test]
    fn window_mean_reasonable() {
        let m = model();
        let end = at(10, 720);
        let mean = m
            .window_mean(NodeId(5), SensorId::from_index(2).unwrap(), end, 60, 5)
            .unwrap();
        assert!((30.0..=60.0).contains(&mean), "window mean {mean}");
    }

    /// `window_means` must equal `window_mean` query by query, to the bit.
    fn assert_means_match(m: &TelemetryModel, sensor: SensorId, queries: &[(Minute, u64, u64)]) {
        let means = m.window_means(NodeId(5), sensor, queries);
        assert_eq!(means.len(), queries.len());
        for (&(end, window, stride), mean) in queries.iter().zip(means) {
            let want = m.window_mean(NodeId(5), sensor, end, window, stride);
            assert_eq!(
                mean.map(f64::to_bits),
                want.map(f64::to_bits),
                "window ({}, {window}, {stride})",
                end.value()
            );
        }
    }

    /// A random query set: ends over two weeks (so on different grids,
    /// with gaps between the windows), half of them on the half-hour; half
    /// the windows an hour or a day, the rest rarely a multiple of the
    /// stride; the strides drawn from `strides`; and a few duplicated
    /// queries, all in random order.
    fn random_queries(rng: &mut DetRng, strides: &[u64]) -> Vec<(Minute, u64, u64)> {
        let count = 1 + rng.below(60) as usize;
        let mut queries: Vec<(Minute, u64, u64)> = (0..count)
            .map(|_| {
                let minute = if rng.chance(0.5) {
                    rng.below(14 * 1440)
                } else {
                    30 * rng.below(14 * 48)
                };
                let window = if rng.chance(0.5) {
                    1 + rng.below(3 * 1440)
                } else {
                    *rng.pick(&[60, 1440])
                };
                (at(1, minute as i64), window, *rng.pick(strides))
            })
            .collect();
        for _ in 0..rng.below(5) {
            let dup = *rng.pick(&queries);
            queries.push(dup);
        }
        for i in (1..queries.len()).rev() {
            queries.swap(i, rng.below(i as u64 + 1) as usize);
        }
        queries
    }

    #[test]
    fn window_means_equal_window_mean_bit_for_bit() {
        let mut rng = DetRng::new(17);
        let m = model();
        let sensor = SensorId::from_index(3).unwrap();
        assert!(m.window_means(NodeId(5), sensor, &[]).is_empty());
        for strides in [&[30][..], &[30, 45], &[1, 7, 60]] {
            for _ in 0..20 {
                assert_means_match(&m, sensor, &random_queries(&mut rng, strides));
            }
        }

        // Mostly unreadable sensors: short windows are often all invalid,
        // and with every reading unreadable every window is.
        for unreadable_prob in [0.8, 1.0] {
            let profile = ThermalProfile {
                unreadable_prob,
                ..ThermalProfile::astra()
            };
            let m = TelemetryModel::new(SystemConfig::scaled(4), profile, 42);
            let queries: Vec<(Minute, u64, u64)> = (0..200)
                .map(|_| (at(2, rng.below(1440) as i64), 1 + rng.below(90), 30))
                .collect();
            assert_means_match(&m, sensor, &queries);
            let none = m.window_means(NodeId(5), sensor, &queries);
            assert!(none.iter().any(Option::is_none));
            if unreadable_prob == 1.0 {
                assert!(none.iter().all(Option::is_none));
            }
        }
    }

    /// A reading's value as bits, so NaN-free values compare exactly.
    fn bits(rec: &SensorRecord) -> (Minute, NodeId, SensorId, Option<u64>) {
        (rec.time, rec.node, rec.sensor, rec.value.map(f64::to_bits))
    }

    #[test]
    fn the_sampler_draws_what_the_per_sensor_formula_draws() {
        let mut rng = DetRng::new(23);
        let profiles = [
            ThermalProfile::astra(),
            ThermalProfile {
                unreadable_prob: 0.8,
                ..ThermalProfile::astra()
            },
            ThermalProfile {
                unreadable_prob: 1.0,
                ..ThermalProfile::astra()
            },
            ThermalProfile {
                invalid_prob: 0.3,
                ..ThermalProfile::astra()
            },
        ];
        for profile in profiles {
            let m = TelemetryModel::new(SystemConfig::scaled(4), profile, 42);
            let nodes = u64::from(m.system().node_count());
            for _ in 0..12 {
                let node = NodeId(rng.below(nodes) as u32);
                // One sampler over minutes in random order, some before
                // 2019, so its job block moves back and forth.
                let mut sampler = m.sampler(node);
                for _ in 0..150 {
                    let t = if rng.chance(0.5) {
                        at(1, rng.below(21 * MINUTES_PER_DAY) as i64)
                    } else {
                        Minute::from_i64(rng.below(8 * MINUTES_PER_DAY) as i64 - 4 * 1440)
                    };
                    let all = sampler.readings(t);
                    for sensor in SensorId::all() {
                        let want = bits(&oracle::reading(&m, node, sensor, t));
                        assert_eq!(
                            bits(&all[sensor.index()]),
                            want,
                            "{node:?} {sensor:?} {t:?}"
                        );
                        assert_eq!(bits(&sampler.reading(sensor, t)), want);
                        assert_eq!(bits(&m.reading(node, sensor, t)), want);
                        assert_eq!(
                            m.true_value(node, sensor, t).to_bits(),
                            oracle::true_value(&m, node, sensor, t).to_bits()
                        );
                    }
                }
            }
            // `generate`'s sensors.log excerpt.
            let span = TimeSpan::new(at(2, 17), at(4, 0));
            let nodes = [NodeId(0), NodeId(9), NodeId(200)];
            let got: Vec<_> = m.records(nodes, span, 37).iter().map(bits).collect();
            let mut want = Vec::new();
            for node in nodes {
                let mut t = span.start;
                while t < span.end {
                    for sensor in SensorId::all() {
                        want.push(bits(&oracle::reading(&m, node, sensor, t)));
                    }
                    t = t.plus(37);
                }
            }
            assert_eq!(got, want);
        }
    }

    #[test]
    fn records_cover_all_sensors_and_stride() {
        let m = model();
        let span = TimeSpan::new(at(11, 0), at(11, 30));
        let recs = m.records([NodeId(1), NodeId(2)], span, 10);
        // 2 nodes x 3 samples x 7 sensors.
        assert_eq!(recs.len(), 2 * 3 * 7);
        assert!(recs.iter().all(|r| span.contains(r.time)));
    }

    #[test]
    fn full_sensor_span_sampling_is_fast_enough() {
        // Random access means a month-long window query is cheap.
        let m = model();
        let span = sensor_span();
        let mean = m.window_mean(
            NodeId(0),
            SensorId::cpu(SocketId(0)),
            span.end,
            30 * 1440,
            60,
        );
        assert!(mean.is_some());
    }
}
