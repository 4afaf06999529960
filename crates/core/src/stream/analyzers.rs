//! The analysis layers as incremental [`Analyzer`]s, plus the composite
//! the engine drives.
//!
//! Each analyzer is a fold with an explicit state type. The engine
//! drives three, over CE events, and what bounds its memory is exactly
//! the sum of their states:
//!
//! * [`CoalesceAnalyzer`] — per-`(node, slot, rank)` footprint lists
//!   (32 B per CE instead of the 48 B record, and no record vector);
//! * [`SpatialAnalyzer`] — fixed-shape count tables;
//! * [`PredictAnalyzer`] — per-rank feature state and fired flags,
//!   mirroring `astra_predict::replay` record for record.
//!
//! Two more fold the logs the engine does not read, and no command
//! drives them: [`HetAnalyzer`] (per-(kind, day) counters) and
//! [`TempCorrAnalyzer`] (per-(sensor, month) running means and per-month
//! CE counts).
//!
//! Merge semantics: coalesce appends footprints in shard order and
//! spatial/het counts add exactly, so those merges are bit-exact for
//! contiguous shards at any worker count. The tempcorr *sum* is an
//! `f64`, so its merge is last-ulp-sensitive to shard boundaries.
//! Predict state cannot merge mid-rank at all, so
//! [`PredictAnalyzer::merge`] insists on rank-disjoint shards.

use std::collections::{BTreeMap, HashMap};

use astra_logs::HetKind;
use astra_predict::{default_predictors, Alert, DimmKey, FeatureState, PredictConfig, Predictor};
use astra_topology::{SensorId, SystemConfig};

use crate::coalesce::{classify_groups, CeFootprint, CoalesceConfig, GroupKey, ObservedFault};
use crate::experiments::fig4::{self, Fig4};
use crate::experiments::fig5::{self, Fig5};
use crate::spatial::SpatialCounts;

use super::{Analyzer, MemEvent};

/// Streaming coalescer: the batch `coalesce()` split into its fold
/// (footprint grouping) and its finish (`classify_groups` — shared code,
/// which is what makes stream and batch faults provably identical).
pub struct CoalesceAnalyzer {
    pub(crate) config: CoalesceConfig,
    /// Footprints per device population, in stream (= file) order.
    pub(crate) groups: HashMap<GroupKey, Vec<CeFootprint>>,
    /// CEs consumed — one footprint each, so also the footprint count.
    pub(crate) ces: u64,
}

impl CoalesceAnalyzer {
    /// Empty state.
    pub fn new(config: CoalesceConfig) -> Self {
        CoalesceAnalyzer {
            config,
            groups: HashMap::new(),
            ces: 0,
        }
    }
}

impl Analyzer for CoalesceAnalyzer {
    type Report = Vec<ObservedFault>;

    fn consume(&mut self, ev: &MemEvent) {
        if let MemEvent::Ce { seq, rec } = ev {
            self.groups
                .entry((rec.node.0, rec.slot.index() as u8, rec.rank.0))
                .or_default()
                .push(CeFootprint::of_record(*seq as u32, rec));
            self.ces += 1;
        }
    }

    fn merge(mut a: Self, b: Self) -> Self {
        for (key, mut feet) in b.groups {
            a.groups.entry(key).or_default().append(&mut feet);
        }
        a.ces += b.ces;
        a
    }

    fn snapshot(&self) -> Vec<ObservedFault> {
        // Borrowed views: classification never clones the footprint state.
        let views: Vec<(GroupKey, &[CeFootprint])> = self
            .groups
            .iter()
            .map(|(key, feet)| (*key, feet.as_slice()))
            .collect();
        classify_groups(views, self.ces as usize, &self.config)
    }
}

/// Streaming error-side spatial counts. Fault-side counts belong to the
/// snapshot (faults only exist after classification), so the composite
/// absorbs them there.
pub struct SpatialAnalyzer {
    pub(crate) system: SystemConfig,
    pub(crate) counts: SpatialCounts,
}

impl SpatialAnalyzer {
    /// Zeroed tables shaped for `system`.
    pub fn new(system: SystemConfig) -> Self {
        SpatialAnalyzer {
            counts: SpatialCounts::empty(&system),
            system,
        }
    }
}

impl Analyzer for SpatialAnalyzer {
    type Report = SpatialCounts;

    fn consume(&mut self, ev: &MemEvent) {
        if let MemEvent::Ce { rec, .. } = ev {
            self.counts.absorb_record(&self.system, rec);
        }
    }

    fn merge(a: Self, b: Self) -> Self {
        SpatialAnalyzer {
            system: a.system,
            counts: a.counts.merge(b.counts),
        }
    }

    fn snapshot(&self) -> SpatialCounts {
        self.counts.clone()
    }
}

/// Streaming HET aggregation: totals, memory-DUE count, and the
/// per-(kind, day) series behind Fig 15.
#[derive(Default)]
pub struct HetAnalyzer {
    /// `(kind index in HetKind::ALL, day index)` → events.
    daily: BTreeMap<(u8, i64), u64>,
    total: u64,
    memory_dues: u64,
}

/// Position of a kind in [`HetKind::ALL`] (dense).
fn het_kind_index(kind: HetKind) -> u8 {
    HetKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("every kind appears in ALL") as u8
}

impl HetAnalyzer {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Analyzer for HetAnalyzer {
    type Report = HetReport;

    fn consume(&mut self, ev: &MemEvent) {
        if let MemEvent::Het { rec, .. } = ev {
            self.total += 1;
            if rec.kind.is_memory_due() {
                self.memory_dues += 1;
            }
            *self
                .daily
                .entry((het_kind_index(rec.kind), rec.time.day_index()))
                .or_insert(0) += 1;
        }
    }

    fn merge(mut a: Self, b: Self) -> Self {
        a.total += b.total;
        a.memory_dues += b.memory_dues;
        for (key, n) in b.daily {
            *a.daily.entry(key).or_insert(0) += n;
        }
        a
    }

    fn snapshot(&self) -> HetReport {
        HetReport {
            total: self.total,
            memory_dues: self.memory_dues,
            daily: self
                .daily
                .iter()
                .map(|(&(kind, day), &n)| (HetKind::ALL[kind as usize], day, n))
                .collect(),
        }
    }
}

/// What [`HetAnalyzer`] reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HetReport {
    /// All HET events seen.
    pub total: u64,
    /// The memory-DUE subset.
    pub memory_dues: u64,
    /// `(kind, day index, count)`, sorted by kind then day.
    pub daily: Vec<(HetKind, i64, u64)>,
}

/// Streaming temperature/utilization aggregation: per-(sensor, month)
/// running means over valid readings, and the monthly CE series they
/// correlate against.
#[derive(Default)]
pub struct TempCorrAnalyzer {
    /// `(sensor index, month index)` → (sum of readings, sample count).
    sensor_months: BTreeMap<(u8, i64), (f64, u64)>,
    /// Month index → CE count.
    monthly_ces: BTreeMap<i64, u64>,
}

impl TempCorrAnalyzer {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Analyzer for TempCorrAnalyzer {
    type Report = (Vec<SensorMonth>, Vec<(i64, u64)>);

    fn consume(&mut self, ev: &MemEvent) {
        match ev {
            MemEvent::Sensor { rec, .. } => {
                if let Some(v) = rec.value {
                    let slot = self
                        .sensor_months
                        .entry((rec.sensor.index() as u8, rec.time.month_index()))
                        .or_insert((0.0, 0));
                    slot.0 += v;
                    slot.1 += 1;
                }
            }
            MemEvent::Ce { rec, .. } => {
                *self.monthly_ces.entry(rec.time.month_index()).or_insert(0) += 1;
            }
            _ => {}
        }
    }

    fn merge(mut a: Self, b: Self) -> Self {
        // f64 sum: exact only when shards do not split a (sensor, month)
        // cell, last-ulp-sensitive otherwise — see the module docs.
        for (key, (sum, n)) in b.sensor_months {
            let slot = a.sensor_months.entry(key).or_insert((0.0, 0));
            slot.0 += sum;
            slot.1 += n;
        }
        for (month, n) in b.monthly_ces {
            *a.monthly_ces.entry(month).or_insert(0) += n;
        }
        a
    }

    fn snapshot(&self) -> (Vec<SensorMonth>, Vec<(i64, u64)>) {
        let sensors = self
            .sensor_months
            .iter()
            .map(|(&(sensor, month), &(sum, n))| SensorMonth {
                sensor: SensorId::from_index(sensor).expect("index came from a SensorId"),
                month,
                mean: sum / n as f64,
                samples: n,
            })
            .collect();
        let ces = self.monthly_ces.iter().map(|(&m, &n)| (m, n)).collect();
        (sensors, ces)
    }
}

/// One sensor's monthly mean across the machine excerpt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorMonth {
    /// Which sensor.
    pub sensor: SensorId,
    /// Month index (Jan 2019 = 0).
    pub month: i64,
    /// Mean of the valid readings.
    pub mean: f64,
    /// Valid readings averaged.
    pub samples: u64,
}

/// Per-rank state mirrored from `astra_predict`'s `replay_group`.
pub(crate) struct RankTrack {
    pub(crate) state: FeatureState,
    pub(crate) fired: Vec<bool>,
}

/// Streaming prediction: replays the CE events through the predictors exactly as `astra_predict::replay` does
/// — including the detail that once every predictor has fired for a
/// rank, that rank's feature state stops updating (replay `break`s out
/// of the substream), which keeps checkpointed state byte-identical to
/// the batch replay's.
pub struct PredictAnalyzer {
    pub(crate) config: PredictConfig,
    pub(crate) predictors: Vec<Box<dyn Predictor>>,
    pub(crate) ranks: BTreeMap<(u32, u8, u8), RankTrack>,
    pub(crate) alerts: Vec<Alert>,
}

impl PredictAnalyzer {
    /// Empty state over a predictor bank.
    pub fn new(config: PredictConfig, predictors: Vec<Box<dyn Predictor>>) -> Self {
        PredictAnalyzer {
            config,
            predictors,
            ranks: BTreeMap::new(),
            alerts: Vec::new(),
        }
    }
}

impl Analyzer for PredictAnalyzer {
    type Report = Vec<Alert>;

    fn consume(&mut self, ev: &MemEvent) {
        let MemEvent::Ce { rec, .. } = ev else {
            return;
        };
        let key = DimmKey::of_record(rec).sort_key();
        let track = match self.ranks.entry(key) {
            std::collections::btree_map::Entry::Vacant(slot) => slot.insert(RankTrack {
                state: FeatureState::new(
                    rec,
                    self.config.half_life_minutes,
                    self.config.pin_bank_threshold,
                    self.config.bank_dispersion_cols,
                ),
                fired: vec![false; self.predictors.len()],
            }),
            std::collections::btree_map::Entry::Occupied(slot) => {
                let track = slot.into_mut();
                // Existing rank: replay stops consuming a substream once
                // all predictors fired; mirror that by freezing the state.
                if track.fired.iter().all(|&f| f) {
                    return;
                }
                track.state.update(rec);
                track
            }
        };
        let snapshot = track.state.snapshot(rec.time);
        for (pi, predictor) in self.predictors.iter().enumerate() {
            if track.fired[pi] {
                continue;
            }
            let score = predictor.score(&snapshot);
            if score >= predictor.threshold() {
                track.fired[pi] = true;
                self.alerts.push(Alert {
                    time: rec.time,
                    key: DimmKey::of_record(rec),
                    predictor: predictor.name(),
                    score,
                    features: snapshot,
                });
            }
        }
    }

    fn merge(mut a: Self, b: Self) -> Self {
        for (key, track) in b.ranks {
            let clash = a.ranks.insert(key, track);
            assert!(
                clash.is_none(),
                "predict shards must be rank-disjoint: feature state cannot merge mid-rank"
            );
        }
        a.alerts.extend(b.alerts);
        a
    }

    fn snapshot(&self) -> Vec<Alert> {
        let mut alerts = self.alerts.clone();
        // Same total order as replay(): at most one alert per
        // (rank, predictor), so the key below is unique.
        alerts.sort_by(|a, b| {
            (a.time, a.key.sort_key(), a.predictor).cmp(&(b.time, b.key.sort_key(), b.predictor))
        });
        alerts
    }
}

/// The CE analysis layers behind one [`Analyzer`]: what
/// [`stream_analyze`](super::stream_analyze) drives and what checkpoints
/// serialize.
pub struct StreamAnalyzer {
    pub(crate) system: SystemConfig,
    pub(crate) coalesce: CoalesceAnalyzer,
    pub(crate) spatial: SpatialAnalyzer,
    pub(crate) predict: PredictAnalyzer,
}

impl StreamAnalyzer {
    /// Empty state with the default predictor bank.
    pub fn new(system: SystemConfig, coalesce: CoalesceConfig, predict: PredictConfig) -> Self {
        StreamAnalyzer {
            system,
            coalesce: CoalesceAnalyzer::new(coalesce),
            spatial: SpatialAnalyzer::new(system),
            predict: PredictAnalyzer::new(predict, default_predictors()),
        }
    }

    /// Accounted working set: what the analyzer states pin in memory.
    /// The coalesce footprints dominate (one 32-byte footprint per CE);
    /// the batch path's equivalent gauge (`pipeline.workingset_bytes`)
    /// accounts 48 bytes per CE for the record vector plus the fault
    /// list. The benchmark's `stream.workingset_mib` layer reports this
    /// figure. Predict state is estimated flat per rank (its sets are
    /// private to `astra-predict`).
    pub fn accounted_bytes(&self) -> usize {
        use std::mem::size_of;
        let coalesce = self.coalesce.ces as usize * size_of::<CeFootprint>()
            + self.coalesce.groups.len() * (size_of::<GroupKey>() + size_of::<Vec<CeFootprint>>());
        let spatial = spatial_bytes(&self.spatial.counts);
        let predict = self.predict.ranks.len() * (size_of::<FeatureState>() + 512)
            + self.predict.alerts.len() * size_of::<Alert>();
        coalesce + spatial + predict
    }
}

/// Heap accounting for the spatial tables (fixed-shape vectors plus the
/// frequency tables' distinct keys).
fn spatial_bytes(c: &SpatialCounts) -> usize {
    use std::mem::size_of;
    size_of::<SpatialCounts>()
        + (c.errors_by_bank.len()
            + c.faults_by_bank.len()
            + c.errors_by_col.len()
            + c.faults_by_col.len()
            + c.errors_by_rack.len()
            + c.faults_by_rack.len())
            * size_of::<u64>()
        + c.faults_by_rack_region.len() * size_of::<[u64; 3]>()
        + (c.errors_by_node.distinct()
            + c.faults_by_node.distinct()
            + c.faults_by_bit.distinct()
            + c.faults_by_addr.distinct())
            * 2
            * size_of::<u64>()
}

impl Analyzer for StreamAnalyzer {
    type Report = StreamReport;

    fn consume(&mut self, ev: &MemEvent) {
        self.coalesce.consume(ev);
        self.spatial.consume(ev);
        self.predict.consume(ev);
    }

    fn merge(a: Self, b: Self) -> Self {
        StreamAnalyzer {
            system: a.system,
            coalesce: Analyzer::merge(a.coalesce, b.coalesce),
            spatial: Analyzer::merge(a.spatial, b.spatial),
            predict: Analyzer::merge(a.predict, b.predict),
        }
    }

    fn snapshot(&self) -> StreamReport {
        let faults = self.coalesce.snapshot();
        let mut spatial = self.spatial.snapshot();
        for fault in &faults {
            spatial.absorb_fault(&self.system, fault);
        }

        // Record-index → month lookup for Fig 4, rebuilt from the
        // footprints (every CE left exactly one, keyed by stream index).
        // i32 halves the table next to the batch path's record vector.
        let mut months = vec![0i32; self.coalesce.ces as usize];
        for feet in self.coalesce.groups.values() {
            for f in feet {
                months[f.idx as usize] = f.time.month_index() as i32;
            }
        }
        let fig4 = fig4::compute_with(
            months.iter().map(|&m| i64::from(m)),
            &faults,
            |i| i64::from(months[i as usize]),
            astra_util::time::study_span(),
        );
        let fig5 = fig5::compute_from_parts(&self.system, &spatial);

        StreamReport {
            system: self.system,
            ces: self.coalesce.ces,
            skipped: 0,
            faults,
            spatial,
            fig4,
            fig5,
            alerts: self.predict.snapshot(),
        }
    }
}

/// Everything one pass produced.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Machine configuration the stream was analyzed against.
    pub system: SystemConfig,
    /// CE events consumed.
    pub ces: u64,
    /// Unparseable `ce.log` lines skipped.
    pub skipped: u64,
    /// Coalesced faults (identical to the batch analyzer's).
    pub faults: Vec<ObservedFault>,
    /// Spatial aggregations, fault side included.
    pub spatial: SpatialCounts,
    /// Fig 4 — monthly series and errors-per-fault violin.
    pub fig4: Fig4,
    /// Fig 5 — per-node concentration.
    pub fig5: Fig5,
    /// Online UE-risk alerts (identical to `astra_predict::replay`'s).
    pub alerts: Vec<Alert>,
}

impl StreamReport {
    /// Total CE count.
    pub fn total_errors(&self) -> u64 {
        self.ces
    }

    /// Total coalesced-fault count.
    pub fn total_faults(&self) -> u64 {
        self.faults.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::coalesce;
    use crate::pipeline::Dataset;
    use astra_predict::replay;

    fn ce_events(ds: &Dataset) -> Vec<MemEvent> {
        ds.sim
            .ce_log
            .iter()
            .enumerate()
            .map(|(i, rec)| MemEvent::Ce {
                seq: i as u64,
                rec: *rec,
            })
            .collect()
    }

    #[test]
    fn coalesce_analyzer_matches_batch_coalesce() {
        let ds = Dataset::generate(1, 42);
        let config = CoalesceConfig::default();
        let mut a = CoalesceAnalyzer::new(config);
        for ev in ce_events(&ds) {
            a.consume(&ev);
        }
        assert_eq!(a.snapshot(), coalesce(&ds.sim.ce_log, &config));
    }

    #[test]
    fn coalesce_merge_of_contiguous_shards_is_exact() {
        let ds = Dataset::generate(1, 9);
        let config = CoalesceConfig::default();
        let events = ce_events(&ds);
        let mid = events.len() / 2;
        let mut left = CoalesceAnalyzer::new(config);
        let mut right = CoalesceAnalyzer::new(config);
        for ev in &events[..mid] {
            left.consume(ev);
        }
        for ev in &events[mid..] {
            right.consume(ev);
        }
        let merged = Analyzer::merge(left, right);
        assert_eq!(merged.snapshot(), coalesce(&ds.sim.ce_log, &config));
    }

    #[test]
    fn predict_analyzer_matches_replay() {
        let ds = Dataset::generate(1, 42);
        let config = PredictConfig::default();
        let mut a = PredictAnalyzer::new(config.clone(), default_predictors());
        for ev in ce_events(&ds) {
            a.consume(&ev);
        }
        let expected = replay(&ds.sim.ce_log, &config, &default_predictors());
        assert_eq!(a.snapshot(), expected);
    }

    #[test]
    fn het_analyzer_counts_kinds_and_dues() {
        let ds = Dataset::generate(1, 42);
        let mut a = HetAnalyzer::new();
        for (i, rec) in ds.sim.het_log.iter().enumerate() {
            a.consume(&MemEvent::Het {
                seq: i as u64,
                rec: *rec,
            });
        }
        let report = a.snapshot();
        assert_eq!(report.total, ds.sim.het_log.len() as u64);
        let dues = ds
            .sim
            .het_log
            .iter()
            .filter(|r| r.kind.is_memory_due())
            .count() as u64;
        assert_eq!(report.memory_dues, dues);
        assert_eq!(
            report.daily.iter().map(|(_, _, n)| n).sum::<u64>(),
            report.total
        );
        // Sorted by (kind position, day).
        let keys: Vec<(u8, i64)> = report
            .daily
            .iter()
            .map(|&(k, d, _)| (het_kind_index(k), d))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn tempcorr_analyzer_means_and_monthly_ces() {
        let ds = Dataset::generate(1, 42);
        let mut a = TempCorrAnalyzer::new();
        for ev in ce_events(&ds) {
            a.consume(&ev);
        }
        for (i, rec) in ds.sensor_excerpt().iter().enumerate() {
            a.consume(&MemEvent::Sensor {
                seq: i as u64,
                rec: *rec,
            });
        }
        let (sensors, monthly) = a.snapshot();
        assert!(!sensors.is_empty());
        assert!(sensors.iter().all(|s| s.samples > 0 && s.mean.is_finite()));
        assert_eq!(
            monthly.iter().map(|(_, n)| n).sum::<u64>(),
            ds.sim.ce_log.len() as u64
        );
    }

    #[test]
    fn non_ce_events_do_not_disturb_coalesce_or_predict() {
        let ds = Dataset::generate(1, 3);
        let config = CoalesceConfig::default();
        let mut plain = CoalesceAnalyzer::new(config);
        let mut interleaved = CoalesceAnalyzer::new(config);
        for ev in ce_events(&ds) {
            plain.consume(&ev);
            interleaved.consume(&ev);
            if let Some(het) = ds.sim.het_log.first() {
                interleaved.consume(&MemEvent::Het { seq: 0, rec: *het });
            }
        }
        assert_eq!(plain.snapshot(), interleaved.snapshot());
    }
}
