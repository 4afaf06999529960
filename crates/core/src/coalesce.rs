//! Error → fault coalescing.
//!
//! The algorithm groups the CE stream by `(node, slot, rank)` — the DRAM
//! device population a physical fault is confined to — then, within each
//! group:
//!
//! 1. **Rank-level extraction**: a bit lane whose errors appear in at
//!    least [`CoalesceConfig::pin_bank_threshold`] distinct banks is a
//!    pin/lane defect; all its errors become one rank-level fault. This
//!    runs first because a pin fault would otherwise shatter into one
//!    spurious fault per bank.
//! 2. **Per-bank footprint classification** of the remaining errors:
//!    one address and one bit → single-bit; one address, several bits →
//!    single-word; several addresses in one column → single-column;
//!    several columns → single-bank (which, on Astra, also covers true
//!    single-row faults — the records carry no row).
//!
//! The limitation is the standard one for field studies: two independent
//! faults with overlapping footprints in the same bank merge. The
//! simulator's ground truth lets the test suite measure that confusion
//! instead of guessing at it.

use std::collections::HashMap;

use astra_logs::CeRecord;
use astra_topology::{DimmSlot, NodeId, RankId};
use astra_util::Minute;

use crate::classify::ObservedMode;

/// Tunables for coalescing.
#[derive(Debug, Clone, Copy)]
pub struct CoalesceConfig {
    /// Minimum distinct banks sharing a bit lane before the lane is
    /// declared a rank-level (pin) fault.
    pub pin_bank_threshold: usize,
    /// Minimum distinct columns for a bank group to be considered a
    /// genuinely bank-dispersed fault. Below this, the group is split per
    /// column — two independent faults that happen to share a bank stay
    /// separate (the "minimal fault set" principle).
    pub bank_dispersion_cols: usize,
    /// A bank-dispersed fault must also spread its addresses: if one
    /// column holds more than this share of the distinct addresses, the
    /// group is split per column instead.
    pub bank_max_col_share: f64,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            pin_bank_threshold: 4,
            bank_dispersion_cols: 6,
            bank_max_col_share: 0.5,
        }
    }
}

/// A fault inferred from the error stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedFault {
    /// Node the fault lives on.
    pub node: NodeId,
    /// DIMM slot.
    pub slot: DimmSlot,
    /// Rank within the DIMM.
    pub rank: RankId,
    /// Bank, for per-bank modes; `None` for rank-level faults.
    pub bank: Option<u16>,
    /// Column, for modes confined to one column.
    pub col: Option<u16>,
    /// Inferred mode.
    pub mode: ObservedMode,
    /// Representative bit position (the most common logged value).
    pub bit_pos: u16,
    /// Representative physical address (for single-address modes).
    pub addr: Option<u64>,
    /// Number of errors attributed to this fault.
    pub error_count: u64,
    /// First and last error times.
    pub first_seen: Minute,
    /// Last attributed error.
    pub last_seen: Minute,
    /// Indices into the input record slice for the attributed errors.
    pub record_indices: Vec<u32>,
}

impl ObservedFault {
    /// Month index (Jan 2019 = 0) of each attributed error.
    pub fn error_months<'a>(&'a self, records: &'a [CeRecord]) -> impl Iterator<Item = i64> + 'a {
        self.record_indices
            .iter()
            .map(move |&i| records[i as usize].time.month_index())
    }
}

/// Below this many records the parallel path's partition/spawn overhead
/// outweighs the win; coalesce runs sequentially.
const PARALLEL_COALESCE_MIN_RECORDS: usize = 50_000;

/// The per-error footprint coalescing actually consumes: everything the
/// classifier reads from a [`CeRecord`], in 32 bytes instead of the full
/// record. The incremental engine buffers these instead of whole records,
/// which is what bounds its coalesce state below the batch working set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CeFootprint {
    /// Index of the record in the originating CE stream (file order).
    pub idx: u32,
    /// Error time.
    pub time: Minute,
    /// Bank within the rank.
    pub bank: u16,
    /// Column within the bank.
    pub col: u16,
    /// Failing bit position.
    pub bit_pos: u16,
    /// Physical address of the error.
    pub addr: u64,
}

impl CeFootprint {
    /// Extracts the footprint of `rec`, remembered as stream index `idx`.
    pub fn of_record(idx: u32, rec: &CeRecord) -> CeFootprint {
        CeFootprint {
            idx,
            time: rec.time,
            bank: rec.bank,
            col: rec.col,
            bit_pos: rec.bit_pos,
            addr: rec.addr.0,
        }
    }
}

/// Device-population group key: `(node, slot index, rank)`.
pub(crate) type GroupKey = (u32, u8, u8);

/// Footprints of one CE record stream partitioned by device population.
///
/// Both the batch [`coalesce`] entry point and the incremental engine's
/// coalesce analyzer accumulate into this map, then classify through the
/// same [`classify_groups`] — which is what makes their outputs provably
/// identical.
pub(crate) fn group_footprints(records: &[CeRecord]) -> HashMap<GroupKey, Vec<CeFootprint>> {
    let mut groups: HashMap<GroupKey, Vec<CeFootprint>> = HashMap::new();
    for (i, rec) in records.iter().enumerate() {
        groups
            .entry((rec.node.0, rec.slot.index() as u8, rec.rank.0))
            .or_default()
            .push(CeFootprint::of_record(i as u32, rec));
    }
    groups
}

/// Classify grouped footprints into the sorted fault list, fanning groups
/// across workers when `total_records` crosses the parallel threshold.
/// Sets the `coalesce.groups` / `coalesce.mode.*` gauges and emits the
/// `coalesce` span. Single code path for batch and streaming — groups are
/// borrowed so a streaming snapshot classifies in place without cloning
/// its accumulated footprint state.
pub(crate) fn classify_groups(
    mut groups: Vec<(GroupKey, &[CeFootprint])>,
    total_records: usize,
    config: &CoalesceConfig,
) -> Vec<ObservedFault> {
    let _span = astra_obs::span("coalesce");
    groups.sort_unstable_by_key(|(key, _)| *key);

    let run_group = |&(key, feet): &(GroupKey, &[CeFootprint])| -> Vec<ObservedFault> {
        let mut local = Vec::new();
        coalesce_group(key, feet, config, &mut local);
        local
    };

    let parallel = total_records >= PARALLEL_COALESCE_MIN_RECORDS
        && astra_util::par::worker_count(groups.len()) > 1;
    let per_group: Vec<Vec<ObservedFault>> = if parallel {
        astra_util::par::par_map(&groups, run_group)
    } else {
        groups.iter().map(run_group).collect()
    };
    let mut out: Vec<ObservedFault> = Vec::with_capacity(per_group.iter().map(Vec::len).sum());
    out.extend(per_group.into_iter().flatten());
    sort_faults(&mut out);
    set_state_gauges(groups.len(), &out);
    out
}

/// The output order: `(node, slot, rank, first_seen, bit_pos, bank)`,
/// stable, so faults that tie keep the order their group pushed them in.
fn sort_faults(faults: &mut [ObservedFault]) {
    faults.sort_by_key(|f| {
        (
            f.node.0,
            f.slot.index() as u8,
            f.rank.0,
            f.first_seen,
            f.bit_pos,
            f.bank,
        )
    });
}

/// Groups and faults per mode are state, not events: a fault's mode can
/// change as its errors arrive, and `serve` classifies on every publish.
/// So they are gauges, set to the latest classification.
fn set_state_gauges(groups: usize, faults: &[ObservedFault]) {
    let mut per_mode = [0u64; ObservedMode::ALL.len()];
    for fault in faults {
        per_mode[fault.mode.index()] += 1;
    }
    let obs = astra_obs::global();
    obs.gauge("coalesce.groups").set(groups as f64);
    for mode in ObservedMode::ALL {
        obs.gauge(&format!("coalesce.mode.{}", mode.name()))
            .set(per_mode[mode.index()] as f64);
    }
}

/// Coalesce a CE record stream into observed faults.
///
/// Records may arrive in any order; output is sorted by
/// `(node, slot, rank, first_seen)` and is deterministic.
///
/// `(node, slot, rank)` groups are independent by construction, so large
/// inputs fan the groups out across workers with `par_map`; the group
/// list is key-sorted first and each group's work is order-insensitive,
/// so the output is bit-identical to the sequential path at any worker
/// count.
pub fn coalesce(records: &[CeRecord], config: &CoalesceConfig) -> Vec<ObservedFault> {
    let groups = group_footprints(records);
    let views: Vec<(GroupKey, &[CeFootprint])> = groups
        .iter()
        .map(|(key, feet)| (*key, feet.as_slice()))
        .collect();
    classify_groups(views, records.len(), config)
}

/// Run keys below this are pin lanes (the key is the lane); from it up,
/// `(bank, col)` pairs. Pin-lane faults are pushed first, as the
/// rank-level pass of the classifier runs first.
const BANK_RUNS: u64 = 1 << 32;

/// Coalesce one `(node, slot, rank)` group from sorted runs.
///
/// The footprints of each pin lane, and then of each `(bank, col)`, are
/// brought together by one stable counting sort, so each run keeps
/// stream order; every fault is then built from one run (or, for a
/// single-bank fault, one bank's runs) in a single scan. The faults and
/// their push order are those of the map-based classifier this replaced
/// (the test oracle below).
fn coalesce_group(
    key: GroupKey,
    feet: &[CeFootprint],
    config: &CoalesceConfig,
    out: &mut Vec<ObservedFault>,
) {
    let (node, slot, rank) = key;
    let group = Group {
        node: NodeId(node),
        slot: DimmSlot::from_index(slot).expect("slot from grouping"),
        rank: RankId(rank),
        feet,
    };

    // Pin lanes: bit positions seen in at least `pin_bank_threshold`
    // distinct banks.
    let mut lane_banks: Vec<u32> =
        dedup_streaks(feet, |f| u32::from(f.bit_pos) << 16 | u32::from(f.bank));
    lane_banks.sort_unstable();
    lane_banks.dedup();
    let pins: Vec<u16> = lane_banks
        .chunk_by(|a, b| a >> 16 == b >> 16)
        .filter(|banks| banks.len() >= config.pin_bank_threshold)
        .map(|banks| (banks[0] >> 16) as u16)
        .collect();
    let run_key = |f: &CeFootprint| {
        if pins.binary_search(&f.bit_pos).is_ok() {
            u64::from(f.bit_pos)
        } else {
            BANK_RUNS | u64::from(f.bank) << 16 | u64::from(f.col)
        }
    };
    let runs = Runs::sort(feet, run_key);

    let first_bank = runs.keys.partition_point(|&key| key < BANK_RUNS);
    for (r, &lane) in runs.keys[..first_bank].iter().enumerate() {
        out.push(group.fault(
            runs.run(r..r + 1),
            None,
            None,
            ObservedMode::RankLevel,
            lane as u16,
            None,
        ));
    }
    let mut scratch = Scratch::default();
    let mut r = first_bank;
    while r < runs.keys.len() {
        let bank = runs.keys[r] >> 16;
        let end = r + runs.keys[r..].partition_point(|&key| key >> 16 == bank);
        group.classify_bank(&runs, r..end, config, &mut scratch, out);
        r = end;
    }
}

/// `key` of each footprint, with repeats in a row dropped: errors come
/// in streaks, so this shrinks what the caller then sorts.
fn dedup_streaks<T: PartialEq>(feet: &[CeFootprint], key: impl Fn(&CeFootprint) -> T) -> Vec<T> {
    let mut out: Vec<T> = Vec::new();
    for f in feet {
        let k = key(f);
        if out.last() != Some(&k) {
            out.push(k);
        }
    }
    out
}

/// A group's footprint positions sorted by run key, stably.
struct Runs {
    /// The distinct run keys, ascending.
    keys: Vec<u64>,
    /// `order[starts[r]..starts[r + 1]]` is run `r`.
    starts: Vec<usize>,
    /// Positions into the group's footprints, run by run, each run in
    /// stream order.
    order: Vec<u32>,
}

impl Runs {
    /// Counting sort: a group has far fewer distinct keys than
    /// footprints, so each footprint costs a lookup (usually of the key
    /// it repeats) instead of a comparison sort's log n moves.
    fn sort(feet: &[CeFootprint], key: impl Fn(&CeFootprint) -> u64) -> Runs {
        let mut keys = dedup_streaks(feet, &key);
        keys.sort_unstable();
        keys.dedup();
        let mut which: Vec<u32> = Vec::with_capacity(feet.len());
        let mut starts = vec![0usize; keys.len() + 1];
        let mut last = (u64::MAX, 0);
        for f in feet {
            let k = key(f);
            if k != last.0 {
                let r = keys.binary_search(&k).expect("every key was collected");
                last = (k, r);
            }
            which.push(last.1 as u32);
            starts[last.1 + 1] += 1;
        }
        for r in 1..starts.len() {
            starts[r] += starts[r - 1];
        }
        let mut next = starts.clone();
        let mut order = vec![0u32; feet.len()];
        for (pos, &r) in (0u32..).zip(&which) {
            order[next[r as usize]] = pos;
            next[r as usize] += 1;
        }
        Runs {
            keys,
            starts,
            order,
        }
    }

    /// The positions of runs `runs`, which lie next to each other.
    fn run(&self, runs: std::ops::Range<usize>) -> &[u32] {
        &self.order[self.starts[runs.start]..self.starts[runs.end]]
    }
}

/// One group's identity and footprints.
struct Group<'a> {
    node: NodeId,
    slot: DimmSlot,
    rank: RankId,
    feet: &'a [CeFootprint],
}

/// Per-bank buffers reused across one group's banks; none outgrows the
/// group.
#[derive(Default)]
struct Scratch {
    /// One column's distinct addresses.
    addrs: Vec<u64>,
    /// The bank's distinct addresses, across its columns.
    bank_addrs: Vec<u64>,
    /// Per column of the bank: distinct address count and the smallest.
    cols: Vec<(usize, u64)>,
    /// Bit positions of one fault, for its majority.
    bits: Vec<u16>,
}

impl Group<'_> {
    /// Classify the errors of one `(node, slot, rank, bank)` group into
    /// the minimal consistent fault set; `bank` ranges over the bank's
    /// `(bank, col)` runs.
    ///
    /// A *bank-dispersed* footprint — many columns, no single column
    /// holding most of the addresses — is one single-bank fault (on Astra
    /// this bucket also covers true single-row faults, §3.2). Anything
    /// narrower is split per column, so two independent faults sharing a
    /// bank are not merged: a column holding several addresses is a
    /// single-column fault; a single address is a single-bit or
    /// single-word fault.
    fn classify_bank(
        &self,
        runs: &Runs,
        bank: std::ops::Range<usize>,
        config: &CoalesceConfig,
        scratch: &mut Scratch,
        out: &mut Vec<ObservedFault>,
    ) {
        let bank_id = (runs.keys[bank.start] >> 16) as u16;
        scratch.cols.clear();
        scratch.bank_addrs.clear();
        for r in bank.clone() {
            scratch.addrs.clear();
            for &pos in runs.run(r..r + 1) {
                let addr = self.feet[pos as usize].addr;
                if scratch.addrs.last() != Some(&addr) {
                    scratch.addrs.push(addr);
                }
            }
            scratch.addrs.sort_unstable();
            scratch.addrs.dedup();
            scratch.cols.push((scratch.addrs.len(), scratch.addrs[0]));
            scratch.bank_addrs.extend_from_slice(&scratch.addrs);
        }
        scratch.bank_addrs.sort_unstable();
        scratch.bank_addrs.dedup();

        // Bank-dispersed: many columns, addresses spread across them.
        let max_col_addrs = scratch.cols.iter().map(|&(n, _)| n).max().unwrap_or(0);
        let dispersed = scratch.cols.len() >= config.bank_dispersion_cols
            && (max_col_addrs as f64) < config.bank_max_col_share * scratch.bank_addrs.len() as f64;
        if dispersed {
            let feet = runs.run(bank);
            let lane = self.majority_bit(feet, &mut scratch.bits);
            out.push(self.fault(
                feet,
                Some(bank_id),
                None,
                ObservedMode::SingleBank,
                lane,
                None,
            ));
            return;
        }

        // Otherwise split per column.
        for (r, &(addrs, addr)) in bank.zip(&scratch.cols) {
            let col = runs.run(r..r + 1);
            let (mode, addr) = if addrs == 1 {
                let bit = self.feet[col[0] as usize].bit_pos;
                if col
                    .iter()
                    .all(|&pos| self.feet[pos as usize].bit_pos == bit)
                {
                    (ObservedMode::SingleBit, Some(addr))
                } else {
                    (ObservedMode::SingleWord, Some(addr))
                }
            } else {
                (ObservedMode::SingleColumn, None)
            };
            let lane = self.majority_bit(col, &mut scratch.bits);
            out.push(self.fault(
                col,
                Some(bank_id),
                Some(runs.keys[r] as u16),
                mode,
                lane,
                addr,
            ));
        }
    }

    /// Most common bit position among the footprints at `positions`
    /// (ties → smallest).
    fn majority_bit(&self, positions: &[u32], bits: &mut Vec<u16>) -> u16 {
        bits.clear();
        bits.extend(positions.iter().map(|&pos| self.feet[pos as usize].bit_pos));
        bits.sort_unstable();
        let mut best = (0, 0);
        for same in bits.chunk_by(|a, b| a == b) {
            if same.len() > best.0 {
                best = (same.len(), same[0]);
            }
        }
        best.1
    }

    /// The fault made of the footprints at `positions`.
    fn fault(
        &self,
        positions: &[u32],
        bank: Option<u16>,
        col: Option<u16>,
        mode: ObservedMode,
        bit_pos: u16,
        addr: Option<u64>,
    ) -> ObservedFault {
        let mut record_indices = Vec::with_capacity(positions.len());
        let mut first_seen = self.feet[positions[0] as usize].time;
        let mut last_seen = first_seen;
        for &pos in positions {
            let f = &self.feet[pos as usize];
            record_indices.push(f.idx);
            first_seen = first_seen.min(f.time);
            last_seen = last_seen.max(f.time);
        }
        // A run keeps stream order, which is index order in every caller
        // (a single-bank fault's columns interleave, though).
        if !record_indices.is_sorted() {
            record_indices.sort_unstable();
        }
        ObservedFault {
            node: self.node,
            slot: self.slot,
            rank: self.rank,
            bank,
            col,
            mode,
            bit_pos,
            addr,
            error_count: record_indices.len() as u64,
            first_seen,
            last_seen,
            record_indices,
        }
    }
}

/// The map-based classifier the sorted-run kernel replaced, kept as the
/// oracle the kernel's tests compare against: every footprint goes
/// through hash-map and tree-set inserts and is copied into per-lane,
/// per-bank and per-column lists.
#[cfg(test)]
mod oracle {
    use std::collections::{BTreeSet, HashMap};

    use super::*;

    /// [`classify_groups`] with this classifier, sequentially.
    pub(super) fn classify(
        groups: &[(GroupKey, &[CeFootprint])],
        config: &CoalesceConfig,
    ) -> Vec<ObservedFault> {
        let mut groups = groups.to_vec();
        groups.sort_unstable_by_key(|(key, _)| *key);
        let mut out = Vec::new();
        for &((node, slot, rank), feet) in &groups {
            let slot = DimmSlot::from_index(slot).expect("slot from grouping");
            coalesce_group(NodeId(node), slot, RankId(rank), feet, config, &mut out);
        }
        sort_faults(&mut out);
        out
    }

    /// Coalesce one `(node, slot, rank)` group.
    pub(super) fn coalesce_group(
        node: NodeId,
        slot: DimmSlot,
        rank: RankId,
        feet: &[CeFootprint],
        config: &CoalesceConfig,
        out: &mut Vec<ObservedFault>,
    ) {
        // Pass 1: find pin lanes — bit positions seen in many banks.
        let mut lane_banks: HashMap<u16, BTreeSet<u16>> = HashMap::new();
        for f in feet {
            lane_banks.entry(f.bit_pos).or_default().insert(f.bank);
        }
        let pin_lanes: BTreeSet<u16> = lane_banks
            .iter()
            .filter(|(_, banks)| banks.len() >= config.pin_bank_threshold)
            .map(|(&lane, _)| lane)
            .collect();

        let mut per_lane: HashMap<u16, Vec<CeFootprint>> = HashMap::new();
        let mut per_bank: HashMap<u16, Vec<CeFootprint>> = HashMap::new();
        for f in feet {
            if pin_lanes.contains(&f.bit_pos) {
                per_lane.entry(f.bit_pos).or_default().push(*f);
            } else {
                per_bank.entry(f.bank).or_default().push(*f);
            }
        }

        // Rank-level faults, one per pin lane.
        let mut lanes: Vec<(u16, Vec<CeFootprint>)> = per_lane.into_iter().collect();
        lanes.sort_by_key(|(lane, _)| *lane);
        for (lane, lane_feet) in lanes {
            out.push(build_fault(
                node,
                slot,
                rank,
                None,
                None,
                ObservedMode::RankLevel,
                lane,
                None,
                lane_feet,
            ));
        }

        // Per-bank footprint classification.
        let mut banks: Vec<(u16, Vec<CeFootprint>)> = per_bank.into_iter().collect();
        banks.sort_by_key(|(bank, _)| *bank);
        for (bank, bank_feet) in banks {
            classify_bank_group(node, slot, rank, bank, bank_feet, config, out);
        }
    }

    /// Classify the errors of one `(node, slot, rank, bank)` group into
    /// the minimal consistent fault set.
    #[allow(clippy::too_many_arguments)]
    fn classify_bank_group(
        node: NodeId,
        slot: DimmSlot,
        rank: RankId,
        bank: u16,
        feet: Vec<CeFootprint>,
        config: &CoalesceConfig,
        out: &mut Vec<ObservedFault>,
    ) {
        let mut addrs = BTreeSet::new();
        let mut cols = BTreeSet::new();
        let mut col_addrs: HashMap<u16, BTreeSet<u64>> = HashMap::new();
        for f in &feet {
            addrs.insert(f.addr);
            cols.insert(f.col);
            col_addrs.entry(f.col).or_default().insert(f.addr);
        }

        // Bank-dispersed: many columns, addresses spread across them.
        let max_col_addrs = col_addrs.values().map(|a| a.len()).max().unwrap_or(0);
        let dispersed = cols.len() >= config.bank_dispersion_cols
            && (max_col_addrs as f64) < config.bank_max_col_share * addrs.len() as f64;
        if dispersed {
            let lane = majority_bit(&feet);
            out.push(build_fault(
                node,
                slot,
                rank,
                Some(bank),
                None,
                ObservedMode::SingleBank,
                lane,
                None,
                feet,
            ));
            return;
        }

        // Otherwise split per column.
        let mut per_col: HashMap<u16, Vec<CeFootprint>> = HashMap::new();
        for f in feet {
            per_col.entry(f.col).or_default().push(f);
        }
        let mut col_groups: Vec<(u16, Vec<CeFootprint>)> = per_col.into_iter().collect();
        col_groups.sort_by_key(|(col, _)| *col);
        for (col, col_feet) in col_groups {
            let mut col_addr_bits = BTreeSet::new();
            let mut col_addr_set = BTreeSet::new();
            for f in &col_feet {
                col_addr_set.insert(f.addr);
                col_addr_bits.insert((f.addr, f.bit_pos));
            }
            let (mode, addr) = if col_addr_set.len() == 1 {
                let addr = Some(*col_addr_set.iter().next().expect("nonempty"));
                if col_addr_bits.len() == 1 {
                    (ObservedMode::SingleBit, addr)
                } else {
                    (ObservedMode::SingleWord, addr)
                }
            } else {
                (ObservedMode::SingleColumn, None)
            };
            let lane = majority_bit(&col_feet);
            out.push(build_fault(
                node,
                slot,
                rank,
                Some(bank),
                Some(col),
                mode,
                lane,
                addr,
                col_feet,
            ));
        }
    }

    /// Most common bit position in a set of footprints (ties → smallest).
    fn majority_bit(feet: &[CeFootprint]) -> u16 {
        let mut counts: HashMap<u16, u32> = HashMap::new();
        for f in feet {
            *counts.entry(f.bit_pos).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(bit, _)| bit)
            .expect("nonempty footprint set")
    }

    #[allow(clippy::too_many_arguments)]
    fn build_fault(
        node: NodeId,
        slot: DimmSlot,
        rank: RankId,
        bank: Option<u16>,
        col: Option<u16>,
        mode: ObservedMode,
        bit_pos: u16,
        addr: Option<u64>,
        feet: Vec<CeFootprint>,
    ) -> ObservedFault {
        let mut record_indices: Vec<u32> = feet.iter().map(|f| f.idx).collect();
        record_indices.sort_unstable();
        let first = feet
            .iter()
            .map(|f| f.time)
            .min()
            .expect("fault with no records");
        let last = feet
            .iter()
            .map(|f| f.time)
            .max()
            .expect("fault with no records");
        ObservedFault {
            node,
            slot,
            rank,
            bank,
            col,
            mode,
            bit_pos,
            addr,
            error_count: record_indices.len() as u64,
            first_seen: first,
            last_seen: last,
            record_indices,
        }
    }
}

#[cfg(test)]
#[allow(clippy::too_many_arguments)]
mod tests {
    use super::*;
    use astra_topology::{PhysAddr, SocketId};
    use astra_util::{CalDate, DetRng};

    fn rec(
        node: u32,
        slot: char,
        rank: u8,
        bank: u16,
        col: u16,
        bit: u16,
        addr: u64,
        minute: i64,
    ) -> CeRecord {
        let slot = DimmSlot::from_letter(slot).unwrap();
        CeRecord {
            time: CalDate::new(2019, 3, 1).midnight().plus(minute),
            node: NodeId(node),
            socket: slot.socket(),
            slot,
            rank: RankId(rank),
            bank,
            row: None,
            col,
            bit_pos: bit,
            addr: PhysAddr(addr),
            syndrome: 0,
        }
    }

    fn run(records: &[CeRecord]) -> Vec<ObservedFault> {
        coalesce(records, &CoalesceConfig::default())
    }

    #[test]
    fn empty_input() {
        assert!(run(&[]).is_empty());
    }

    #[test]
    fn one_error_is_single_bit() {
        let faults = run(&[rec(1, 'A', 0, 3, 7, 42, 0x1000, 0)]);
        assert_eq!(faults.len(), 1);
        let f = &faults[0];
        assert_eq!(f.mode, ObservedMode::SingleBit);
        assert_eq!(f.error_count, 1);
        assert_eq!(f.bank, Some(3));
        assert_eq!(f.addr, Some(0x1000));
        assert_eq!(f.socket_id(), SocketId(0));
    }

    #[test]
    fn repeated_same_location_is_one_single_bit_fault() {
        let records: Vec<CeRecord> = (0..50)
            .map(|m| rec(1, 'B', 1, 2, 9, 100, 0x2000, m))
            .collect();
        let faults = run(&records);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].mode, ObservedMode::SingleBit);
        assert_eq!(faults[0].error_count, 50);
    }

    #[test]
    fn same_word_different_bits_is_single_word() {
        let records = vec![
            rec(1, 'C', 0, 1, 5, 64, 0x3000, 0),
            rec(1, 'C', 0, 1, 5, 65, 0x3000, 1),
            rec(1, 'C', 0, 1, 5, 70, 0x3000, 2),
        ];
        let faults = run(&records);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].mode, ObservedMode::SingleWord);
    }

    #[test]
    fn same_column_many_addresses_is_single_column() {
        let records: Vec<CeRecord> = (0..10)
            .map(|i| rec(1, 'D', 0, 6, 33, 9, 0x4000 + i, i as i64))
            .collect();
        let faults = run(&records);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].mode, ObservedMode::SingleColumn);
        assert_eq!(faults[0].col, Some(33));
    }

    #[test]
    fn multi_column_same_bank_is_single_bank() {
        let records: Vec<CeRecord> = (0..10)
            .map(|i| rec(1, 'E', 0, 6, i as u16, 9, 0x5000 + i, i as i64))
            .collect();
        let faults = run(&records);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].mode, ObservedMode::SingleBank);
        assert_eq!(faults[0].bank, Some(6));
    }

    #[test]
    fn pin_lane_across_banks_is_rank_level() {
        // Same bit lane in 6 banks.
        let records: Vec<CeRecord> = (0..12)
            .map(|i| {
                rec(
                    1,
                    'F',
                    1,
                    (i % 6) as u16,
                    i as u16,
                    200,
                    0x6000 + i,
                    i as i64,
                )
            })
            .collect();
        let faults = run(&records);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].mode, ObservedMode::RankLevel);
        assert_eq!(faults[0].bank, None);
        assert_eq!(faults[0].error_count, 12);
        assert_eq!(faults[0].bit_pos, 200);
    }

    #[test]
    fn below_pin_threshold_stays_per_bank() {
        // Same bit in only 3 banks (< default threshold 4): three
        // independent single-bit faults.
        let records: Vec<CeRecord> = (0..3)
            .map(|i| rec(1, 'G', 0, i as u16, 5, 77, 0x7000 + i, i as i64))
            .collect();
        let faults = run(&records);
        assert_eq!(faults.len(), 3);
        assert!(faults.iter().all(|f| f.mode == ObservedMode::SingleBit));
    }

    #[test]
    fn pin_lane_coexists_with_independent_fault() {
        let mut records: Vec<CeRecord> = (0..8)
            .map(|i| rec(1, 'H', 0, i as u16, 2, 300, 0x8000 + i, i as i64))
            .collect();
        // An unrelated stuck bit in bank 0, different lane.
        records.push(rec(1, 'H', 0, 0, 9, 17, 0x9000, 20));
        records.push(rec(1, 'H', 0, 0, 9, 17, 0x9000, 21));
        let faults = run(&records);
        assert_eq!(faults.len(), 2);
        let modes: Vec<ObservedMode> = faults.iter().map(|f| f.mode).collect();
        assert!(modes.contains(&ObservedMode::RankLevel));
        assert!(modes.contains(&ObservedMode::SingleBit));
    }

    #[test]
    fn separate_ranks_do_not_merge() {
        let records = vec![
            rec(1, 'I', 0, 1, 1, 10, 0xA000, 0),
            rec(1, 'I', 1, 1, 1, 10, 0xA000, 1),
        ];
        let faults = run(&records);
        assert_eq!(faults.len(), 2);
    }

    #[test]
    fn separate_nodes_do_not_merge() {
        let records = vec![
            rec(1, 'J', 0, 1, 1, 10, 0xB000, 0),
            rec(2, 'J', 0, 1, 1, 10, 0xB000, 1),
        ];
        assert_eq!(run(&records).len(), 2);
    }

    #[test]
    fn independent_bit_faults_in_same_bank_stay_separate() {
        // Two sticky single-bit faults that happen to share a bank must
        // not merge into a phantom single-bank fault (the minimal-fault-
        // set principle).
        let mut records: Vec<CeRecord> = (0..40)
            .map(|m| rec(1, 'O', 0, 3, 10, 21, 0xAA00, m))
            .collect();
        records.extend((0..25).map(|m| rec(1, 'O', 0, 3, 55, 99, 0xBB00, 100 + m)));
        let faults = run(&records);
        assert_eq!(faults.len(), 2, "faults: {faults:?}");
        assert!(faults.iter().all(|f| f.mode == ObservedMode::SingleBit));
        let counts: Vec<u64> = faults.iter().map(|f| f.error_count).collect();
        assert!(counts.contains(&40) && counts.contains(&25));
    }

    #[test]
    fn column_fault_plus_bit_fault_in_same_bank_split() {
        // A column fault (many addresses, one column) plus an unrelated
        // stuck bit in another column of the same bank.
        let mut records: Vec<CeRecord> = (0..20)
            .map(|i| rec(1, 'P', 1, 7, 12, 5, 0xC000 + i, i as i64))
            .collect();
        records.push(rec(1, 'P', 1, 7, 90, 300, 0xD000, 50));
        records.push(rec(1, 'P', 1, 7, 90, 300, 0xD000, 51));
        let faults = run(&records);
        assert_eq!(faults.len(), 2, "faults: {faults:?}");
        let modes: Vec<ObservedMode> = faults.iter().map(|f| f.mode).collect();
        assert!(modes.contains(&ObservedMode::SingleColumn));
        assert!(modes.contains(&ObservedMode::SingleBit));
    }

    #[test]
    fn record_indices_cover_input_exactly_once() {
        let records: Vec<CeRecord> = (0..40)
            .map(|i| {
                rec(
                    (i % 3) as u32,
                    if i % 2 == 0 { 'K' } else { 'L' },
                    (i % 2) as u8,
                    (i % 5) as u16,
                    (i % 7) as u16,
                    (i % 11) as u16 * 13,
                    0xC000 + (i % 13),
                    i as i64,
                )
            })
            .collect();
        let faults = run(&records);
        let mut seen = vec![false; records.len()];
        for f in &faults {
            assert_eq!(f.error_count as usize, f.record_indices.len());
            for &i in &f.record_indices {
                assert!(!seen[i as usize], "record {i} attributed twice");
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&v| v), "every record must be attributed");
    }

    #[test]
    fn first_and_last_seen() {
        let records = vec![
            rec(1, 'M', 0, 1, 1, 10, 0xD000, 500),
            rec(1, 'M', 0, 1, 1, 10, 0xD000, 100),
            rec(1, 'M', 0, 1, 1, 10, 0xD000, 900),
        ];
        let f = &run(&records)[0];
        assert_eq!(f.first_seen.value() % 1440, 100);
        assert_eq!(f.last_seen.value() % 1440, 900);
    }

    #[test]
    fn deterministic_regardless_of_input_order() {
        let mut records: Vec<CeRecord> = (0..30)
            .map(|i| {
                rec(
                    1,
                    'N',
                    0,
                    (i % 8) as u16,
                    (i % 4) as u16,
                    50,
                    0xE000 + i,
                    i as i64,
                )
            })
            .collect();
        let a = run(&records);
        records.reverse();
        let b = run(&records);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.mode, y.mode);
            assert_eq!(x.error_count, y.error_count);
            assert_eq!(x.bank, y.bank);
        }
    }

    /// A footprint at stream index `idx`.
    fn foot(idx: u32, bank: u16, col: u16, bit_pos: u16, addr: u64, minute: i64) -> CeFootprint {
        CeFootprint {
            idx,
            time: Minute::from_i64(minute),
            bank,
            col,
            bit_pos,
            addr,
        }
    }

    /// Classifies `groups` with the kernel and with the oracle, asserts
    /// the two agree, and returns the faults.
    fn check(
        groups: &[(GroupKey, Vec<CeFootprint>)],
        config: &CoalesceConfig,
    ) -> Vec<ObservedFault> {
        let views: Vec<(GroupKey, &[CeFootprint])> = groups
            .iter()
            .map(|(key, feet)| (*key, feet.as_slice()))
            .collect();
        let total = views.iter().map(|(_, feet)| feet.len()).sum();
        let got = classify_groups(views.clone(), total, config);
        assert_eq!(got, oracle::classify(&views, config));
        got
    }

    /// One group on node 1, slot A, rank 0.
    fn one_group(feet: Vec<CeFootprint>) -> Vec<ObservedFault> {
        check(&[((1, 0, 0), feet)], &CoalesceConfig::default())
    }

    #[test]
    fn kernel_matches_oracle_on_arbitrary_footprints() {
        // A small coordinate space, so that lanes cross banks, columns
        // share addresses and faults tie; configs around the defaults.
        let mut rng = DetRng::new(0x5eed_c0a1);
        for case in 0..400 {
            let config = if case % 2 == 0 {
                CoalesceConfig::default()
            } else {
                CoalesceConfig {
                    pin_bank_threshold: 1 + rng.below(6) as usize,
                    bank_dispersion_cols: 1 + rng.below(8) as usize,
                    bank_max_col_share: [0.25, 0.5, 0.75, 1.0][rng.below(4) as usize],
                }
            };
            let mut groups: Vec<(GroupKey, Vec<CeFootprint>)> = (0..1 + rng.below(4))
                .map(|g| {
                    (
                        (g as u32, rng.below(16) as u8, rng.below(2) as u8),
                        Vec::new(),
                    )
                })
                .collect();
            groups.sort_unstable_by_key(|(key, _)| *key);
            groups.dedup_by_key(|(key, _)| *key);
            for idx in 0..rng.below(300) as u32 {
                let g = rng.below(groups.len() as u64) as usize;
                groups[g].1.push(foot(
                    idx,
                    rng.below(8) as u16,
                    rng.below(8) as u16,
                    rng.below(6) as u16 * 7,
                    rng.below(12) * 64,
                    rng.below(200) as i64,
                ));
            }
            groups.retain(|(_, feet)| !feet.is_empty());
            if case % 5 == 0 {
                // Footprints out of index order: what no caller feeds,
                // but the output must still match.
                for (_, feet) in &mut groups {
                    feet.reverse();
                }
            }
            check(&groups, &config);
        }
    }

    #[test]
    fn a_lane_is_a_pin_lane_from_the_threshold_on() {
        let threshold = CoalesceConfig::default().pin_bank_threshold as u16;
        for banks in [threshold - 1, threshold] {
            let feet = (0..banks)
                .map(|b| foot(b as u32, b, 3, 77, 64 * b as u64, b as i64))
                .collect();
            let faults = one_group(feet);
            if banks == threshold {
                assert_eq!(faults.len(), 1);
                assert_eq!(faults[0].mode, ObservedMode::RankLevel);
            } else {
                assert_eq!(faults.len(), banks as usize);
                assert!(faults.iter().all(|f| f.mode == ObservedMode::SingleBit));
            }
        }
    }

    #[test]
    fn a_column_holding_exactly_the_share_splits_the_bank() {
        // Six columns (`bank_dispersion_cols`), 12 addresses, column 0
        // holding 6 of them: 6 is not below 0.5 x 12, so the bank splits
        // per column. One address fewer in column 0 makes it dispersed.
        let config = CoalesceConfig::default();
        let mut feet: Vec<CeFootprint> =
            (0..6).map(|a| foot(a, 2, 0, 9, 64 * a as u64, 0)).collect();
        for (i, col) in [1, 1, 2, 3, 4, 5].into_iter().enumerate() {
            feet.push(foot(6 + i as u32, 2, col, 9, 64 * (6 + i as u64), 1));
        }
        assert_eq!(config.bank_dispersion_cols, 6);
        let split = one_group(feet.clone());
        assert_eq!(split.len(), 6);
        assert!(split.iter().all(|f| f.mode != ObservedMode::SingleBank));
        feet.remove(5);
        let dispersed = one_group(feet);
        assert_eq!(dispersed.len(), 1);
        assert_eq!(dispersed[0].mode, ObservedMode::SingleBank);
    }

    #[test]
    fn majority_bit_ties_go_to_the_smallest_bit() {
        let bits = [9, 5, 5, 3, 3, 9, 1];
        let feet = (0u32..)
            .zip(bits)
            .map(|(i, bit)| foot(i, 1, 1, bit, 64 * u64::from(i), i as i64))
            .collect();
        let faults = one_group(feet);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].mode, ObservedMode::SingleColumn);
        assert_eq!(faults[0].bit_pos, 3);
    }

    #[test]
    fn an_address_logged_in_two_columns_counts_once_in_its_bank() {
        // Column 0 holds 3 addresses; the bank holds 6 distinct ones but
        // 8 (column, address) pairs. 3 is not below half of 6, so the
        // bank splits; counting an address once per column would make
        // it dispersed.
        let cols_addrs = [
            (0, 0),
            (0, 1),
            (0, 2),
            (1, 0),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 3),
        ];
        let feet = (0u32..)
            .zip(cols_addrs)
            .map(|(i, (col, addr))| foot(i, 4, col, 11, 64 * addr, 0))
            .collect();
        let faults = one_group(feet);
        let modes: Vec<ObservedMode> = faults.iter().map(|f| f.mode).collect();
        assert_eq!(modes.len(), 6, "{faults:?}");
        assert_eq!(modes[0], ObservedMode::SingleColumn);
        assert!(modes[1..].iter().all(|&m| m == ObservedMode::SingleBit));
    }

    #[test]
    fn a_hundred_thousand_repeats_are_one_single_bit_fault() {
        let feet = (0..100_000)
            .map(|i| foot(i, 5, 6, 7, 0x40, i as i64))
            .collect();
        let faults = one_group(feet);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].mode, ObservedMode::SingleBit);
        assert_eq!(faults[0].error_count, 100_000);
        assert!(faults[0].record_indices.iter().copied().eq(0..100_000));
    }

    #[test]
    fn faults_that_tie_in_the_output_order_keep_their_push_order() {
        // Same bank, bit and first error: the final sort keeps the order
        // the group pushed them in, which is column order.
        let feet = vec![
            foot(0, 3, 40, 8, 0x400, 5),
            foot(1, 3, 10, 8, 0x100, 5),
            foot(2, 3, 40, 8, 0x400, 6),
        ];
        let faults = one_group(feet);
        let cols: Vec<Option<u16>> = faults.iter().map(|f| f.col).collect();
        assert_eq!(cols, [Some(10), Some(40)]);
    }

    #[test]
    fn kernel_matches_oracle_on_simulated_machines() {
        // Two racks of every profile, at one worker and at four (the
        // parallel path starts at 50,000 records).
        for profile in astra_platform::registry() {
            let sim = astra_faultsim::simulate(&profile.system(Some(2)), &profile.sim, 7);
            let groups = group_footprints(&sim.ce_log);
            let views: Vec<(GroupKey, &[CeFootprint])> = groups
                .iter()
                .map(|(key, feet)| (*key, feet.as_slice()))
                .collect();
            let want = oracle::classify(&views, &CoalesceConfig::default());
            assert!(!want.is_empty(), "{}", profile.name);
            for workers in [1, 4] {
                astra_util::par::set_workers(Some(workers));
                let got =
                    classify_groups(views.clone(), sim.ce_log.len(), &CoalesceConfig::default());
                astra_util::par::set_workers(None);
                assert!(got == want, "{} at {workers} workers", profile.name);
            }
        }
    }

    impl ObservedFault {
        fn socket_id(&self) -> SocketId {
            self.slot.socket()
        }
    }
}
