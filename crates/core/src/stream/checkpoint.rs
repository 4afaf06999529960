//! Checkpoint serialization for the incremental engine.
//!
//! A checkpoint is a line-oriented UTF-8 snapshot of the full
//! [`StreamAnalyzer`] state plus the resume point — the number of parsed
//! records consumed from each log. Resuming replays each file and drops
//! that many parsed records; unparseable-line skipping is deterministic,
//! so the resumed stream continues byte-for-byte where the checkpointed
//! run stopped, and a resumed `stream-analyze` produces output identical
//! to an uninterrupted one (the golden equivalence test enforces this).
//!
//! Format notes:
//!
//! * every `f64` travels as its IEEE-754 bit pattern in hex
//!   (`{:016x}` of `to_bits`) — decimal round-tripping would break
//!   bit-identity;
//! * configuration knobs (coalesce thresholds, predictor half-life) are
//!   deliberately *not* stored: they travel with the run configuration,
//!   and mixing them silently would corrupt results. What is guarded is
//!   the machine shape (`racks`), which changes the meaning of every
//!   node id;
//! * every section (meta, coalesce, spatial, het, temp, predict) ends
//!   with a `crc NAME HEX` line — the CRC-32 of the section's lines — so
//!   a torn or bit-flipped checkpoint is detected as *which section* is
//!   damaged, not silently resumed from;
//! * writes go to a `.tmp` sibling then rename, so a crash mid-write
//!   never leaves a truncated checkpoint under the configured name; a
//!   failed write removes its orphaned `.tmp`. On resume, [`read`]
//!   considers both the configured file and a leftover `.tmp` sibling
//!   and salvages the freshest fully-intact snapshot of the two;
//! * the predict `fired` flags serialize as a bitmask indexed by the
//!   default predictor bank's order.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use astra_logs::HetKind;
use astra_predict::{Alert, DimmKey, FeatureState, FeatureStateDump, FeatureVector};
use astra_topology::{DimmSlot, NodeId, RankId, SystemConfig};
use astra_util::Minute;

use super::analyzers::{RankTrack, StreamAnalyzer};
use super::{StreamError, StreamOptions};
use crate::spatial::SpatialCounts;

/// First line of every checkpoint. v2 added the per-section CRC lines.
const HEADER: &str = "astra-stream-checkpoint v2";

fn cerr(path: &Path, detail: impl Into<String>) -> StreamError {
    StreamError::Checkpoint {
        path: path.to_path_buf(),
        detail: detail.into(),
    }
}

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn list<T: std::fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    let joined = items
        .into_iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",");
    if joined.is_empty() {
        "-".into()
    } else {
        joined
    }
}

/// Serialize the analyzer state and resume point to `path`, atomically.
/// A failed write (or rename) removes its `.tmp` sibling so a transient
/// error never leaves an orphaned partial file for a later resume to
/// trip over.
pub(crate) fn write(
    path: &Path,
    analyzer: &StreamAnalyzer,
    consumed: &[u64; 4],
) -> Result<(), StreamError> {
    let tmp = tmp_sibling(path);
    if let Err(e) = std::fs::write(&tmp, render(analyzer, consumed)) {
        std::fs::remove_file(&tmp).ok();
        return Err(cerr(path, format!("write failed: {e}")));
    }
    std::fs::rename(&tmp, path).map_err(|e| {
        std::fs::remove_file(&tmp).ok();
        cerr(path, format!("rename failed: {e}"))
    })
}

/// Whether `path` could resume anything: the checkpoint itself or a
/// `.tmp` sibling a dying writer left behind (salvage handles picking).
pub(crate) fn resume_candidate_exists(path: &Path) -> bool {
    path.exists() || tmp_sibling(path).exists()
}

/// The `.tmp` sibling used for atomic writes (and probed by salvage).
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Close out one checksummed section: append its lines to `out` followed
/// by the `crc NAME HEX` trailer covering exactly those lines.
fn seal_section(out: &mut String, name: &str, body: String) {
    out.push_str(&body);
    let _ = writeln!(out, "crc {name} {:08x}", astra_util::crc32(body.as_bytes()));
}

fn render(analyzer: &StreamAnalyzer, consumed: &[u64; 4]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER}");

    let mut body = String::new();
    let w = &mut body;
    let _ = writeln!(w, "racks {}", analyzer.system.racks);
    let _ = writeln!(
        w,
        "consumed {} {} {} {}",
        consumed[0], consumed[1], consumed[2], consumed[3]
    );
    seal_section(&mut out, "meta", std::mem::take(&mut body));

    // Coalesce: every footprint, grouped, groups in key order.
    let w = &mut body;
    let _ = writeln!(w, "coalesce.ces {}", analyzer.coalesce.ces);
    let mut keys: Vec<_> = analyzer.coalesce.groups.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        let feet = &analyzer.coalesce.groups[&key];
        let _ = writeln!(w, "group {} {} {} {}", key.0, key.1, key.2, feet.len());
        for f in feet {
            let _ = writeln!(
                w,
                "f {} {} {} {} {} {}",
                f.idx, f.time.0, f.bank, f.col, f.bit_pos, f.addr
            );
        }
    }
    seal_section(&mut out, "coalesce", std::mem::take(&mut body));

    render_spatial(&mut body, &analyzer.spatial.counts);
    seal_section(&mut out, "spatial", std::mem::take(&mut body));

    let w = &mut body;
    let _ = writeln!(
        w,
        "het.totals {} {}",
        analyzer.het.total, analyzer.het.memory_dues
    );
    for (&(kind, day), &n) in &analyzer.het.daily {
        let _ = writeln!(w, "het {kind} {day} {n}");
    }
    seal_section(&mut out, "het", std::mem::take(&mut body));

    let w = &mut body;
    for (&(sensor, month), &(sum, n)) in &analyzer.tempcorr.sensor_months {
        let _ = writeln!(w, "temp.sensor {sensor} {month} {} {n}", hex(sum));
    }
    for (&month, &n) in &analyzer.tempcorr.monthly_ces {
        let _ = writeln!(w, "temp.ce {month} {n}");
    }
    seal_section(&mut out, "temp", std::mem::take(&mut body));

    let w = &mut body;
    for (&(node, slot, rank), track) in &analyzer.predict.ranks {
        let mut mask = 0u64;
        for (i, &f) in track.fired.iter().enumerate() {
            if f {
                mask |= 1 << i;
            }
        }
        let d = track.state.dump();
        let _ = writeln!(
            w,
            "predict.rank {node} {slot} {rank} {mask} {} {} {} {} {} {} {} {} {} {}",
            d.first_ce.0,
            d.last_ce.0,
            d.total_ces,
            hex(d.leaky),
            u8::from(d.addrs_saturated),
            d.escalation_rung,
            list(&d.banks),
            list(&d.cols),
            list(&d.addrs),
            list(
                d.lanes
                    .iter()
                    .map(|&(lane, n, m)| format!("{lane}:{n}:{m}"))
            ),
        );
    }
    for a in &analyzer.predict.alerts {
        let fv = &a.features;
        let _ = writeln!(
            w,
            "predict.alert {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
            a.time.0,
            a.key.node.0,
            a.key.slot.index(),
            a.key.rank.0,
            a.predictor,
            hex(a.score),
            hex(fv.window_ces),
            fv.total_ces,
            fv.distinct_banks,
            fv.distinct_cols,
            fv.distinct_addrs,
            fv.distinct_lanes,
            hex(fv.dominant_lane_share),
            fv.minutes_since_first,
            fv.escalation.rung(),
        );
    }
    seal_section(&mut out, "predict", body);

    let _ = writeln!(out, "end");
    out
}

fn render_spatial(w: &mut String, c: &SpatialCounts) {
    fn line(w: &mut String, name: &str, values: &[u64]) {
        let _ = writeln!(
            w,
            "spatial.{name} {}",
            values
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    line(w, "errors_by_socket", &c.errors_by_socket);
    line(w, "faults_by_socket", &c.faults_by_socket);
    line(w, "errors_by_bank", &c.errors_by_bank);
    line(w, "faults_by_bank", &c.faults_by_bank);
    line(w, "errors_by_col", &c.errors_by_col);
    line(w, "faults_by_col", &c.faults_by_col);
    line(w, "errors_by_rank", &c.errors_by_rank);
    line(w, "faults_by_rank", &c.faults_by_rank);
    line(w, "errors_by_slot", &c.errors_by_slot);
    line(w, "faults_by_slot", &c.faults_by_slot);
    line(w, "errors_by_rack", &c.errors_by_rack);
    line(w, "faults_by_rack", &c.faults_by_rack);
    line(w, "errors_by_region", &c.errors_by_region);
    line(w, "faults_by_region", &c.faults_by_region);
    let flat: Vec<u64> = c
        .faults_by_rack_region
        .iter()
        .flat_map(|row| row.iter().copied())
        .collect();
    line(w, "faults_by_rack_region", &flat);
    for (name, table) in [
        ("errors_by_node", &c.errors_by_node),
        ("faults_by_node", &c.faults_by_node),
        ("faults_by_bit", &c.faults_by_bit),
        ("faults_by_addr", &c.faults_by_addr),
    ] {
        let _ = writeln!(
            w,
            "spatial.{name} {}",
            list(table.iter().map(|(k, v)| format!("{k}:{v}")))
        );
    }
}

/// Deserialize a checkpoint into a restored analyzer plus the per-source
/// resume point, salvaging when necessary. `system` and the configs in
/// `opts` must be the ones the checkpointed run used; the machine shape
/// is verified, the configs are the caller's contract.
///
/// Salvage: both `path` and a leftover `path.tmp` sibling (a write the
/// process died during, or after, without completing the rename) are
/// candidates. Each is validated in full — header, per-section CRCs, end
/// marker — and the *freshest intact* snapshot (largest consumed-record
/// sum) wins. Resuming from an older-but-intact checkpoint is always
/// sound (replay is deterministic); resuming from a torn one never is,
/// so a damaged candidate is only an error when no intact one exists.
/// Any salvage decision (torn file skipped, or `.tmp` outrunning the
/// configured file) bumps the `checkpoint.salvaged` counter and says so
/// on stderr.
pub(crate) fn read(
    path: &Path,
    system: &SystemConfig,
    opts: &StreamOptions,
) -> Result<(StreamAnalyzer, [u64; 4]), StreamError> {
    let primary = read_one(path, system, opts);
    let tmp = tmp_sibling(path);
    if !tmp.exists() {
        return primary;
    }
    let secondary = read_one(&tmp, system, opts);
    let salvaged = |which: &Path, state: (StreamAnalyzer, [u64; 4]), note: &str| {
        astra_obs::global().counter("checkpoint.salvaged").add(1);
        eprintln!(
            "note: salvaged checkpoint from {} ({note})",
            which.display()
        );
        Ok(state)
    };
    match (primary, secondary) {
        (Ok(p), Ok(s)) => {
            // Both intact: freshest wins; ties keep the configured file.
            if s.1.iter().sum::<u64>() > p.1.iter().sum::<u64>() {
                salvaged(&tmp, s, "newer than the configured file")
            } else {
                Ok(p)
            }
        }
        (Ok(p), Err(e)) => {
            eprintln!("note: ignoring torn checkpoint {}: {e}", tmp.display());
            astra_obs::global().counter("checkpoint.salvaged").add(1);
            Ok(p)
        }
        (Err(e), Ok(s)) => {
            eprintln!("note: checkpoint {} is damaged: {e}", path.display());
            salvaged(&tmp, s, "configured file is damaged")
        }
        (Err(e), Err(_)) => Err(e),
    }
}

/// Read and fully validate a single checkpoint file.
fn read_one(
    path: &Path,
    system: &SystemConfig,
    opts: &StreamOptions,
) -> Result<(StreamAnalyzer, [u64; 4]), StreamError> {
    let data = std::fs::read(path).map_err(|e| cerr(path, format!("unreadable: {e}")))?;
    let text = String::from_utf8(data).map_err(|e| cerr(path, format!("not UTF-8: {e}")))?;
    parse(path, &text, system, opts)
}

fn parse(
    path: &Path,
    text: &str,
    system: &SystemConfig,
    opts: &StreamOptions,
) -> Result<(StreamAnalyzer, [u64; 4]), StreamError> {
    let mut analyzer = StreamAnalyzer::new(*system, opts.coalesce, opts.predict.clone());
    let mut consumed: Option<[u64; 4]> = None;
    let mut saw_racks = false;
    let mut saw_end = false;
    // Lines of the current section, accumulated verbatim until its
    // `crc NAME HEX` trailer verifies them.
    let mut section = String::new();

    let mut lines = text.lines().enumerate();
    let bad = |no: usize, detail: String| cerr(path, format!("line {}: {detail}", no + 1));

    match lines.next() {
        Some((_, line)) if line == HEADER => {}
        _ => {
            return Err(cerr(
                path,
                format!("not a checkpoint (expected {HEADER:?})"),
            ))
        }
    }

    while let Some((no, line)) = lines.next() {
        let mut toks = line.split_whitespace();
        let Some(tag) = toks.next() else { continue };
        if tag == "crc" {
            let name = toks
                .next()
                .ok_or_else(|| bad(no, "crc line missing section name".into()))?;
            let stored = toks
                .next()
                .and_then(|t| u32::from_str_radix(t, 16).ok())
                .ok_or_else(|| bad(no, format!("bad crc value for section {name}")))?;
            let computed = astra_util::crc32(section.as_bytes());
            if computed != stored {
                return Err(bad(
                    no,
                    format!(
                        "section {name} CRC mismatch (stored {stored:08x}, computed {computed:08x})"
                    ),
                ));
            }
            section.clear();
            continue;
        }
        if tag == "end" {
            if !section.is_empty() {
                return Err(bad(
                    no,
                    "lines before end not covered by a section CRC".into(),
                ));
            }
        } else {
            section.push_str(line);
            section.push('\n');
        }
        match tag {
            "racks" => {
                let racks = parse_tok::<u64>(&mut toks)
                    .ok_or_else(|| bad(no, "bad or missing racks".into()))?;
                if racks != u64::from(system.racks) {
                    return Err(bad(
                        no,
                        format!(
                            "checkpoint is for a {racks}-rack machine, this run is {} racks",
                            system.racks
                        ),
                    ));
                }
                saw_racks = true;
            }
            "consumed" => {
                consumed = Some([
                    parse_tok::<u64>(&mut toks)
                        .ok_or_else(|| bad(no, "bad or missing ce".into()))?,
                    parse_tok::<u64>(&mut toks)
                        .ok_or_else(|| bad(no, "bad or missing het".into()))?,
                    parse_tok::<u64>(&mut toks)
                        .ok_or_else(|| bad(no, "bad or missing inventory".into()))?,
                    parse_tok::<u64>(&mut toks)
                        .ok_or_else(|| bad(no, "bad or missing sensors".into()))?,
                ]);
            }
            "coalesce.ces" => {
                analyzer.coalesce.ces = parse_tok::<u64>(&mut toks)
                    .ok_or_else(|| bad(no, "bad or missing ce count".into()))?
            }
            "group" => {
                let key = (
                    parse_tok::<u64>(&mut toks)
                        .ok_or_else(|| bad(no, "bad or missing node".into()))?
                        as u32,
                    parse_tok::<u64>(&mut toks)
                        .ok_or_else(|| bad(no, "bad or missing slot".into()))?
                        as u8,
                    parse_tok::<u64>(&mut toks)
                        .ok_or_else(|| bad(no, "bad or missing rank".into()))?
                        as u8,
                );
                let n = parse_tok::<u64>(&mut toks)
                    .ok_or_else(|| bad(no, "bad or missing footprint count".into()))?;
                let mut feet = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let Some((fno, fline)) = lines.next() else {
                        return Err(bad(no, "truncated group".into()));
                    };
                    section.push_str(fline);
                    section.push('\n');
                    let mut ft = fline.split_whitespace();
                    if ft.next() != Some("f") {
                        return Err(bad(fno, "expected footprint line".into()));
                    }
                    feet.push(crate::coalesce::CeFootprint {
                        idx: parse_tok::<u32>(&mut ft)
                            .ok_or_else(|| bad(fno, "bad footprint idx".into()))?,
                        time: Minute(
                            parse_tok::<i64>(&mut ft)
                                .ok_or_else(|| bad(fno, "bad footprint time".into()))?,
                        ),
                        bank: parse_tok::<u16>(&mut ft)
                            .ok_or_else(|| bad(fno, "bad footprint bank".into()))?,
                        col: parse_tok::<u16>(&mut ft)
                            .ok_or_else(|| bad(fno, "bad footprint col".into()))?,
                        bit_pos: parse_tok::<u16>(&mut ft)
                            .ok_or_else(|| bad(fno, "bad footprint bit_pos".into()))?,
                        addr: parse_tok::<u64>(&mut ft)
                            .ok_or_else(|| bad(fno, "bad footprint addr".into()))?,
                    });
                }
                analyzer.coalesce.groups.insert(key, feet);
            }
            "het.totals" => {
                analyzer.het.total = parse_tok::<u64>(&mut toks)
                    .ok_or_else(|| bad(no, "bad or missing total".into()))?;
                analyzer.het.memory_dues = parse_tok::<u64>(&mut toks)
                    .ok_or_else(|| bad(no, "bad or missing memory dues".into()))?;
            }
            "het" => {
                let kind = parse_tok::<u64>(&mut toks)
                    .ok_or_else(|| bad(no, "bad or missing kind index".into()))?
                    as u8;
                if usize::from(kind) >= HetKind::ALL.len() {
                    return Err(bad(no, format!("unknown HET kind index {kind}")));
                }
                let day = parse_tok::<i64>(&mut toks).ok_or_else(|| bad(no, "bad day".into()))?;
                analyzer.het.daily.insert(
                    (kind, day),
                    parse_tok::<u64>(&mut toks)
                        .ok_or_else(|| bad(no, "bad or missing count".into()))?,
                );
            }
            "temp.sensor" => {
                let sensor = parse_tok::<u64>(&mut toks)
                    .ok_or_else(|| bad(no, "bad or missing sensor index".into()))?
                    as u8;
                let month =
                    parse_tok::<i64>(&mut toks).ok_or_else(|| bad(no, "bad month".into()))?;
                let sum = parse_hex(&mut toks).ok_or_else(|| bad(no, "bad sum".into()))?;
                analyzer.tempcorr.sensor_months.insert(
                    (sensor, month),
                    (
                        sum,
                        parse_tok::<u64>(&mut toks)
                            .ok_or_else(|| bad(no, "bad or missing sample count".into()))?,
                    ),
                );
            }
            "temp.ce" => {
                let month =
                    parse_tok::<i64>(&mut toks).ok_or_else(|| bad(no, "bad month".into()))?;
                analyzer.tempcorr.monthly_ces.insert(
                    month,
                    parse_tok::<u64>(&mut toks)
                        .ok_or_else(|| bad(no, "bad or missing count".into()))?,
                );
            }
            "predict.rank" => {
                let key = (
                    parse_tok::<u64>(&mut toks)
                        .ok_or_else(|| bad(no, "bad or missing node".into()))?
                        as u32,
                    parse_tok::<u64>(&mut toks)
                        .ok_or_else(|| bad(no, "bad or missing slot".into()))?
                        as u8,
                    parse_tok::<u64>(&mut toks)
                        .ok_or_else(|| bad(no, "bad or missing rank".into()))?
                        as u8,
                );
                let mask = parse_tok::<u64>(&mut toks)
                    .ok_or_else(|| bad(no, "bad or missing fired mask".into()))?;
                let dump = FeatureStateDump {
                    first_ce: Minute(
                        parse_tok::<i64>(&mut toks)
                            .ok_or_else(|| bad(no, "bad first_ce".into()))?,
                    ),
                    last_ce: Minute(
                        parse_tok::<i64>(&mut toks).ok_or_else(|| bad(no, "bad last_ce".into()))?,
                    ),
                    total_ces: parse_tok::<u64>(&mut toks)
                        .ok_or_else(|| bad(no, "bad or missing total_ces".into()))?,
                    leaky: parse_hex(&mut toks).ok_or_else(|| bad(no, "bad leaky".into()))?,
                    addrs_saturated: parse_tok::<u64>(&mut toks)
                        .ok_or_else(|| bad(no, "bad or missing addrs_saturated".into()))?
                        != 0,
                    escalation_rung: parse_tok::<u64>(&mut toks)
                        .ok_or_else(|| bad(no, "bad or missing escalation rung".into()))?
                        as u8,
                    banks: parse_list(&mut toks).ok_or_else(|| bad(no, "bad banks".into()))?,
                    cols: parse_list(&mut toks).ok_or_else(|| bad(no, "bad cols".into()))?,
                    addrs: parse_list(&mut toks).ok_or_else(|| bad(no, "bad addrs".into()))?,
                    lanes: parse_lanes(&mut toks).ok_or_else(|| bad(no, "bad lanes".into()))?,
                };
                let state = FeatureState::restore(
                    &dump,
                    opts.predict.half_life_minutes,
                    opts.predict.pin_bank_threshold,
                    opts.predict.bank_dispersion_cols,
                )
                .ok_or_else(|| bad(no, "unrestorable feature state".into()))?;
                let fired = (0..analyzer.predict.predictors.len())
                    .map(|i| mask & (1 << i) != 0)
                    .collect();
                analyzer
                    .predict
                    .ranks
                    .insert(key, RankTrack { state, fired });
            }
            "predict.alert" => {
                let time =
                    Minute(parse_tok::<i64>(&mut toks).ok_or_else(|| bad(no, "bad time".into()))?);
                let node = NodeId(
                    parse_tok::<u64>(&mut toks)
                        .ok_or_else(|| bad(no, "bad or missing node".into()))?
                        as u32,
                );
                let slot = DimmSlot::from_index(
                    parse_tok::<u64>(&mut toks)
                        .ok_or_else(|| bad(no, "bad or missing slot".into()))?
                        as u8,
                )
                .ok_or_else(|| bad(no, "bad slot".into()))?;
                let rank = RankId(
                    parse_tok::<u64>(&mut toks)
                        .ok_or_else(|| bad(no, "bad or missing rank".into()))?
                        as u8,
                );
                let name = toks
                    .next()
                    .ok_or_else(|| bad(no, "missing predictor name".into()))?;
                let predictor = analyzer
                    .predict
                    .predictors
                    .iter()
                    .find(|p| p.name() == name)
                    .map(|p| p.name())
                    .ok_or_else(|| bad(no, format!("unknown predictor {name:?}")))?;
                let score = parse_hex(&mut toks).ok_or_else(|| bad(no, "bad score".into()))?;
                let window_ces =
                    parse_hex(&mut toks).ok_or_else(|| bad(no, "bad window_ces".into()))?;
                let total_ces = parse_tok::<u64>(&mut toks)
                    .ok_or_else(|| bad(no, "bad or missing total_ces".into()))?;
                let distinct_banks = parse_tok::<u64>(&mut toks)
                    .ok_or_else(|| bad(no, "bad or missing distinct_banks".into()))?
                    as u32;
                let distinct_cols = parse_tok::<u64>(&mut toks)
                    .ok_or_else(|| bad(no, "bad or missing distinct_cols".into()))?
                    as u32;
                let distinct_addrs = parse_tok::<u64>(&mut toks)
                    .ok_or_else(|| bad(no, "bad or missing distinct_addrs".into()))?
                    as u32;
                let distinct_lanes = parse_tok::<u64>(&mut toks)
                    .ok_or_else(|| bad(no, "bad or missing distinct_lanes".into()))?
                    as u32;
                let dominant_lane_share =
                    parse_hex(&mut toks).ok_or_else(|| bad(no, "bad lane share".into()))?;
                let minutes_since_first = parse_tok::<i64>(&mut toks)
                    .ok_or_else(|| bad(no, "bad minutes_since_first".into()))?;
                let escalation = astra_predict::EscalationLevel::from_rung(
                    parse_tok::<u64>(&mut toks)
                        .ok_or_else(|| bad(no, "bad or missing escalation rung".into()))?
                        as u8,
                )
                .ok_or_else(|| bad(no, "bad escalation rung".into()))?;
                analyzer.predict.alerts.push(Alert {
                    time,
                    key: DimmKey { node, slot, rank },
                    predictor,
                    score,
                    features: FeatureVector {
                        window_ces,
                        total_ces,
                        distinct_banks,
                        distinct_cols,
                        distinct_addrs,
                        distinct_lanes,
                        dominant_lane_share,
                        minutes_since_first,
                        escalation,
                    },
                });
            }
            "end" => {
                saw_end = true;
                break;
            }
            _ if tag.starts_with("spatial.") => {
                parse_spatial(&analyzer.system, &mut analyzer.spatial.counts, tag, toks)
                    .map_err(|detail| bad(no, detail))?;
            }
            other => return Err(bad(no, format!("unknown section {other:?}"))),
        }
    }

    if !saw_racks {
        return Err(cerr(path, "missing racks guard"));
    }
    if !saw_end {
        return Err(cerr(path, "truncated checkpoint (no end marker)"));
    }
    let consumed = consumed.ok_or_else(|| cerr(path, "missing consumed counts"))?;
    analyzer.counts = consumed;
    Ok((analyzer, consumed))
}

fn parse_tok<T: FromStr>(toks: &mut std::str::SplitWhitespace<'_>) -> Option<T> {
    toks.next()?.parse().ok()
}

fn parse_hex(toks: &mut std::str::SplitWhitespace<'_>) -> Option<f64> {
    let bits = u64::from_str_radix(toks.next()?, 16).ok()?;
    Some(f64::from_bits(bits))
}

fn parse_list<T: FromStr>(toks: &mut std::str::SplitWhitespace<'_>) -> Option<Vec<T>> {
    let tok = toks.next()?;
    if tok == "-" {
        return Some(Vec::new());
    }
    tok.split(',').map(|item| item.parse().ok()).collect()
}

fn parse_lanes(toks: &mut std::str::SplitWhitespace<'_>) -> Option<Vec<(u16, u64, u16)>> {
    let tok = toks.next()?;
    if tok == "-" {
        return Some(Vec::new());
    }
    tok.split(',')
        .map(|item| {
            let mut parts = item.split(':');
            let lane = parts.next()?.parse().ok()?;
            let count = parts.next()?.parse().ok()?;
            let mask = parts.next()?.parse().ok()?;
            parts.next().is_none().then_some((lane, count, mask))
        })
        .collect()
}

fn parse_spatial(
    system: &SystemConfig,
    c: &mut SpatialCounts,
    tag: &str,
    toks: std::str::SplitWhitespace<'_>,
) -> Result<(), String> {
    let field = tag.strip_prefix("spatial.").expect("caller matched prefix");
    let fill = |dst: &mut [u64], toks: std::str::SplitWhitespace<'_>| -> Result<(), String> {
        let values: Option<Vec<u64>> = toks.map(|t| t.parse().ok()).collect();
        let values = values.ok_or_else(|| format!("bad {field} values"))?;
        if values.len() != dst.len() {
            return Err(format!(
                "{field} has {} values, machine shape needs {}",
                values.len(),
                dst.len()
            ));
        }
        dst.copy_from_slice(&values);
        Ok(())
    };
    match field {
        "errors_by_socket" => fill(&mut c.errors_by_socket, toks),
        "faults_by_socket" => fill(&mut c.faults_by_socket, toks),
        "errors_by_bank" => fill(&mut c.errors_by_bank, toks),
        "faults_by_bank" => fill(&mut c.faults_by_bank, toks),
        "errors_by_col" => fill(&mut c.errors_by_col, toks),
        "faults_by_col" => fill(&mut c.faults_by_col, toks),
        "errors_by_rank" => fill(&mut c.errors_by_rank, toks),
        "faults_by_rank" => fill(&mut c.faults_by_rank, toks),
        "errors_by_slot" => fill(&mut c.errors_by_slot, toks),
        "faults_by_slot" => fill(&mut c.faults_by_slot, toks),
        "errors_by_rack" => fill(&mut c.errors_by_rack, toks),
        "faults_by_rack" => fill(&mut c.faults_by_rack, toks),
        "errors_by_region" => fill(&mut c.errors_by_region, toks),
        "faults_by_region" => fill(&mut c.faults_by_region, toks),
        "faults_by_rack_region" => {
            let mut flat = vec![0u64; system.racks as usize * 3];
            fill(&mut flat, toks)?;
            for (row, chunk) in c.faults_by_rack_region.iter_mut().zip(flat.chunks(3)) {
                row.copy_from_slice(chunk);
            }
            Ok(())
        }
        "errors_by_node" | "faults_by_node" | "faults_by_bit" | "faults_by_addr" => {
            let table = match field {
                "errors_by_node" => &mut c.errors_by_node,
                "faults_by_node" => &mut c.faults_by_node,
                "faults_by_bit" => &mut c.faults_by_bit,
                _ => &mut c.faults_by_addr,
            };
            let mut toks = toks;
            let tok = toks.next().ok_or_else(|| format!("missing {field}"))?;
            if tok != "-" {
                for pair in tok.split(',') {
                    let (k, v) = pair
                        .split_once(':')
                        .ok_or_else(|| format!("bad {field} pair {pair:?}"))?;
                    let k: u64 = k.parse().map_err(|_| format!("bad {field} key"))?;
                    let v: u64 = v.parse().map_err(|_| format!("bad {field} count"))?;
                    table.add(k, v);
                }
            }
            Ok(())
        }
        other => Err(format!("unknown spatial field {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Dataset;
    use crate::stream::{Analyzer, MemEvent};
    use astra_logs::binfmt;

    fn analyzer_with_state() -> (StreamAnalyzer, SystemConfig) {
        let ds = Dataset::generate(1, 42);
        let opts = StreamOptions::default();
        let mut a = StreamAnalyzer::new(ds.system, opts.coalesce, opts.predict.clone());
        for (i, rec) in ds.sim.ce_log.iter().enumerate() {
            a.consume(&MemEvent::Ce {
                seq: i as u64,
                rec: *rec,
            });
        }
        for (i, rec) in ds.sim.het_log.iter().enumerate() {
            a.consume(&MemEvent::Het {
                seq: i as u64,
                rec: *rec,
            });
        }
        for (i, rec) in ds.sensor_excerpt().iter().enumerate() {
            a.consume(&MemEvent::Sensor {
                seq: i as u64,
                rec: *rec,
            });
        }
        (a, ds.system)
    }

    #[test]
    fn render_parse_render_is_identity() {
        let (analyzer, system) = analyzer_with_state();
        let consumed = analyzer.counts;
        let text = render(&analyzer, &consumed);
        let (restored, consumed2) =
            parse(Path::new("test"), &text, &system, &StreamOptions::default()).unwrap();
        assert_eq!(consumed2, consumed);
        // Byte-identical reserialization covers every serialized field.
        assert_eq!(render(&restored, &consumed2), text);
    }

    #[test]
    fn restored_analyzer_produces_identical_report() {
        let (analyzer, system) = analyzer_with_state();
        let text = render(&analyzer, &analyzer.counts);
        let (restored, _) =
            parse(Path::new("test"), &text, &system, &StreamOptions::default()).unwrap();
        let a = analyzer.snapshot();
        let b = restored.snapshot();
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.spatial, b.spatial);
        assert_eq!(a.het, b.het);
        assert_eq!(a.alerts, b.alerts);
        assert_eq!(a.sensor_months, b.sensor_months);
        assert_eq!(a.monthly_ces, b.monthly_ces);
        assert_eq!(a.ces, b.ces);
    }

    #[test]
    fn rack_mismatch_names_both_shapes() {
        let (analyzer, _) = analyzer_with_state();
        let text = render(&analyzer, &analyzer.counts);
        let wrong = SystemConfig::scaled(2);
        let err = match parse(Path::new("test"), &text, &wrong, &StreamOptions::default()) {
            Err(e) => e,
            Ok(_) => panic!("rack mismatch accepted"),
        };
        let msg = err.to_string();
        // The operator needs both sides of the mismatch to fix the flag.
        assert!(
            msg.contains("1-rack") && msg.contains("2 racks"),
            "error must name the checkpoint's shape and the run's: {msg}"
        );
    }

    #[test]
    fn section_crc_mismatch_is_detected_and_named() {
        let (analyzer, system) = analyzer_with_state();
        let text = render(&analyzer, &analyzer.counts);
        // Corrupt one digit inside the coalesce section without touching
        // line structure: the stored CRC no longer matches.
        let victim = text
            .lines()
            .find(|l| l.starts_with("coalesce.ces "))
            .expect("coalesce.ces line");
        let flipped = if victim.ends_with('0') {
            victim.replacen(" ", " 1", 1)
        } else {
            format!("{}0", victim)
        };
        let corrupted = text.replacen(victim, &flipped, 1);
        let err = match parse(
            Path::new("test"),
            &corrupted,
            &system,
            &StreamOptions::default(),
        ) {
            Err(e) => e,
            Ok(_) => panic!("corrupted section accepted"),
        };
        let msg = err.to_string();
        assert!(
            msg.contains("CRC mismatch") && msg.contains("coalesce"),
            "error must name the damaged section: {msg}"
        );
    }

    struct TempDirGuard(PathBuf);

    impl TempDirGuard {
        fn new(tag: &str) -> TempDirGuard {
            use std::sync::atomic::{AtomicU64, Ordering};
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "astra-{tag}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDirGuard(dir)
        }
    }

    impl Drop for TempDirGuard {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    #[test]
    fn salvage_ignores_torn_tmp_and_resumes_primary() {
        let (analyzer, system) = analyzer_with_state();
        let guard = TempDirGuard::new("ckpt-torn");
        let path = guard.0.join("ck.txt");
        write(&path, &analyzer, &analyzer.counts).unwrap();
        // A crash mid-write leaves a truncated next snapshot in `.tmp`.
        let next = render(&analyzer, &[analyzer.counts[0] + 500, 0, 0, 0]);
        std::fs::write(path.with_extension("txt.tmp"), &next[..next.len() / 2]).unwrap();
        let (_, consumed) = read(&path, &system, &StreamOptions::default()).unwrap();
        assert_eq!(consumed, analyzer.counts, "must resume the intact file");
    }

    #[test]
    fn salvage_prefers_fresher_intact_tmp() {
        let (analyzer, system) = analyzer_with_state();
        let guard = TempDirGuard::new("ckpt-fresh");
        let path = guard.0.join("ck.txt");
        write(&path, &analyzer, &analyzer.counts).unwrap();
        // The rename never happened, but the `.tmp` snapshot is complete
        // and strictly further along: it is the one to resume.
        let mut newer = analyzer.counts;
        newer[0] += 500;
        std::fs::write(path.with_extension("txt.tmp"), render(&analyzer, &newer)).unwrap();
        let (_, consumed) = read(&path, &system, &StreamOptions::default()).unwrap();
        assert_eq!(consumed, newer, "must salvage the fresher snapshot");
    }

    #[test]
    fn salvage_recovers_from_damaged_primary() {
        let (analyzer, system) = analyzer_with_state();
        let guard = TempDirGuard::new("ckpt-damaged");
        let path = guard.0.join("ck.txt");
        let text = render(&analyzer, &analyzer.counts);
        std::fs::write(&path, &text[..text.len() / 3]).unwrap();
        std::fs::write(path.with_extension("txt.tmp"), &text).unwrap();
        let (_, consumed) = read(&path, &system, &StreamOptions::default()).unwrap();
        assert_eq!(consumed, analyzer.counts);
        // Both torn: the primary's error surfaces.
        std::fs::write(path.with_extension("txt.tmp"), &text[..10]).unwrap();
        assert!(read(&path, &system, &StreamOptions::default()).is_err());
    }

    #[test]
    fn truncated_and_foreign_files_are_rejected() {
        let system = SystemConfig::scaled(1);
        let opts = StreamOptions::default();
        assert!(parse(Path::new("t"), "not a checkpoint\n", &system, &opts).is_err());
        let (analyzer, _) = analyzer_with_state();
        let text = render(&analyzer, &analyzer.counts);
        let cut = &text[..text.len() - 10];
        assert!(parse(Path::new("t"), cut, &system, &opts).is_err());
        // A file in the binlog container, even one wrapping intact
        // checkpoint text, is a typed checkpoint error, not a panic.
        let guard = TempDirGuard::new("ckpt-binlog");
        let path = guard.0.join("ck.txt");
        let mut binlog = Vec::from(binfmt::header_bytes(binfmt::KIND_CE, 1));
        binfmt::append_block(&mut binlog, text.as_bytes());
        std::fs::write(&path, binlog).unwrap();
        match read(&path, &system, &opts) {
            Err(StreamError::Checkpoint { .. }) => {}
            Err(e) => panic!("binlog rejected with an untyped error: {e}"),
            Ok(_) => panic!("binlog accepted as a checkpoint"),
        }
    }
}
