//! Glue between the stream engine and the `astra-serve` daemon.
//!
//! `astra-serve` is analysis-agnostic: it serves any tenant implementing
//! its `SiteSource` trait. This module provides the memory-failure
//! implementation — [`EngineSource`] wraps a [`SiteEngine`] (tail-mode
//! incremental ingest with checkpoint/resume) and pre-renders the
//! response bodies each snapshot serves:
//!
//! | view (`/site/<name>/...`) | content | body |
//! |---------------------------|---------|------|
//! | `analysis` | text | byte-identical to `astra-mem analyze` stdout |
//! | `spatial`  | text | error/fault tables along every machine axis |
//! | `alerts`   | JSON | online UE-risk alerts with feature evidence |
//! | `quarantine` | JSON | per-reason quarantine counts of `ce.log` |
//!
//! The `analysis` byte-identity is the serving contract: once a site's
//! logs are fully consumed, `GET /site/<name>/analysis` returns exactly
//! what `analyze` (or `stream-analyze`) would print for that directory.

use std::fmt::Write as _;
use std::path::Path;

use astra_logs::QuarantineReason;
use astra_serve::{ServeOptions, Server, SiteSnapshot, SiteSource, View};
use astra_topology::SystemConfig;

use crate::experiments::{fig4::Fig4, fig5::Fig5};
use crate::spatial::SpatialCounts;
use crate::stream::{site::SiteEngine, StreamError, StreamOptions, StreamReport};

/// A serve tenant backed by the incremental stream engine.
pub struct EngineSource {
    name: String,
    engine: SiteEngine,
}

impl EngineSource {
    /// Open `dir` as a tenant named after its final path component.
    /// Resumes from `opts.checkpoint_path` when a checkpoint (or its
    /// salvageable `.tmp` sibling) already exists there.
    pub fn open(
        dir: &Path,
        system: SystemConfig,
        opts: &StreamOptions,
    ) -> Result<Self, StreamError> {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| dir.display().to_string());
        Ok(EngineSource {
            name,
            engine: SiteEngine::open(dir, system, opts)?,
        })
    }
}

impl SiteSource for EngineSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self) -> Result<u64, String> {
        self.engine.poll().map_err(|e| e.to_string())
    }

    fn checkpoint(&mut self) -> Result<bool, String> {
        self.engine.checkpoint().map_err(|e| e.to_string())
    }

    fn snapshot(&self) -> SiteSnapshot {
        let report = self.engine.report();
        let quarantine = self.engine.quarantine();
        let consumed = self.engine.consumed();
        SiteSnapshot {
            events: consumed[0],
            consumed,
            quarantined: quarantine.total(),
            bytes_read: self.engine.bytes_read() as u64,
            faults: report.total_faults(),
            alerts: report.alerts.len() as u64,
            checkpoints: self.engine.checkpoints_written(),
            resumed: self.engine.resumed(),
            views: vec![
                View {
                    name: "analysis",
                    content_type: "text/plain; charset=utf-8",
                    body: report_analysis_body(&report),
                },
                View {
                    name: "spatial",
                    content_type: "text/plain; charset=utf-8",
                    body: spatial_body(&report.system, &report.spatial),
                },
                View {
                    name: "alerts",
                    content_type: "application/json",
                    body: alerts_body(&report),
                },
                View {
                    name: "quarantine",
                    content_type: "application/json",
                    body: quarantine_body(quarantine),
                },
            ],
        }
    }
}

/// The analysis text: the summary line, then the Fig 4 and Fig 5
/// renders. `analyze`, `stream-analyze` and `shard-analyze` print it and
/// the `analysis` view serves it, so their byte-identity holds by
/// construction; the integration tests diff each against `analyze`.
pub(crate) fn analysis_body(
    errors: u64,
    faults: u64,
    nodes: u32,
    fig4: &Fig4,
    fig5: &Fig5,
) -> String {
    let mut out = format!("{errors} errors -> {faults} faults on {nodes} nodes\n");
    out.push_str(&fig4.render());
    out.push_str(&fig5.render());
    out
}

/// Error/fault counts along every machine axis the paper analyzes, as an
/// aligned text table (the live-query counterpart of Figs 6, 7, 10, 12).
fn spatial_body(system: &SystemConfig, s: &SpatialCounts) -> String {
    let mut out = String::from("spatial error/fault tables\n");
    let mut section = |title: &str, rows: &[(String, u64, u64)]| {
        let _ = writeln!(out, "\n{title}:");
        let _ = writeln!(out, "  {:<10} {:>10} {:>8}", "", "errors", "faults");
        for (label, errors, faults) in rows {
            let _ = writeln!(out, "  {label:<10} {errors:>10} {faults:>8}");
        }
    };
    section(
        "by socket",
        &(0..2)
            .map(|i| {
                (
                    format!("socket {i}"),
                    s.errors_by_socket[i],
                    s.faults_by_socket[i],
                )
            })
            .collect::<Vec<_>>(),
    );
    section(
        "by rank",
        &(0..2)
            .map(|i| {
                (
                    format!("rank {i}"),
                    s.errors_by_rank[i],
                    s.faults_by_rank[i],
                )
            })
            .collect::<Vec<_>>(),
    );
    section(
        "by DIMM slot",
        &SpatialCounts::slot_labels()
            .iter()
            .enumerate()
            .map(|(i, letter)| {
                (
                    format!("slot {letter}"),
                    s.errors_by_slot[i],
                    s.faults_by_slot[i],
                )
            })
            .collect::<Vec<_>>(),
    );
    section(
        "by region",
        &SpatialCounts::region_labels()
            .iter()
            .enumerate()
            .map(|(i, name)| {
                (
                    name.to_string(),
                    s.errors_by_region[i],
                    s.faults_by_region[i],
                )
            })
            .collect::<Vec<_>>(),
    );
    section(
        "by rack",
        &s.errors_by_rack
            .iter()
            .zip(&s.faults_by_rack)
            .enumerate()
            .map(|(i, (e, f))| (format!("rack {i}"), *e, *f))
            .collect::<Vec<_>>(),
    );
    let _ = writeln!(
        out,
        "\nnodes with errors: {} of {}; nodes with faults: {}",
        s.errors_by_node.distinct(),
        system.node_count(),
        s.faults_by_node.distinct()
    );
    out
}

/// The online UE-risk alerts as a JSON array, feature evidence included.
fn alerts_body(report: &StreamReport) -> String {
    let mut out = String::from("[");
    for (i, a) in report.alerts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"date\":\"{}\",\"minute\":{},\"node\":{},\"slot\":\"{}\",\"rank\":{},\
             \"predictor\":\"{}\",\"score\":{},\"window_ces\":{},\"total_ces\":{},\
             \"distinct_banks\":{}}}",
            a.time.date(),
            a.time.value(),
            a.key.node.0,
            a.key.slot.letter(),
            a.key.rank.0,
            astra_obs::escape_json_str(a.predictor),
            a.score,
            a.features.window_ces,
            a.features.total_ces,
            a.features.distinct_banks,
        );
    }
    out.push_str("]\n");
    out
}

/// Per-reason quarantine counts as JSON (the quarantine half of the
/// site-health story; totals ride on the summary endpoint).
fn quarantine_body(q: &astra_logs::Quarantine) -> String {
    let mut out = String::from("{\"total\":");
    let _ = write!(out, "{}", q.total());
    out.push_str(",\"by_reason\":{");
    let mut first = true;
    for reason in QuarantineReason::ALL {
        let n = q.count(reason);
        if n == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":{n}", reason.name());
    }
    out.push_str("}}\n");
    out
}

/// Open every directory in `dirs` as a tenant and start the daemon.
/// `stream_opts` is cloned per site with `checkpoint_path` defaulted to
/// `<dir>/serve.ckpt` when unset, so each tenant checkpoints (and
/// auto-resumes) independently inside its own directory.
///
/// Each site's machine shape comes from its own `manifest.txt` when it
/// has one (sites generated under different platform profiles or rack
/// counts coexist in one daemon); `default_system` applies to
/// manifest-less legacy sites. A damaged manifest fails startup — the
/// daemon must not silently serve a site under the wrong topology.
pub fn start_sites(
    dirs: &[std::path::PathBuf],
    default_system: SystemConfig,
    stream_opts: &StreamOptions,
    serve_opts: &ServeOptions,
) -> Result<Server, String> {
    let mut sources: Vec<Box<dyn SiteSource>> = Vec::with_capacity(dirs.len());
    for dir in dirs {
        let system = match crate::pipeline::load_manifest(dir).map_err(|e| e.to_string())? {
            Some(m) => astra_platform::by_name(&m.profile)
                .map_err(|e| format!("{}: {e}", dir.display()))?
                .system(Some(m.racks)),
            None => default_system,
        };
        let mut opts = stream_opts.clone();
        if opts.checkpoint_path.is_none() {
            opts.checkpoint_path = Some(dir.join("serve.ckpt"));
        }
        let source = EngineSource::open(dir, system, &opts)
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        sources.push(Box::new(source));
    }
    Server::start(sources, serve_opts).map_err(|e| format!("starting server: {e}"))
}

/// The analysis body for an arbitrary [`StreamReport`] — the oracle the
/// byte-identity tests compare live responses against.
pub fn report_analysis_body(report: &StreamReport) -> String {
    analysis_body(
        report.total_errors(),
        report.total_faults(),
        report.system.node_count(),
        &report.fig4,
        &report.fig5,
    )
}
