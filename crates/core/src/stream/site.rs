//! One tenant of the serve daemon: a resumable, tail-mode analysis
//! engine over a single log directory's `ce.log`.
//!
//! [`SiteEngine`] packages the pieces `stream_analyze` wires together for
//! a one-shot run — [`EventStream`], [`StreamAnalyzer`], checkpoint
//! write/read — into a poll-driven form a long-running process can own:
//!
//! * [`SiteEngine::open`] resumes from the configured checkpoint when one
//!   (or a salvageable `.tmp` sibling) exists, otherwise starts fresh;
//! * [`SiteEngine::poll`] consumes every event currently available in
//!   the growing log (tail mode: a torn final record is held back, not
//!   quarantined) and returns how many it folded in;
//! * [`SiteEngine::checkpoint`] writes the analyzer state and the log's
//!   position atomically, so a restart seeks instead of replaying;
//! * [`SiteEngine::report`] snapshots the analyzer into the same
//!   [`StreamReport`] `stream-analyze` produces — once the logs are
//!   fully consumed, analysis output is byte-identical to the batch
//!   path's.
//!
//! Only `ce.log` is read, so the site's other logs may be absent or
//! damaged without touching the engine; its quarantine, byte and
//! consumed counts are `ce.log`'s.
//!
//! Probe rule: within one poll, once the log comes up dry it is not read
//! again until the next poll. A poll therefore costs one probe — one
//! `read` returning 0 — and a record appended after it is folded by the
//! next poll.
//!
//! Newline rule: a text line is ingested once its `\n` lands, in this
//! engine's life or, after a checkpoint and restart, the next one. There
//! is no flush at shutdown, so a log whose last line never gets its
//! newline stays one record short of the one-shot engine (which parses
//! that line as-is at EOF): byte-identity with `analyze` holds for
//! newline-terminated logs.

use std::path::{Path, PathBuf};

use astra_logs::Quarantine;
use astra_predict::PredictConfig;
use astra_topology::SystemConfig;

use crate::coalesce::CoalesceConfig;

use super::{
    checkpoint, Analyzer as _, EventStream, ResumePoint, StreamAnalyzer, StreamError,
    StreamOptions, StreamReport,
};

/// A resumable tail-mode analysis engine over one log directory.
pub struct SiteEngine {
    opts: StreamOptions,
    analyzer: StreamAnalyzer,
    source: EventStream,
    /// Whether this engine started from a checkpoint.
    resumed: bool,
    checkpoints_written: u64,
}

impl SiteEngine {
    /// Open `dir` for tail ingest. If `opts.resume_from` names a
    /// checkpoint, or `opts.checkpoint_path` (with its `.tmp` salvage
    /// sibling) holds one from an earlier run, the engine resumes from
    /// it; otherwise it starts fresh.
    pub fn open(
        dir: &Path,
        system: SystemConfig,
        opts: &StreamOptions,
    ) -> Result<Self, StreamError> {
        let resume = opts.resume_from.clone().or_else(|| {
            opts.checkpoint_path
                .clone()
                .filter(|p| checkpoint::resume_candidate_exists(p))
        });
        let (analyzer, point) = match &resume {
            Some(path) => checkpoint::read(path, &system)?,
            None => (
                StreamAnalyzer::new(system, CoalesceConfig::default(), PredictConfig::default()),
                ResumePoint::default(),
            ),
        };
        let source = EventStream::open_tailing(dir, &point, opts.ingest)?;
        Ok(SiteEngine {
            opts: opts.clone(),
            analyzer,
            source,
            resumed: resume.is_some(),
            checkpoints_written: 0,
        })
    }

    /// Consume every event currently available in `ce.log`; returns how
    /// many were folded in. The log is read until it comes up dry once,
    /// so a record appended after that waits for the next poll. `Ok(0)`
    /// means the log is dry for now — the next poll re-probes it. A
    /// strict-mode quarantine (or a blown lenient budget) aborts
    /// with the same errors `stream_analyze` raises.
    pub fn poll(&mut self) -> Result<u64, StreamError> {
        let mut n = 0u64;
        while let Some(ev) = self.source.next_event()? {
            self.analyzer.consume(&ev);
            n += 1;
        }
        Ok(n)
    }

    /// Write a checkpoint (atomic: `.tmp` sibling + rename) if a path is
    /// configured; returns whether one was written.
    pub fn checkpoint(&mut self) -> Result<bool, StreamError> {
        let Some(path) = self.opts.checkpoint_path.as_deref() else {
            return Ok(false);
        };
        checkpoint::write(path, &self.analyzer, &self.source.resume_point()?)?;
        self.checkpoints_written += 1;
        Ok(true)
    }

    /// Snapshot the analyzer state into the report `stream-analyze`
    /// would print — byte-identical to the batch path once the logs are
    /// fully consumed.
    pub fn report(&self) -> StreamReport {
        let mut report = self.analyzer.snapshot();
        report.skipped = self.source.skipped();
        report
    }

    /// Parsed records consumed per log read, resumed ones included: the
    /// engine reads `ce.log` alone, so this is its CE count.
    pub fn consumed(&self) -> [u64; 1] {
        [self.source.consumed()]
    }

    /// Whether this engine resumed from a checkpoint.
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// Checkpoints written since open.
    pub fn checkpoints_written(&self) -> u64 {
        self.checkpoints_written
    }

    /// Per-reason quarantine report of the site's `ce.log`.
    pub fn quarantine(&self) -> &Quarantine {
        self.source.quarantine()
    }

    /// `ce.log` bytes read so far by this engine (after a resume, from
    /// the checkpoint's position on).
    pub fn bytes_read(&self) -> usize {
        self.source.bytes_read()
    }

    /// The checkpoint path in effect, if any.
    pub fn checkpoint_path(&self) -> Option<&PathBuf> {
        self.opts.checkpoint_path.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::report_analysis_body;
    use crate::stream::stream_analyze;
    use crate::stream::tests::{append, written_dataset, TempDirGuard};
    use astra_logs::binfmt::{LogFormat, HEADER_LEN};

    #[test]
    fn newline_less_last_line_is_ingested_once_its_newline_lands() {
        let (ds, guard) = written_dataset("site-newline");
        let ce = guard.0.join("ce.log");
        let mut bytes = std::fs::read(&ce).unwrap();
        assert_eq!(bytes.pop(), Some(b'\n'));
        std::fs::write(&ce, &bytes).unwrap();
        let n = ds.sim.ce_log.len() as u64;
        let opts = StreamOptions {
            checkpoint_path: Some(guard.0.join("site.ckpt")),
            ..StreamOptions::default()
        };

        // The last line may be an append in progress: held back, in
        // this life and after a checkpoint and restart alike.
        let mut engine = SiteEngine::open(&guard.0, ds.system, &opts).unwrap();
        engine.poll().unwrap();
        assert_eq!(engine.consumed()[0], n - 1);
        assert!(engine.checkpoint().unwrap());
        drop(engine);
        let mut engine = SiteEngine::open(&guard.0, ds.system, &opts).unwrap();
        assert!(engine.resumed());
        assert_eq!(engine.poll().unwrap(), 0);
        assert_eq!(engine.consumed()[0], n - 1);
        // A one-shot read takes EOF as final and parses the line as-is.
        let oneshot = stream_analyze(&guard.0, ds.system, &StreamOptions::default())
            .unwrap()
            .expect("no stop requested");
        assert_eq!(oneshot.ces, n);

        // Its newline lands: the record is in, and the report converges
        // on the one-shot engine's.
        append(&ce, b"\n");
        assert_eq!(engine.poll().unwrap(), 1);
        assert_eq!(engine.consumed()[0], n);
        let oneshot = stream_analyze(&guard.0, ds.system, &StreamOptions::default())
            .unwrap()
            .expect("no stop requested");
        assert_eq!(
            report_analysis_body(&engine.report()),
            report_analysis_body(&oneshot)
        );
    }

    #[test]
    fn a_site_whose_log_starts_empty_reads_it_as_it_grows() {
        // The site opens before its writer has put down a byte. Pieces
        // cut inside the binlog magic, inside the header and inside the
        // first block (or line), each polled as it lands: the format is
        // chosen once the magic is there, and the result is analyze's.
        let ds = crate::pipeline::Dataset::generate(1, 42);
        for format in [LogFormat::Binary, LogFormat::Text] {
            let guard = TempDirGuard::new("site-empty");
            ds.write_logs_as(&guard.0, format).unwrap();
            let ce = guard.0.join("ce.log");
            let log = std::fs::read(&ce).unwrap();
            std::fs::write(&ce, b"").unwrap();
            let mut engine = SiteEngine::open(&guard.0, ds.system, &StreamOptions::default())
                .unwrap_or_else(|e| panic!("{format:?}: {e}"));
            let cuts = [0, 4, 16, HEADER_LEN + 40, log.len() / 2, log.len()];
            for piece in cuts.windows(2) {
                append(&ce, &log[piece[0]..piece[1]]);
                engine
                    .poll()
                    .unwrap_or_else(|e| panic!("{format:?} at {}: {e}", piece[1]));
            }
            assert!(engine.quarantine().is_empty(), "{format:?}");
            assert_eq!(engine.consumed()[0], ds.sim.ce_log.len() as u64);
            let oneshot = stream_analyze(&guard.0, ds.system, &StreamOptions::default())
                .unwrap()
                .expect("no stop requested");
            assert_eq!(
                report_analysis_body(&engine.report()),
                report_analysis_body(&oneshot),
                "{format:?}"
            );
        }
    }
}
