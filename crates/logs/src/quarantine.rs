//! Quarantine taxonomy and ingest policy for corruption-tolerant parsing.
//!
//! The paper's §2.3 is blunt about field data: records arrive through a
//! lossy, bounded kernel log buffer and get dropped, truncated, and
//! interleaved with foreign producers. The readers in [`crate::io`]
//! therefore never assume byte-perfect input; every line that fails to
//! parse is *quarantined* under a typed reason from
//! [`QuarantineReason`], and an [`IngestOptions`] policy decides whether
//! that aborts the run (strict — the default, so silent data loss cannot
//! creep into a published analysis) or is tolerated up to an error budget
//! (lenient, `--max-bad-frac`).

use std::fmt;

/// Why a line was quarantined instead of parsed.
///
/// The taxonomy mirrors how production logs actually go wrong (§2.3 and
/// the field studies in PAPERS.md): truncation at buffer/file boundaries,
/// binary garbage from torn writes, foreign producers sharing the
/// transport, values outside the machine's shape, and records displaced
/// out of a log's time order (late flushes, duplicated retransmissions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QuarantineReason {
    /// The line is recognizably one of ours but ends before all required
    /// fields are present (e.g. the final line of a log cut mid-write).
    Truncated,
    /// The line is not valid UTF-8.
    BadUtf8,
    /// The line does not match any recognizable record shape (foreign
    /// syslog producers, freeform corruption).
    UnknownFormat,
    /// All fields are present but at least one value fails validation
    /// (unparseable number, rank/socket out of the machine's shape).
    FieldOutOfRange,
    /// The record parsed but its timestamp precedes an earlier record of
    /// the same time-sorted log — a displaced or duplicated record.
    OutOfOrder,
    /// A binary file whose leading magic bytes are not the
    /// `astra-binlog` signature (or the header itself is cut short).
    BadMagic,
    /// An `astra-binlog` header with an unsupported version or a header
    /// checksum mismatch.
    BadVersion,
    /// A binary column block whose CRC-32 trailer does not match its
    /// payload, or whose payload fails to decode.
    BlockCrc,
    /// A binary column block cut short by EOF (torn tail write).
    TruncatedBlock,
}

impl QuarantineReason {
    /// All reasons, in stable report order.
    pub const ALL: [QuarantineReason; 9] = [
        QuarantineReason::Truncated,
        QuarantineReason::BadUtf8,
        QuarantineReason::UnknownFormat,
        QuarantineReason::FieldOutOfRange,
        QuarantineReason::OutOfOrder,
        QuarantineReason::BadMagic,
        QuarantineReason::BadVersion,
        QuarantineReason::BlockCrc,
        QuarantineReason::TruncatedBlock,
    ];

    /// Dense index, 0..9.
    pub fn index(self) -> usize {
        match self {
            QuarantineReason::Truncated => 0,
            QuarantineReason::BadUtf8 => 1,
            QuarantineReason::UnknownFormat => 2,
            QuarantineReason::FieldOutOfRange => 3,
            QuarantineReason::OutOfOrder => 4,
            QuarantineReason::BadMagic => 5,
            QuarantineReason::BadVersion => 6,
            QuarantineReason::BlockCrc => 7,
            QuarantineReason::TruncatedBlock => 8,
        }
    }

    /// Stable kebab-case token used in reports, metrics names
    /// (`ingest.quarantined.<name>`), and the fsck/chaos output that CI
    /// diffs against each other.
    pub fn name(self) -> &'static str {
        match self {
            QuarantineReason::Truncated => "truncated",
            QuarantineReason::BadUtf8 => "bad-utf8",
            QuarantineReason::UnknownFormat => "unknown-format",
            QuarantineReason::FieldOutOfRange => "field-out-of-range",
            QuarantineReason::OutOfOrder => "out-of-order",
            QuarantineReason::BadMagic => "bad-magic",
            QuarantineReason::BadVersion => "bad-version",
            QuarantineReason::BlockCrc => "block-crc",
            QuarantineReason::TruncatedBlock => "truncated-block",
        }
    }

    /// True for reasons produced by the binary read path, whose sample
    /// positions are byte offsets rather than line numbers.
    pub fn is_binary(self) -> bool {
        matches!(
            self,
            QuarantineReason::BadMagic
                | QuarantineReason::BadVersion
                | QuarantineReason::BlockCrc
                | QuarantineReason::TruncatedBlock
        )
    }
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How many quarantined-line samples are kept per reason (enough for a
/// diagnostic report, bounded so a pathologically corrupt multi-GB log
/// cannot balloon memory).
pub const MAX_SAMPLES_PER_REASON: usize = 3;

/// Longest snippet of a quarantined line kept in a sample.
const MAX_SNIPPET_BYTES: usize = 96;

/// One retained example of a quarantined line (or, for binary files, a
/// quarantined block).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedLine {
    /// 1-based line number within the source file. For binary reasons
    /// ([`QuarantineReason::is_binary`]) this is instead the **byte
    /// offset** of the damaged header or block.
    pub line_no: u64,
    /// Why it was quarantined.
    pub reason: QuarantineReason,
    /// Up to [`MAX_SNIPPET_BYTES`] of the line, lossily decoded.
    pub snippet: String,
}

/// Aggregated quarantine outcome of one parse pass: per-reason counts
/// plus a bounded set of example lines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Quarantine {
    /// Count per [`QuarantineReason::index`].
    pub counts: [u64; 9],
    /// Retained examples, at most [`MAX_SAMPLES_PER_REASON`] per reason,
    /// grouped by reason in [`QuarantineReason::ALL`] order and in
    /// encounter order within a reason. How a file was cut into chunks
    /// or shards changes the order reasons are met in, not this order.
    pub samples: Vec<QuarantinedLine>,
}

impl Quarantine {
    /// Total quarantined lines across all reasons.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// True when nothing was quarantined.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Count for one reason.
    pub fn count(&self, reason: QuarantineReason) -> u64 {
        self.counts[reason.index()]
    }

    /// Record one quarantined line, keeping its snippet if the reason's
    /// sample quota is not yet full.
    pub fn note(&mut self, line_no: u64, reason: QuarantineReason, raw: &[u8]) {
        self.counts[reason.index()] += 1;
        if let Some(at) = self.sample_slot(reason) {
            let cut = raw.len().min(MAX_SNIPPET_BYTES);
            self.samples.insert(
                at,
                QuarantinedLine {
                    line_no,
                    reason,
                    snippet: String::from_utf8_lossy(&raw[..cut]).into_owned(),
                },
            );
        }
    }

    /// Keep `sample` (counts unchanged) if its reason's quota is not yet
    /// full, after the samples of its reason already kept.
    pub fn keep_sample(&mut self, sample: QuarantinedLine) {
        if let Some(at) = self.sample_slot(sample.reason) {
            self.samples.insert(at, sample);
        }
    }

    /// Where the next sample of `reason` goes, or `None` when its quota
    /// is full.
    fn sample_slot(&self, reason: QuarantineReason) -> Option<usize> {
        let end = self.samples.partition_point(|s| s.reason <= reason);
        let kept = self.samples[..end]
            .iter()
            .rev()
            .take_while(|s| s.reason == reason)
            .count();
        (kept < MAX_SAMPLES_PER_REASON).then_some(end)
    }

    /// Fold another quarantine (from a later slice of the same file, or
    /// another file) into this one. Sample quotas still apply.
    pub fn merge(&mut self, other: &Quarantine) {
        for reason in QuarantineReason::ALL {
            self.counts[reason.index()] += other.counts[reason.index()];
        }
        for s in &other.samples {
            self.keep_sample(s.clone());
        }
    }

    /// One-line count summary, the shared format of `fsck` and `chaos`
    /// reports: `(truncated 1, bad-utf8 2, ...)` listing only nonzero
    /// reasons, or `(clean)` when empty.
    pub fn summary(&self) -> String {
        if self.is_empty() {
            return "(clean)".into();
        }
        let parts: Vec<String> = QuarantineReason::ALL
            .iter()
            .filter(|r| self.count(**r) > 0)
            .map(|r| format!("{} {}", r.name(), self.count(*r)))
            .collect();
        format!("({})", parts.join(", "))
    }

    /// One report line for a named file, the shared shape of `fsck`
    /// output and the chaos manifest (so CI can diff them):
    /// `ce.log: quarantined 7 (truncated 1, ...)` or `ce.log: clean`.
    pub fn report_line(&self, name: &str) -> String {
        if self.is_empty() {
            format!("{name}: clean")
        } else {
            format!("{name}: quarantined {} {}", self.total(), self.summary())
        }
    }

    /// Multi-line sample listing for diagnostic reports (empty string
    /// when no samples were kept). Binary-format samples report the byte
    /// offset of the damaged block instead of a line number.
    pub fn sample_lines(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in &self.samples {
            if s.reason.is_binary() {
                let _ = writeln!(
                    out,
                    "    offset {:#x}: [{}] {:?}",
                    s.line_no, s.reason, s.snippet
                );
            } else {
                let _ = writeln!(
                    out,
                    "    line {}: [{}] {:?}",
                    s.line_no, s.reason, s.snippet
                );
            }
        }
        out
    }
}

/// Strictness of the ingest path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IngestMode {
    /// Abort with a typed corruption report on the first quarantined
    /// line. The default: an analysis pipeline must not silently drop
    /// data unless the operator opted in.
    Strict,
    /// Quarantine bad lines and keep going, as long as the quarantined
    /// fraction of each file stays within `max_bad_frac` (checked at end
    /// of file; exceeding the budget aborts with the same typed report).
    Lenient {
        /// Largest tolerated `quarantined / total_lines` per file.
        max_bad_frac: f64,
    },
}

/// Default error budget when lenient mode is requested without an
/// explicit `--max-bad-frac`.
pub const DEFAULT_MAX_BAD_FRAC: f64 = 0.05;

/// Retry policy for transient I/O errors while reading a log.
///
/// `ErrorKind::Interrupted` is always retried (stdlib convention, costs
/// nothing); any other read error is retried up to `max_retries` times
/// with exponential backoff starting at `backoff_base_ms`, then surfaces
/// to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failure before giving up.
    pub max_retries: u32,
    /// First backoff sleep in milliseconds; doubles per retry. Zero
    /// disables sleeping (tests).
    pub backoff_base_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            backoff_base_ms: 1,
        }
    }
}

/// The full ingest policy: strictness plus I/O retry behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestOptions {
    /// Strict or lenient quarantine handling.
    pub mode: IngestMode,
    /// Transient I/O retry policy.
    pub retry: RetryPolicy,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            mode: IngestMode::Strict,
            retry: RetryPolicy::default(),
        }
    }
}

impl IngestOptions {
    /// Lenient ingest with the given (or default) error budget.
    pub fn lenient(max_bad_frac: Option<f64>) -> Self {
        IngestOptions {
            mode: IngestMode::Lenient {
                max_bad_frac: max_bad_frac.unwrap_or(DEFAULT_MAX_BAD_FRAC),
            },
            retry: RetryPolicy::default(),
        }
    }

    /// True when any quarantining at all must abort.
    pub fn is_strict(&self) -> bool {
        matches!(self.mode, IngestMode::Strict)
    }

    /// The error budget, `0.0` under strict mode.
    pub fn max_bad_frac(&self) -> f64 {
        match self.mode {
            IngestMode::Strict => 0.0,
            IngestMode::Lenient { max_bad_frac } => max_bad_frac,
        }
    }

    /// The one strict/lenient decision: whether a read that has parsed
    /// `parsed` records and quarantined `quarantine` must stop. Strict
    /// refuses any quarantined unit at once; lenient refuses only at
    /// `end` of the log (in tail mode, the end as currently visible),
    /// when the quarantined share of all units exceeds the budget.
    pub fn refuses(&self, parsed: u64, quarantine: &Quarantine, end: bool) -> bool {
        let bad = quarantine.total();
        bad > 0
            && (self.is_strict() || end && bad as f64 / (parsed + bad) as f64 > self.max_bad_frac())
    }
}

/// Everything the generic reader needs to ingest one record type: the
/// parser, the failed-line classifier, and (for time-sorted logs) the
/// monotone ordering key that powers out-of-order detection.
///
/// Plain function pointers so the descriptor is `Copy` and storable in
/// reader state without generics gymnastics.
pub struct LineFormat<T> {
    /// Parse one line, `None` when it is not a valid record.
    pub parse: fn(&str) -> Option<T>,
    /// Classify a line `parse` rejected (never sees parseable lines).
    pub classify: fn(&str) -> QuarantineReason,
    /// Monotone sort key for time-sorted logs (`None` for logs with no
    /// ordering contract, e.g. node-major `sensors.log`). A record whose
    /// key is *strictly below* the running maximum is quarantined
    /// [`QuarantineReason::OutOfOrder`]; equal keys are fine — real logs
    /// legitimately carry many records per minute.
    pub order_key: Option<fn(&T) -> i64>,
}

// Derived impls would put bounds on T; these are plain fn pointers.
impl<T> Clone for LineFormat<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for LineFormat<T> {}

impl<T> std::fmt::Debug for LineFormat<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LineFormat")
            .field("ordered", &self.order_key.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_counts_and_bounds_samples() {
        let mut q = Quarantine::default();
        for i in 0..10 {
            q.note(i + 1, QuarantineReason::BadUtf8, b"\xFF\xFEjunk");
        }
        q.note(99, QuarantineReason::Truncated, b"partial reco");
        assert_eq!(q.count(QuarantineReason::BadUtf8), 10);
        assert_eq!(q.count(QuarantineReason::Truncated), 1);
        assert_eq!(q.total(), 11);
        let utf8_samples = q
            .samples
            .iter()
            .filter(|s| s.reason == QuarantineReason::BadUtf8)
            .count();
        assert_eq!(utf8_samples, MAX_SAMPLES_PER_REASON);
    }

    #[test]
    fn samples_are_grouped_by_reason_whatever_the_arrival_order() {
        // One file's damage, met in file order and as two shards that
        // each report out-of-order records before parse failures.
        let lines = [
            (1, QuarantineReason::UnknownFormat),
            (2, QuarantineReason::OutOfOrder),
            (3, QuarantineReason::Truncated),
            (4, QuarantineReason::OutOfOrder),
            (5, QuarantineReason::UnknownFormat),
        ];
        let mut one_pass = Quarantine::default();
        for (no, reason) in lines {
            one_pass.note(no, reason, b"x");
        }
        let mut sharded = Quarantine::default();
        for shard in [&lines[..3], &lines[3..]] {
            let mut q = Quarantine::default();
            for &(no, reason) in shard.iter().filter(|l| l.1 == QuarantineReason::OutOfOrder) {
                q.note(no, reason, b"x");
            }
            for &(no, reason) in shard.iter().filter(|l| l.1 != QuarantineReason::OutOfOrder) {
                q.note(no, reason, b"x");
            }
            sharded.merge(&q);
        }
        assert_eq!(sharded, one_pass);
        let order: Vec<u64> = one_pass.samples.iter().map(|s| s.line_no).collect();
        assert_eq!(order, [3, 1, 5, 2, 4]);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = Quarantine::default();
        a.note(1, QuarantineReason::UnknownFormat, b"sshd stuff");
        let mut b = Quarantine::default();
        b.note(7, QuarantineReason::UnknownFormat, b"ntpd stuff");
        b.note(8, QuarantineReason::OutOfOrder, b"late record");
        a.merge(&b);
        assert_eq!(a.count(QuarantineReason::UnknownFormat), 2);
        assert_eq!(a.count(QuarantineReason::OutOfOrder), 1);
        assert_eq!(a.samples.len(), 3);
    }

    #[test]
    fn summary_lists_only_nonzero() {
        let mut q = Quarantine::default();
        assert_eq!(q.summary(), "(clean)");
        q.note(1, QuarantineReason::Truncated, b"x");
        q.note(2, QuarantineReason::Truncated, b"y");
        q.note(3, QuarantineReason::OutOfOrder, b"z");
        assert_eq!(q.summary(), "(truncated 2, out-of-order 1)");
    }

    #[test]
    fn snippet_is_lossy_and_bounded() {
        let mut q = Quarantine::default();
        let long: Vec<u8> = std::iter::repeat_n(0xFFu8, 500).collect();
        q.note(1, QuarantineReason::BadUtf8, &long);
        assert!(q.samples[0].snippet.chars().count() <= 96);
    }

    #[test]
    fn policy_accessors() {
        let strict = IngestOptions::default();
        assert!(strict.is_strict());
        assert_eq!(strict.max_bad_frac(), 0.0);
        let lenient = IngestOptions::lenient(None);
        assert!(!lenient.is_strict());
        assert_eq!(lenient.max_bad_frac(), DEFAULT_MAX_BAD_FRAC);
        let custom = IngestOptions::lenient(Some(0.5));
        assert_eq!(custom.max_bad_frac(), 0.5);
    }
}
